// psltool: a command-line front end for the library.
//
//   psltool lookup <host> [list-file]        suffix / site / rule for a host
//   psltool check-cookie <origin-url> <set-cookie-header> [list-file]
//   psltool check-cert <pattern> [list-file] wildcard issuance verdict
//   psltool diff <old-list-file> <new-list-file>
//   psltool scan <directory>                 audit embedded PSL copies
//   psltool gen-list [YYYY-MM-DD]            emit a synthetic snapshot
//   psltool store build <out.pstore> [--tiny] [--max-versions N]
//                       [--list YYYY-MM-DD:FILE ...]
//                                            build a multi-version store file
//   psltool store stat <file.pstore>         store layout + dedup report
//   psltool census gen <out.csv> [--full]    emit a synthetic request corpus
//   psltool census replay <file.csv> <addr:port> [--batch N]
//                                            stream the corpus at a psld
//                                            --analytics census over the wire
//
// Without a list-file argument, commands run against the newest synthetic
// list (the full 9,368-rule 2022-10-20 snapshot). `store build` with no
// --list entries packs the synthetic history itself (every version, or the
// 96-version tiny timeline with --tiny); with --list entries it packs those
// dated PSL text files instead, oldest date first.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "psl/archive/corpus.hpp"
#include "psl/archive/csv.hpp"
#include "psl/history/timeline.hpp"
#include "psl/net/client.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/lint.hpp"
#include "psl/repos/scanner.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/tls/wildcard.hpp"
#include "psl/url/url.hpp"
#include "psl/util/date.hpp"
#include "psl/util/strings.hpp"
#include "psl/web/cookie_jar.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psltool <command> [args]\n"
               "  lookup <host> [list-file]\n"
               "  check-cookie <origin-url> <set-cookie-header> [list-file]\n"
               "  check-cert <pattern> [list-file]\n"
               "  diff <old-list-file> <new-list-file>\n"
               "  lint <list-file>\n"
               "  scan <directory>\n"
               "  advise <directory>\n"
               "  gen-list [YYYY-MM-DD]\n"
               "  store build <out.pstore> [--tiny] [--max-versions N]\n"
               "              [--list YYYY-MM-DD:FILE ...]\n"
               "  store stat <file.pstore>\n"
               "  census gen <out.csv> [--full]\n"
               "  census replay <file.csv> <addr:port> [--batch N]\n");
  return 2;
}

const psl::history::History& history() {
  static const psl::history::History h =
      psl::history::generate_history(psl::history::TimelineSpec{});
  return h;
}

std::optional<psl::List> load_list(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "psltool: cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = psl::List::parse(buf.str());
  if (!parsed) {
    std::fprintf(stderr, "psltool: %s: %s\n", path, parsed.error().message.c_str());
    return std::nullopt;
  }
  return *std::move(parsed);
}

int cmd_lookup(int argc, char** argv) {
  if (argc < 3) return usage();
  auto host = psl::url::Host::parse(argv[2]);
  if (!host) {
    std::fprintf(stderr, "psltool: bad host: %s\n", host.error().message.c_str());
    return 1;
  }
  if (host->is_ip()) {
    std::printf("%s is an IP literal: no public suffix; it is its own site\n",
                host->name().c_str());
    return 0;
  }

  const auto run = [&](const psl::List& list) {
    const psl::Match m = list.match(host->name());
    std::printf("host:               %s\n", host->name().c_str());
    std::printf("public suffix:      %s\n", m.public_suffix.c_str());
    std::printf("registrable domain: %s\n",
                m.registrable_domain.empty() ? "(host is a public suffix)"
                                             : m.registrable_domain.c_str());
    std::printf("prevailing rule:    %s\n",
                m.prevailing_rule.empty() ? "(implicit *)" : m.prevailing_rule.c_str());
    std::printf("rule section:       %s\n",
                !m.matched_explicit_rule ? "-"
                : m.section == psl::Section::kPrivate ? "PRIVATE"
                                                      : "ICANN");
  };

  if (argc > 3) {
    const auto list = load_list(argv[3]);
    if (!list) return 1;
    run(*list);
  } else {
    run(history().latest());
  }
  return 0;
}

int cmd_check_cookie(int argc, char** argv) {
  if (argc < 4) return usage();
  auto origin = psl::url::Url::parse(argv[2]);
  if (!origin) {
    std::fprintf(stderr, "psltool: bad origin URL: %s\n", origin.error().message.c_str());
    return 1;
  }

  const auto run = [&](const psl::List& list) {
    psl::web::CookieJar jar(list);
    const auto outcome = jar.set_from_header(*origin, argv[3]);
    std::printf("origin:   %s\n", origin->to_string().c_str());
    std::printf("header:   %s\n", argv[3]);
    std::printf("verdict:  %s\n", std::string(to_string(outcome)).c_str());
    if (outcome == psl::web::SetCookieOutcome::kStored) {
      const psl::web::Cookie& c = jar.cookies().front();
      std::printf("stored:   %s=%s; domain=%s%s; path=%s\n", c.name.c_str(), c.value.c_str(),
                  c.host_only ? "" : ".", c.domain.c_str(), c.path.c_str());
    }
    return outcome == psl::web::SetCookieOutcome::kStored ? 0 : 1;
  };

  if (argc > 4) {
    const auto list = load_list(argv[4]);
    if (!list) return 1;
    return run(*list);
  }
  return run(history().latest());
}

int cmd_check_cert(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto run = [&](const psl::List& list) {
    const auto verdict = psl::tls::check_issuance(list, argv[2]);
    std::printf("pattern: %s\nverdict: %s\n", argv[2],
                std::string(to_string(verdict)).c_str());
    return verdict == psl::tls::IssuanceVerdict::kOk ? 0 : 1;
  };
  if (argc > 3) {
    const auto list = load_list(argv[3]);
    if (!list) return 1;
    return run(*list);
  }
  return run(history().latest());
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto old_list = load_list(argv[2]);
  const auto new_list = load_list(argv[3]);
  if (!old_list || !new_list) return 1;

  const auto [added, removed] = old_list->diff(*new_list);
  std::printf("%s: %zu rules\n%s: %zu rules\n", argv[2], old_list->rule_count(), argv[3],
              new_list->rule_count());
  std::printf("added (%zu):\n", added.size());
  for (const auto& rule : added) std::printf("  + %s\n", rule.to_string().c_str());
  std::printf("removed (%zu):\n", removed.size());
  for (const auto& rule : removed) std::printf("  - %s\n", rule.to_string().c_str());
  return added.empty() && removed.empty() ? 0 : 1;
}

int cmd_lint(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto list = load_list(argv[2]);
  if (!list) return 1;
  const auto findings = psl::lint(*list);
  if (findings.empty()) {
    std::printf("%s: %zu rules, no lint findings\n", argv[2], list->rule_count());
    return 0;
  }
  for (const auto& f : findings) {
    std::printf("%s: %s: %s (%s)\n",
                f.severity == psl::LintSeverity::kError ? "error" : "warning",
                std::string(to_string(f.code)).c_str(), f.rule_text.c_str(),
                f.detail.c_str());
  }
  return 1;
}

int cmd_advise(int argc, char** argv) {
  if (argc < 3) return usage();
  const psl::repos::Scanner scanner(history());
  const auto findings = scanner.scan(argv[2]);
  if (!findings) {
    std::fprintf(stderr, "psltool: %s\n", findings.error().message.c_str());
    return 1;
  }
  for (const auto& f : *findings) {
    if (f.missing_rule_count == 0) continue;
    std::printf("%s\n%s\n", std::string(72, '=').c_str(),
                psl::repos::advisory_text(f).c_str());
  }
  return 0;
}

int cmd_scan(int argc, char** argv) {
  if (argc < 3) return usage();
  const psl::repos::Scanner scanner(history());
  const auto findings = scanner.scan(argv[2]);
  if (!findings) {
    std::fprintf(stderr, "psltool: %s\n", findings.error().message.c_str());
    return 1;
  }
  if (findings->empty()) {
    std::printf("no embedded PSL copies under %s\n", argv[2]);
    return 0;
  }
  for (const auto& f : *findings) {
    std::printf("%s\n  usage=%s rules=%zu", f.path.string().c_str(),
                std::string(to_string(f.classified_usage)).c_str(), f.rule_count);
    if (f.estimated_age_days) std::printf(" age=%dd", *f.estimated_age_days);
    std::printf(" missing=%zu\n", f.missing_rule_count);
  }
  return 0;
}

int cmd_gen_list(int argc, char** argv) {
  psl::List snapshot = [&] {
    if (argc > 2) {
      const auto date = psl::util::Date::parse(argv[2]);
      if (!date) {
        std::fprintf(stderr, "psltool: bad date %s (want YYYY-MM-DD)\n", argv[2]);
        std::exit(1);
      }
      return history().snapshot_at(*date);
    }
    return history().snapshot(history().version_count() - 1);
  }();
  std::fputs(snapshot.to_file().c_str(), stdout);
  return 0;
}

int cmd_store_build(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string out_path = argv[3];
  bool tiny = false;
  std::size_t max_versions = 0;  // 0 = unlimited
  struct DatedList {
    psl::util::Date date{0};
    std::string path;
  };
  std::vector<DatedList> lists;
  for (int i = 4; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--max-versions") {
      if (i + 1 >= argc) return usage();
      max_versions = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--list") {
      if (i + 1 >= argc) return usage();
      const std::string_view spec = argv[++i];
      const std::size_t colon = spec.find(':');
      if (colon == std::string_view::npos) {
        std::fprintf(stderr, "psltool: bad --list spec %s (want YYYY-MM-DD:FILE)\n",
                     std::string(spec).c_str());
        return 1;
      }
      const auto date = psl::util::Date::parse(std::string(spec.substr(0, colon)));
      if (!date) {
        std::fprintf(stderr, "psltool: bad date in --list spec %s\n",
                     std::string(spec).c_str());
        return 1;
      }
      lists.push_back({*date, std::string(spec.substr(colon + 1))});
    } else {
      std::fprintf(stderr, "psltool: unknown store build argument %s\n", argv[i]);
      return usage();
    }
  }

  psl::store::Builder builder;
  const auto add = [&](const psl::List& list, psl::util::Date date) -> bool {
    psl::snapshot::Metadata meta;
    meta.source_date = date;
    meta.rule_count = list.rule_count();
    const auto added = builder.add(psl::CompiledMatcher(list), meta);
    if (!added) {
      std::fprintf(stderr, "psltool: store add (%s) failed: %s (%s)\n",
                   date.to_string().c_str(), added.error().message.c_str(),
                   added.error().code.c_str());
      return false;
    }
    return true;
  };

  if (!lists.empty()) {
    // Builder requires strictly increasing dates; accept specs in any order.
    std::sort(lists.begin(), lists.end(),
              [](const DatedList& a, const DatedList& b) { return a.date < b.date; });
    for (const auto& entry : lists) {
      const auto list = load_list(entry.path.c_str());
      if (!list) return 1;
      if (!add(*list, entry.date)) return 1;
      if (max_versions != 0 && builder.version_count() >= max_versions) break;
    }
  } else {
    psl::history::TimelineSpec spec;
    if (tiny) spec = psl::history::TimelineSpec::tiny();
    const auto h = psl::history::generate_history(spec);
    std::size_t count = h.version_count();
    if (max_versions != 0 && max_versions < count) count = max_versions;
    for (std::size_t v = 0; v < count; ++v) {
      if (!add(h.snapshot(v), h.version_date(v))) return 1;
    }
  }

  const auto written = builder.write_file(out_path);
  if (!written) {
    std::fprintf(stderr, "psltool: store write failed: %s (%s)\n",
                 written.error().message.c_str(), written.error().code.c_str());
    return 1;
  }
  const auto s = builder.stats();
  std::printf("wrote %s: %llu versions, %llu bytes (%.1f%% of %llu standalone bytes)\n",
              out_path.c_str(), static_cast<unsigned long long>(s.version_count),
              static_cast<unsigned long long>(*written), 100.0 * s.dedup_ratio(),
              static_cast<unsigned long long>(s.standalone_bytes));
  return 0;
}

int cmd_store_stat(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto view = psl::store::StoreView::open(argv[3]);
  if (!view) {
    std::fprintf(stderr, "psltool: %s: %s (%s)\n", argv[3],
                 view.error().message.c_str(), view.error().code.c_str());
    return 1;
  }
  const psl::store::Stats s = (*view)->stats();
  std::printf("%s\n", argv[3]);
  std::printf("  versions:  %llu (%s .. %s)\n",
              static_cast<unsigned long long>(s.version_count),
              (*view)->version_date(0).to_string().c_str(),
              (*view)->version_date((*view)->version_count() - 1).to_string().c_str());
  std::printf("  file:      %llu bytes (%.1f%% of %llu standalone bytes)\n",
              static_cast<unsigned long long>(s.file_bytes), 100.0 * s.dedup_ratio(),
              static_cast<unsigned long long>(s.standalone_bytes));
  std::printf("  temporal:  %llu bytes (union arena + change points)\n",
              static_cast<unsigned long long>(s.temporal_bytes));
  std::printf("  newest:    %llu rules\n",
              static_cast<unsigned long long>(
                  (*view)->rule_count((*view)->version_count() - 1)));
  return 0;
}

int cmd_census_gen(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string out_path = argv[3];
  bool full = false;
  for (int i = 4; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--full") {
      full = true;
    } else {
      std::fprintf(stderr, "psltool: unknown census gen argument %s\n", argv[i]);
      return usage();
    }
  }
  const auto spec = full ? psl::archive::CorpusSpec{} : psl::archive::CorpusSpec::tiny();
  const auto corpus = psl::archive::generate_corpus(spec, history());
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "psltool: cannot write %s\n", out_path.c_str());
    return 1;
  }
  psl::archive::write_csv(corpus, out);
  if (!out.flush()) {
    std::fprintf(stderr, "psltool: write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu hosts, %zu requests\n", out_path.c_str(),
              corpus.unique_host_count(), corpus.request_count());
  return 0;
}

// Stream an archive CSV corpus at a psld --analytics census: each request
// becomes one (page_host, resource_host) record, timestamped with its
// record index so the census observes a deterministic monotonic clock.
int cmd_census_replay(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string csv_path = argv[3];
  const std::string_view endpoint = argv[4];
  std::size_t batch_size = 1024;
  for (int i = 5; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--batch" && i + 1 < argc) {
      const long parsed = std::atol(argv[++i]);
      if (parsed < 1) {
        std::fprintf(stderr, "psltool: bad --batch value\n");
        return 1;
      }
      batch_size = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr, "psltool: unknown census replay argument %s\n", argv[i]);
      return usage();
    }
  }

  std::ifstream in(csv_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "psltool: cannot open %s\n", csv_path.c_str());
    return 1;
  }
  auto corpus = psl::archive::read_csv(in);
  if (!corpus) {
    std::fprintf(stderr, "psltool: %s: %s\n", csv_path.c_str(),
                 corpus.error().message.c_str());
    return 1;
  }

  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == endpoint.size()) {
    std::fprintf(stderr, "psltool: bad endpoint (want ADDR:PORT): %s\n",
                 std::string(endpoint).c_str());
    return 1;
  }
  const long port = std::atol(std::string(endpoint.substr(colon + 1)).c_str());
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "psltool: bad port in %s\n", std::string(endpoint).c_str());
    return 1;
  }
  auto client = psl::net::Client::connect(std::string(endpoint.substr(0, colon)),
                                          static_cast<std::uint16_t>(port));
  if (!client) {
    std::fprintf(stderr, "psltool: %s\n", client.error().message.c_str());
    return 1;
  }

  const auto& requests = corpus->requests();
  std::vector<psl::net::WireIngestRecord> batch;
  batch.reserve(batch_size);
  std::uint64_t sent = 0;
  std::uint64_t first_generation = 0, last_generation = 0;
  for (std::size_t offset = 0; offset < requests.size(); offset += batch_size) {
    const std::size_t end = std::min(offset + batch_size, requests.size());
    batch.clear();
    for (std::size_t i = offset; i < end; ++i) {
      batch.push_back(psl::net::WireIngestRecord{corpus->hostname(requests[i].page_host),
                                                 corpus->hostname(requests[i].resource_host),
                                                 static_cast<std::uint64_t>(i)});
    }
    for (;;) {
      auto ack = client->ingest_batch(batch);
      if (!ack) {
        if (ack.error().code == "net.backpressure") {
          // Engine queue full: nothing was ingested, retry the same batch.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        std::fprintf(stderr, "psltool: ingest failed at record %zu: %s (%s)\n", offset,
                     ack.error().message.c_str(), ack.error().code.c_str());
        return 1;
      }
      sent += ack->accepted;
      if (first_generation == 0) first_generation = ack->generation;
      last_generation = ack->generation;
      break;
    }
  }
  std::printf("replayed %llu records from %s (generation %llu..%llu)\n",
              static_cast<unsigned long long>(sent), csv_path.c_str(),
              static_cast<unsigned long long>(first_generation),
              static_cast<unsigned long long>(last_generation));
  return 0;
}

int cmd_census(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view sub = argv[2];
  if (sub == "gen") return cmd_census_gen(argc, argv);
  if (sub == "replay") return cmd_census_replay(argc, argv);
  return usage();
}

int cmd_store(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view sub = argv[2];
  if (sub == "build") return cmd_store_build(argc, argv);
  if (sub == "stat") return cmd_store_stat(argc, argv);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  if (command == "lookup") return cmd_lookup(argc, argv);
  if (command == "check-cookie") return cmd_check_cookie(argc, argv);
  if (command == "check-cert") return cmd_check_cert(argc, argv);
  if (command == "diff") return cmd_diff(argc, argv);
  if (command == "lint") return cmd_lint(argc, argv);
  if (command == "scan") return cmd_scan(argc, argv);
  if (command == "advise") return cmd_advise(argc, argv);
  if (command == "gen-list") return cmd_gen_list(argc, argv);
  if (command == "store") return cmd_store(argc, argv);
  if (command == "census") return cmd_census(argc, argv);
  return usage();
}
