// bench_layers: the layered performance ledger for psld.
//
//   bench_layers [--psld PATH] [--workload NAME] [--seed N] [--seconds S]
//                [--trace [0|1]] [--smoke] [--out DIR]
//
// --psld defaults to the psld built beside this binary.
//
// Untraced, each workload boots its own `psld --listen 127.0.0.1:0
// --threads 2` (nine times, to time set-up; the last boot serves), warms up
// for 2 s, measures for S seconds and stops psld with SIGTERM. With --trace
// the same inputs run through the per-layer ladder instead (ladder.cpp).
// Every answer is checked against the oracle (inputs.cpp). Without
// --workload all five workloads run. Results print as a table, land in
// DIR/BENCH_layers.json (and DIR/BENCH_layers.trace.json when traced), and,
// when one workload ran, the last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
//
// --smoke: every workload for 0.5 s on the 96-version tiny history; exits
// non-zero on any wrong answer. The generator guards only warn there, since
// a smoke test shares its machine with other tests.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "layers.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/stats.hpp"

namespace psl::bench::layers {
namespace {

struct Options {
  std::string psld = BENCH_LAYERS_PSLD;
  std::string out = ".";
  std::vector<Workload> workloads;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
};

/// One workload's outcome: its metrics (the end-to-end set, or the ladder's
/// per-layer set when traced) plus ledger-only extras.
struct Outcome {
  Workload workload = Workload::kZipfHot;
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::vector<Row> rows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t transport_errors = 0;
  std::string error;     ///< first failure seen, for the log
  bool invalid = false;  ///< a generator guard tripped or psld misbehaved
};

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + detail::json_escape(s) + "\""; }

void fold(Outcome& o, const WireResult& r) {
  o.attempted += r.attempted;
  o.failed += r.failed;
  o.mismatches += r.mismatches;
  o.transport_errors += r.transport_errors;
  if (o.error.empty()) o.error = r.first_error;
}

void run_e2e(Outcome& o, const Options& opt, const Fixture& fx, const Inputs& in,
             double warmup) {
  const List& newest = fx.history.latest();
  const snapshot::Metadata meta{fx.history.version_date(fx.history.version_count() - 1),
                                newest.rule_count()};
  const std::string snapshot_path = fx.dir + "/" + name_of(in.workload) + ".psnap";
  std::vector<std::string> args = {"--listen", "127.0.0.1:0", "--threads", "2"};
  if (in.uses_store) {
    args.insert(args.end(), {"--store", fx.store_path});
  } else {
    args.insert(args.end(), {"--snapshot", snapshot_path});
  }
  args.insert(args.end(), in.psld_flags.begin(), in.psld_flags.end());

  // Set-up: compile and write the snapshot (time_travel serves the store
  // fixture as is), exec psld, first answered ping. Earlier boots are
  // stopped; the last one serves the load.
  const int setups = opt.smoke ? 2 : 9;
  std::vector<double> setup_s;
  std::optional<Psld> server;
  for (int i = 0; i < setups; ++i) {
    if (server) {
      auto stopped = server->stop();
      server.reset();
      if (!stopped.ok()) {
        o.error = stopped.error().message;
        o.invalid = true;
        return;
      }
    }
    const auto t0 = Clock::now();
    if (!in.uses_store) {
      auto written = snapshot::write_file(snapshot_path, CompiledMatcher(newest), meta);
      if (!written.ok()) {
        o.error = written.error().message;
        o.invalid = true;
        return;
      }
    }
    auto started = Psld::start(opt.psld, args);
    if (!started.ok()) {
      o.error = started.error().message;
      o.invalid = true;
      return;
    }
    setup_s.push_back(seconds(Clock::now() - t0));
    server.emplace(*std::move(started));
  }

  WireResult r;
  auto served = load_and_stop(*std::move(server), [&](std::uint16_t port) {
    r = in.workload == Workload::kSingleUdp
            ? run_udp(port, in.pool, in.order, kUdpRate, warmup, opt.seconds, nullptr, 0)
            : run_tcp(port, lanes_of(in), warmup, opt.seconds, nullptr, 0);
  });
  fold(o, r);
  if (!served.ok()) {
    o.error = served.error().message;
    o.invalid = true;
    return;
  }
  std::string why;
  if (!generator_ok(r, why)) {
    if (opt.smoke) {
      std::cerr << "[bench_layers] warning: " << why << "\n";
    } else {
      o.error = "invalid run: " + why;
      o.invalid = true;
    }
  }

  // Rate, p50 and p90 from the best second (WireResult::best_latency); p99
  // and p999 over the whole window, where a stall must show.
  const Dist best = r.best_latency(in.primary);
  const Dist whole = r.latency(in.primary);
  o.metrics = {{"setup_s", util::median(setup_s), "s", false},
               {"hosts_per_s", r.best_units_per_s(in.primary), "1/s", true},
               {"p50_us", best.p50, "us", false},
               {"p90_us", best.p90, "us", false},
               {"rss_mib", served->rss_mib, "MiB", false}};
  const auto ratio = [](std::uint64_t part, std::uint64_t total) {
    return total ? static_cast<double>(part) / static_cast<double>(total) : 0.0;
  };
  o.extras = {{"error_rate", ratio(o.failed, o.attempted), "ratio", false},
              {"p99_us", whole.p99, "us", false},
              {"p999_us", whole.p999, "us", false},
              {"samples", static_cast<double>(whole.n), "count", true},
              {"mean_hosts_per_s", r.units_per_s(in.primary), "1/s", true},
              {"gen.busy_ratio", r.busy_ratio, "ratio", false},
              {"gen.late_p99_us", r.late_p99_us, "us", false}};
  // Server-side counters from psld's exit-time metrics dump.
  const double hits = metric_sum(served->metrics, "serve.cache.hit");
  const double lookups = hits + metric_sum(served->metrics, "serve.cache.miss");
  o.extras.push_back(
      {"server.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio", true});
  o.extras.push_back({"server.backpressure",
                      metric_sum(served->metrics, "net.reject.backpressure"), "count", false});
  if (in.workload == Workload::kSingleUdp) {
    o.extras.push_back({"net.udp.loss_ratio", ratio(r.timeouts, r.sent), "ratio", false});
  }
  if (in.workload == Workload::kTimeTravel) {
    o.extras.push_back(
        {"divergence_p50_us", r.best_latency(net::FrameType::kDivergence).p50, "us", false});
  }
  if (in.workload == Workload::kMixedRw) {
    o.extras.push_back(
        {"records_per_s", r.best_units_per_s(net::FrameType::kIngestBatch), "1/s", true});
    o.extras.push_back(
        {"reload_ms", r.latency(net::FrameType::kReload).p50 / 1e3, "ms", false});
  }
}

void run_trace(Outcome& o, const Options& opt, const Fixture& fx, const Inputs& in,
               SpanLog& trace) {
  WireResult totals;
  o.rows = run_ladder(in, fx, opt.psld, opt.seconds, trace, o.metrics, totals);
  fold(o, totals);
  std::string why;
  if (!generator_ok(totals, why) && !opt.smoke) {
    o.error = "invalid run: " + why;
    o.invalid = true;
  }
}

void print_outcome(const Outcome& o, const Options& opt) {
  std::printf("\n=== %s (%s, seed %llu) ===\n", name_of(o.workload), loop_of(o.workload),
              static_cast<unsigned long long>(opt.seed));
  for (const Row& row : o.rows) {
    std::printf("  %-24s %9llu calls  p50 %10.2f us  p99 %10.2f us  p999 %10.2f us  %s\n",
                row.name.c_str(), static_cast<unsigned long long>(row.calls), row.us.p50,
                row.us.p99, row.us.p999, row.note.c_str());
  }
  for (const auto* list : {&o.metrics, &o.extras}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("  attempted %llu, failed %llu (wrong answers %llu)%s%s\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.mismatches), o.error.empty() ? "" : ": ",
              o.error.c_str());
}

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics, bool with_better) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
        << ", \"unit\": " << quoted(m.unit);
    if (with_better) {
      out << ", \"better\": \"" << (m.higher_is_better ? "higher" : "lower") << "\"";
    }
    out << "}";
  }
  out << "}";
}

void write_ledger(const std::string& path, const std::vector<Outcome>& outcomes,
                  const Options& opt, const Fixture& fx, double warmup) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_layers\",\n  \"mode\": \""
      << (opt.trace ? "trace" : opt.smoke ? "smoke" : "e2e") << "\",\n  \"seed\": " << opt.seed
      << ",\n  \"seconds\": " << num(opt.seconds) << ",\n  \"warmup_s\": " << num(warmup)
      << ",\n  \"udp_rate\": " << num(kUdpRate) << ",\n  \"fixture\": {\"versions\": "
      << fx.history.version_count() << ", \"store_file_mib\": " << num(fx.store_file_mib)
      << ", \"store_build_s\": " << num(fx.store_build_s) << "},\n  \"workloads\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    std::vector<Metric> all = o.metrics;
    all.insert(all.end(), o.extras.begin(), o.extras.end());
    out << (i ? ",\n" : "\n") << "    {\"name\": " << quoted(name_of(o.workload))
        << ", \"loop\": " << quoted(loop_of(o.workload)) << ", \"attempted\": " << o.attempted
        << ", \"failed\": " << o.failed << ", \"wrong_answers\": " << o.mismatches
        << ", \"error\": " << quoted(o.error) << ",\n     \"metrics\": ";
    write_metrics(out, all, true);
    out << ",\n     \"rows\": [";
    for (std::size_t k = 0; k < o.rows.size(); ++k) {
      const Row& row = o.rows[k];
      out << (k ? ",\n" : "\n") << "       {\"name\": " << quoted(row.name)
          << ", \"calls\": " << row.calls << ", \"units\": " << row.units
          << ", \"seconds\": " << num(row.seconds) << ", \"calls_per_s\": "
          << num(row.seconds > 0 ? static_cast<double>(row.calls) / row.seconds : 0.0)
          << ", \"p50_us\": " << num(row.us.p50) << ", \"p99_us\": " << num(row.us.p99)
          << ", \"p999_us\": " << num(row.us.p999) << ", \"note\": " << quoted(row.note)
          << ", \"metrics\": ";
      write_metrics(out, row.metrics, true);
      out << "}";
    }
    out << "]}";
  }
  out << "\n  ],\n";
  emit_bench_delta(out);
  out << "\n}\n";
}

int usage() {
  std::cerr << "usage: bench_layers [--psld PATH] [--workload NAME] [--seed N] [--seconds S]\n"
               "                    [--trace [0|1]] [--smoke] [--out DIR]\n"
               "workloads: zipf_hot cold_flood single_udp time_travel mixed_rw\n";
  return 2;
}

}  // namespace
}  // namespace psl::bench::layers

int main(int argc, char** argv) {
  using namespace psl::bench::layers;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--psld" && has_value) {
      opt.psld = argv[++i];
    } else if (arg == "--out" && has_value) {
      opt.out = argv[++i];
    } else if (arg == "--workload" && has_value) {
      const auto w = parse_workload(argv[++i]);
      if (!w) return usage();
      opt.workloads.push_back(*w);
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = true;
      const std::string value = has_value ? argv[i + 1] : "";
      if (value == "0" || value == "1") {
        opt.trace = value == "1";
        ++i;
      }
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (opt.psld.empty() || !(opt.seconds > 0)) return usage();
  if (opt.smoke) opt.seconds = opt.trace ? 1.0 : 0.5;
  const bool single = opt.workloads.size() == 1;
  if (opt.workloads.empty()) {
    opt.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  }
  const double warmup = opt.smoke ? 0.2 : 2.0;
  const Scale scale = opt.smoke ? Scale::for_smoke() : Scale{};

  ::mkdir(opt.out.c_str(), 0755);
  const Fixture fixture = make_fixture(opt.smoke, opt.out + "/fixtures");
  SpanLog trace;
  std::vector<Outcome> outcomes;
  bool wrong = false, invalid = false;
  for (const Workload w : opt.workloads) {
    Outcome o;
    o.workload = w;
    const Inputs inputs = make_inputs(w, opt.seed, fixture, scale, warmup + opt.seconds);
    if (opt.trace) {
      run_trace(o, opt, fixture, inputs, trace);
    } else {
      run_e2e(o, opt, fixture, inputs, warmup);
    }
    print_outcome(o, opt);
    wrong = wrong || o.mismatches > 0 || o.transport_errors > 0;
    invalid = invalid || o.invalid || o.attempted == 0;
    outcomes.push_back(std::move(o));
  }
  write_ledger(opt.out + "/BENCH_layers.json", outcomes, opt, fixture, warmup);
  if (opt.trace) {
    std::ofstream spans(opt.out + "/BENCH_layers.trace.json");
    trace.write_json(spans);
  }
  if (invalid) {
    std::cerr << "[bench_layers] run invalid: " << outcomes.back().error << "\n";
    return 3;
  }
  if (single) {
    const Outcome& o = outcomes.front();
    std::ostringstream line;
    line << "{\"correct\": " << (wrong ? "false" : "true") << ", \"attempted\": "
         << o.attempted << ", \"failed\": " << o.failed
         << ", \"metrics\": ";
    write_metrics(line, o.metrics, false);
    line << "}";
    std::cout << line.str() << std::endl;
  }
  return wrong ? 1 : 0;
}
