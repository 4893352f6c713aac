// The psld child process: spawn in its own process group, wait for the
// serving banner and the first answered ping, read peak RSS from /proc, and
// stop with SIGTERM so psld drains and prints its exit-time metrics.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "layers.hpp"
#include "psl/net/client.hpp"

extern char** environ;

namespace psl::bench::layers {

namespace {

constexpr double kStartTimeoutS = 60.0;
constexpr double kStopTimeoutS = 30.0;

util::Error spawn_error(const std::string& what) {
  return util::make_error("bench.psld", what);
}

/// Read whatever `fd` has (non-blocking) into `out`; false on EOF.
bool drain(int fd, std::string& out) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    return errno == EAGAIN || errno == EINTR;
  }
}

std::uint64_t number_after(const std::string& text, std::string_view key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

/// The CPUs this process may use, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

Pin::Pin(Side side) {
  static const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t saved;
  if (::sched_getaffinity(0, sizeof saved, &saved) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (side == Side::kGenerator) {
    CPU_SET(cpus.back(), &set);
  } else {
    for (std::size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &set);
  }
  if (::sched_setaffinity(0, sizeof set, &set) != 0) return;
  const auto* bytes = reinterpret_cast<const unsigned char*>(&saved);
  saved_.assign(bytes, bytes + sizeof saved);
}

Pin::~Pin() {
  if (saved_.empty()) return;
  cpu_set_t saved;
  std::memcpy(&saved, saved_.data(), sizeof saved);
  ::sched_setaffinity(0, sizeof saved, &saved);
}

util::Result<Psld> Psld::start(const std::string& binary, std::vector<std::string> args) {
  std::size_t shards = 1;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--shards") shards = std::strtoul(args[i + 1].c_str(), nullptr, 10);
  }
  int out[2], err[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return spawn_error("pipe failed");
  if (::pipe2(err, O_CLOEXEC) != 0) {
    ::close(out[0]);
    ::close(out[1]);
    return spawn_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err[1], 2);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);  // own group: a stuck fleet dies as one

  args.insert(args.begin(), binary);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  Psld p;
  int rc = 0;
  {
    const Pin pin(Pin::Side::kServer);  // psld inherits the server CPUs
    rc = ::posix_spawn(&p.pid_, binary.c_str(), &actions, &attr, argv.data(), environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  ::close(out[1]);
  ::close(err[1]);
  p.out_fd_ = out[0];
  p.err_fd_ = err[0];
  if (rc != 0) {
    p.pid_ = -1;
    return spawn_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  ::fcntl(p.out_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(p.err_fd_, F_SETFL, O_NONBLOCK);

  // Banner: "psld: serving generation G (R rules) on 127.0.0.1:PORT, ..."
  // plus, under --shards, one "psld: shard I serving ... pid P)" per shard.
  const auto deadline = Clock::now() + std::chrono::duration<double>(kStartTimeoutS);
  std::string text;
  std::size_t scanned = 0;
  bool banner = false;
  while (!banner || p.servers_.size() < (shards > 1 ? shards : 0)) {
    if (Clock::now() > deadline) return spawn_error("psld did not print its banner");
    pollfd pfd{p.out_fd_, POLLIN, 0};
    ::poll(&pfd, 1, 100);
    const bool open = drain(p.out_fd_, text);
    for (std::size_t nl; (nl = text.find('\n', scanned)) != std::string::npos;
         scanned = nl + 1) {
      const std::string line = text.substr(scanned, nl - scanned);
      if (line.rfind("psld: serving generation", 0) == 0) {
        banner = true;
        p.port_ = static_cast<std::uint16_t>(number_after(line, "127.0.0.1:"));
        const std::size_t b = line.find("(backend ");
        if (b != std::string::npos) p.backend_ = line.substr(b + 9, line.find(')', b) - b - 9);
      } else if (line.rfind("psld: shard ", 0) == 0 &&
                 line.find(" serving ") != std::string::npos) {
        p.servers_.push_back(static_cast<pid_t>(number_after(line, "pid ")));
        const std::size_t b = line.find("(backend ");
        if (b != std::string::npos) p.backend_ = line.substr(b + 9, line.find(',', b) - b - 9);
      }
    }
    if (!open && !banner) {
      drain(p.err_fd_, p.err_text_);
      return spawn_error("psld exited before serving: " + p.err_text_);
    }
  }
  if (shards <= 1) p.servers_ = {p.pid_};

  for (;;) {
    auto client = net::Client::connect("127.0.0.1", p.port_);
    if (client.ok() && client->ping().ok()) break;
    if (Clock::now() > deadline) return spawn_error("psld never answered a ping");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return p;
}

Psld::Psld(Psld&& other) noexcept
    : pid_(other.pid_),
      servers_(std::move(other.servers_)),
      out_fd_(other.out_fd_),
      err_fd_(other.err_fd_),
      port_(other.port_),
      backend_(std::move(other.backend_)),
      err_text_(std::move(other.err_text_)) {
  other.pid_ = -1;
  other.out_fd_ = -1;
  other.err_fd_ = -1;
}

Psld::~Psld() {
  if (pid_ > 0) {
    ::kill(-pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  if (err_fd_ >= 0) ::close(err_fd_);
}

double Psld::peak_rss_mib() const {
  double kib = 0.0;
  for (const pid_t pid : servers_) {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) kib += std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return kib / 1024.0;
}

util::Result<std::string> Psld::stop() {
  if (pid_ <= 0) return spawn_error("psld is not running");
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::duration<double>(kStopTimeoutS);
  std::string out;
  bool out_open = true, err_open = true;
  while ((out_open || err_open) && Clock::now() < deadline) {
    pollfd fds[2] = {{out_fd_, POLLIN, 0}, {err_fd_, POLLIN, 0}};
    ::poll(fds, 2, 100);
    if (out_open) out_open = drain(out_fd_, out);
    if (err_open) err_open = drain(err_fd_, err_text_);
  }
  if (out_open || err_open) ::kill(-pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (out_open || err_open) return spawn_error("psld did not drain within the stop timeout");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return spawn_error("psld exited abnormally: " + err_text_.substr(0, 400));
  }
  return err_text_;
}

util::Result<Served> load_and_stop(Psld psld, const std::function<void(std::uint16_t)>& load) {
  load(psld.port());
  Served served;
  served.rss_mib = psld.peak_rss_mib();
  auto metrics = psld.stop();
  if (!metrics.ok()) return metrics.error();
  served.metrics = *std::move(metrics);
  return served;
}

double metric_sum(const std::string& metrics_text, std::string_view name) {
  const std::string key = "\"" + std::string(name) + "\": ";
  double sum = 0.0;
  for (std::size_t at = metrics_text.find(key); at != std::string::npos;
       at = metrics_text.find(key, at + key.size())) {
    sum += std::strtod(metrics_text.c_str() + at + key.size(), nullptr);
  }
  return sum;
}

}  // namespace psl::bench::layers
