// ssr_serve -- the simulation service daemon.
//
// Listens on 127.0.0.1 for line-delimited JSON requests (docs/serving.md)
// and answers them from a fixed worker pool behind a bounded admission
// queue and a fingerprint-keyed result cache.
//
//   ssr_serve --port=0 --workers=4 --queue-depth=32 --cache=256
//             --port-file=/tmp/ssr.port
//             --telemetry-dir=/tmp/ssr-telemetry --stats-period-s=30
//
// --port=0 (the default) binds an ephemeral port; --port-file writes the
// bound port for scripts to pick up.  --telemetry-dir enables the
// events.jsonl job journal and per-job trace/profile artifacts
// (docs/observability.md, "Wire telemetry"); --stats-period-s additionally
// snapshots the Prometheus metrics exposition to <dir>/metrics.prom every
// N seconds (atomic rename, so scrapers never read a torn file).
// SIGINT/SIGTERM and the in-band {"type":"shutdown"} request both drain
// gracefully: admission stops, accepted jobs finish, then the process
// exits 0.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "serve/server.hpp"
#include "util/edit_distance.hpp"
#include "util/request_spec.hpp"

namespace {

constexpr std::string_view k_flags[] = {
    "--port",  "--workers", "--queue-depth", "--cache",
    "--retry-after-ms", "--port-file", "--telemetry-dir",
    "--stats-period-s", "--help",
};

ssr::serve::server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void usage(std::ostream& os) {
  os << "usage: ssr_serve [--port=N] [--workers=N] [--queue-depth=N]\n"
        "                 [--cache=N] [--retry-after-ms=N] [--port-file=PATH]\n"
        "                 [--telemetry-dir=DIR] [--stats-period-s=N]\n"
        "  --port=N           listen port on 127.0.0.1 (default 0 = "
        "ephemeral)\n"
        "  --workers=N        simulation worker threads (default 4)\n"
        "  --queue-depth=N    waiting jobs admitted before shedding "
        "(default 32)\n"
        "  --cache=N          result-cache entries, 0 disables "
        "(default 256)\n"
        "  --retry-after-ms=N suggested backoff in saturated responses "
        "(default 250)\n"
        "  --port-file=PATH   write the bound port to PATH after listen\n"
        "  --telemetry-dir=DIR write the events.jsonl job journal and "
        "per-job\n"
        "                     trace/profile artifacts under DIR\n"
        "  --stats-period-s=N also snapshot the Prometheus exposition to\n"
        "                     DIR/metrics.prom every N seconds (needs "
        "--telemetry-dir)\n";
}

std::uint64_t parse_flag_u64(std::string_view flag, std::string_view text) {
  const std::optional<std::uint64_t> v = ssr::util::parse_u64(text);
  if (!v.has_value()) {
    std::cerr << "error: " << flag << " expects an unsigned integer, got '"
              << text << "'\n";
    std::exit(2);
  }
  return *v;
}

/// Periodic metrics snapshot: write-then-rename so a concurrent reader
/// (CI scrape, dashboard tail) always sees a complete exposition.
class stats_snapshotter {
 public:
  stats_snapshotter(ssr::serve::service& svc, std::string dir,
                    std::chrono::seconds period)
      : svc_(svc), path_(dir + "/metrics.prom"), period_(period) {
    thread_ = std::thread([this] { loop(); });
  }

  ~stats_snapshotter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    write_snapshot();  // final state for post-mortem inspection
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, period_, [this] { return stop_; })) break;
      lock.unlock();
      write_snapshot();
      lock.lock();
    }
  }

  void write_snapshot() {
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      if (!os) return;
      os << svc_.metrics_text();
    }
    std::rename(tmp.c_str(), path_.c_str());
  }

  ssr::serve::service& svc_;
  std::string path_;
  std::chrono::seconds period_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  ssr::serve::server_options options;
  options.service.workers = 4;
  options.service.max_queue_depth = 32;
  options.service.cache_capacity = 256;
  std::string port_file;
  std::uint64_t stats_period_s = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of =
        [&](std::string_view prefix) -> std::optional<std::string_view> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help") {
      usage(std::cout);
      return 0;
    }
    if (const auto v = value_of("--port=")) {
      const std::uint64_t port = parse_flag_u64("--port", *v);
      if (port > 65535) {
        std::cerr << "error: --port must be at most 65535, got " << port
                  << '\n';
        return 2;
      }
      options.port = static_cast<std::uint16_t>(port);
      continue;
    }
    if (const auto v = value_of("--workers=")) {
      options.service.workers =
          static_cast<std::size_t>(parse_flag_u64("--workers", *v));
      if (options.service.workers == 0) {
        std::cerr << "error: --workers must be at least 1\n";
        return 2;
      }
      continue;
    }
    if (const auto v = value_of("--queue-depth=")) {
      options.service.max_queue_depth =
          static_cast<std::size_t>(parse_flag_u64("--queue-depth", *v));
      continue;
    }
    if (const auto v = value_of("--cache=")) {
      options.service.cache_capacity =
          static_cast<std::size_t>(parse_flag_u64("--cache", *v));
      continue;
    }
    if (const auto v = value_of("--retry-after-ms=")) {
      options.service.retry_after = std::chrono::milliseconds(
          parse_flag_u64("--retry-after-ms", *v));
      continue;
    }
    if (const auto v = value_of("--port-file=")) {
      port_file = *v;
      continue;
    }
    if (const auto v = value_of("--telemetry-dir=")) {
      options.service.telemetry_dir = std::string(*v);
      continue;
    }
    if (const auto v = value_of("--stats-period-s=")) {
      stats_period_s = parse_flag_u64("--stats-period-s", *v);
      continue;
    }
    const std::string_view name = arg.substr(0, arg.find('='));
    std::cerr << "error: unknown argument '" << name << "'";
    const std::string_view suggestion =
        ssr::nearest_candidate(name, k_flags);
    if (!suggestion.empty())
      std::cerr << " (did you mean " << suggestion << "?)";
    std::cerr << '\n';
    usage(std::cerr);
    return 2;
  }
  if (stats_period_s > 0 && options.service.telemetry_dir.empty()) {
    std::cerr << "error: --stats-period-s needs --telemetry-dir for the "
                 "snapshot location\n";
    return 2;
  }

  ssr::serve::server server(options);
  std::string error;
  if (!server.listen(&error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream os(port_file, std::ios::trunc);
    if (!os) {
      std::cerr << "error: could not write port file '" << port_file
                << "'\n";
      return 1;
    }
    os << server.port() << '\n';
  }
  std::cout << "ssr_serve listening on 127.0.0.1:" << server.port() << " ("
            << options.service.workers << " workers, queue depth "
            << options.service.max_queue_depth << ", cache "
            << options.service.cache_capacity << ")\n";
  if (!options.service.telemetry_dir.empty()) {
    std::cout << "ssr_serve telemetry in " << options.service.telemetry_dir
              << '\n';
  }
  std::cout << std::flush;

  std::optional<stats_snapshotter> snapshotter;
  if (stats_period_s > 0) {
    snapshotter.emplace(server.svc(), options.service.telemetry_dir,
                        std::chrono::seconds(stats_period_s));
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server.run();
  g_server = nullptr;
  snapshotter.reset();
  std::cout << "ssr_serve drained; bye\n";
  return 0;
}
