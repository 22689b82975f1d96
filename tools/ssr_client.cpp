// ssr_client -- command-line client for the ssr_serve daemon.
//
//   ssr_client --port=7421 --protocol=optimal --n=256 --trials=8
//   ssr_client --port-file=/tmp/ssr.port --stats
//   ssr_client --port=7421 --sweep-n=64,128,256 --trials=4
//   ssr_client --port=7421 --hammer=8 --requests=16 --out-dir=reports
//
// Three shapes:
//   * single request (default; also --stats / --ping / --shutdown),
//     printing the response document to stdout;
//   * --sweep-n=a,b,c fan-out: one connection + request per n,
//     concurrently, with a per-n summary table;
//   * --hammer=C load mode: C concurrent connections each issuing
//     --requests=M identical run requests, reporting client-observed
//     latency and the service's cache hit rate as a BENCH_SERVE.json
//     (schema v2) artifact -- the serve row report_trend gates.
//
// Spec fields (--protocol, --n, --engine, ...) are passed through to the
// server *unvalidated*: rejecting bad specs identically at every front
// end is the server's job (util/request_spec.hpp), and field errors come
// back in the error response.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "serve/net.hpp"
#include "util/edit_distance.hpp"
#include "util/request_spec.hpp"

namespace {

using ssr::obs::json_value;

constexpr std::string_view k_flags[] = {
    "--port",        "--port-file", "--protocol",  "--scenario",
    "--n",           "--h",         "--t-max",     "--trials",
    "--seed",        "--max-time",  "--engine",    "--shards",
    "--deadline-ms", "--progress",  "--no-cache",  "--stats",
    "--ping",        "--shutdown",  "--sweep-n",   "--hammer",
    "--requests",    "--out-dir",   "--history-dir", "--no-json",
    "--trace",       "--trace-out", "--trace-sample-every",
    "--trace-max-events", "--profile", "--profile-out", "--metrics",
    "--overhead-probe", "--raw", "--help",
};

struct cli_options {
  std::uint16_t port = 0;
  std::string port_file;
  json_value run = json_value::object();  // accumulated spec fields
  bool progress = false;
  bool no_cache = false;
  std::optional<std::uint64_t> deadline_ms;
  enum class mode_t { run, stats, metrics, ping, shutdown, sweep, hammer }
      mode = mode_t::run;
  std::vector<std::uint64_t> sweep_n;
  std::size_t hammer_clients = 0;
  std::size_t requests_per_client = 8;
  std::string out_dir;
  std::string history_dir;
  bool write_json = true;
  // Wire telemetry (docs/serving.md, "Wire telemetry").
  bool trace = false;
  bool profile = false;
  std::string trace_out;
  std::string profile_out;
  std::optional<std::uint64_t> trace_sample_every;
  std::optional<std::uint64_t> trace_max_events;
  std::size_t overhead_probe = 0;
  bool raw = false;
  std::vector<std::string> argv_copy;
};

void usage(std::ostream& os) {
  os << "usage: ssr_client --port=N|--port-file=PATH [mode] [spec...]\n"
        "modes:   (default) one run request; --stats; --metrics; --ping;\n"
        "         --shutdown; --sweep-n=a,b,c concurrent fan-out;\n"
        "         --hammer=C load mode (--requests=M per connection, "
        "default 8)\n"
        "spec:    --protocol=P --scenario=S --n=N --h=H --t-max=T\n"
        "         --trials=N --seed=S --max-time=T --engine=E --shards=K\n"
        "run:     --deadline-ms=N --progress --no-cache\n"
        "telemetry: --trace [--trace-out=FILE] [--trace-sample-every=N]\n"
        "           [--trace-max-events=N] --profile [--profile-out=FILE]\n"
        "           (--trace-out/--profile-out imply the request option;\n"
        "            files hold the trace JSONL / profile JSON the daemon\n"
        "            captured, ready for tools/trace_stats)\n"
        "stats:   --raw prints the stats response JSON instead of the\n"
        "         pretty rendering\n"
        "report:  --out-dir=DIR --history-dir=DIR --no-json;\n"
        "         --overhead-probe=N adds the telemetry_overhead row\n"
        "         (N untelemetered vs N traced+profiled requests) to\n"
        "         BENCH_SERVE.json (hammer mode)\n";
}

[[noreturn]] void bad_flag(std::string_view arg) {
  const std::string_view name = arg.substr(0, arg.find('='));
  std::cerr << "error: unknown argument '" << name << "'";
  const std::string_view suggestion = ssr::nearest_candidate(name, k_flags);
  if (!suggestion.empty())
    std::cerr << " (did you mean " << suggestion << "?)";
  std::cerr << '\n';
  usage(std::cerr);
  std::exit(2);
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

cli_options parse_args(int argc, char** argv) {
  cli_options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    opt.argv_copy.emplace_back(arg);
    const auto value_of =
        [&](std::string_view prefix) -> std::optional<std::string_view> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help") {
      usage(std::cout);
      std::exit(0);
    }
    if (const auto v = value_of("--port=")) {
      const std::uint64_t port = parse_flag_u64("--port", *v);
      if (port > 65535) {
        std::cerr << "error: --port must be at most 65535, got " << port
                  << '\n';
        std::exit(2);
      }
      opt.port = static_cast<std::uint16_t>(port);
      continue;
    }
    if (const auto v = value_of("--port-file=")) {
      opt.port_file = *v;
      continue;
    }
    if (const auto v = value_of("--protocol=")) {
      opt.run["protocol"] = *v;
      continue;
    }
    if (const auto v = value_of("--scenario=")) {
      opt.run["scenario"] = *v;
      continue;
    }
    if (const auto v = value_of("--engine=")) {
      opt.run["engine"] = *v;
      continue;
    }
    if (const auto v = value_of("--n=")) {
      opt.run["n"] = parse_flag_u64("--n", *v);
      continue;
    }
    if (const auto v = value_of("--h=")) {
      opt.run["h"] = parse_flag_u64("--h", *v);
      continue;
    }
    if (const auto v = value_of("--t-max=")) {
      opt.run["t_max"] = parse_flag_u64("--t-max", *v);
      continue;
    }
    if (const auto v = value_of("--trials=")) {
      opt.run["trials"] = parse_flag_u64("--trials", *v);
      continue;
    }
    if (const auto v = value_of("--seed=")) {
      opt.run["seed"] = parse_flag_u64("--seed", *v);
      continue;
    }
    if (const auto v = value_of("--shards=")) {
      opt.run["shards"] = parse_flag_u64("--shards", *v);
      continue;
    }
    if (const auto v = value_of("--max-time=")) {
      char* end = nullptr;
      const std::string text(*v);
      const double parsed = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || text.empty()) {
        std::cerr << "error: --max-time expects a number, got '" << text
                  << "'\n";
        std::exit(2);
      }
      opt.run["max_time"] = parsed;
      continue;
    }
    if (const auto v = value_of("--deadline-ms=")) {
      opt.deadline_ms = parse_flag_u64("--deadline-ms", *v);
      continue;
    }
    if (arg == "--progress") {
      opt.progress = true;
      continue;
    }
    if (arg == "--no-cache") {
      opt.no_cache = true;
      continue;
    }
    if (arg == "--stats") {
      opt.mode = cli_options::mode_t::stats;
      continue;
    }
    if (arg == "--metrics") {
      opt.mode = cli_options::mode_t::metrics;
      continue;
    }
    if (arg == "--raw") {
      opt.raw = true;
      continue;
    }
    if (arg == "--trace") {
      opt.trace = true;
      continue;
    }
    if (const auto v = value_of("--trace-out=")) {
      opt.trace = true;
      opt.trace_out = *v;
      continue;
    }
    if (const auto v = value_of("--trace-sample-every=")) {
      opt.trace = true;
      opt.trace_sample_every = parse_flag_u64("--trace-sample-every", *v);
      continue;
    }
    if (const auto v = value_of("--trace-max-events=")) {
      opt.trace = true;
      opt.trace_max_events = parse_flag_u64("--trace-max-events", *v);
      continue;
    }
    if (arg == "--profile") {
      opt.profile = true;
      continue;
    }
    if (const auto v = value_of("--profile-out=")) {
      opt.profile = true;
      opt.profile_out = *v;
      continue;
    }
    if (const auto v = value_of("--overhead-probe=")) {
      opt.overhead_probe =
          static_cast<std::size_t>(parse_flag_u64("--overhead-probe", *v));
      continue;
    }
    if (arg == "--ping") {
      opt.mode = cli_options::mode_t::ping;
      continue;
    }
    if (arg == "--shutdown") {
      opt.mode = cli_options::mode_t::shutdown;
      continue;
    }
    if (const auto v = value_of("--sweep-n=")) {
      opt.mode = cli_options::mode_t::sweep;
      std::string_view rest = *v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view item = rest.substr(0, comma);
        opt.sweep_n.push_back(parse_flag_u64("--sweep-n", item));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
      if (opt.sweep_n.empty()) {
        std::cerr << "error: --sweep-n needs a comma-separated list\n";
        std::exit(2);
      }
      continue;
    }
    if (const auto v = value_of("--hammer=")) {
      opt.mode = cli_options::mode_t::hammer;
      opt.hammer_clients =
          static_cast<std::size_t>(parse_flag_u64("--hammer", *v));
      if (opt.hammer_clients == 0) {
        std::cerr << "error: --hammer needs at least one client\n";
        std::exit(2);
      }
      continue;
    }
    if (const auto v = value_of("--requests=")) {
      opt.requests_per_client =
          static_cast<std::size_t>(parse_flag_u64("--requests", *v));
      continue;
    }
    if (const auto v = value_of("--out-dir=")) {
      opt.out_dir = *v;
      continue;
    }
    if (const auto v = value_of("--history-dir=")) {
      opt.history_dir = *v;
      continue;
    }
    if (arg == "--no-json") {
      opt.write_json = false;
      continue;
    }
    bad_flag(arg);
  }
  if (opt.port == 0 && !opt.port_file.empty()) {
    std::ifstream is(opt.port_file);
    std::uint64_t port = 0;
    if (!(is >> port) || port == 0 || port > 65535) {
      std::cerr << "error: could not read a port from '" << opt.port_file
                << "'\n";
      std::exit(2);
    }
    opt.port = static_cast<std::uint16_t>(port);
  }
  if (opt.port == 0) {
    std::cerr << "error: --port=N or --port-file=PATH is required\n";
    usage(std::cerr);
    std::exit(2);
  }
  return opt;
}

json_value build_run_request(const cli_options& opt, std::uint64_t id) {
  json_value req = json_value::object();
  req["type"] = "run";
  req["id"] = id;
  for (const auto& [key, value] : opt.run.members()) req[key] = value;
  if (opt.deadline_ms.has_value()) req["deadline_ms"] = *opt.deadline_ms;
  if (opt.progress) req["progress"] = true;
  if (opt.no_cache) req["no_cache"] = true;
  if (opt.trace) {
    if (opt.trace_sample_every.has_value() ||
        opt.trace_max_events.has_value()) {
      json_value trace = json_value::object();
      if (opt.trace_sample_every.has_value())
        trace["sample_every"] = *opt.trace_sample_every;
      if (opt.trace_max_events.has_value())
        trace["max_events"] = *opt.trace_max_events;
      req["trace"] = std::move(trace);
    } else {
      req["trace"] = true;
    }
  }
  if (opt.profile) req["profile"] = true;
  return req;
}

/// Reconstructs the trace JSONL file from the in-band {"header","events"}
/// transport: header + events are the exact documents write_jsonl emits,
/// one dump per line, so tools/trace_stats parses the result unchanged.
bool write_trace_jsonl(const json_value& trace, const std::string& path) {
  const json_value* header = trace.find("header");
  const json_value* events = trace.find("events");
  if (header == nullptr || events == nullptr || !events->is_array())
    return false;
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << header->dump() << '\n';
  for (const json_value& event : events->items()) {
    os << event.dump() << '\n';
  }
  return os.good();
}

/// Pretty rendering of the stats document.  Walks the JSON generically --
/// every field the server sends prints, including ones this client
/// predates -- instead of a hardcoded field list that silently drops
/// unknown sections.
void render_stats(std::ostream& os, const json_value& value,
                  const std::string& indent) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      if (member.is_object() || member.is_array()) {
        os << indent << key << ":\n";
        render_stats(os, member, indent + "  ");
      } else {
        os << indent << key << ": " << member.dump() << '\n';
      }
    }
    return;
  }
  if (value.is_array()) {
    for (const json_value& element : value.items()) {
      if (element.is_object() || element.is_array()) {
        os << indent << "-\n";
        render_stats(os, element, indent + "  ");
      } else {
        os << indent << "- " << element.dump() << '\n';
      }
    }
    return;
  }
  os << indent << value.dump() << '\n';
}

/// Sends one request and reads documents until the final (non-progress)
/// response; progress events print to stderr when `show_progress`.
std::optional<json_value> roundtrip(ssr::serve::line_socket& socket,
                                    const json_value& request,
                                    bool show_progress) {
  if (!socket.write_line(request.dump())) return std::nullopt;
  std::string line;
  while (socket.read_line(line)) {
    std::optional<json_value> doc = json_value::parse(line);
    if (!doc.has_value()) return std::nullopt;
    const json_value* type = doc->find("type");
    if (type != nullptr && type->is_string() &&
        type->as_string() == "progress") {
      if (show_progress) {
        const json_value* done = doc->find("trials_completed");
        const json_value* total = doc->find("trials_total");
        std::cerr << "progress: trials "
                  << (done != nullptr ? done->as_uint64() : 0) << "/"
                  << (total != nullptr ? total->as_uint64() : 0) << '\n';
      }
      continue;
    }
    return doc;
  }
  return std::nullopt;
}

bool response_ok(const json_value& response) {
  const json_value* ok = response.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

double median_ms(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// The telemetry-overhead probe: N untelemetered vs N traced+profiled
/// requests, sequentially over one connection each, both with no_cache so
/// every request actually executes.  Returns median(telemetered) /
/// median(untelemetered), or nullopt when either side failed.
std::optional<double> probe_telemetry_overhead(const cli_options& opt,
                                               std::size_t count) {
  const auto run_batch =
      [&](bool telemetered) -> std::optional<double> {
    std::string error;
    const int fd = ssr::serve::connect_local(opt.port, &error);
    if (fd < 0) return std::nullopt;
    ssr::serve::line_socket socket(fd);
    cli_options probe = opt;
    probe.no_cache = true;  // both sides must execute, not replay
    probe.progress = false;
    probe.trace = telemetered;
    probe.profile = telemetered;
    std::vector<double> latencies;
    latencies.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const json_value request = build_run_request(probe, i);
      const auto t0 = std::chrono::steady_clock::now();
      const std::optional<json_value> response =
          roundtrip(socket, request, /*show_progress=*/false);
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - t0;
      if (!response.has_value() || !response_ok(*response))
        return std::nullopt;
      latencies.push_back(elapsed.count());
    }
    return median_ms(std::move(latencies));
  };
  const std::optional<double> base = run_batch(/*telemetered=*/false);
  const std::optional<double> telemetered = run_batch(/*telemetered=*/true);
  if (!base.has_value() || !telemetered.has_value() || *base <= 0.0)
    return std::nullopt;
  return *telemetered / *base;
}

int run_single(const cli_options& opt) {
  std::string error;
  const int fd = ssr::serve::connect_local(opt.port, &error);
  if (fd < 0) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  ssr::serve::line_socket socket(fd);

  json_value request;
  switch (opt.mode) {
    case cli_options::mode_t::stats:
      request = json_value::object();
      request["type"] = "stats";
      request["id"] = std::uint64_t{1};
      break;
    case cli_options::mode_t::metrics:
      request = json_value::object();
      request["type"] = "metrics";
      request["id"] = std::uint64_t{1};
      break;
    case cli_options::mode_t::ping:
      request = json_value::object();
      request["type"] = "ping";
      request["id"] = std::uint64_t{1};
      break;
    case cli_options::mode_t::shutdown:
      request = json_value::object();
      request["type"] = "shutdown";
      request["id"] = std::uint64_t{1};
      break;
    default:
      request = build_run_request(opt, 1);
      break;
  }
  std::optional<json_value> response =
      roundtrip(socket, request, opt.progress);
  if (!response.has_value()) {
    std::cerr << "error: connection closed before a response arrived\n";
    return 1;
  }

  if (opt.mode == cli_options::mode_t::metrics && response_ok(*response)) {
    // The exposition text prints raw so the output pipes straight into
    // promtool / grep, exactly as a scrape endpoint would serve it.
    const json_value* metrics = response->find("metrics");
    if (metrics != nullptr && metrics->is_string()) {
      std::cout << metrics->as_string();
      return 0;
    }
  }

  if (opt.mode == cli_options::mode_t::stats && response_ok(*response) &&
      !opt.raw) {
    const json_value* stats = response->find("stats");
    if (stats != nullptr && stats->is_object()) {
      render_stats(std::cout, *stats, "");
      return 0;
    }
  }

  if (opt.mode == cli_options::mode_t::run && response_ok(*response)) {
    if (const json_value* telemetry = response->find("telemetry")) {
      bool stripped = false;
      if (!opt.trace_out.empty()) {
        const json_value* trace = telemetry->find("trace");
        if (trace != nullptr && write_trace_jsonl(*trace, opt.trace_out)) {
          std::cerr << "trace: " << opt.trace_out << '\n';
          stripped = true;
        } else {
          std::cerr << "warning: could not write trace to '" << opt.trace_out
                    << "'\n";
        }
      }
      if (!opt.profile_out.empty()) {
        const json_value* profile = telemetry->find("profile");
        std::ofstream os(opt.profile_out, std::ios::trunc);
        if (profile != nullptr && os) {
          os << profile->dump(2) << '\n';
          std::cerr << "profile: " << opt.profile_out << '\n';
          stripped = true;
        } else {
          std::cerr << "warning: could not write profile to '"
                    << opt.profile_out << "'\n";
        }
      }
      // Once the bulky artifacts live in files, the printed response keeps
      // only the telemetry request_id/artifacts pointers.
      if (stripped) {
        json_value trimmed = json_value::object();
        for (const auto& [key, member] : telemetry->members()) {
          if (key == "trace" && !opt.trace_out.empty()) continue;
          if (key == "profile" && !opt.profile_out.empty()) continue;
          trimmed[key] = member;
        }
        (*response)["telemetry"] = std::move(trimmed);
      }
    }
  }

  std::cout << response->dump(2) << '\n';
  return response_ok(*response) ? 0 : 1;
}

int run_sweep(const cli_options& opt) {
  struct slot {
    std::uint64_t n = 0;
    std::optional<json_value> response;
  };
  std::vector<slot> slots(opt.sweep_n.size());
  std::vector<std::thread> threads;
  threads.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].n = opt.sweep_n[i];
    threads.emplace_back([&opt, &s = slots[i]] {
      std::string error;
      const int fd = ssr::serve::connect_local(opt.port, &error);
      if (fd < 0) return;
      ssr::serve::line_socket socket(fd);
      json_value request = build_run_request(opt, s.n);
      request["n"] = s.n;
      s.response = roundtrip(socket, request, /*show_progress=*/false);
    });
  }
  for (std::thread& t : threads) t.join();

  int failures = 0;
  for (const slot& s : slots) {
    std::cout << "n=" << s.n << ": ";
    if (!s.response.has_value()) {
      std::cout << "no response\n";
      ++failures;
      continue;
    }
    if (!response_ok(*s.response)) {
      const json_value* message = s.response->find("message");
      std::cout << "error: "
                << (message != nullptr ? message->as_string() : "?") << '\n';
      ++failures;
      continue;
    }
    const json_value* result = s.response->find("result");
    const json_value* stats =
        result != nullptr ? result->find("stats") : nullptr;
    const json_value* mean = stats != nullptr ? stats->find("mean") : nullptr;
    const json_value* cached = s.response->find("cached");
    std::cout << "mean=" << (mean != nullptr ? mean->as_double() : 0.0)
              << " cached="
              << (cached != nullptr && cached->as_bool() ? "yes" : "no")
              << '\n';
  }
  return failures == 0 ? 0 : 1;
}

int run_hammer(const cli_options& opt) {
  struct worker_result {
    std::vector<double> latencies_ms;
    std::size_t ok = 0;
    std::size_t cached = 0;
    std::size_t failed = 0;
  };
  std::vector<worker_result> results(opt.hammer_clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(opt.hammer_clients);
  for (std::size_t c = 0; c < opt.hammer_clients; ++c) {
    threads.emplace_back([&opt, &r = results[c]] {
      std::string error;
      const int fd = ssr::serve::connect_local(opt.port, &error);
      if (fd < 0) {
        r.failed = opt.requests_per_client;
        return;
      }
      ssr::serve::line_socket socket(fd);
      for (std::size_t i = 0; i < opt.requests_per_client; ++i) {
        const json_value request = build_run_request(opt, i);
        const auto t0 = std::chrono::steady_clock::now();
        const std::optional<json_value> response =
            roundtrip(socket, request, /*show_progress=*/false);
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        if (!response.has_value() || !response_ok(*response)) {
          ++r.failed;
          continue;
        }
        r.latencies_ms.push_back(elapsed.count());
        ++r.ok;
        const json_value* cached = response->find("cached");
        if (cached != nullptr && cached->is_bool() && cached->as_bool())
          ++r.cached;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  std::vector<double> latencies;
  std::size_t ok = 0, cached = 0, failed = 0;
  for (const worker_result& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    ok += r.ok;
    cached += r.cached;
    failed += r.failed;
  }
  const double rps =
      wall.count() > 0.0 ? static_cast<double>(ok) / wall.count() : 0.0;

  // The service's own view of the cache (includes hits from other
  // clients); falls back to the client-observed ratio if stats fail.
  double hit_rate =
      ok > 0 ? static_cast<double>(cached) / static_cast<double>(ok) : 0.0;
  {
    std::string error;
    const int fd = ssr::serve::connect_local(opt.port, &error);
    if (fd >= 0) {
      ssr::serve::line_socket socket(fd);
      json_value request = json_value::object();
      request["type"] = "stats";
      request["id"] = std::uint64_t{0};
      const std::optional<json_value> response =
          roundtrip(socket, request, false);
      if (response.has_value() && response_ok(*response)) {
        if (const json_value* stats = response->find("stats")) {
          if (const json_value* cache = stats->find("cache")) {
            if (const json_value* rate = cache->find("hit_rate"))
              hit_rate = rate->as_double();
          }
        }
      }
    }
  }

  std::cout << "hammer: " << opt.hammer_clients << " clients x "
            << opt.requests_per_client << " requests: " << ok << " ok, "
            << failed << " failed, " << cached << " served from cache\n"
            << "  " << rps << " requests/s, cache hit rate " << hit_rate
            << '\n';

  std::optional<double> overhead;
  if (opt.overhead_probe > 0) {
    overhead = probe_telemetry_overhead(opt, opt.overhead_probe);
    if (overhead.has_value()) {
      std::cout << "  telemetry overhead (traced+profiled / plain, median "
                << "of " << opt.overhead_probe << "): " << *overhead << "x\n";
    } else {
      std::cerr << "warning: telemetry overhead probe failed\n";
    }
  }

  if (opt.write_json) {
    const json_value* n_field = opt.run.find("n");
    const std::uint64_t n = n_field != nullptr ? n_field->as_uint64() : 32;
    const json_value* seed_field = opt.run.find("seed");
    const std::uint64_t seed =
        seed_field != nullptr ? seed_field->as_uint64() : 1;
    std::string params = "clients=" + std::to_string(opt.hammer_clients) +
                         " requests=" +
                         std::to_string(opt.requests_per_client);

    ssr::obs::bench_report report;
    report.experiment = "SERVE";
    report.title = "ssr_serve load (client-observed latency, cache)";
    report.binary = "ssr_client";
    const json_value* engine_field = opt.run.find("engine");
    report.engine =
        engine_field != nullptr ? engine_field->as_string() : "direct";
    report.argv = opt.argv_copy;
    report.git_rev = ssr::obs::git_revision();
    report.generated_unix = static_cast<std::int64_t>(std::time(nullptr));
    report.wall_time_seconds = wall.count();
    report.add_samples("serve", "service", n, params,
                       static_cast<std::uint64_t>(latencies.size()), seed,
                       "ms", latencies);
    report.add_value("serve", "requests_per_second", "service", n, params,
                     rps, "1/s", /*higher_is_better=*/true);
    report.add_value("serve", "cache_hit_rate", "service", n, params,
                     hit_rate, "ratio", /*higher_is_better=*/true);
    if (overhead.has_value()) {
      report.add_value("serve", "telemetry_overhead", "service", n, params,
                       *overhead, "ratio", /*higher_is_better=*/false);
    }

    if (!opt.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(opt.out_dir), ec);
    }
    const std::string path = ssr::obs::write_report(report, opt.out_dir);
    if (path.empty()) {
      std::cerr << "warning: could not write "
                << ssr::obs::report_filename(report.experiment)
                << " under '" << opt.out_dir << "'\n";
    } else {
      std::cout << "report: " << path << '\n';
    }
    if (!opt.history_dir.empty()) {
      std::string rev_dir = opt.history_dir;
      if (rev_dir.back() != '/') rev_dir += '/';
      rev_dir += report.git_rev;
      const std::string history_path =
          ssr::obs::write_report(report, rev_dir);
      if (history_path.empty()) {
        std::cerr << "warning: could not write history copy under '"
                  << rev_dir << "'\n";
      } else {
        std::cout << "history: " << history_path << '\n';
      }
    }
  }
  return failed == 0 && ok > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_options opt = parse_args(argc, argv);
  switch (opt.mode) {
    case cli_options::mode_t::sweep:
      return run_sweep(opt);
    case cli_options::mode_t::hammer:
      return run_hammer(opt);
    default:
      return run_single(opt);
  }
}
