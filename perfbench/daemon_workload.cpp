// daemon_roundtrip: a real aimesd over loopback TCP, driven by closed-loop
// clients in this process.
//
// Each client submits a tiny observability-on request with an
// Idempotency-Key, follows /events until the run's terminal state event,
// then fetches the run and checks its checksum against the one exp::execute
// gives for the same request, computed before timing starts. The daemon's
// spans of work (submit handling, journal appends, SSE, views) are what this
// workload measures; the simulation itself is a minority of each round trip.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "ctl/daemon.hpp"
#include "exp/request.hpp"
#include "net/http.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace aimes::perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kDaemonWorkers = 2;
constexpr int kDaemonPool = 32;
constexpr int kSpawns = 5;
constexpr int kHandleSamples = 64;
/// aimesd keeps every run in its table, so its peak RSS grows with the runs
/// served; sampling it after a fixed number of runs keeps it from tracking
/// throughput.
constexpr std::uint64_t kRssAfterRuns = 4000;
/// aimesd and the clients share kPinWidth CPUs, moved to the next group
/// every kPinSegmentMs: a run then samples every core equally, so a core
/// slowed by a neighbour on a shared host cannot decide a whole run.
constexpr int kPinWidth = 2;
constexpr int kPinSegmentMs = 1000;

exp::RunRequest tiny_request(int pool_index) {
  exp::RunRequest req;
  req.name = "perfbench-" + std::to_string(pool_index);
  req.user = "perfbench";
  req.profile = "bag-uniform";
  req.tasks = 4;
  req.warmup_hours = 0.05;
  req.strategy.pilots = 1;
  req.trials = 1;
  req.jobs = 1;
  req.seed = pool_seed(pool_index);
  req.observability.enabled = true;
  return req;
}

/// One request of the pool: its wire body and the checksum exp::execute
/// gives for it.
struct PoolEntry {
  std::string body;
  std::uint64_t expected = 0;
};

// --- a spawned aimesd ------------------------------------------------------------

class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { stop(); }

  /// Spawns aimesd with a fresh journal in `dir` and waits until
  /// /api/v1/health answers 200. False (with a message) on any failure.
  bool start(const std::string& aimesd, const std::string& dir) {
    dir_ = dir;
    endpoint_ = net::Endpoint{};
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string port_file = dir + "/port";
    const std::string journal = dir + "/journal.jsonl";
    const std::string log = dir + "/aimesd.log";
    std::vector<std::string> args = {aimesd,      "--port",    "0",
                                     "--port-file", port_file, "--workers",
                                     std::to_string(kDaemonWorkers), "--journal", journal};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, aimesd.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "perfbench: cannot spawn %s\n", aimesd.c_str());
      return false;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    std::string last_error = "no port file";
    while (Clock::now() < deadline) {
      if (endpoint_.port == 0) {
        std::ifstream in(port_file);
        unsigned port = 0;
        if (in >> port && port != 0) endpoint_ = net::Endpoint::tcp(static_cast<std::uint16_t>(port));
      }
      if (endpoint_.port != 0) {
        net::HttpRequest health;
        health.method = "GET";
        health.target = health.path = "/api/v1/health";
        auto res = net::http_call(endpoint_, health, 1000);
        if (res.ok() && res->status == 200) return true;
        last_error = res.ok() ? "status " + std::to_string(res->status) : res.error();
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        std::fprintf(stderr, "perfbench: aimesd exited during start-up (see %s)\n", log.c_str());
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::fprintf(stderr, "perfbench: aimesd did not answer /api/v1/health: %s\n",
                 last_error.c_str());
    return false;
  }

  /// Asks the daemon to shut down and waits for it; kills it after 20 s.
  void stop() {
    if (pid_ <= 0) return;
    if (endpoint_.port != 0) {
      net::HttpRequest req;
      req.method = "POST";
      req.target = req.path = "/api/v1/shutdown";
      (void)net::http_call(endpoint_, req, 1000);
    } else {
      kill(pid_, SIGTERM);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] std::string journal() const { return dir_ + "/journal.jsonl"; }

 private:
  pid_t pid_ = -1;
  net::Endpoint endpoint_;
  std::string dir_;
};

// --- response parsing ---------------------------------------------------------------

std::optional<std::uint64_t> json_id(const std::string& body) {
  const auto at = body.find("\"id\":");
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(body.c_str() + at + 5, nullptr, 10);
}

/// The result checksum of a run view ("result": {... "checksum": "hex" ...}).
std::optional<std::uint64_t> view_checksum(const std::string& body) {
  const auto result = body.find("\"result\":");
  if (result == std::string::npos) return std::nullopt;
  const std::string key = "\"checksum\": \"";
  const auto at = body.find(key, result);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(body.c_str() + at + key.size(), nullptr, 16);
}

std::string view_state(const std::string& body) {
  const std::string key = "\"state\": \"";
  const auto at = body.find(key);
  if (at == std::string::npos) return "";
  const auto end = body.find('"', at + key.size());
  return body.substr(at + key.size(), end - at - key.size());
}

double prometheus_value(const std::string& text, const std::string& name) {
  const auto at = text.find("\n" + name + " ");
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + name.size() + 2, nullptr);
}

// --- the closed loop --------------------------------------------------------------------

struct LoopStats {
  std::vector<double> latency_s;
  std::vector<double> submit_ms, events_ms, view_ms;
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t done = 0;
  std::vector<std::string> failures;
};

/// What the clients of one closed loop share.
struct Loop {
  const net::Endpoint& endpoint;
  const std::vector<PoolEntry>& pool;
  std::uint64_t seed;
  Tracer& tracer;
  std::atomic<std::uint64_t>& request_ids;
  int daemon_pid;
  Clock::time_point deadline;
  std::atomic<std::uint64_t> done{0};
  /// aimesd's VmHWM once kRssAfterRuns runs completed (0 until then).
  std::atomic<double> rss_mb{0.0};
};

/// One client: submit -> follow events to the terminal state -> view.
void client_loop(Loop& loop, int client, LoopStats& stats) {
  const net::Endpoint& endpoint = loop.endpoint;
  const std::vector<PoolEntry>& pool = loop.pool;
  const std::uint64_t seed = loop.seed;
  Tracer& tracer = loop.tracer;
  for (std::uint64_t i = 0; Clock::now() < loop.deadline; ++i) {
    const int k = pool_pick(seed, static_cast<std::uint64_t>(client) + 1, i, kDaemonPool);
    const std::uint64_t rid = ++loop.request_ids;
    const Tracer::Scope root(tracer, "client.run", rid);
    ++stats.attempted;

    net::HttpRequest submit;
    submit.method = "POST";
    submit.target = submit.path = "/api/v1/runs";
    submit.body = pool[static_cast<std::size_t>(k)].body;
    submit.headers["Idempotency-Key"] =
        "pb-" + std::to_string(seed) + "-" + std::to_string(client) + "-" + std::to_string(i);
    const auto t_submit = Clock::now();
    common::Expected<net::HttpResponse> posted = common::Expected<net::HttpResponse>::error("");
    {
      const Tracer::Scope span(tracer, "ctl.submit", rid, root.id());
      posted = net::http_call(endpoint, submit);
    }
    const auto t_posted = Clock::now();
    if (!posted.ok() || posted->status != 202) {
      stats.failures.push_back(posted.ok() ? "submit answered " + std::to_string(posted->status)
                                           : "submit failed: " + posted.error());
      continue;
    }
    ++stats.accepted;
    const auto id = json_id(posted->body);
    if (!id) {
      stats.failures.push_back("submit reply without an id");
      continue;
    }
    const std::string run_path = "/api/v1/runs/" + std::to_string(*id);

    net::HttpRequest follow;
    follow.method = "GET";
    follow.target = follow.path = run_path + "/events";
    std::string carry, terminal;
    std::optional<Clock::time_point> t_done;
    {
      const Tracer::Scope span(tracer, "ctl.events", rid, root.id());
      const auto streamed = net::http_stream(endpoint, follow, [&](std::string_view data) {
        carry.append(data);
        for (const net::SseEvent& event : net::drain_sse_frames(carry)) {
          if (event.kind != "state") continue;
          const std::string state = view_state(event.data);
          if (state == "done" || state == "failed" || state == "cancelled") {
            terminal = state;
            t_done = Clock::now();
            return false;
          }
        }
        return true;
      });
      (void)streamed;
    }
    const auto t_followed = Clock::now();
    if (!t_done) {
      stats.failures.push_back("events stream of run " + std::to_string(*id) +
                               " ended before a terminal state");
      continue;
    }

    net::HttpRequest view;
    view.method = "GET";
    view.target = view.path = run_path;
    common::Expected<net::HttpResponse> viewed = common::Expected<net::HttpResponse>::error("");
    {
      const Tracer::Scope span(tracer, "ctl.view", rid, root.id());
      viewed = net::http_call(endpoint, view);
    }
    const auto t_viewed = Clock::now();
    stats.latency_s.push_back(seconds_between(t_submit, *t_done));
    stats.submit_ms.push_back(seconds_between(t_submit, t_posted) * 1e3);
    stats.events_ms.push_back(seconds_between(t_posted, t_followed) * 1e3);
    stats.view_ms.push_back(seconds_between(t_followed, t_viewed) * 1e3);
    if (!viewed.ok() || viewed->status != 200) {
      stats.failures.push_back("view of run " + std::to_string(*id) + " failed");
    } else if (terminal != "done" || view_state(viewed->body) != "done") {
      stats.failures.push_back("run " + std::to_string(*id) + " ended " + terminal);
    } else if (view_checksum(viewed->body) != pool[static_cast<std::size_t>(k)].expected) {
      stats.failures.push_back("run " + std::to_string(*id) +
                               ": checksum differs from exp::execute's");
    } else {
      ++stats.done;
      if (++loop.done == kRssAfterRuns) loop.rss_mb = peak_rss_mb_of(loop.daemon_pid);
    }
  }
}

struct LoopResult {
  LoopStats stats;
  double elapsed_s = 0.0;
  /// aimesd's VmHWM after kRssAfterRuns runs, or at the end if fewer ran.
  double rss_mb = 0.0;
};

/// Runs kClients closed-loop clients against `daemon` for `seconds`;
/// returns the merged stats and the elapsed wall time (until the last
/// client finished).
LoopResult closed_loop(const DaemonProcess& daemon, const std::vector<PoolEntry>& pool,
                       std::uint64_t seed, double seconds, Tracer& tracer,
                       std::atomic<std::uint64_t>& request_ids) {
  std::vector<LoopStats> per_client(kClients);
  const auto start = Clock::now();
  Loop loop{daemon.endpoint(), pool, seed, tracer, request_ids, daemon.pid(),
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds))};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { client_loop(loop, c, per_client[static_cast<std::size_t>(c)]); });
    }
    for (std::uint64_t segment = 0; Clock::now() < loop.deadline; ++segment) {
      pin_rotating(daemon.pid(), segment, kPinWidth);
      pin_rotating(getpid(), segment, kPinWidth);
      std::this_thread::sleep_for(std::chrono::milliseconds(kPinSegmentMs));
    }
  }
  LoopResult out;
  out.elapsed_s = seconds_between(start, Clock::now());
  out.rss_mb = loop.rss_mb > 0 ? loop.rss_mb.load() : peak_rss_mb_of(daemon.pid());
  LoopStats& merged = out.stats;
  for (LoopStats& s : per_client) {
    merged.attempted += s.attempted;
    merged.accepted += s.accepted;
    merged.done += s.done;
    merged.latency_s.insert(merged.latency_s.end(), s.latency_s.begin(), s.latency_s.end());
    merged.submit_ms.insert(merged.submit_ms.end(), s.submit_ms.begin(), s.submit_ms.end());
    merged.events_ms.insert(merged.events_ms.end(), s.events_ms.begin(), s.events_ms.end());
    merged.view_ms.insert(merged.view_ms.end(), s.view_ms.begin(), s.view_ms.end());
    merged.failures.insert(merged.failures.end(), s.failures.begin(), s.failures.end());
  }
  return out;
}

void tally(Result& result, const LoopStats& stats) {
  result.attempted += stats.attempted;
  for (const std::string& why : stats.failures) result.fail("daemon_roundtrip: " + why);
}

/// Median wall time of Daemon::handle for a submit, in process, no transport.
double handle_submit_us(const std::vector<PoolEntry>& pool, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ctl::DaemonOptions options;
  options.workers = kDaemonWorkers;
  options.journal_file = dir + "/journal.jsonl";
  ctl::Daemon daemon(options);
  std::vector<double> samples;
  for (int i = 0; i < kHandleSamples; ++i) {
    net::HttpRequest submit;
    submit.method = "POST";
    submit.target = submit.path = "/api/v1/runs";
    submit.body = pool[static_cast<std::size_t>(i % kDaemonPool)].body;
    submit.headers["idempotency-key"] = "pb-inproc-" + std::to_string(i);
    const auto t0 = Clock::now();
    const net::HttpResponse res = daemon.handle(submit);
    samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (res.status != 202) std::fprintf(stderr, "perfbench: in-process submit %d\n", res.status);
  }
  daemon.stop();
  return median(samples);
}

}  // namespace

Result run_daemon_roundtrip(const Options& options) {
  Result result;
  GoldenTable golden;
  if (!golden.load(options.golden_file)) return result;

  // Expected checksums, computed before timing starts.
  std::vector<PoolEntry> pool;
  std::vector<double> parse_us, resolve_us, execute_ms;
  for (int k = 0; k < kDaemonPool; ++k) {
    const exp::RunRequest req = tiny_request(k);
    PoolEntry entry;
    entry.body = exp::run_request_to_json(req);
    auto t0 = Clock::now();
    auto parsed = exp::parse_run_request("perfbench", entry.body);
    parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", parsed.error().c_str());
      return result;
    }
    t0 = Clock::now();
    const bool resolved = exp::resolve(*parsed).ok();
    resolve_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    t0 = Clock::now();
    const exp::RunResult run = exp::execute(*parsed);
    execute_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    entry.expected = run.checksum;
    if (!resolved || !run.ok || !run.success ||
        !golden.matches("daemon_roundtrip", "k" + std::to_string(k), run.checksum)) {
      result.fail("daemon_roundtrip k" + std::to_string(k) +
                  ": exp::execute checksum differs from the golden value");
    }
    pool.push_back(std::move(entry));
  }

  // Set-up: spawn aimesd until /api/v1/health answers; the last one serves.
  const std::string base = options.out_dir + "/daemon-" + std::to_string(getpid());
  std::vector<double> setup_times;
  DaemonProcess daemon;
  for (int s = 0; s < kSpawns; ++s) {
    if (s > 0) daemon.stop();
    const auto t0 = Clock::now();
    if (!daemon.start(options.aimesd, base + "/spawn-" + std::to_string(s))) return result;
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  std::atomic<std::uint64_t> request_ids{0};
  Tracer off(false), on(true);
  result.context["load_generator"] =
      "\"closed loop over loopback TCP, " + std::to_string(kClients) +
      " client threads, 3 connections per run; aimesd and clients on " +
      std::to_string(kPinWidth) + " CPUs rotated every " + std::to_string(kPinSegmentMs) +
      " ms\"";
  result.context["aimesd_workers"] = std::to_string(kDaemonWorkers);
  if (!options.trace) {
    const LoopResult loop =
        closed_loop(daemon, pool, options.seed, options.seconds, off, request_ids);
    daemon.stop();
    const LoopStats& stats = loop.stats;
    tally(result, stats);
    const double runs_per_s = static_cast<double>(stats.done) / loop.elapsed_s;
    result.metric("setup_s", median(setup_times), "s");
    result.metric("runs_per_s", runs_per_s, "runs/s");
    result.metric("trials_per_s", runs_per_s, "trials/s");  // one trial per run
    result.metric("submit_done_p50_ms", quantile(stats.latency_s, 0.50) * 1e3, "ms");
    result.metric("peak_rss_mb", loop.rss_mb, "MiB");
    result.context["latency_samples"] = std::to_string(stats.latency_s.size());
    return result;
  }

  // Traced: half the time with spans off, half with spans on, same daemon.
  const LoopStats plain =
      closed_loop(daemon, pool, options.seed, options.seconds / 2, off, request_ids).stats;
  const LoopResult traced =
      closed_loop(daemon, pool, options.seed + 1, options.seconds / 2, on, request_ids);
  const LoopStats& stats = traced.stats;
  const double traced_wall_s = traced.elapsed_s;
  net::HttpRequest scrape;
  scrape.method = "GET";
  scrape.target = scrape.path = "/metrics";
  const auto metrics = net::http_call(daemon.endpoint(), scrape);
  const std::string journal = daemon.journal();
  daemon.stop();
  tally(result, plain);
  tally(result, stats);
  const std::string text = metrics.ok() ? "\n" + metrics->body : "";
  const auto mean_of = [&](const std::string& histogram) {
    const double count = prometheus_value(text, histogram + "_count");
    return count > 0 ? prometheus_value(text, histogram + "_sum") / count * 1e3 : 0.0;
  };
  const std::uint64_t accepted = plain.accepted + stats.accepted;
  const double handle_us = handle_submit_us(pool, base + "/inproc");
  std::error_code ec;
  const auto journal_bytes = std::filesystem::file_size(journal, ec);

  result.metric("submit_done_p99_ms", quantile(plain.latency_s, 0.99) * 1e3, "ms");
  result.metric("exp.parse_us", median(parse_us), "us");
  result.metric("exp.resolve_us", median(resolve_us), "us");
  result.metric("exp.execute_ms", median(execute_ms), "ms");
  result.metric("ctl.submit_ms", median(stats.submit_ms), "ms");
  result.metric("ctl.events_ms", median(stats.events_ms), "ms");
  result.metric("ctl.view_ms", median(stats.view_ms), "ms");
  result.metric("ctl.handle_submit_us", handle_us, "us");
  result.metric("net.http_overhead_ms", median(stats.submit_ms) - handle_us / 1e3, "ms");
  result.metric("ctl.queue_wait_ms", mean_of("aimes_ctl_run_queue_wait_seconds"), "ms");
  result.metric("ctl.run_duration_ms", mean_of("aimes_ctl_run_duration_seconds"), "ms");
  result.metric("ctl.journal_bytes_per_run",
                accepted > 0 && !ec ? static_cast<double>(journal_bytes) /
                                          static_cast<double>(accepted)
                                    : 0.0,
                "bytes");
  const std::uint64_t attempts = plain.attempted + stats.attempted;
  result.metric("ctl.accept_ratio",
                attempts > 0 ? static_cast<double>(accepted) / static_cast<double>(attempts)
                             : 0.0,
                "fraction");
  const double p50_plain = quantile(plain.latency_s, 0.5);
  result.metric("trace.overhead_share",
                p50_plain > 0 ? quantile(stats.latency_s, 0.5) / p50_plain - 1.0 : 0.0,
                "fraction");
  // Concurrent clients: span time is summed per client, so the accounting
  // compares the spans with the clients' busy time, not the wall clock.
  const double busy_ms = traced_wall_s * 1e3 * kClients;
  result.metric("trace.unaccounted_share",
                busy_ms > 0 ? (busy_ms - on.accounted_ms()) / busy_ms : 0.0, "fraction");
  print_span_table(on, busy_ms);
  const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (!on.write(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  result.context["spans_file"] = "\"" + path + "\"";
  return result;
}

void record_daemon_roundtrip(std::string& out) {
  for (int k = 0; k < kDaemonPool; ++k) {
    const exp::RunResult run = exp::execute(tiny_request(k));
    out += "daemon_roundtrip k" + std::to_string(k) + " " + hex16(run.checksum) + "\n";
  }
  std::fprintf(stderr, "perfbench: recorded daemon_roundtrip\n");
}

}  // namespace aimes::perfbench
