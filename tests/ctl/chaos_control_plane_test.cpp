// Control-plane chaos suite: a real ctl::Daemon driven over real sockets
// with the seeded net::FaultSpec shim armed at >= 10% injection — resets,
// accept-time resets, 1-byte torn frames, stalled reads — while concurrent
// clients submit (with Idempotency-Keys), stream logs, and cancel, retrying
// with net::Backoff exactly as aimesc does.
//
// The invariant under test is the PR's acceptance bar: every client
// operation either succeeds or fails with a typed error within its deadline
// (no hangs), retried submits with the same key yield exactly one journaled
// run (zero lost, zero duplicated), log followers reassemble the exact
// stored bytes across torn connections, and SIGKILL-shaped restart cycles
// (journal snapshot mid-flight -> replay into a fresh registry) lose
// nothing and keep the dedup index.
//
// Deliberately outside the test_*.cpp glob: it rides in its own binary,
// labeled `chaos` (ctest -L chaos) and `sanitize` so the ASan/UBSan and
// TSan build types run the whole fault matrix too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "ctl/daemon.hpp"
#include "ctl/registry.hpp"
#include "exp/request.hpp"
#include "net/fault.hpp"
#include "net/http.hpp"

namespace {

using namespace aimes;
using namespace std::chrono_literals;

/// Installs a fault profile for one test and always clears it on the way
/// out, so a failing assertion cannot leak faults into the next test.
struct FaultGuard {
  explicit FaultGuard(const net::FaultSpec& spec) { net::install_net_faults(spec); }
  ~FaultGuard() { net::clear_net_faults(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

/// The >= 10% chaos profile from the acceptance criteria: mid-stream and
/// accept-time resets at 10%/5%, maximal framing tearing on a quarter of
/// all reads and writes, and short stalls to exercise the poll paths.
net::FaultSpec chaos_profile(std::uint64_t seed) {
  net::FaultSpec spec;
  spec.seed = seed;
  spec.reset = 0.10;
  spec.accept_reset = 0.05;
  spec.short_read = 0.25;
  spec.short_write = 0.25;
  spec.read_stall = 0.05;
  spec.stall_ms = 2;
  return spec;
}

exp::RunRequest quick_request(std::uint64_t seed = 42) {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 3;
  req.seed = seed;
  return req;
}

/// A fast executor that still has trial boundaries: a log line per trial, a
/// cancel poll between trials, a seed-dependent checksum.
ctl::Registry::Executor stub_executor() {
  return [](const exp::RunRequest& req, const exp::RunHooks& hooks) {
    exp::RunResult result;
    result.ok = true;
    result.trials_requested = req.trials;
    for (int trial = 1; trial <= req.trials; ++trial) {
      if (hooks.cancelled && hooks.cancelled()) {
        result.cancelled = true;
        break;
      }
      if (hooks.log) hooks.log("trial " + std::to_string(trial) + "/" +
                               std::to_string(req.trials) + ": ttc 40s");
      ++result.trials_completed;
      std::this_thread::sleep_for(1ms);
    }
    result.success = result.trials_completed > 0;
    result.checksum = 0x5eedULL ^ req.seed;
    return result;
  };
}

net::HttpRequest http(const std::string& method, const std::string& target,
                      const std::string& body = "") {
  net::HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  return req;
}

/// One client operation under chaos, aimesc-style: retry transport errors
/// with capped seeded backoff until the deadline. Returns the first parsed
/// response (any status) or the last typed transport error — never hangs.
common::Expected<net::HttpResponse> call_until(const net::Endpoint& endpoint,
                                               const net::HttpRequest& request,
                                               std::chrono::seconds deadline_s = 30s,
                                               std::uint64_t seed = 0xca11ULL) {
  net::Backoff backoff(5, 200, seed);
  const auto deadline = std::chrono::steady_clock::now() + deadline_s;
  common::Expected<net::HttpResponse> last =
      common::Expected<net::HttpResponse>::error("never attempted");
  while (std::chrono::steady_clock::now() < deadline) {
    last = net::http_call(endpoint, request, 2000);
    if (last.ok()) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_ms()));
  }
  return last;
}

/// Submits with an Idempotency-Key, retrying until a 202 lands. Every retry
/// reuses the same key, so a request whose response was torn after the
/// daemon accepted it dedups instead of duplicating.
std::uint64_t submit_idempotent(const net::Endpoint& endpoint, const exp::RunRequest& req,
                                const std::string& key, std::uint64_t seed) {
  net::HttpRequest request = http("POST", "/api/v1/runs", exp::run_request_to_json(req));
  request.headers["Idempotency-Key"] = key;
  net::Backoff backoff(5, 200, seed);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = net::http_call(endpoint, request, 2000);
    if (response.ok() && response->status == 202) {
      auto id = common::json::Node::parse("response", response->body)
                    .value_or({})
                    .get("id")
                    .integer<std::uint64_t>();
      EXPECT_TRUE(id.ok()) << response->body;
      return id.ok() ? *id : 0;
    }
    // Anything else is a typed refusal (4xx/5xx) or a torn wire; both retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_ms()));
  }
  ADD_FAILURE() << "submit with key " << key << " never landed";
  return 0;
}

std::string field(const std::string& json, const std::string& key) {
  return common::json::Node::parse("record", json).value_or({}).get(key).text().value_or("");
}

/// Polls GET /runs/<id> (with chaos retries) until the state is terminal.
std::string await_terminal(const net::Endpoint& endpoint, std::uint64_t id) {
  const std::string target = "/api/v1/runs/" + std::to_string(id);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  std::string body;
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = call_until(endpoint, http("GET", target), 10s, id);
    if (response.ok()) {
      body = response->body;
      const std::string state = field(body, "state");
      if (state == "done" || state == "failed" || state == "cancelled") {
        return body;
      }
    }
    std::this_thread::sleep_for(5ms);
  }
  return body;
}

/// Follows a run's log aimesc-style: reconnect from the last byte offset
/// after every torn stream until the run is terminal. Returns the
/// reassembled bytes.
std::string follow_log(const net::Endpoint& endpoint, std::uint64_t id) {
  std::string assembled;
  net::Backoff backoff(5, 200, 0x6c6f67ULL + id);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string target = "/api/v1/runs/" + std::to_string(id) +
                               "/log?follow=1&offset=" + std::to_string(assembled.size());
    std::size_t before = assembled.size();
    auto res = net::http_stream(
        endpoint, http("GET", target),
        [&](std::string_view piece) {
          assembled.append(piece.data(), piece.size());
          return true;
        },
        10000, 2000);
    if (res.ok()) {
      if (res->status != 200) return assembled;  // typed refusal; give up
      assembled += res->body;  // terminal runs answer with a plain body
      // A clean end-of-stream means the daemon drained the tail and the run
      // was terminal when it closed. A torn stream surfaces as !res.ok().
      return assembled;
    }
    if (assembled.size() > before) backoff.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_ms()));
  }
  return assembled;
}

std::string temp_journal(const std::string& name) {
  return testing::TempDir() + "aimes_chaos_" + name + ".jsonl";
}


TEST(ControlPlaneChaos, ConcurrentSubmitStreamCancelAllResolveTyped) {
  ctl::DaemonOptions options;
  options.workers = 2;
  options.executor = stub_executor();
  ctl::Daemon daemon(options);
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();
  const net::Endpoint endpoint = daemon.endpoint();

  FaultGuard faults(chaos_profile(7));

  // Six tenants submit concurrently through the faulted wire, each with its
  // own idempotency key; two of them also follow their run's log, one
  // cancels its run mid-flight.
  constexpr int kClients = 6;
  std::vector<std::uint64_t> ids(kClients, 0);
  std::vector<std::string> logs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exp::RunRequest req = quick_request(1000 + static_cast<std::uint64_t>(c));
      req.user = "tenant" + std::to_string(c);
      req.trials = (c == 2) ? 50 : 3;  // the cancel target needs runway
      const std::string key = "chaos-key-" + std::to_string(c);
      ids[c] = submit_idempotent(endpoint, req, key, 0xabcd00ULL + c);
      if (ids[c] == 0) return;
      if (c == 2) {
        auto cancel = call_until(
            endpoint, http("POST", "/api/v1/runs/" + std::to_string(ids[c]) + "/cancel"),
            30s, 0xdeadULL);
        EXPECT_TRUE(cancel.ok()) << cancel.error();
        if (cancel.ok()) {
          EXPECT_EQ(cancel->status, 202) << cancel->body;
        }
      }
      if (c == 0 || c == 1) logs[c] = follow_log(endpoint, ids[c]);
    });
  }
  for (auto& t : clients) t.join();

  // Every submit landed and every run reached a terminal state — under
  // faults the clients see retries, never hangs or lost runs.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_GT(ids[c], 0u) << "client " << c;
    const std::string record = await_terminal(endpoint, ids[c]);
    const std::string state = field(record, "state");
    EXPECT_TRUE(state == "done" || state == "cancelled") << "client " << c << ": " << record;
  }

  net::clear_net_faults();  // assertions below want a clean wire

  // Exactly one run per key: the retried submits deduped instead of
  // duplicating (zero lost, zero duplicated).
  const auto runs = daemon.registry().list();
  EXPECT_EQ(runs.size(), static_cast<std::size_t>(kClients));
  std::map<std::string, int> per_key;
  for (const auto& run : runs) ++per_key[run.idempotency_key];
  for (const auto& [key, count] : per_key) {
    EXPECT_EQ(count, 1) << "key " << key << " produced " << count << " runs";
  }

  // The followed logs reassembled to exactly the stored bytes, across every
  // torn connection.
  for (int c : {0, 1}) {
    const auto record = daemon.registry().get(ids[c]);
    ASSERT_TRUE(record.ok());
    std::string stored;
    for (const auto& line : record->log) stored += line + "\n";
    EXPECT_EQ(logs[c], stored) << "client " << c;
  }
  daemon.stop();
}

TEST(ControlPlaneChaos, RetriedSubmitUnderHeavyResetsLandsExactlyOnce) {
  const std::string path = temp_journal("exactly-once");
  std::remove(path.c_str());
  ctl::DaemonOptions options;
  options.workers = 1;
  options.executor = stub_executor();
  options.journal_file = path;
  ctl::Daemon daemon(options);
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();
  const net::Endpoint endpoint = daemon.endpoint();

  // A hostile wire: one in five operations resets. Most submit round trips
  // tear somewhere — including *after* the daemon accepted, the case where
  // a keyless retry would duplicate the run.
  net::FaultSpec spec;
  spec.seed = 99;
  spec.reset = 0.2;
  spec.short_read = 0.3;
  spec.short_write = 0.3;
  {
    FaultGuard faults(spec);
    const std::uint64_t id =
        submit_idempotent(endpoint, quick_request(), "exactly-once-key", 0x1ULL);
    ASSERT_GT(id, 0u);
    (void)await_terminal(endpoint, id);
  }

  // One journaled run, exactly — and a post-chaos retry of the same key
  // still dedups to it.
  EXPECT_EQ(daemon.registry().counters().submitted, 1u);
  EXPECT_EQ(daemon.registry().list().size(), 1u);
  net::HttpRequest retry = http("POST", "/api/v1/runs",
                                exp::run_request_to_json(quick_request()));
  retry.headers["Idempotency-Key"] = "exactly-once-key";
  auto response = net::http_call(endpoint, retry);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_EQ(response->status, 202);
  EXPECT_NE(response->body.find("\"duplicate\": true"), std::string::npos) << response->body;
  daemon.stop();

  // The journal agrees: one submit record for the key.
  std::ifstream in(path);
  std::string line;
  int submits = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\": \"submit\"") != std::string::npos) ++submits;
  }
  EXPECT_EQ(submits, 1);
}

TEST(ControlPlaneChaos, CrashRestartCycleLosesNothingAndKeepsDedupIndex) {
  const std::string path = temp_journal("crash-cycle");
  const std::string snapshot = temp_journal("crash-cycle-snapshot");
  std::remove(path.c_str());
  std::remove(snapshot.c_str());

  // First life: one keyed run completes, a second keyed run is parked
  // mid-flight when we snapshot the journal — the byte-for-byte image a
  // SIGKILL would leave (the journal is flushed per transition; the
  // registry destructor's graceful drain is exactly what a crash skips).
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  {
    ctl::Registry::Options options;
    options.workers = 1;
    options.journal_file = path;
    options.executor = [&](const exp::RunRequest& req, const exp::RunHooks& hooks) {
      if (req.name == "parked") {
        parked.store(true);
        while (!release.load() && !(hooks.cancelled && hooks.cancelled())) {
          std::this_thread::sleep_for(1ms);
        }
      }
      exp::RunResult r;
      r.ok = true;
      r.success = true;
      r.trials_requested = req.trials;
      r.trials_completed = req.trials;
      r.checksum = 0x5eedULL ^ req.seed;
      return r;
    };
    ctl::Registry registry(options);
    const auto done = registry.submit(quick_request(1), "ana", "cycle-key-done");
    ASSERT_TRUE(done.accepted) << done.error;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (registry.counters().completed < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(registry.counters().completed, 1u);

    exp::RunRequest hang = quick_request(2);
    hang.name = "parked";
    const auto in_flight = registry.submit(hang, "ben", "cycle-key-orphan");
    ASSERT_TRUE(in_flight.accepted) << in_flight.error;
    while (!parked.load()) std::this_thread::sleep_for(1ms);

    // The crash instant: copy the journal while run 2 is running.
    std::ifstream src(path, std::ios::binary);
    std::ofstream dst(snapshot, std::ios::binary);
    dst << src.rdbuf();
    release.store(true);
  }

  // Second life replays the snapshot: the completed run is intact, the
  // in-flight one is resurrected as failed (daemon-restart), the dedup
  // index covers both keys, and new ids continue past the recovered ones.
  ctl::Registry::Options options;
  options.workers = 1;
  options.journal_file = snapshot;
  options.executor = stub_executor();
  ctl::Registry registry(options);
  ASSERT_TRUE(registry.journal_status().ok()) << registry.journal_status().error();

  const auto done = registry.get(1);
  ASSERT_TRUE(done.ok()) << done.error();
  EXPECT_EQ(done->state, ctl::RunState::kDone);
  EXPECT_EQ(done->idempotency_key, "cycle-key-done");

  const auto orphan = registry.get(2);
  ASSERT_TRUE(orphan.ok()) << orphan.error();
  EXPECT_EQ(orphan->state, ctl::RunState::kFailed);
  EXPECT_EQ(orphan->fail_reason, ctl::FailReason::kDaemonRestart);
  EXPECT_EQ(orphan->idempotency_key, "cycle-key-orphan");

  // Zero lost, zero duplicated: both keys dedup to their original runs.
  const auto retry_done = registry.submit(quick_request(1), "ana", "cycle-key-done");
  ASSERT_TRUE(retry_done.accepted) << retry_done.error;
  EXPECT_TRUE(retry_done.duplicate);
  EXPECT_EQ(retry_done.id, 1u);
  const auto retry_orphan = registry.submit(quick_request(2), "ben", "cycle-key-orphan");
  ASSERT_TRUE(retry_orphan.accepted) << retry_orphan.error;
  EXPECT_TRUE(retry_orphan.duplicate);
  EXPECT_EQ(retry_orphan.id, 2u);
  EXPECT_EQ(registry.counters().submitted, 2u);
  EXPECT_EQ(registry.list().size(), 2u);

  // A genuinely new run gets a fresh id past the recovered history.
  const auto fresh = registry.submit(quick_request(3), "ana", "cycle-key-fresh");
  ASSERT_TRUE(fresh.accepted) << fresh.error;
  EXPECT_FALSE(fresh.duplicate);
  EXPECT_EQ(fresh.id, 3u);
}

TEST(ControlPlaneChaos, DeadlinedRunsResolveTypedWhileTheWireBurns) {
  std::atomic<double> clock{0.0};
  ctl::DaemonOptions options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    // Parks until cancelled — only the deadline reaper can end it.
    while (!(hooks.cancelled && hooks.cancelled())) std::this_thread::sleep_for(1ms);
    exp::RunResult r;
    r.ok = true;
    r.cancelled = true;
    return r;
  };
  options.clock_s = [&clock] { return clock.load(); };
  ctl::Daemon daemon(options);
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();
  const net::Endpoint endpoint = daemon.endpoint();

  FaultGuard faults(chaos_profile(31));

  // A queued-forever run (worker busy) and a running run, both with 5 s
  // deadlines, submitted through the faulted wire.
  exp::RunRequest running = quick_request(1);
  running.deadline_s = 5.0;
  const std::uint64_t running_id =
      submit_idempotent(endpoint, running, "deadline-running", 0x2ULL);
  ASSERT_GT(running_id, 0u);
  exp::RunRequest queued = quick_request(2);
  queued.deadline_s = 5.0;
  const std::uint64_t queued_id =
      submit_idempotent(endpoint, queued, "deadline-queued", 0x3ULL);
  ASSERT_GT(queued_id, 0u);

  clock.store(6.0);  // both deadlines expire; the reaper sweeps within 50 ms

  for (const std::uint64_t id : {running_id, queued_id}) {
    const std::string record = await_terminal(endpoint, id);
    EXPECT_EQ(field(record, "state"), "failed") << record;
    EXPECT_EQ(field(record, "fail_reason"), "deadline") << record;
  }
  daemon.stop();
}

}  // namespace
