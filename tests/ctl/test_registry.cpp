// ctl::Registry and ctl::Daemon::handle(): run lifecycle (queued → running
// → done/failed/cancelled), typed cancellation reasons, drain semantics,
// and the HTTP route table — all with stub executors, so these tests pin
// control-plane behavior without simulating any worlds, and without
// sockets (the transport has its own suite; the live daemon has
// daemon_lifecycle_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "ctl/daemon.hpp"
#include "ctl/registry.hpp"

namespace {

using namespace aimes;
using namespace std::chrono_literals;

exp::RunRequest small_request() {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 1;
  return req;
}

exp::RunResult ok_result() {
  exp::RunResult r;
  r.ok = true;
  r.success = true;
  r.trials_requested = 1;
  r.trials_completed = 1;
  r.checksum = 0xfeedbeefcafef00dULL;
  return r;
}

/// Submit that must be accepted; returns the run id.
std::uint64_t must_submit(ctl::Registry& registry, const exp::RunRequest& req,
                          const std::string& user, const std::string& key = "") {
  const auto outcome = registry.submit(req, user, key);
  EXPECT_TRUE(outcome.accepted) << outcome.error;
  return outcome.id;
}

/// Polls `pred` for up to five seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// Executor that parks until released (or cancelled), so tests can observe
/// the kRunning state and exercise queue ordering deterministically.
struct Gate {
  std::atomic<bool> open{false};
  std::atomic<int> entered{0};

  ctl::Registry::Executor executor() {
    return [this](const exp::RunRequest&, const exp::RunHooks& hooks) {
      entered.fetch_add(1);
      while (!open.load()) {
        if (hooks.cancelled && hooks.cancelled()) {
          exp::RunResult r;
          r.ok = true;
          r.cancelled = true;
          r.trials_requested = 1;
          return r;
        }
        std::this_thread::sleep_for(1ms);
      }
      return ok_result();
    };
  }
};

TEST(Registry, SubmitRunsToCompletion) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    if (hooks.log) hooks.log("trial 1/1: ttc 42s");
    return ok_result();
  };
  ctl::Registry registry(options);

  const std::uint64_t id = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.get(id)->state == ctl::RunState::kDone; }));

  const auto record = registry.get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->user, "ana");
  EXPECT_EQ(record->name, "bag-gaussian-4");
  EXPECT_TRUE(record->result.ok);
  EXPECT_EQ(record->result.checksum, 0xfeedbeefcafef00dULL);
  ASSERT_GE(record->log.size(), 2u);
  EXPECT_EQ(record->log.front(), "trial 1/1: ttc 42s");
  EXPECT_EQ(record->log.back(), "done");

  const auto counters = registry.counters();
  EXPECT_EQ(counters.submitted, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(Registry, InvalidRequestRejectedAtSubmit) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);

  exp::RunRequest bad = small_request();
  bad.tasks = 0;
  const auto outcome = registry.submit(bad, "ana");
  ASSERT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reject, ctl::RejectReason::kInvalid);
  EXPECT_NE(outcome.error.find("tasks"), std::string::npos) << outcome.error;
  EXPECT_EQ(registry.counters().submitted, 0u);
}

TEST(Registry, UnknownIdIsTypedError) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);
  EXPECT_FALSE(registry.get(42).ok());
  EXPECT_FALSE(registry.cancel(42, ctl::CancelReason::kUser).ok());
}

TEST(Registry, CancelQueuedRunNeverStarts) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  ctl::Registry registry(options);

  const std::uint64_t first = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  const std::uint64_t second = must_submit(registry, small_request(), "ana");
  ASSERT_EQ(registry.queued(), 1u);

  ASSERT_TRUE(registry.cancel(second, ctl::CancelReason::kUser).ok());
  const auto record = registry.get(second);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, ctl::RunState::kCancelled);
  EXPECT_EQ(record->cancel_reason, ctl::CancelReason::kUser);
  EXPECT_EQ(registry.queued(), 0u);
  EXPECT_EQ(registry.counters().cancelled, 1u);

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.get(first)->state == ctl::RunState::kDone; }));
  // The cancelled run stayed cancelled; only the first ever entered the
  // executor.
  EXPECT_EQ(gate.entered.load(), 1);
}

TEST(Registry, CancelRunningStopsAtTrialBoundary) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  ctl::Registry registry(options);

  const std::uint64_t id = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));

  ASSERT_TRUE(registry.cancel(id, ctl::CancelReason::kUser).ok());
  ASSERT_TRUE(
      eventually([&] { return registry.get(id)->state == ctl::RunState::kCancelled; }));
  const auto record = registry.get(id);
  EXPECT_EQ(record->cancel_reason, ctl::CancelReason::kUser);
  EXPECT_TRUE(record->result.cancelled);
}

TEST(Registry, DrainCancelsQueuedAndRunningWithShutdownReason) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  auto registry = std::make_unique<ctl::Registry>(options);

  const std::uint64_t running = must_submit(*registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry->running() == 1; }));
  const std::uint64_t queued = must_submit(*registry, small_request(), "ana");

  registry->drain(/*cancel_running=*/true);

  const auto queued_record = registry->get(queued);
  ASSERT_TRUE(queued_record.ok());
  EXPECT_EQ(queued_record->state, ctl::RunState::kCancelled);
  EXPECT_EQ(queued_record->cancel_reason, ctl::CancelReason::kShutdown);

  const auto running_record = registry->get(running);
  ASSERT_TRUE(running_record.ok());
  EXPECT_EQ(running_record->state, ctl::RunState::kCancelled);
  EXPECT_EQ(running_record->cancel_reason, ctl::CancelReason::kShutdown);

  // Draining registries refuse new work with a typed reason.
  const auto late = registry->submit(small_request(), "ana");
  ASSERT_FALSE(late.accepted);
  EXPECT_EQ(late.reject, ctl::RejectReason::kDraining);
  EXPECT_NE(late.error.find("draining"), std::string::npos) << late.error;
}

TEST(Registry, ListNewestFirstWithUserFilter) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);

  const std::uint64_t a = must_submit(registry, small_request(), "ana");
  must_submit(registry, small_request(), "ben");
  const std::uint64_t c = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 3; }));

  const auto all = registry.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, c);  // newest first
  EXPECT_EQ(all[2].id, a);

  const auto ana = registry.list("ana");
  ASSERT_EQ(ana.size(), 2u);
  EXPECT_EQ(ana[0].id, c);
  EXPECT_EQ(ana[1].id, a);
}

TEST(Registry, ListFiltersByState) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  ctl::Registry registry(options);

  const std::uint64_t running = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));
  const std::uint64_t queued = must_submit(registry, small_request(), "ana");

  const auto running_only = registry.list("", ctl::RunState::kRunning);
  ASSERT_EQ(running_only.size(), 1u);
  EXPECT_EQ(running_only[0].id, running);
  const auto queued_only = registry.list("", ctl::RunState::kQueued);
  ASSERT_EQ(queued_only.size(), 1u);
  EXPECT_EQ(queued_only[0].id, queued);
  EXPECT_TRUE(registry.list("", ctl::RunState::kDone).empty());

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 2; }));
  EXPECT_EQ(registry.list("", ctl::RunState::kDone).size(), 2u);
}

TEST(Registry, ProgressSnapshotsRecordedAndFoldedIntoEvents) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    for (int i = 1; i <= 3; ++i) {
      exp::RunProgress p;
      p.trials_done = i;
      p.trials_total = 3;
      p.units_done = static_cast<std::uint64_t>(i) * 10;
      if (hooks.progress) hooks.progress(p);
    }
    return ok_result();
  };
  ctl::Registry registry(options);

  const std::uint64_t id = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.get(id)->state == ctl::RunState::kDone; }));

  const auto record = registry.get(id);
  ASSERT_EQ(record->progress.size(), 3u);
  EXPECT_EQ(record->progress.back().trials_done, 3);
  EXPECT_EQ(record->progress.back().units_done, 30u);

  // The event stream interleaves the state transitions with every snapshot:
  // queued, running, 3x progress, done — in order, with dense seq numbers.
  auto events = registry.wait_events(id, 0, 0ms);
  ASSERT_TRUE(events.ok()) << events.error();
  ASSERT_EQ(events->events.size(), 6u);
  EXPECT_TRUE(events->terminal);
  for (std::size_t i = 0; i < events->events.size(); ++i) {
    EXPECT_EQ(events->events[i].seq, i);
  }
  EXPECT_EQ(events->events[0].kind, "state");
  EXPECT_EQ(events->events[1].kind, "state");
  EXPECT_EQ(events->events[2].kind, "progress");
  EXPECT_EQ(events->events[5].kind, "state");
  EXPECT_NE(events->events[5].data.find("\"state\": \"done\""), std::string::npos);

  // Resume semantics: asking from seq 4 yields only the tail.
  auto tail = registry.wait_events(id, 4, 0ms);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->events.size(), 2u);
  EXPECT_EQ(tail->events[0].seq, 4u);
}

TEST(Registry, LogTailByByteOffset) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    hooks.log("alpha");
    hooks.log("beta");
    return ok_result();
  };
  ctl::Registry registry(options);

  const std::uint64_t id = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.get(id)->state == ctl::RunState::kDone; }));

  auto whole = registry.log_tail(id, 0);
  ASSERT_TRUE(whole.ok()) << whole.error();
  EXPECT_EQ(whole->data, "alpha\nbeta\ndone\n");
  EXPECT_TRUE(whole->terminal);

  // Offset resumes mid-stream with no duplication and no loss.
  auto rest = registry.log_tail(id, 6);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->data, "beta\ndone\n");
  EXPECT_EQ(rest->next_offset, whole->next_offset);

  // Past-the-end offsets yield an empty terminal slice, not an error.
  auto empty = registry.log_tail(id, whole->next_offset);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->data.empty());
  EXPECT_TRUE(empty->terminal);

  EXPECT_FALSE(registry.log_tail(999, 0).ok());
  EXPECT_FALSE(registry.wait_events(999, 0, 0ms).ok());
}

TEST(Registry, WaitLogBlocksUntilBytesArrive) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  ctl::Registry registry(options);

  const std::uint64_t id = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));

  // Nothing logged yet: the bounded wait returns an empty non-terminal slice.
  auto quiet = registry.wait_log(id, 0, 20ms);
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->data.empty());
  EXPECT_FALSE(quiet->terminal);

  gate.open.store(true);
  auto slice = registry.wait_log(id, 0, 5000ms);
  ASSERT_TRUE(slice.ok());
  EXPECT_FALSE(slice->data.empty());
}

TEST(Registry, LatencySamplesRecorded) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);
  must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 1; }));
  EXPECT_EQ(registry.queue_wait_seconds().size(), 1u);
  EXPECT_EQ(registry.run_duration_seconds().size(), 1u);
  EXPECT_GE(registry.queue_wait_seconds()[0], 0.0);
}

// ---------------------------------------------------------------------------
// The quota ladder, deadlines, and idempotency (PR 10 hardening).

TEST(Registry, TokenBucketRateLimitsPerUser) {
  std::atomic<double> now{100.0};
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  options.quota.rate_per_s = 1.0;
  options.quota.rate_burst = 2.0;
  options.clock_s = [&now] { return now.load(); };
  ctl::Registry registry(options);

  // The bucket starts full: the burst passes, the next submit is refused
  // typed with a retry hint sized to the refill.
  must_submit(registry, small_request(), "ana");
  must_submit(registry, small_request(), "ana");
  const auto refused = registry.submit(small_request(), "ana");
  ASSERT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reject, ctl::RejectReason::kRateLimited);
  EXPECT_GT(refused.retry_after_s, 0.0);
  EXPECT_LE(refused.retry_after_s, 1.0);

  // Buckets are per-user: ben is unaffected by ana's exhaustion.
  must_submit(registry, small_request(), "ben");

  // Refill: advancing the injected clock restores tokens deterministically.
  now.store(101.5);
  must_submit(registry, small_request(), "ana");

  const auto counters = registry.user_counters();
  ASSERT_EQ(counters.count("ana"), 1u);
  EXPECT_EQ(counters.at("ana").submitted, 3u);
  EXPECT_EQ(counters.at("ana").rate_limited, 1u);
  EXPECT_EQ(counters.at("ben").submitted, 1u);
  EXPECT_EQ(counters.at("ben").rate_limited, 0u);
}

TEST(Registry, PerUserQueuedQuotaRefusesTyped) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  options.quota.max_queued_per_user = 1;
  ctl::Registry registry(options);

  must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));
  must_submit(registry, small_request(), "ana");  // ana's one queued slot

  const auto refused = registry.submit(small_request(), "ana");
  ASSERT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reject, ctl::RejectReason::kUserQueued);
  EXPECT_GT(refused.retry_after_s, 0.0);

  // The quota is per-user, not global: ben still gets a queued slot.
  must_submit(registry, small_request(), "ben");
  EXPECT_EQ(registry.user_counters().at("ana").shed, 1u);

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 3; }));
}

TEST(Registry, GlobalQueueDepthBoundIs503Shaped) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  options.quota.max_queue_depth = 1;
  ctl::Registry registry(options);

  must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));
  must_submit(registry, small_request(), "ben");  // fills the global queue

  const auto refused = registry.submit(small_request(), "cleo");
  ASSERT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reject, ctl::RejectReason::kQueueFull);
  EXPECT_EQ(registry.user_counters().at("cleo").shed, 1u);

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 2; }));
}

TEST(Registry, PerUserRunningCapDispatchesAroundTheHog) {
  Gate gate;
  ctl::Registry::Options options;
  options.workers = 2;
  options.executor = gate.executor();
  options.quota.max_running_per_user = 1;
  ctl::Registry registry(options);

  const std::uint64_t ana1 = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));
  const std::uint64_t ana2 = must_submit(registry, small_request(), "ana");
  const std::uint64_t ben = must_submit(registry, small_request(), "ben");

  // ben's run is behind ana2 in the FIFO, but ana is at her running cap, so
  // the free worker skips over ana2 and claims ben's run.
  ASSERT_TRUE(eventually([&] { return registry.running() == 2; }));
  EXPECT_EQ(registry.get(ben)->state, ctl::RunState::kRunning);
  EXPECT_EQ(registry.get(ana2)->state, ctl::RunState::kQueued);
  EXPECT_EQ(registry.get(ana1)->state, ctl::RunState::kRunning);

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 3; }));
}

TEST(Registry, QueuedRunPastDeadlineFailsTyped) {
  Gate gate;
  std::atomic<double> now{1000.0};
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  options.clock_s = [&now] { return now.load(); };
  ctl::Registry registry(options);

  const std::uint64_t hog = must_submit(registry, small_request(), "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));
  exp::RunRequest dated = small_request();
  dated.deadline_s = 5.0;
  const std::uint64_t late = must_submit(registry, dated, "ben");
  EXPECT_EQ(registry.get(late)->state, ctl::RunState::kQueued);

  // Step past the deadline: the reaper fails the queued run without it ever
  // reaching a worker, with the typed reason and an explanatory log line.
  now.store(1006.0);
  ASSERT_TRUE(
      eventually([&] { return registry.get(late)->state == ctl::RunState::kFailed; }));
  const auto record = registry.get(late);
  EXPECT_EQ(record->fail_reason, ctl::FailReason::kDeadline);
  ASSERT_FALSE(record->log.empty());
  EXPECT_NE(record->log.back().find("deadline"), std::string::npos) << record->log.back();

  gate.open.store(true);
  ASSERT_TRUE(eventually([&] { return registry.get(hog)->state == ctl::RunState::kDone; }));
  EXPECT_EQ(registry.counters().failed, 1u);
}

TEST(Registry, RunningRunPastDeadlineCutAtTrialBoundary) {
  Gate gate;  // never opened: the run only ends via its cancel token
  std::atomic<double> now{50.0};
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = gate.executor();
  options.clock_s = [&now] { return now.load(); };
  ctl::Registry registry(options);

  exp::RunRequest dated = small_request();
  dated.deadline_s = 3.0;
  const std::uint64_t id = must_submit(registry, dated, "ana");
  ASSERT_TRUE(eventually([&] { return registry.running() == 1; }));

  now.store(60.0);
  ASSERT_TRUE(eventually([&] { return registry.get(id)->state == ctl::RunState::kFailed; }));
  const auto record = registry.get(id);
  EXPECT_EQ(record->fail_reason, ctl::FailReason::kDeadline);
  EXPECT_EQ(record->cancel_reason, ctl::CancelReason::kDeadline);
  EXPECT_TRUE(record->result.cancelled);
}

TEST(Registry, IdempotentResubmitReturnsExistingRun) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);

  const auto first = registry.submit(small_request(), "ana", "key-77");
  ASSERT_TRUE(first.accepted) << first.error;
  EXPECT_FALSE(first.duplicate);

  // The retried submit — same key — lands on the existing run, whatever
  // request body rides along, and does not create a second run.
  const auto retry = registry.submit(small_request(), "ana", "key-77");
  ASSERT_TRUE(retry.accepted);
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(retry.id, first.id);
  EXPECT_EQ(registry.counters().submitted, 1u);
  EXPECT_EQ(registry.list().size(), 1u);

  // Still deduplicated after the run finished: a very late retry must not
  // silently re-execute the campaign.
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 1; }));
  const auto late = registry.submit(small_request(), "ana", "key-77");
  ASSERT_TRUE(late.accepted);
  EXPECT_TRUE(late.duplicate);
  EXPECT_EQ(late.id, first.id);

  EXPECT_EQ(registry.user_counters().at("ana").replays, 2u);
  const auto samples = registry.idempotency_replays();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0], 2.0);

  // A different key is a different run.
  const auto other = registry.submit(small_request(), "ana", "key-78");
  ASSERT_TRUE(other.accepted);
  EXPECT_FALSE(other.duplicate);
  EXPECT_NE(other.id, first.id);
}

TEST(Registry, IdempotencyReplayBypassesQuotaLadder) {
  std::atomic<double> now{0.0};
  ctl::Registry::Options options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  options.quota.rate_per_s = 0.001;  // one token, glacial refill
  options.quota.rate_burst = 1.0;
  options.clock_s = [&now] { return now.load(); };
  ctl::Registry registry(options);

  const auto first = registry.submit(small_request(), "ana", "key-1");
  ASSERT_TRUE(first.accepted) << first.error;
  // A retry of an already-accepted submit must succeed even though the
  // bucket is empty — refusing it would strand the client without its id.
  const auto retry = registry.submit(small_request(), "ana", "key-1");
  ASSERT_TRUE(retry.accepted);
  EXPECT_TRUE(retry.duplicate);
  // A genuinely new submit is still rate-limited.
  const auto fresh = registry.submit(small_request(), "ana", "key-2");
  ASSERT_FALSE(fresh.accepted);
  EXPECT_EQ(fresh.reject, ctl::RejectReason::kRateLimited);
}

// ---------------------------------------------------------------------------
// Daemon route table, transport-free.

net::HttpRequest http(const std::string& method, const std::string& target,
                      const std::string& body = "") {
  net::HttpRequest req;
  req.method = method;
  req.target = target;
  const auto q = target.find('?');
  req.path = target.substr(0, q);
  if (q != std::string::npos) req.query = target.substr(q + 1);
  req.body = body;
  return req;
}

ctl::Daemon stub_daemon() {
  ctl::DaemonOptions options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  return ctl::Daemon(options);
}

TEST(DaemonRoutes, SubmitViewCancelRoundTrip) {
  auto daemon = stub_daemon();
  const auto submitted =
      daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4, \"user\": \"ana\"}"));
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  EXPECT_NE(submitted.body.find("\"id\": 1"), std::string::npos) << submitted.body;

  ASSERT_TRUE(eventually([&] {
    return daemon.handle(http("GET", "/api/v1/runs/1")).body.find("\"state\": \"done\"") !=
           std::string::npos;
  }));
  const auto view = daemon.handle(http("GET", "/api/v1/runs/1"));
  EXPECT_EQ(view.status, 200);
  EXPECT_NE(view.body.find("\"user\": \"ana\""), std::string::npos) << view.body;
  EXPECT_NE(view.body.find("\"checksum\": \"feedbeefcafef00d\""), std::string::npos)
      << view.body;

  // Cancelling a finished run is a no-op, not an error.
  const auto cancel = daemon.handle(http("POST", "/api/v1/runs/1/cancel"));
  EXPECT_EQ(cancel.status, 202) << cancel.body;

  const auto log = daemon.handle(http("GET", "/api/v1/runs/1/log"));
  EXPECT_EQ(log.status, 200);
  EXPECT_EQ(log.content_type.find("text/plain"), 0u) << log.content_type;
  EXPECT_NE(log.body.find("done"), std::string::npos) << log.body;
}

TEST(DaemonRoutes, MalformedSubmitGets400WithFieldAndOffset) {
  auto daemon = stub_daemon();
  const auto bad = daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": \"lots\"}"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"error\""), std::string::npos) << bad.body;
  EXPECT_NE(bad.body.find("tasks"), std::string::npos) << bad.body;
  EXPECT_NE(bad.body.find("byte"), std::string::npos) << bad.body;

  const auto invalid = daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 0}"));
  EXPECT_EQ(invalid.status, 400);
  EXPECT_NE(invalid.body.find("tasks"), std::string::npos) << invalid.body;
}

TEST(DaemonRoutes, OverflowingDurationGets400NamingTheField) {
  // 1e300 s once became a cooldown of INT64_MIN ms (float-to-int overflow).
  auto daemon = stub_daemon();
  const auto refused = daemon.handle(
      http("POST", "/api/v1/runs",
           "{\"admission\": {\"breaker_cooldown_s\": 1e300}, \"campaign\": {\"tenants\": 2}, "
           "\"profile\": \"bag-uniform\"}"));
  EXPECT_EQ(refused.status, 400) << refused.body;
  auto body = common::json::Node::parse("400 body", refused.body);
  ASSERT_TRUE(body.ok()) << body.error();
  auto error = body->get("error").text();
  ASSERT_TRUE(error.ok()) << error.error();
  EXPECT_NE(error->find("field 'admission.breaker_cooldown_s' at byte 37"), std::string::npos)
      << *error;
}

TEST(DaemonRoutes, ListFiltersByUser) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4, \"user\": \"ana\"}"))
                .status,
            202);
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4, \"user\": \"ben\"}"))
                .status,
            202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 2; }));

  const auto all = daemon.handle(http("GET", "/api/v1/runs"));
  EXPECT_NE(all.body.find("\"ana\""), std::string::npos) << all.body;
  EXPECT_NE(all.body.find("\"ben\""), std::string::npos) << all.body;

  const auto ana = daemon.handle(http("GET", "/api/v1/runs?user=ana"));
  EXPECT_NE(ana.body.find("\"ana\""), std::string::npos) << ana.body;
  EXPECT_EQ(ana.body.find("\"ben\""), std::string::npos) << ana.body;
}

TEST(DaemonRoutes, HealthResourceAndMetrics) {
  auto daemon = stub_daemon();
  const auto health = daemon.handle(http("GET", "/api/v1/health"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\": \"ok\""), std::string::npos) << health.body;

  const auto resource = daemon.handle(http("GET", "/api/v1/resource"));
  EXPECT_EQ(resource.status, 200);
  EXPECT_NE(resource.body.find("\"sites\""), std::string::npos) << resource.body;
  EXPECT_NE(resource.body.find("stampede-sim"), std::string::npos) << resource.body;

  const auto metrics = daemon.handle(http("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type.find("text/plain"), 0u) << metrics.content_type;
  EXPECT_NE(metrics.body.find("# TYPE aimes_ctl_runs_submitted counter"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_runs_queued"), std::string::npos) << metrics.body;
}

TEST(DaemonRoutes, UnknownPathsAndMethodsAreTyped) {
  auto daemon = stub_daemon();
  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/nope")).status, 404);
  EXPECT_EQ(daemon.handle(http("PUT", "/api/v1/runs")).status, 405);
  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/runs/999")).status, 404);
  EXPECT_EQ(daemon.handle(http("POST", "/api/v1/runs/999/cancel")).status, 404);
}

TEST(DaemonRoutes, ListStateFilterAndBadStateIs400) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));

  const auto done = daemon.handle(http("GET", "/api/v1/runs?state=done"));
  EXPECT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("\"id\": 1"), std::string::npos) << done.body;
  const auto queued = daemon.handle(http("GET", "/api/v1/runs?state=queued"));
  EXPECT_EQ(queued.body.find("\"id\": 1"), std::string::npos) << queued.body;

  const auto bad = daemon.handle(http("GET", "/api/v1/runs?state=sideways"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("sideways"), std::string::npos) << bad.body;
}

TEST(DaemonRoutes, LogOffsetTailAndGarbageOffsetIs400) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));

  const auto whole = daemon.handle(http("GET", "/api/v1/runs/1/log"));
  ASSERT_EQ(whole.status, 200);
  const auto tail = daemon.handle(http("GET", "/api/v1/runs/1/log?offset=2"));
  ASSERT_EQ(tail.status, 200);
  EXPECT_EQ(tail.body, whole.body.substr(2));

  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/runs/1/log?offset=2x")).status, 400);
  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/runs/999/log")).status, 404);
}

TEST(DaemonRoutes, FollowLogStreamsToTerminal) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);

  // A terminal run served with follow=1 may come back unstreamed (all bytes
  // in the body) or as a short stream; accept both by draining the pull.
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));
  auto res = daemon.handle(http("GET", "/api/v1/runs/1/log?follow=1"));
  ASSERT_EQ(res.status, 200);
  std::string collected = res.body;
  while (res.stream) {
    std::string piece;
    if (!res.stream(piece)) break;
    collected += piece;
  }
  EXPECT_NE(collected.find("done"), std::string::npos) << collected;
}

TEST(DaemonRoutes, EventsRouteStreamsSseFrames) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));

  auto res = daemon.handle(http("GET", "/api/v1/runs/1/events"));
  ASSERT_EQ(res.status, 200);
  EXPECT_EQ(res.content_type, "text/event-stream");
  ASSERT_TRUE(res.stream);
  std::string collected;
  for (int pulls = 0; pulls < 50; ++pulls) {
    std::string piece;
    const bool more = res.stream(piece);
    collected += piece;
    if (!more) break;
  }
  // SSE framing: id/event/data lines per event, blank-line separated, and
  // the stream ends (pull returned false) once the terminal state is out.
  EXPECT_NE(collected.find("id: 0\n"), std::string::npos) << collected;
  EXPECT_NE(collected.find("event: state\n"), std::string::npos) << collected;
  EXPECT_NE(collected.find("\"state\": \"done\""), std::string::npos) << collected;

  // Resume from an offset past the end of a terminal run: stream ends fast.
  auto resumed = daemon.handle(http("GET", "/api/v1/runs/1/events?offset=99"));
  ASSERT_TRUE(resumed.stream);
  std::string piece;
  EXPECT_FALSE(resumed.stream(piece));

  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/runs/999/events")).status, 404);
  EXPECT_EQ(daemon.handle(http("GET", "/api/v1/runs/1/events?offset=-1")).status, 400);
}

TEST(DaemonRoutes, MetricsIncludeLatencyHistograms) {
  auto daemon = stub_daemon();
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));

  const auto metrics = daemon.handle(http("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE aimes_ctl_run_queue_wait_seconds histogram"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_run_queue_wait_seconds_bucket"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_run_duration_seconds_sum"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_run_duration_seconds_count 1"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("le=\"+Inf\""), std::string::npos) << metrics.body;
}

TEST(DaemonRoutes, ViewIncludesProgressAndFailReason) {
  ctl::DaemonOptions options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    exp::RunProgress p;
    p.trials_done = 1;
    p.trials_total = 1;
    if (hooks.progress) hooks.progress(p);
    return ok_result();
  };
  ctl::Daemon daemon(options);
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));

  const auto view = daemon.handle(http("GET", "/api/v1/runs/1"));
  EXPECT_NE(view.body.find("\"fail_reason\": \"none\""), std::string::npos) << view.body;
  EXPECT_NE(view.body.find("\"progress_events\": 1"), std::string::npos) << view.body;
  EXPECT_NE(view.body.find("\"trials_done\": 1"), std::string::npos) << view.body;
}

TEST(DaemonRoutes, RateLimitRefusalIs429WithRetryAfter) {
  ctl::DaemonOptions options;
  options.workers = 1;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  options.quota.rate_per_s = 0.001;  // one token, then a very slow refill
  options.quota.rate_burst = 1.0;
  ctl::Daemon daemon(options);

  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  const auto refused = daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}"));
  EXPECT_EQ(refused.status, 429) << refused.body;
  EXPECT_NE(refused.body.find("\"reason\": \"rate-limited\""), std::string::npos)
      << refused.body;
  EXPECT_NE(refused.body.find("\"retry_after_s\""), std::string::npos) << refused.body;
  ASSERT_EQ(refused.headers.count("Retry-After"), 1u);
  EXPECT_GE(std::stol(refused.headers.at("Retry-After")), 1);
}

TEST(DaemonRoutes, QueueFullRefusalIs503) {
  ctl::DaemonOptions options;
  options.workers = 1;
  auto gate = std::make_shared<Gate>();
  options.executor = gate->executor();
  options.quota.max_queue_depth = 1;
  ctl::Daemon daemon(options);

  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);
  ASSERT_TRUE(eventually([&] { return daemon.registry().running() == 1; }));
  ASSERT_EQ(daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}")).status, 202);

  const auto refused = daemon.handle(http("POST", "/api/v1/runs", "{\"tasks\": 4}"));
  EXPECT_EQ(refused.status, 503) << refused.body;
  EXPECT_NE(refused.body.find("\"reason\": \"queue-full\""), std::string::npos)
      << refused.body;
  EXPECT_EQ(refused.headers.count("Retry-After"), 1u);

  gate->open.store(true);
  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 2; }));
}

TEST(DaemonRoutes, IdempotencyKeyDedupsAndFeedsMetrics) {
  auto daemon = stub_daemon();
  auto request = http("POST", "/api/v1/runs", "{\"tasks\": 4}");
  request.headers["idempotency-key"] = "cli-abc123";

  const auto first = daemon.handle(request);
  ASSERT_EQ(first.status, 202) << first.body;
  EXPECT_NE(first.body.find("\"duplicate\": false"), std::string::npos) << first.body;
  ASSERT_EQ(first.headers.count("Idempotency-Key"), 1u);
  EXPECT_EQ(first.headers.at("Idempotency-Key"), "cli-abc123");

  const auto retry = daemon.handle(request);
  ASSERT_EQ(retry.status, 202) << retry.body;
  EXPECT_NE(retry.body.find("\"id\": 1"), std::string::npos) << retry.body;
  EXPECT_NE(retry.body.find("\"duplicate\": true"), std::string::npos) << retry.body;
  EXPECT_EQ(daemon.registry().counters().submitted, 1u);

  ASSERT_TRUE(eventually([&] { return daemon.registry().counters().completed == 1; }));
  const auto metrics = daemon.handle(http("GET", "/metrics"));
  EXPECT_NE(metrics.body.find("aimes_ctl_user_runs_submitted{user=\"anon\"} 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_user_idempotent_replays{user=\"anon\"} 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_idempotency_replays_count 1"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_idempotency_replays_sum 1"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("aimes_ctl_rate_limited_total 0"), std::string::npos)
      << metrics.body;
}

TEST(DaemonRoutes, ShutdownSetsFlag) {
  auto daemon = stub_daemon();
  EXPECT_FALSE(daemon.shutdown_requested());
  const auto response = daemon.handle(http("POST", "/api/v1/shutdown"));
  EXPECT_EQ(response.status, 202);
  EXPECT_TRUE(daemon.shutdown_requested());
}

}  // namespace
