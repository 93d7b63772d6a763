// Live aimesd lifecycle: a real ctl::Daemon — HTTP server on an ephemeral
// loopback port, registry workers, runs executed by the real exp::execute —
// driven through net::http_call exactly as aimesc drives it. Covers the
// submit → view → cancel round trip, concurrent tenants sharing the worker
// pool (with CLI-equivalence checksums), graceful shutdown draining
// in-flight runs with typed reasons, malformed-request 4xx bodies, and the
// Prometheus exporter. Labeled `sanitize` so the ASan/UBSan and TSan build
// types exercise the daemon's threading.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "ctl/daemon.hpp"
#include "exp/request.hpp"
#include "net/http.hpp"

namespace {

using namespace aimes;
using namespace std::chrono_literals;

exp::RunRequest quick_request() {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 1;
  req.warmup_hours = 1.0;
  req.strategy.pilots = 2;
  req.observability.enabled = true;  // informative checksums
  return req;
}

net::HttpRequest http(const std::string& method, const std::string& target,
                      const std::string& body = "") {
  net::HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  return req;
}

/// The "id" of a JSON response body.
common::Expected<std::uint64_t> body_id(const std::string& body) {
  const auto doc = common::json::Node::parse("response", body).value_or({});
  return doc.get("id").integer<std::uint64_t>();
}

/// Submits `req` over the wire; returns the run id (asserts on failure).
std::uint64_t submit(std::uint16_t port, const exp::RunRequest& req) {
  auto response = net::http_call(port, http("POST", "/api/v1/runs",
                                            exp::run_request_to_json(req)));
  EXPECT_TRUE(response.ok()) << response.error();
  EXPECT_EQ(response->status, 202) << response->body;
  auto id = body_id(response->body);
  EXPECT_TRUE(id.ok()) << response->body;
  return id.ok() ? *id : 0;
}

std::string field(const std::string& json, const std::string& key) {
  return common::json::Node::parse("record", json).value_or({}).get(key).text().value_or("");
}

/// Polls GET /runs/<id> until the state is terminal; returns the final body.
std::string await_terminal(std::uint16_t port, std::uint64_t id) {
  const std::string target = "/api/v1/runs/" + std::to_string(id);
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::string body;
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = net::http_call(port, http("GET", target));
    if (!response.ok()) return "transport error: " + response.error();
    body = response->body;
    const std::string state = field(body, "state");
    if (state == "done" || state == "failed" || state == "cancelled") {
      return body;
    }
    std::this_thread::sleep_for(5ms);
  }
  return body;
}


TEST(DaemonLifecycle, SubmitViewCancelRoundTrip) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  exp::RunRequest req = quick_request();
  req.user = "ana";
  const std::uint64_t id = submit(*port, req);
  ASSERT_GT(id, 0u);

  const std::string record = await_terminal(*port, id);
  EXPECT_EQ(field(record, "state"), "done") << record;
  EXPECT_EQ(field(record, "user"), "ana") << record;

  // The log is served as text and ends in the terminal marker.
  auto log = net::http_call(*port, http("GET", "/api/v1/runs/" + std::to_string(id) + "/log"));
  ASSERT_TRUE(log.ok()) << log.error();
  EXPECT_NE(log->body.find("done"), std::string::npos) << log->body;

  // Cancel a long run mid-flight: many quick trials give the cancel flag a
  // trial boundary to land on.
  exp::RunRequest longer = quick_request();
  longer.trials = 200;
  const std::uint64_t long_id = submit(*port, longer);
  ASSERT_GT(long_id, 0u);
  auto cancel = net::http_call(
      *port, http("POST", "/api/v1/runs/" + std::to_string(long_id) + "/cancel"));
  ASSERT_TRUE(cancel.ok()) << cancel.error();
  EXPECT_EQ(cancel->status, 202) << cancel->body;
  const std::string cancelled = await_terminal(*port, long_id);
  // Either the cancel landed between trials (cancelled) or the run outraced
  // it (done) — on a loaded machine both are legal; what is not legal is
  // hanging or failing.
  const std::string state = field(cancelled, "state");
  EXPECT_TRUE(state == "cancelled" || state == "done") << cancelled;
  if (state == "cancelled") {
    EXPECT_EQ(field(cancelled, "cancel_reason"), "user") << cancelled;
  }
  daemon.stop();
}

TEST(DaemonLifecycle, ConcurrentTenantsMatchDirectExecution) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  // Two tenants, different seeds, submitted from concurrent clients into the
  // shared two-worker pool.
  exp::RunRequest ana = quick_request();
  ana.user = "ana";
  ana.seed = 100;
  ana.trials = 3;
  exp::RunRequest ben = quick_request();
  ben.user = "ben";
  ben.seed = 200;
  ben.trials = 3;

  std::uint64_t ana_id = 0;
  std::uint64_t ben_id = 0;
  std::thread t1([&] { ana_id = submit(*port, ana); });
  std::thread t2([&] { ben_id = submit(*port, ben); });
  t1.join();
  t2.join();
  ASSERT_GT(ana_id, 0u);
  ASSERT_GT(ben_id, 0u);

  const std::string ana_record = await_terminal(*port, ana_id);
  const std::string ben_record = await_terminal(*port, ben_id);
  EXPECT_EQ(field(ana_record, "state"), "done") << ana_record;
  EXPECT_EQ(field(ben_record, "state"), "done") << ben_record;

  // CLI equivalence: the daemon's checksum is the one exp::execute computes
  // for the same request in this process (what `aimes-run` would print).
  const auto direct_ana = exp::execute(ana);
  const auto direct_ben = exp::execute(ben);
  char expected_ana[24];
  char expected_ben[24];
  std::snprintf(expected_ana, sizeof(expected_ana), "%016llx",
                static_cast<unsigned long long>(direct_ana.checksum));
  std::snprintf(expected_ben, sizeof(expected_ben), "%016llx",
                static_cast<unsigned long long>(direct_ben.checksum));
  auto ana_scan = common::json::Node::parse("record", ana_record);
  auto ben_scan = common::json::Node::parse("record", ben_record);
  ASSERT_TRUE(ana_scan.ok() && ben_scan.ok());
  auto ana_result = ana_scan->get("result").object();
  auto ben_result = ben_scan->get("result").object();
  ASSERT_TRUE(ana_result.ok() && ben_result.ok());
  EXPECT_EQ(ana_result->get("checksum").text().value_or(""), expected_ana) << ana_record;
  EXPECT_EQ(ben_result->get("checksum").text().value_or(""), expected_ben) << ben_record;
  // Different seeds, different worlds.
  EXPECT_NE(direct_ana.checksum, direct_ben.checksum);
  daemon.stop();
}

TEST(DaemonLifecycle, GracefulShutdownDrainsInFlight) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  // Enough queued work that something is still in flight when stop() lands:
  // four long runs on two workers.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    exp::RunRequest req = quick_request();
    req.trials = 100;
    req.seed = 1000 + static_cast<std::uint64_t>(i);
    ids.push_back(submit(*port, req));
    ASSERT_GT(ids.back(), 0u);
  }

  daemon.stop();  // closes the listener, then drains with cancel_running

  for (const std::uint64_t id : ids) {
    const auto record = daemon.registry().get(id);
    ASSERT_TRUE(record.ok()) << record.error();
    // Every run reached a terminal state: finished, or cancelled with the
    // typed shutdown reason — never left queued/running.
    EXPECT_TRUE(record->state == ctl::RunState::kDone ||
                record->state == ctl::RunState::kCancelled)
        << "run " << id << " state " << to_string(record->state);
    if (record->state == ctl::RunState::kCancelled) {
      EXPECT_EQ(record->cancel_reason, ctl::CancelReason::kShutdown);
      EXPECT_FALSE(record->log.empty());
    }
  }
  // The listener is gone: new submissions cannot reach the daemon.
  auto after = net::http_call(*port, http("GET", "/api/v1/health"));
  EXPECT_FALSE(after.ok());
}

TEST(DaemonLifecycle, MalformedRequestsGetTypedErrorsOverTheWire) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  auto bad_json = net::http_call(*port, http("POST", "/api/v1/runs", "{\"tasks\": \"lots\"}"));
  ASSERT_TRUE(bad_json.ok()) << bad_json.error();
  EXPECT_EQ(bad_json->status, 400);
  EXPECT_NE(bad_json->body.find("\"error\""), std::string::npos) << bad_json->body;
  EXPECT_NE(bad_json->body.find("tasks"), std::string::npos) << bad_json->body;
  EXPECT_NE(bad_json->body.find("byte"), std::string::npos) << bad_json->body;

  auto bad_value = net::http_call(*port, http("POST", "/api/v1/runs", "{\"trials\": 0}"));
  ASSERT_TRUE(bad_value.ok()) << bad_value.error();
  EXPECT_EQ(bad_value->status, 400);

  auto not_found = net::http_call(*port, http("GET", "/api/v1/runs/12345"));
  ASSERT_TRUE(not_found.ok()) << not_found.error();
  EXPECT_EQ(not_found->status, 404);
  daemon.stop();
}

TEST(DaemonLifecycle, FollowLogStreamsProgressLinesOverTheSocket) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  // Several trials so the stream carries at least two trial-boundary lines
  // before the terminal marker.
  exp::RunRequest req = quick_request();
  req.trials = 4;
  const std::uint64_t id = submit(*port, req);
  ASSERT_GT(id, 0u);

  // Tail from offset 0 exactly as `aimesc submit --wait` does: the chunked
  // response delivers log bytes as trials finish, and the stream ends on its
  // own once the run is terminal and the tail is drained.
  std::string streamed;
  int deliveries = 0;
  auto res = net::http_stream(
      *port,
      http("GET", "/api/v1/runs/" + std::to_string(id) + "/log?follow=1&offset=0"),
      [&](std::string_view piece) {
        streamed.append(piece.data(), piece.size());
        ++deliveries;
        return true;
      },
      30000);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_TRUE(res->body.empty());  // chunked: everything went through the sink

  // The streamed tail is byte-identical to the stored log, carries >= 2
  // progress lines plus the terminal marker, and arrived incrementally.
  const auto record = daemon.registry().get(id);
  ASSERT_TRUE(record.ok());
  std::string stored;
  for (const auto& line : record->log) stored += line + "\n";
  EXPECT_EQ(streamed, stored);
  int trial_lines = 0;
  for (std::size_t at = streamed.find("trial "); at != std::string::npos;
       at = streamed.find("trial ", at + 1)) {
    ++trial_lines;
  }
  EXPECT_GE(trial_lines, 2) << streamed;
  EXPECT_NE(streamed.find("done"), std::string::npos) << streamed;
  EXPECT_GE(deliveries, 1);

  // Re-tailing a finished run from a mid-stream offset returns exactly the
  // suffix and completes immediately: the run is terminal, so the daemon
  // answers with a plain (non-chunked) body instead of opening a stream.
  std::string suffix;
  auto tail = net::http_stream(
      *port,
      http("GET", "/api/v1/runs/" + std::to_string(id) + "/log?follow=1&offset=" +
                      std::to_string(streamed.size() / 2)),
      [&](std::string_view piece) {
        suffix.append(piece.data(), piece.size());
        return true;
      },
      30000);
  ASSERT_TRUE(tail.ok()) << tail.error();
  suffix += tail->body;  // non-chunked: the whole tail rides the response body
  EXPECT_EQ(suffix, streamed.substr(streamed.size() / 2));
  daemon.stop();
}

TEST(DaemonLifecycle, EventStreamCarriesProgressSnapshotsAsSse) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  exp::RunRequest req = quick_request();
  req.trials = 3;
  const std::uint64_t id = submit(*port, req);
  ASSERT_GT(id, 0u);

  std::string frames;
  auto res = net::http_stream(
      *port, http("GET", "/api/v1/runs/" + std::to_string(id) + "/events"),
      [&](std::string_view piece) {
        frames.append(piece.data(), piece.size());
        return true;
      },
      30000);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->content_type, "text/event-stream");

  // The SSE stream replays the whole lifecycle: queued + running + terminal
  // state frames and one progress frame per trial boundary, each id:-stamped
  // so `aimesc watch` can resume from its last seq after a reconnect.
  int progress_frames = 0;
  for (std::size_t at = frames.find("event: progress");
       at != std::string::npos; at = frames.find("event: progress", at + 1)) {
    ++progress_frames;
  }
  EXPECT_GE(progress_frames, 2) << frames;
  EXPECT_NE(frames.find("id: 0\n"), std::string::npos) << frames;
  EXPECT_NE(frames.find("event: state\n"), std::string::npos) << frames;
  EXPECT_NE(frames.find("\"state\": \"done\""), std::string::npos) << frames;
  EXPECT_NE(frames.find("\"trials_total\": 3"), std::string::npos) << frames;
  daemon.stop();
}

TEST(DaemonLifecycle, RateLimitedSubmitIs429WithRetryAfterOnTheWire) {
  ctl::DaemonOptions options;
  options.quota.rate_per_s = 0.001;  // one token per ~17 minutes
  options.quota.rate_burst = 1.0;
  ctl::Daemon daemon(options);
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  // The single burst token admits the first submit; the second is refused
  // with the full typed shape a retrying client needs: 429 + Retry-After +
  // a machine-readable reason.
  const std::uint64_t id = submit(*port, quick_request());
  ASSERT_GT(id, 0u);
  auto refused = net::http_call(
      *port, http("POST", "/api/v1/runs", exp::run_request_to_json(quick_request())));
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_EQ(refused->status, 429) << refused->body;
  EXPECT_NE(refused->body.find("\"reason\": \"rate-limited\""), std::string::npos)
      << refused->body;
  const std::string retry_after = refused->header("retry-after");
  ASSERT_FALSE(retry_after.empty());
  EXPECT_GE(std::stoi(retry_after), 1);
  daemon.stop();
}

TEST(DaemonLifecycle, IdempotentResubmitOverTheSocketYieldsOneRun) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  net::HttpRequest req =
      http("POST", "/api/v1/runs", exp::run_request_to_json(quick_request()));
  req.headers["Idempotency-Key"] = "wire-key-1";
  auto first = net::http_call(*port, req);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->status, 202);
  EXPECT_NE(first->body.find("\"duplicate\": false"), std::string::npos) << first->body;
  EXPECT_EQ(first->header("idempotency-key"), "wire-key-1");

  // The retry — same key, possibly after the run finished — returns the
  // same id with duplicate: true, and the run table holds exactly one run.
  auto again = net::http_call(*port, req);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again->status, 202);
  EXPECT_NE(again->body.find("\"duplicate\": true"), std::string::npos) << again->body;
  EXPECT_EQ(body_id(first->body).value_or(0), body_id(again->body).value_or(1u << 31));
  EXPECT_EQ(daemon.registry().list().size(), 1u);
  daemon.stop();
}

TEST(DaemonLifecycle, ServesTheFullApiOverAUnixDomainSocket) {
  const std::string path = testing::TempDir() + "aimesd_lifecycle.sock";
  ctl::Daemon daemon;
  auto status = daemon.start_unix(path);
  ASSERT_TRUE(status.ok()) << status.error();
  const net::Endpoint endpoint = daemon.endpoint();
  ASSERT_TRUE(endpoint.is_unix());

  // Submit, poll to terminal, and read the log — the exact flow aimesc
  // --socket drives — all over the unix socket.
  auto response = net::http_call(
      endpoint, http("POST", "/api/v1/runs", exp::run_request_to_json(quick_request())));
  ASSERT_TRUE(response.ok()) << response.error();
  ASSERT_EQ(response->status, 202) << response->body;
  const auto id = body_id(response->body);
  ASSERT_TRUE(id.ok()) << response->body;

  const std::string target = "/api/v1/runs/" + std::to_string(*id);
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::string state;
  while (std::chrono::steady_clock::now() < deadline) {
    auto view = net::http_call(endpoint, http("GET", target));
    ASSERT_TRUE(view.ok()) << view.error();
    state = field(view->body, "state");
    if (state == "done" || state == "failed" || state == "cancelled") break;
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(state, "done");

  auto log = net::http_call(endpoint, http("GET", target + "/log"));
  ASSERT_TRUE(log.ok()) << log.error();
  EXPECT_NE(log->body.find("done"), std::string::npos) << log->body;

  auto health = net::http_call(endpoint, http("GET", "/api/v1/health"));
  ASSERT_TRUE(health.ok()) << health.error();
  EXPECT_EQ(health->status, 200);
  daemon.stop();

  // The socket file is gone with the daemon.
  auto after = net::http_call(endpoint, http("GET", "/api/v1/health"));
  EXPECT_FALSE(after.ok());
}

TEST(DaemonLifecycle, MetricsExposePrometheusBody) {
  ctl::Daemon daemon;
  auto port = daemon.start(0);
  ASSERT_TRUE(port.ok()) << port.error();

  const std::uint64_t id = submit(*port, quick_request());
  ASSERT_GT(id, 0u);
  (void)await_terminal(*port, id);

  auto metrics = net::http_call(*port, http("GET", "/metrics"));
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics->status, 200);
  EXPECT_EQ(metrics->content_type.find("text/plain"), 0u) << metrics->content_type;
  EXPECT_NE(metrics->body.find("# TYPE aimes_ctl_runs_submitted counter"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("aimes_ctl_runs_completed 1"), std::string::npos)
      << metrics->body;
  daemon.stop();
}

}  // namespace
