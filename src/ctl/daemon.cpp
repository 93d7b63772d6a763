#include "ctl/daemon.hpp"

#include <algorithm>
#include <cinttypes>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "cluster/testbed.hpp"
#include "common/fields.hpp"
#include "ctl/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace aimes::ctl {

namespace {

net::HttpResponse json_error(int status, const std::string& message) {
  net::HttpResponse res;
  res.status = status;
  res.body = "{\"error\": \"" + common::json::escape(message) + "\"}\n";
  return res;
}

net::HttpResponse json_ok(std::string body) {
  net::HttpResponse res;
  res.body = std::move(body);
  return res;
}

/// Splits "/api/v1/runs/17/log" past the prefix into (id, trailing verb).
bool parse_run_path(const std::string& path, std::uint64_t& id, std::string& verb) {
  const std::string prefix = "/api/v1/runs/";
  if (path.rfind(prefix, 0) != 0) return false;
  const std::string rest = path.substr(prefix.size());
  char* end = nullptr;
  id = std::strtoull(rest.c_str(), &end, 10);
  if (end == rest.c_str()) return false;
  verb = *end == '/' ? std::string(end + 1) : std::string(end);
  return verb.empty() || *end == '/';
}

/// Parses a decimal query parameter; an absent value means 0. Rejects any
/// non-digit text (a garbled offset must be a 400, not a silent restart
/// from byte 0 that would duplicate everything the client already has).
bool parse_offset(const std::string& text, std::uint64_t& out) {
  out = 0;
  if (text.empty()) return true;
  if (text[0] < '0' || text[0] > '9') return false;  // strtoull accepts "-1"
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

std::string run_record_to_json(const RunRecord& record) {
  common::json::Writer out(/*pretty=*/true);
  out("id", record.id);
  out("user", record.user);
  out("name", record.name);
  out("state", to_string(record.state));
  out("cancel_reason", to_string(record.cancel_reason));
  out("fail_reason", to_string(record.fail_reason));
  out("kind", record.request.is_campaign() ? "campaign" : "single");
  out("trials", record.request.trials);
  out("seed", record.request.seed);
  out("submitted_at", record.submitted_at);
  out("started_at", record.started_at);
  out("finished_at", record.finished_at);
  out("log_lines", record.log.size());
  out("progress_events", record.progress.size());
  // The most recent snapshots only: a long campaign emits one per trial and
  // the full stream lives on /events and in the journal.
  constexpr std::size_t kMaxProgress = 32;
  const std::size_t skip =
      record.progress.size() > kMaxProgress ? record.progress.size() - kMaxProgress : 0;
  std::string progress = "[";
  for (std::size_t i = skip; i < record.progress.size(); ++i) {
    progress += (i > skip ? ",\n    " : "\n    ") + exp::run_progress_to_json(record.progress[i]);
  }
  out.raw("progress", progress + (record.progress.size() > skip ? "\n  ]" : "]"));
  // Indent the nested object to keep the document readable in a terminal.
  std::string result;
  for (const char c : exp::run_result_to_json(record.result)) {
    result += c;
    if (c == '\n') result += "  ";
  }
  while (!result.empty() && (result.back() == ' ' || result.back() == '\n')) result.pop_back();
  out.raw("result", result);
  return out.finish() + "\n";
}

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      registry_(Registry::Options{options_.workers, options_.executor,
                                  options_.journal_file, options_.quota,
                                  options_.clock_s}) {}

common::Expected<std::uint16_t> Daemon::start(std::uint16_t port) {
  return server_.start(port,
                       [this](const net::HttpRequest& request) { return handle(request); });
}

common::Status Daemon::start_unix(const std::string& path) {
  return server_.start_unix(
      path, [this](const net::HttpRequest& request) { return handle(request); });
}

void Daemon::stop() {
  server_.stop();
  registry_.drain(/*cancel_running=*/true);
}

net::HttpResponse Daemon::handle(const net::HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/api/v1/runs") {
    if (request.method == "POST") return submit(request);
    if (request.method == "GET") return list_runs(request);
    return json_error(405, "runs supports GET and POST");
  }
  std::uint64_t id = 0;
  std::string verb;
  if (parse_run_path(path, id, verb)) {
    if (verb.empty() && request.method == "GET") return view_run(id);
    if (verb.empty() && request.method == "DELETE") return cancel_run(id);
    if (verb == "log" && request.method == "GET") return run_log(id, request);
    if (verb == "events" && request.method == "GET") return run_events(id, request);
    if (verb == "cancel" && request.method == "POST") return cancel_run(id);
    return json_error(405, "unsupported run operation " + request.method + " /" + verb);
  }
  if (path == "/api/v1/resource" && request.method == "GET") return resource();
  if (path == "/api/v1/health" && request.method == "GET") return health();
  if (path == "/api/v1/shutdown" && request.method == "POST") {
    shutdown_.store(true);
    net::HttpResponse res;
    res.status = 202;
    res.body = "{\"status\": \"draining\"}\n";
    return res;
  }
  if (path == "/metrics" && request.method == "GET") return metrics();
  return json_error(404, "no route for " + request.method + " " + path);
}

net::HttpResponse Daemon::submit(const net::HttpRequest& request) {
  auto parsed = exp::parse_run_request("request body", request.body);
  if (!parsed) return json_error(400, parsed.error());
  std::string user = parsed->user.empty() ? options_.default_user : parsed->user;
  const std::string key = request.header("idempotency-key");
  const SubmitOutcome outcome = registry_.submit(std::move(*parsed), std::move(user), key);
  if (!outcome.accepted) {
    // The quota ladder's typed refusals: transient ones (bucket empty, quota
    // hit, queue full, draining) are 429/503 with a Retry-After hint so a
    // well-behaved client backs off instead of hammering; kInvalid stays a
    // 400 — no retry will ever help.
    int status = 400;
    switch (outcome.reject) {
      case RejectReason::kRateLimited:
      case RejectReason::kUserQueued:
        status = 429;
        break;
      case RejectReason::kQueueFull:
      case RejectReason::kDraining:
        status = 503;
        break;
      default:
        break;
    }
    net::HttpResponse res;
    res.status = status;
    common::json::Writer body(/*pretty=*/false);
    body("error", outcome.error);
    body("reason", to_string(outcome.reject));
    if (status != 400) {
      res.headers["Retry-After"] =
          std::to_string(std::max(1, static_cast<int>(std::ceil(outcome.retry_after_s))));
      body("retry_after_s", outcome.retry_after_s);
    }
    res.body = body.finish() + "\n";
    return res;
  }
  net::HttpResponse res;
  res.status = 202;
  if (!key.empty()) res.headers["Idempotency-Key"] = key;
  res.body = "{\"id\": " + std::to_string(outcome.id) +
             ", \"duplicate\": " + (outcome.duplicate ? "true" : "false") + "}\n";
  return res;
}

net::HttpResponse Daemon::list_runs(const net::HttpRequest& request) {
  const std::string user = request.query_param("user");
  const std::string state_text = request.query_param("state");
  std::vector<RunRecord> records;
  if (state_text.empty()) {
    records = registry_.list(user);
  } else {
    RunState state = RunState::kQueued;
    if (!parse_run_state(state_text, state)) {
      return json_error(400, "unknown state '" + state_text +
                                 "' (queued|running|done|failed|cancelled)");
    }
    records = registry_.list(user, state);
  }
  std::ostringstream out;
  out << "{\"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    // The latest snapshot rides along so `aimesc list` / `top` can show live
    // trial counts without one /runs/<id> round trip per row.
    const exp::RunProgress latest =
        r.progress.empty() ? exp::RunProgress{} : r.progress.back();
    out << "  {\"id\": " << r.id << ", \"user\": \"" << common::json::escape(r.user)
        << "\", \"name\": \"" << common::json::escape(r.name) << "\", \"state\": \""
        << to_string(r.state) << "\", \"kind\": \""
        << (r.request.is_campaign() ? "campaign" : "single")
        << "\", \"trials_done\": " << latest.trials_done
        << ", \"trials_total\": " << r.request.trials << ", \"vt_s\": " << latest.vt_seconds
        << ", \"sheds\": " << latest.tenants_shed << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return json_ok(out.str());
}

net::HttpResponse Daemon::view_run(std::uint64_t id) {
  auto record = registry_.get(id);
  if (!record) return json_error(404, record.error());
  return json_ok(run_record_to_json(*record));
}

net::HttpResponse Daemon::run_log(std::uint64_t id, const net::HttpRequest& request) {
  std::uint64_t offset = 0;
  if (!parse_offset(request.query_param("offset"), offset)) {
    return json_error(400, "offset must be a non-negative integer");
  }
  auto tail = registry_.log_tail(id, offset);
  if (!tail) return json_error(404, tail.error());
  net::HttpResponse res;
  res.content_type = "text/plain";
  res.body = std::move(tail->data);
  if (request.query_param("follow") == "1" && !tail->terminal) {
    // Chunked live tail: each pull is one bounded registry wait, so the
    // stream stays responsive to both new log bytes and server shutdown.
    auto next = std::make_shared<std::size_t>(tail->next_offset);
    res.stream = [this, id, next](std::string& out) {
      auto slice = registry_.wait_log(id, *next, std::chrono::milliseconds(400));
      if (!slice) return false;
      out += slice->data;
      const bool drained = slice->data.empty();
      *next = slice->next_offset;
      return !(slice->terminal && drained);
    };
  }
  return res;
}

net::HttpResponse Daemon::run_events(std::uint64_t id, const net::HttpRequest& request) {
  std::uint64_t from_seq = 0;
  if (!parse_offset(request.query_param("offset"), from_seq)) {
    return json_error(400, "offset must be a non-negative integer");
  }
  if (auto record = registry_.get(id); !record) return json_error(404, record.error());
  net::HttpResponse res;
  res.content_type = "text/event-stream";
  struct Cursor {
    std::uint64_t next_seq;
    int idle_pulls = 0;
  };
  auto cursor = std::make_shared<Cursor>(Cursor{from_seq});
  res.stream = [this, id, cursor](std::string& out) {
    auto tail = registry_.wait_events(id, cursor->next_seq, std::chrono::milliseconds(400));
    if (!tail) return false;
    for (const auto& event : tail->events) {
      out += "id: " + std::to_string(event.seq) + "\n";
      out += "event: " + event.kind + "\n";
      out += "data: " + event.data + "\n\n";
    }
    cursor->next_seq = tail->next_seq;
    if (tail->events.empty()) {
      if (tail->terminal) return false;  // drained and no more will come
      // A zero-length chunk would terminate the stream, so quiet periods
      // send SSE comments instead — they also prove liveness to the client.
      if (++cursor->idle_pulls >= 5) {
        cursor->idle_pulls = 0;
        out += ": keepalive\n\n";
      }
    } else {
      cursor->idle_pulls = 0;
    }
    return true;
  };
  return res;
}

net::HttpResponse Daemon::cancel_run(std::uint64_t id) {
  if (auto st = registry_.cancel(id, CancelReason::kUser); !st.ok()) {
    return json_error(404, st.error());
  }
  auto record = registry_.get(id);
  net::HttpResponse res;
  res.status = 202;
  res.body = "{\"id\": " + std::to_string(id) + ", \"state\": \"" +
             std::string(record ? to_string(record->state) : "unknown") + "\"}\n";
  return res;
}

net::HttpResponse Daemon::resource() {
  // The grid every run executes on (unless its request replaces the testbed):
  // the paper's five-site pool.
  const auto sites = cluster::standard_testbed();
  std::ostringstream out;
  out << "{\"sites\": [\n";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto& s = sites[i].site;
    out << "  {\"name\": \"" << common::json::escape(s.name) << "\", \"nodes\": " << s.nodes
        << ", \"cores_per_node\": " << s.cores_per_node << ", \"scheduler\": \""
        << common::json::escape(s.scheduler) << "\", \"max_walltime_h\": "
        << s.max_walltime.to_hours() << ", \"charge_per_core_hour\": "
        << s.charge_per_core_hour << "}" << (i + 1 < sites.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return json_ok(out.str());
}

net::HttpResponse Daemon::health() {
  std::ostringstream out;
  out << "{\"status\": \"" << (shutdown_.load() ? "draining" : "ok")
      << "\", \"queued\": " << registry_.queued() << ", \"running\": " << registry_.running()
      << "}\n";
  return json_ok(out.str());
}

net::HttpResponse Daemon::metrics() {
  // Rebuilt per scrape from the registry's counters: obs::MetricsRegistry is
  // not thread-safe, and a scrape-local registry needs no locking discipline
  // beyond the registry's own.
  const RegistryCounters c = registry_.counters();
  obs::MetricsRegistry reg;
  reg.counter("aimes_ctl_runs_submitted").add(static_cast<double>(c.submitted));
  reg.counter("aimes_ctl_runs_completed").add(static_cast<double>(c.completed));
  reg.counter("aimes_ctl_runs_failed").add(static_cast<double>(c.failed));
  reg.counter("aimes_ctl_runs_cancelled").add(static_cast<double>(c.cancelled));
  reg.gauge("aimes_ctl_runs_queued").set(static_cast<double>(registry_.queued()));
  reg.gauge("aimes_ctl_runs_running").set(static_cast<double>(registry_.running()));
  auto& queue_wait =
      reg.histogram("aimes_ctl_run_queue_wait_seconds", {}, 0.0, 30.0, 10);
  for (const double v : registry_.queue_wait_seconds()) queue_wait.observe(v);
  auto& duration = reg.histogram("aimes_ctl_run_duration_seconds", {}, 0.0, 120.0, 12);
  for (const double v : registry_.run_duration_seconds()) duration.observe(v);
  // The hardening tier: per-user admission ledgers, the rate-limit total,
  // and how often idempotency keys were replayed (each submit-with-key run
  // contributes its replay count as one histogram sample, so the histogram's
  // count is keyed runs and its sum is retried submits answered for free).
  std::uint64_t rate_limited_total = 0;
  for (const auto& [user, uc] : registry_.user_counters()) {
    const obs::Labels labels{{"user", user}};
    reg.counter("aimes_ctl_user_runs_submitted", labels).add(static_cast<double>(uc.submitted));
    reg.counter("aimes_ctl_user_runs_admitted", labels).add(static_cast<double>(uc.admitted));
    reg.counter("aimes_ctl_user_runs_shed", labels).add(static_cast<double>(uc.shed));
    reg.counter("aimes_ctl_user_rate_limited", labels).add(static_cast<double>(uc.rate_limited));
    reg.counter("aimes_ctl_user_idempotent_replays", labels)
        .add(static_cast<double>(uc.replays));
    rate_limited_total += uc.rate_limited;
  }
  reg.counter("aimes_ctl_rate_limited_total").add(static_cast<double>(rate_limited_total));
  auto& replays = reg.histogram("aimes_ctl_idempotency_replays", {}, 0.0, 8.0, 8);
  for (const double v : registry_.idempotency_replays()) replays.observe(v);
  std::ostringstream out;
  obs::export_prometheus(reg, out);
  net::HttpResponse res;
  res.content_type = "text/plain; version=0.0.4";
  res.body = out.str();
  return res;
}

}  // namespace aimes::ctl
