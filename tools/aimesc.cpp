// aimesc: command-line client for the aimesd control plane.
//
//   aimesc submit [run flags] [--name N] [--user U] [--wait]
//   aimesc list   [--user U] [--state S]
//   aimesc view    <id>
//   aimesc log     <id> [--offset N] [--follow]
//   aimesc watch   <id>
//   aimesc top    [--interval S] [--once]
//   aimesc cancel  <id>
//   aimesc resource
//   aimesc metrics
//   aimesc shutdown
//
// `submit` takes the exact run flags `aimes-run` takes (they fill the same
// typed exp::RunRequest, serialized as JSON over loopback HTTP or a unix
// socket), so any command line that works locally works remotely by
// s/aimes-run/aimesc submit/ — and produces the identical FNV-1a checksum.
// `--wait` tails the run's log live over a chunked stream (reconnecting from
// its byte offset after drops) and prints the result summary; its exit code
// then reflects the run (0 done, 1 failed/cancelled). `watch` renders the
// run's SSE event stream — every state transition and per-trial RunProgress
// snapshot — and `top` is a self-refreshing table of all runs.
//
// Resilience: every request retries transport failures and the daemon's
// typed 429/503 refusals (honoring Retry-After) with capped exponential
// backoff — except 503 "draining", which no retry against the same daemon
// will fix. A submit carries a client-generated Idempotency-Key, so a retry
// whose first attempt actually landed is answered with the existing run id
// instead of a duplicate run; the key survives daemon restarts via the
// journal. --retries 0 disables all of this (fail fast, typed).
//
// Exit codes: 0 success, 1 daemon/run error, 2 usage error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/json.hpp"
#include "exp/request.hpp"
#include "exp/request_cli.hpp"
#include "net/http.hpp"

namespace {

using namespace aimes;
using common::json::Node;

constexpr int kDefaultPort = 8477;

const char* kUsage =
    "usage: aimesc <verb> [options]\n"
    "\n"
    "verbs:\n"
    "  submit    submit a run request (takes aimes-run's flags; see --help)\n"
    "  list      list runs, newest first (--state S filters)\n"
    "  view      show one run's record and result   (aimesc view <id>)\n"
    "  log       print one run's progress log       (aimesc log <id> [--follow])\n"
    "  watch     stream a run's live progress       (aimesc watch <id>)\n"
    "  top       self-refreshing table of all runs  (aimesc top [--once])\n"
    "  cancel    request cancellation of a run      (aimesc cancel <id>)\n"
    "  resource  describe the simulated grid the daemon runs on\n"
    "  metrics   dump the daemon's Prometheus exposition\n"
    "  shutdown  ask the daemon to drain and exit\n"
    "\n"
    "every verb takes --port PORT (default 8477) or --socket PATH, and\n"
    "--retries N (default 5) for transport/429/503 retry behavior.\n";

/// Where the daemon lives plus how hard to try reaching it — shared flags
/// every verb declares.
struct Remote {
  int port = kDefaultPort;
  std::string socket;
  int retries = 5;

  [[nodiscard]] net::Endpoint endpoint() const {
    return socket.empty() ? net::Endpoint::tcp(static_cast<std::uint16_t>(port))
                          : net::Endpoint::unix_path(socket);
  }
};

void declare_remote_options(common::cli::Parser& cli, Remote& remote) {
  cli.int_option("--port", remote.port, 1, 65535, "aimesd port (8477)", "PORT");
  cli.string_option("--socket", remote.socket,
                    "connect to aimesd's unix-domain socket instead of TCP", "PATH");
  cli.int_option("--retries", remote.retries, 0, 100,
                 "retry transport errors and 429/503 refusals this\n"
                 "many times with capped backoff (5; 0 = fail fast)",
                 "N");
}

/// One HTTP exchange with the daemon, with the Remote's retry policy: capped
/// exponential backoff over transport errors and retryable 429/503 bodies,
/// honoring the server's Retry-After hint when present. Retries are safe for
/// every verb: GETs are idempotent, cancel/shutdown are no-op repeats, and
/// submit carries an Idempotency-Key the registry dedups on.
common::Expected<net::HttpResponse> call(const Remote& remote, const std::string& method,
                                         const std::string& target,
                                         const std::string& body = "",
                                         std::map<std::string, std::string> headers = {}) {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  request.headers = std::move(headers);
  net::Backoff backoff(100, 2000, 0x61696d6573ULL);
  for (int attempt = 0;; ++attempt) {
    auto response = net::http_call(remote.endpoint(), request);
    bool transient = !response;
    if (response && (response->status == 429 || response->status == 503)) {
      // "draining" means this daemon is going away — retrying against it
      // cannot succeed, so surface the typed refusal immediately.
      const Node body = Node::parse("response", response->body).value_or({});
      transient = body.get("reason").text().value_or("") != "draining";
    }
    if (!transient || attempt >= remote.retries) return response;
    int delay_ms = backoff.next_ms();
    if (response) {
      if (const std::string after = response->header("retry-after"); !after.empty()) {
        const long seconds = std::strtol(after.c_str(), nullptr, 10);
        if (seconds > 0) {
          delay_ms = std::min(static_cast<int>(seconds) * 1000, 30000);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

/// A fresh dedup token for one submit: 128 random bits as hex. Entropy comes
/// from random_device XOR the clock, so two concurrent shells never collide.
std::string make_idempotency_key() {
  std::random_device rd;
  std::uint64_t state = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  state ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const std::uint64_t hi = common::splitmix64(state);
  const std::uint64_t lo = common::splitmix64(state);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

/// Prints the daemon's typed error body ({"error": "...", "reason": ...}).
void print_error_body(const net::HttpResponse& response) {
  const Node body = Node::parse("response", response.body).value_or({});
  const std::string err = body.get("error").text().value_or("");
  const std::string reason = body.get("reason").text().value_or("");
  if (!err.empty() && !reason.empty()) {
    std::fprintf(stderr, "aimesc: %s [%s] (HTTP %d)\n", err.c_str(), reason.c_str(),
                 response.status);
  } else if (!err.empty()) {
    std::fprintf(stderr, "aimesc: %s (HTTP %d)\n", err.c_str(), response.status);
  } else {
    std::fprintf(stderr, "aimesc: HTTP %d: %s\n", response.status, response.body.c_str());
  }
}

/// The run records of a GET /api/v1/runs body ({"runs": [...]}).
std::vector<Node> run_records(const std::string& body) {
  return Node::parse("response", body).value_or({}).get("runs").items().value_or({});
}

/// A non-negative count field of a run-list record (0 when absent).
std::uint64_t count(const Node& record, std::string_view key) {
  return record.get(key).integer<std::uint64_t>().value_or(0);
}

/// "done/total" trials of a run-list record.
std::string trials_cell(const Node& record) {
  return std::to_string(count(record, "trials_done")) + "/" +
         std::to_string(count(record, "trials_total"));
}

/// One run's line in `aimesc list`: id, state, user, trials, name — widths
/// fixed so the columns stay aligned as runs progress. `top` adds virtual
/// time and shed count from the run's latest progress snapshot.
void print_run_line(const Node& record, bool top) {
  const auto id = record.get("id").integer<std::uint64_t>();
  const auto state = record.get("state").text();
  if (!id || !state) return;
  std::printf("  %4llu  %-10s %-10s %9s", static_cast<unsigned long long>(*id),
              state->c_str(), record.get("user").text().value_or("?").c_str(),
              trials_cell(record).c_str());
  if (top) {
    std::printf(" %10.1f %6llu", record.get("vt_s").number().value_or(0.0),
                static_cast<unsigned long long>(count(record, "sheds")));
  }
  std::printf("  %s\n", record.get("name").text().value_or("").c_str());
}

/// Human one-liner for a RunProgress snapshot (an /events data payload or
/// one element of a record's "progress" array).
void print_progress_line(std::uint64_t run_id, const exp::RunProgress& p) {
  std::printf("run %llu: trial %d/%d | units %llu | vt %.1f s | sheds %llu\n",
              static_cast<unsigned long long>(run_id), p.trials_done, p.trials_total,
              static_cast<unsigned long long>(p.units_done), p.vt_seconds,
              static_cast<unsigned long long>(p.tenants_shed));
  std::fflush(stdout);
}

/// Prints the completed run's summary from its record JSON; returns the
/// process exit code (0 only for a fully successful run).
int print_outcome(const std::string& record_json) {
  auto record = Node::parse("record", record_json);
  const auto state = record ? record->get("state").text()
                            : common::Expected<std::string>::error(record.error());
  if (!state) {
    std::fprintf(stderr, "aimesc: %s\n", state.error().c_str());
    return 1;
  }
  const Node result = record->get("result");
  if (!result.object()) {
    std::printf("run %s (no result recorded)\n", state->c_str());
    return *state == "done" ? 0 : 1;
  }
  const auto success = result.get("success").boolean();
  const auto checksum = result.get("checksum").text();
  const auto wall = result.get("wall_seconds").number();
  std::printf("run %s%s", state->c_str(),
              success && *success ? "" : " (with failures)");
  if (checksum) std::printf(" | checksum %s", checksum->c_str());
  if (wall) std::printf(" | wall %.1f s", *wall);
  std::printf("\n");
  if (const auto error = result.get("error").text(); error && !error->empty()) {
    std::fprintf(stderr, "aimesc: run error: %s\n", error->c_str());
  }
  return (*state == "done" && success && *success) ? 0 : 1;
}

/// Tails one run's log to stdout over the chunked /log?follow=1 stream,
/// reconnecting from the last byte offset after drops — idle timeouts,
/// injected resets, even a daemon restart (the journal rebuilds the same
/// byte stream, so the offset stays valid). Returns false only when the
/// daemon stayed unreachable through the whole backoff ladder.
bool follow_log(const Remote& remote, std::uint64_t run_id, std::size_t offset = 0) {
  net::Backoff backoff(100, 2000, 0x6c6f67ULL);
  const int max_consecutive = std::max(5, remote.retries * 3);
  int consecutive_failures = 0;
  for (;;) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "/api/v1/runs/" + std::to_string(run_id) +
                     "/log?follow=1&offset=" + std::to_string(offset);
    bool got_data = false;
    auto response = net::http_stream(
        remote.endpoint(), request, [&](std::string_view piece) {
          offset += piece.size();
          if (!piece.empty()) got_data = true;
          std::fwrite(piece.data(), 1, piece.size(), stdout);
          std::fflush(stdout);
          return true;
        });
    if (response) {
      if (response->status != 200) {
        print_error_body(*response);
        return false;
      }
      // A run already terminal at connect time comes back unstreamed with
      // the remaining bytes in the body.
      if (!response->body.empty()) {
        std::fwrite(response->body.data(), 1, response->body.size(), stdout);
        std::fflush(stdout);
        offset += response->body.size();
      }
      return true;  // the server ended the stream: the run is terminal
    }
    // Drop or timeout: resume from `offset` — the byte position makes the
    // retry loss- and duplicate-free. Progress resets the failure budget.
    if (got_data) {
      consecutive_failures = 1;
      backoff.reset();
    } else {
      ++consecutive_failures;
    }
    if (consecutive_failures > max_consecutive) {
      std::fprintf(stderr, "aimesc: %s\n", response.error().c_str());
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_ms()));
  }
}

int cmd_submit(int argc, char** argv) {
  exp::RunRequest req;
  bool quick = false;
  bool wait = false;
  Remote remote;
  std::string idempotency_key;
  common::cli::Parser cli("aimesc submit");
  exp::declare_request_options(cli, req, quick);
  cli.string_option("--name", req.name, "label for the run in list/view output", "NAME");
  cli.string_option("--user", req.user, "owner recorded with the run", "NAME");
  cli.flag("--wait", wait, "tail the run's log live and print its result");
  cli.string_option("--idempotency-key", idempotency_key,
                    "dedup token sent as the Idempotency-Key header\n"
                    "(default: a fresh random key per invocation);\n"
                    "resubmitting the same key returns the existing\n"
                    "run instead of starting a duplicate",
                    "KEY");
  declare_remote_options(cli, remote);
  auto parsed = cli.parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.error().c_str());
    return 2;
  }
  if (parsed->help) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  exp::finalize_request_options(cli, req, quick);
  if (auto st = exp::validate(req); !st.ok()) {
    // Reject locally with the same typed message the daemon would return.
    std::fprintf(stderr, "%s\n", st.error().c_str());
    return 2;
  }
  if (idempotency_key.empty()) idempotency_key = make_idempotency_key();

  auto response = call(remote, "POST", "/api/v1/runs", exp::run_request_to_json(req),
                       {{"Idempotency-Key", idempotency_key}});
  if (!response) {
    std::fprintf(stderr, "aimesc: %s\n", response.error().c_str());
    return 1;
  }
  if (response->status != 202) {
    print_error_body(*response);
    return 1;
  }
  const Node reply = Node::parse("response", response->body).value_or({});
  const auto id = reply.get("id").integer<std::uint64_t>();
  if (!id) {
    std::fprintf(stderr, "aimesc: unreadable submit response: %s\n", response->body.c_str());
    return 1;
  }
  const std::uint64_t run_id = *id;
  const auto duplicate = reply.get("duplicate").boolean();
  std::printf("submitted run %llu%s\n", static_cast<unsigned long long>(run_id),
              duplicate && *duplicate ? " (deduplicated retry)" : "");
  if (!wait) return 0;

  // Live tail instead of polling: the chunked stream delivers log lines as
  // the workers emit them and ends exactly when the run is terminal.
  if (!follow_log(remote, run_id)) return 1;
  auto view = call(remote, "GET", "/api/v1/runs/" + std::to_string(run_id));
  if (!view || view->status != 200) {
    if (!view) std::fprintf(stderr, "aimesc: %s\n", view.error().c_str());
    else print_error_body(*view);
    return 1;
  }
  return print_outcome(view->body);
}

/// `aimesc watch <id>`: renders the run's SSE event stream — one line per
/// state transition and per-trial progress snapshot — then the outcome.
/// Reconnects from the last complete event's sequence number after drops
/// and daemon restarts (seqs are rebuilt identically from the journal);
/// net::drain_sse_frames leaves a torn frame in the carry, so a stream cut
/// mid-`id:` line never advances the resume point past data we lost.
int cmd_watch(const Remote& remote, std::uint64_t run_id) {
  std::uint64_t next_seq = 0;
  net::Backoff backoff(100, 2000, 0x7761746368ULL);
  const int max_consecutive = std::max(5, remote.retries * 3);
  int consecutive_failures = 0;
  for (;;) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "/api/v1/runs/" + std::to_string(run_id) +
                     "/events?offset=" + std::to_string(next_seq);
    std::string carry;
    bool got_event = false;
    auto response = net::http_stream(
        remote.endpoint(), request, [&](std::string_view piece) {
          carry.append(piece);
          for (const net::SseEvent& event : net::drain_sse_frames(carry)) {
            if (!event.has_id) continue;
            next_seq = event.id + 1;
            got_event = true;
            if (event.kind == "progress") {
              if (auto p = exp::parse_run_progress("event", event.data)) {
                print_progress_line(run_id, *p);
              }
            } else if (event.kind == "state") {
              const std::string state = Node::parse("event", event.data)
                                            .value_or({})
                                            .get("state")
                                            .text()
                                            .value_or("");
              if (!state.empty()) {
                std::printf("run %llu: %s\n",
                            static_cast<unsigned long long>(run_id), state.c_str());
                std::fflush(stdout);
              }
            }
          }
          return true;
        });
    if (response) {
      if (response->status != 200) {
        print_error_body(*response);
        return 1;
      }
      break;  // the server ended the stream: the run is terminal
    }
    // Drop or timeout: resume from the next sequence number.
    if (got_event) {
      consecutive_failures = 1;
      backoff.reset();
    } else {
      ++consecutive_failures;
    }
    if (consecutive_failures > max_consecutive) {
      std::fprintf(stderr, "aimesc: %s\n", response.error().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_ms()));
  }
  auto view = call(remote, "GET", "/api/v1/runs/" + std::to_string(run_id));
  if (!view || view->status != 200) {
    if (!view) std::fprintf(stderr, "aimesc: %s\n", view.error().c_str());
    else print_error_body(*view);
    return 1;
  }
  return print_outcome(view->body);
}

/// `aimesc top`: a self-refreshing table of every run the daemon knows.
int cmd_top(int argc, char** argv) {
  Remote remote;
  double interval_s = 2.0;
  bool once = false;
  common::cli::Parser cli("aimesc top");
  declare_remote_options(cli, remote);
  cli.double_option("--interval", interval_s, 0.1, 3600, "refresh interval (2 s)", "S");
  cli.flag("--once", once, "print one snapshot and exit (no screen clearing)");
  auto parsed = cli.parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.error().c_str());
    return 2;
  }
  if (parsed->help) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  for (;;) {
    auto runs = call(remote, "GET", "/api/v1/runs");
    if (!runs || runs->status != 200) {
      if (!runs) std::fprintf(stderr, "aimesc: %s\n", runs.error().c_str());
      else print_error_body(*runs);
      return 1;
    }
    auto health = call(remote, "GET", "/api/v1/health");
    std::string status = "?";
    double queued = 0, running = 0;
    if (health && health->status == 200) {
      const Node doc = Node::parse("health", health->body).value_or({});
      status = doc.get("status").text().value_or(status);
      queued = doc.get("queued").number().value_or(0.0);
      running = doc.get("running").number().value_or(0.0);
    }
    if (!once) std::printf("\033[2J\033[H");  // clear screen, home cursor
    std::printf("aimesd %s | %s | %.0f queued, %.0f running\n\n",
                remote.endpoint().describe().c_str(), status.c_str(), queued, running);
    const auto records = run_records(runs->body);
    if (records.empty()) {
      std::printf("no runs\n");
    } else {
      std::printf("    id  state      user          trials       vt_s  sheds  name\n");
      for (const auto& record : records) print_run_line(record, /*top=*/true);
    }
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

/// Parses `aimesc <verb> [<id>] [--port P]` for the id-addressed verbs and
/// the flagless ones. Returns the exit code.
int cmd_simple(const std::string& verb, int argc, char** argv) {
  Remote remote;
  std::string user;
  std::string state;
  int offset = 0;
  bool follow = false;
  std::uint64_t id = 0;
  bool id_seen = false;

  // Accept a bare numeric id directly after the verb: `aimesc view 3`. Only
  // that position — a later bare number is some flag's value, not an id.
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    char* end = nullptr;
    const unsigned long long parsed_id = std::strtoull(argv[1], &end, 10);
    if (end != nullptr && *end == '\0' && *argv[1] != '\0') {
      id = parsed_id;
      id_seen = true;
      first_flag = 2;
    }
  }
  for (int i = first_flag; i < argc; ++i) rest.push_back(argv[i]);

  common::cli::Parser cli("aimesc " + verb);
  declare_remote_options(cli, remote);
  if (verb == "list") {
    cli.string_option("--user", user, "only this user's runs", "NAME");
    cli.string_option("--state", state,
                      "only runs in this state\n"
                      "(queued|running|done|failed|cancelled)",
                      "S");
  }
  if (verb == "log") {
    cli.int_option("--offset", offset, 0, 1 << 30, "start at byte N of the log (0)", "N");
    cli.flag("--follow", follow, "stream new log lines until the run finishes");
  }
  auto parsed = cli.parse(static_cast<int>(rest.size()), rest.data());
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.error().c_str());
    return 2;
  }
  if (parsed->help) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  const bool needs_id =
      verb == "view" || verb == "log" || verb == "cancel" || verb == "watch";
  if (needs_id && !id_seen) {
    std::fprintf(stderr, "aimesc %s: run id required (aimesc %s <id>)\n", verb.c_str(),
                 verb.c_str());
    return 2;
  }

  if (verb == "watch") return cmd_watch(remote, id);
  if (verb == "log" && follow) {
    return follow_log(remote, id, static_cast<std::size_t>(offset)) ? 0 : 1;
  }

  std::string method = "GET";
  std::string target;
  if (verb == "list") {
    std::string query;
    if (!user.empty()) query += (query.empty() ? "?" : "&") + std::string("user=") + user;
    if (!state.empty()) query += (query.empty() ? "?" : "&") + std::string("state=") + state;
    target = "/api/v1/runs" + query;
  } else if (verb == "view") {
    target = "/api/v1/runs/" + std::to_string(id);
  } else if (verb == "log") {
    target = "/api/v1/runs/" + std::to_string(id) + "/log";
    if (offset > 0) target += "?offset=" + std::to_string(offset);
  } else if (verb == "cancel") {
    method = "POST";
    target = "/api/v1/runs/" + std::to_string(id) + "/cancel";
  } else if (verb == "resource") {
    target = "/api/v1/resource";
  } else if (verb == "metrics") {
    target = "/metrics";
  } else if (verb == "shutdown") {
    method = "POST";
    target = "/api/v1/shutdown";
  }

  auto response = call(remote, method, target);
  if (!response) {
    std::fprintf(stderr, "aimesc: %s\n", response.error().c_str());
    return 1;
  }
  if (response->status >= 400) {
    print_error_body(*response);
    return 1;
  }

  if (verb == "list") {
    const auto records = run_records(response->body);
    if (records.empty()) {
      std::printf("no runs\n");
      return 0;
    }
    std::printf("    id  state      user          trials  name\n");
    for (const auto& record : records) print_run_line(record, /*top=*/false);
    return 0;
  }
  if (verb == "view") {
    std::fputs(response->body.c_str(), stdout);
    // Trailing human summary of the latest progress snapshot, so a glance
    // answers "how far along is it" without reading the JSON.
    const auto snapshots =
        Node::parse("record", response->body).value_or({}).get("progress").items().value_or({});
    if (!snapshots.empty()) {
      if (auto p = exp::parse_run_progress(snapshots.back())) print_progress_line(id, *p);
    }
    return 0;
  }
  if (verb == "cancel") {
    const std::string state = Node::parse("response", response->body)
                                  .value_or({})
                                  .get("state")
                                  .text()
                                  .value_or("cancellation requested");
    std::printf("run %llu: %s\n", static_cast<unsigned long long>(id), state.c_str());
    return 0;
  }
  // view / log / resource / metrics / shutdown: the body is the answer.
  std::fputs(response->body.c_str(), stdout);
  if (!response->body.empty() && response->body.back() != '\n') std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    std::fputs(kUsage, argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string verb = argv[1];
  if (verb == "submit") return cmd_submit(argc - 1, argv + 1);
  if (verb == "top") return cmd_top(argc - 1, argv + 1);
  if (verb == "list" || verb == "view" || verb == "log" || verb == "cancel" ||
      verb == "watch" || verb == "resource" || verb == "metrics" || verb == "shutdown") {
    return cmd_simple(verb, argc - 1, argv + 1);
  }
  std::fprintf(stderr, "aimesc: unknown verb '%s'\n\n%s", verb.c_str(), kUsage);
  return 2;
}
