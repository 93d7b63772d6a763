#include "ctl/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "common/fields.hpp"
#include "common/string_util.hpp"

namespace aimes::ctl {

namespace {

/// Flattens a multi-line JSON document (run_request_to_json and friends are
/// pretty-printed) onto one journal line. Newlines only ever appear between
/// JSON tokens — strings escape them — so a space substitution is lossless.
std::string compact(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) out += c == '\n' ? ' ' : c;
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

bool parse_run_state(std::string_view text, RunState& out) {
  return common::parse_enum(text, RunState::kCancelled, out);
}

bool parse_cancel_reason(std::string_view text, CancelReason& out) {
  return common::parse_enum(text, CancelReason::kDeadline, out);
}

bool parse_fail_reason(std::string_view text, FailReason& out) {
  return common::parse_enum(text, FailReason::kDeadline, out);
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status Journal::open(const std::string& path) {
  if (file_ != nullptr) return common::Status::error("journal: already open");
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    return common::Status::error("journal: cannot open " + path + " for append: " +
                                 std::strerror(errno));
  }
  return {};
}

void Journal::append(const std::string& line) {
  if (file_ == nullptr) return;
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
  // One flush per transition: a SIGKILL loses at most the line being
  // written, which replay tolerates as a truncated tail.
  std::fflush(file_);
}

void Journal::submit(const RunRecord& record) {
  if (file_ == nullptr) return;
  common::json::Writer out(/*pretty=*/false);
  out("event", "submit");
  out("id", record.id);
  out("at", record.submitted_at);
  out("user", record.user);
  out("name", record.name);
  // The dedup token rides the journal so a restarted daemon still recognizes
  // a client's retried submit as the same run.
  if (!record.idempotency_key.empty()) out("idempotency_key", record.idempotency_key);
  out.raw("request", compact(exp::run_request_to_json(record.request)));
  append(out.finish());
}

void Journal::start(const RunRecord& record) {
  if (file_ == nullptr) return;
  common::json::Writer out(/*pretty=*/false);
  out("event", "start");
  out("id", record.id);
  out("at", record.started_at);
  append(out.finish());
}

void Journal::log_line(std::uint64_t id, const std::string& line) {
  if (file_ == nullptr) return;
  common::json::Writer out(/*pretty=*/false);
  out("event", "log");
  out("id", id);
  out("line", line);
  append(out.finish());
}

void Journal::progress(std::uint64_t id, const exp::RunProgress& progress) {
  if (file_ == nullptr) return;
  common::json::Writer out(/*pretty=*/false);
  out("event", "progress");
  out("id", id);
  out.raw("progress", exp::run_progress_to_json(progress));
  append(out.finish());
}

void Journal::finish(const RunRecord& record) {
  if (file_ == nullptr) return;
  common::json::Writer out(/*pretty=*/false);
  out("event", "finish");
  out("id", record.id);
  out("at", record.finished_at);
  out("state", to_string(record.state));
  out("cancel_reason", to_string(record.cancel_reason));
  out("fail_reason", to_string(record.fail_reason));
  out.raw("result", compact(exp::run_result_to_json(record.result)));
  append(out.finish());
}

namespace {

/// Applies one journal line to the record table. Returns false, leaving the
/// table untouched, when the line is malformed (bad JSON, an unknown or
/// mistyped key, an unknown spelling) or references an unknown run; replay
/// skips both (the truncated-tail and schema-drift tolerance).
bool apply_line(const std::string& origin, const std::string& line,
                std::map<std::uint64_t, RunRecord>& records) {
  auto doc = common::json::Node::parse(origin, line);
  if (!doc) return false;
  common::json::Reader in(*doc);
  std::string event;
  std::uint64_t id = 0;
  in("event", event);
  in("id", id);
  if (id < 1) return false;

  if (event == "submit") {
    RunRecord record;
    record.id = id;
    in("at", record.submitted_at);
    in("user", record.user);
    in("name", record.name);
    in("idempotency_key", record.idempotency_key);
    in.object("request", record.request,
              [](const common::json::Node& o) { return exp::parse_run_request(o); });
    if (!doc->get("request").present() || !in.finish().ok()) return false;
    records[id] = std::move(record);
    return true;
  }

  const auto found = records.find(id);
  if (found == records.end()) return false;  // transition without a submit
  RunRecord& record = found->second;

  if (event == "start") {
    std::time_t at = record.started_at;
    in("at", at);
    if (!in.finish().ok()) return false;
    record.state = RunState::kRunning;
    record.started_at = at;
    return true;
  }
  if (event == "log") {
    std::string text;
    in("line", text);
    if (!doc->get("line").present() || !in.finish().ok()) return false;
    record.log.push_back(std::move(text));
    return true;
  }
  if (event == "progress") {
    exp::RunProgress progress;
    in.object("progress", progress,
              [](const common::json::Node& o) { return exp::parse_run_progress(o); });
    if (!doc->get("progress").present() || !in.finish().ok()) return false;
    record.progress.push_back(progress);
    return true;
  }
  if (event == "finish") {
    std::time_t at = record.finished_at;
    std::string state_text;
    std::string cancel_text = "none";
    std::string fail_text = "none";
    exp::RunResult result;
    in("at", at);
    in("state", state_text);
    in("cancel_reason", cancel_text);
    in("fail_reason", fail_text);
    in.object("result", result,
              [](const common::json::Node& o) { return exp::parse_run_result(o); });
    RunState state = RunState::kQueued;
    CancelReason cancel = CancelReason::kNone;
    FailReason fail = FailReason::kNone;
    if (!doc->get("result").present() || !in.finish().ok() || !parse_run_state(state_text, state) ||
        !parse_cancel_reason(cancel_text, cancel) || !parse_fail_reason(fail_text, fail)) {
      return false;
    }
    record.state = state;
    record.cancel_reason = cancel;
    record.fail_reason = fail;
    record.result = std::move(result);
    record.finished_at = at;
    return true;
  }
  return false;  // unknown event kind
}

}  // namespace

common::Expected<JournalReplay> replay_journal(const std::string& path) {
  using E = common::Expected<JournalReplay>;
  JournalReplay out;
  errno = 0;
  std::ifstream in(path);
  if (!in.is_open()) {
    // A journal that does not exist yet is a fresh daemon, not a failure;
    // anything else (permissions, a directory) is.
    if (errno == ENOENT || errno == 0) return out;
    return E::error("journal: cannot read " + path + ": " + std::strerror(errno));
  }
  std::map<std::uint64_t, RunRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ++out.lines;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::string origin = path + ":" + std::to_string(line_no);
    if (!apply_line(origin, line, records)) ++out.malformed_lines;
  }
  out.records.reserve(records.size());
  for (auto& [id, record] : records) out.records.push_back(std::move(record));
  return out;
}

}  // namespace aimes::ctl
