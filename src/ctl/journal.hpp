// Persistent run journal: the registry's crash-safe memory.
//
// `aimesd --journal FILE` turns the in-memory run table into a durable one:
// the registry appends one JSONL record per lifecycle transition (submit /
// start / log / progress / finish) and replays the file at startup, so a
// restarted daemon serves the full history of every prior run — request,
// log, progress snapshots, result — and marks runs that were in flight when
// the process died as failed with the typed daemon-restart reason.
//
// The format is append-only JSONL written through common::json: one
// self-describing object per line, whole RunRequest / RunResult /
// RunProgress documents embedded as nested objects (newlines stripped — the
// line *is* the framing). Replay reads each line with the same strict reader
// and field tables as the daemon's request parser, and is a pure function of
// the file: it tolerates a truncated final line (the SIGKILL-mid-write case)
// by skipping, and counting, any line that does not parse exactly, and
// replaying the same file twice yields identical records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ctl/registry.hpp"

namespace aimes::ctl {

/// Append-side of the journal. All writes are one flushed line; an unopened
/// journal ignores every write (the registry runs journal-less by default).
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for append (creating it). Replay is the caller's job —
  /// open() never reads.
  [[nodiscard]] common::Status open(const std::string& path);
  [[nodiscard]] bool is_open() const { return file_ != nullptr; }

  void submit(const RunRecord& record);
  void start(const RunRecord& record);
  void log_line(std::uint64_t id, const std::string& line);
  void progress(std::uint64_t id, const exp::RunProgress& progress);
  /// One terminal record carrying the final state, the typed reasons, and
  /// the whole result document.
  void finish(const RunRecord& record);

 private:
  void append(const std::string& line);

  std::FILE* file_ = nullptr;
};

/// Result of replaying one journal file.
struct JournalReplay {
  /// Reconstructed records in id order, exactly as the journal's transitions
  /// left them — runs without a finish record come back queued/running and
  /// the registry resurrects them as failed (daemon-restart).
  std::vector<RunRecord> records;
  std::size_t lines = 0;            ///< lines read (including skipped ones)
  std::size_t malformed_lines = 0;  ///< skipped: truncated tail, garbage
};

/// Replays `path` into records. A missing file is an empty journal (fresh
/// daemon), not an error; only an unreadable existing file fails. Pure: no
/// side effects, idempotent across repeated calls.
[[nodiscard]] common::Expected<JournalReplay> replay_journal(const std::string& path);

/// Spelling parsers for the journal's state/reason strings (the inverses of
/// the to_string overloads in registry.hpp). Return false on unknown text.
[[nodiscard]] bool parse_run_state(std::string_view text, RunState& out);
[[nodiscard]] bool parse_cancel_reason(std::string_view text, CancelReason& out);
[[nodiscard]] bool parse_fail_reason(std::string_view text, FailReason& out);

}  // namespace aimes::ctl
