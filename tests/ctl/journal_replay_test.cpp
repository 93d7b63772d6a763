// ctl::Journal / replay_journal: the crash-safe run journal. Round-trips a
// registry's lifecycle through the JSONL file, then attacks the replay path
// the way a daemon crash does — truncated final line, in-flight runs with no
// finish record, double replay — and finishes with a whole-registry restart
// (new Registry on the same file) asserting the full record comes back.
//
// Deliberately outside the test_*.cpp glob: it rides in the
// aimes_ctl_lifecycle_tests binary so `ctest -L sanitize` runs it under
// ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "ctl/journal.hpp"
#include "ctl/registry.hpp"

namespace {

using namespace aimes;
using namespace std::chrono_literals;

std::string temp_journal(const std::string& name) {
  return testing::TempDir() + "aimes_journal_" + name + ".jsonl";
}

exp::RunRequest small_request() {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 2;
  return req;
}

exp::RunResult ok_result() {
  exp::RunResult r;
  r.ok = true;
  r.success = true;
  r.trials_requested = 2;
  r.trials_completed = 2;
  r.checksum = 0xfeedbeefcafef00dULL;
  r.progress_events = 3;
  r.progress.trials_done = 2;
  r.progress.trials_total = 2;
  r.progress.checksum = 0xfeedbeefcafef00dULL;
  return r;
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

/// Runs one request to completion through a journal-backed registry,
/// emitting a couple of progress snapshots and log lines on the way.
void run_one_through(const std::string& path) {
  ctl::Registry::Options options;
  options.workers = 1;
  options.journal_file = path;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks& hooks) {
    hooks.log("trial 1/2: ttc 40s");
    exp::RunProgress p;
    p.trials_done = 1;
    p.trials_total = 2;
    p.units_done = 4;
    if (hooks.progress) hooks.progress(p);
    hooks.log("trial 2/2: ttc 44s");
    p.trials_done = 2;
    p.units_done = 8;
    p.checksum = 0xfeedbeefcafef00dULL;
    if (hooks.progress) hooks.progress(p);
    return ok_result();
  };
  ctl::Registry registry(options);
  ASSERT_TRUE(registry.journal_status().ok()) << registry.journal_status().error();
  const auto outcome = registry.submit(small_request(), "ana");
  ASSERT_TRUE(outcome.accepted) << outcome.error;
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 1; }));
}

/// Canonical text of a replay: every field a record carries, through the
/// wire emitters, so two replays compare as one string.
std::string dump_replay(const ctl::JournalReplay& replay) {
  std::ostringstream out;
  out << "lines " << replay.lines << " malformed " << replay.malformed_lines << "\n";
  for (const ctl::RunRecord& r : replay.records) {
    out << "run " << r.id << " user=" << r.user << " name=" << r.name
        << " key=" << r.idempotency_key << " state=" << ctl::to_string(r.state)
        << " cancel=" << ctl::to_string(r.cancel_reason)
        << " fail=" << ctl::to_string(r.fail_reason) << " at=" << r.submitted_at << "/"
        << r.started_at << "/" << r.finished_at << "\n"
        << exp::run_request_to_json(r.request);
    for (const std::string& line : r.log) out << "log " << line << "\n";
    for (const exp::RunProgress& p : r.progress) {
      out << "progress " << exp::run_progress_to_json(p) << "\n";
    }
    out << exp::run_result_to_json(r.result);
  }
  return out.str();
}

TEST(Journal, ReplaysAFixtureRecordedBeforeTheStrictReaderToTheSameRecords) {
  // parent_journal.jsonl was written by aimesd while the journal was still
  // read by the substring-scanning reader: a single-app run, a campaign with
  // an admission quota, a faulted run, a run cancelled by its user and one
  // failed by a daemon restart, every submit carrying an idempotency key.
  // parent_journal.expected is dump_replay() of that reader's replay.
  const std::string dir = std::string(AIMES_TEST_DATA_DIR) + "/ctl/";
  auto replay = ctl::replay_journal(dir + "parent_journal.jsonl");
  ASSERT_TRUE(replay.ok()) << replay.error();
  std::ifstream expected_file(dir + "parent_journal.expected");
  std::stringstream expected;
  expected << expected_file.rdbuf();
  ASSERT_FALSE(expected.str().empty());
  EXPECT_EQ(dump_replay(*replay), expected.str());

  EXPECT_EQ(replay->malformed_lines, 0u);
  ASSERT_EQ(replay->records.size(), 5u);
  for (const ctl::RunRecord& record : replay->records) {
    EXPECT_EQ(record.idempotency_key.size(), 32u);
    EXPECT_FALSE(record.log.empty());
    EXPECT_FALSE(record.progress.empty());
  }
  const ctl::RunRecord& campaign = replay->records[1];
  EXPECT_EQ(campaign.request.campaign.tenants, 3);
  EXPECT_TRUE(campaign.request.admission.enabled);
  EXPECT_EQ(campaign.request.admission.slo, "batch");
  EXPECT_TRUE(campaign.result.is_campaign);
  EXPECT_EQ(campaign.result.checksum, campaign.progress.back().checksum);
  EXPECT_EQ(replay->records[3].cancel_reason, ctl::CancelReason::kUser);
  EXPECT_EQ(replay->records[4].fail_reason, ctl::FailReason::kDaemonRestart);
}

TEST(Journal, LinesWithUnknownOrMistypedKeysAreSkippedAsMalformed) {
  const std::string path = temp_journal("strict");
  std::remove(path.c_str());
  run_one_through(path);
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"event\": \"log\", \"id\": 1, \"line\": \"x\", \"extra\": 1}\n"
        << "{\"event\": \"log\", \"id\": 1.5, \"line\": \"x\"}\n"
        << "{\"event\": \"finish\", \"id\": 1, \"state\": \"done\", \"cancel_reason\": "
           "\"bogus\", \"result\": {}}\n"
        << "{\"event\": \"log\", \"id\": 1, \"line\": \"kept\"}\n";
  }
  auto replay = ctl::replay_journal(path);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay->malformed_lines, 3u);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].log.back(), "kept");
  EXPECT_EQ(replay->records[0].state, ctl::RunState::kDone);
}

TEST(Journal, MissingFileIsEmptyJournalNotAnError) {
  auto replay = ctl::replay_journal(temp_journal("missing-never-created"));
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->lines, 0u);
}

TEST(Journal, RoundTripsCompletedRunWithLogProgressAndResult) {
  const std::string path = temp_journal("roundtrip");
  std::remove(path.c_str());
  run_one_through(path);

  auto replay = ctl::replay_journal(path);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay->malformed_lines, 0u);
  ASSERT_EQ(replay->records.size(), 1u);
  const ctl::RunRecord& record = replay->records[0];
  EXPECT_EQ(record.id, 1u);
  EXPECT_EQ(record.user, "ana");
  EXPECT_EQ(record.state, ctl::RunState::kDone);
  EXPECT_EQ(record.fail_reason, ctl::FailReason::kNone);
  EXPECT_EQ(record.request.tasks, 4);
  EXPECT_EQ(record.request.trials, 2);
  ASSERT_EQ(record.progress.size(), 2u);
  EXPECT_EQ(record.progress.back().trials_done, 2);
  EXPECT_EQ(record.progress.back().units_done, 8u);
  EXPECT_EQ(record.progress.back().checksum, 0xfeedbeefcafef00dULL);
  ASSERT_GE(record.log.size(), 3u);
  EXPECT_EQ(record.log[0], "trial 1/2: ttc 40s");
  EXPECT_EQ(record.log.back(), "done");
  // The embedded result document survives with its checksum intact — the
  // uint64 travels as hex16 text, immune to double-precision truncation.
  EXPECT_TRUE(record.result.ok);
  EXPECT_EQ(record.result.checksum, 0xfeedbeefcafef00dULL);
  EXPECT_GT(record.finished_at, 0);
}

TEST(Journal, ReplayIsIdempotent) {
  const std::string path = temp_journal("idempotent");
  std::remove(path.c_str());
  run_one_through(path);

  auto first = ctl::replay_journal(path);
  auto second = ctl::replay_journal(path);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->records.size(), second->records.size());
  EXPECT_EQ(first->lines, second->lines);
  const ctl::RunRecord& a = first->records[0];
  const ctl::RunRecord& b = second->records[0];
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.progress.size(), b.progress.size());
  EXPECT_EQ(a.result.checksum, b.result.checksum);
}

TEST(Journal, TruncatedFinalLineIsSkippedNotFatal) {
  const std::string path = temp_journal("truncated");
  std::remove(path.c_str());
  run_one_through(path);

  // Chop the file mid-way through its last line — the SIGKILL-mid-write
  // shape. Everything before the tear must still replay.
  std::string text;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) text += line + "\n";
  }
  const std::size_t last_line = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  const std::string torn = text.substr(0, last_line + 1 + 10);  // 10 bytes of the line
  {
    std::ofstream out(path, std::ios::trunc);
    out << torn;
  }

  auto replay = ctl::replay_journal(path);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay->malformed_lines, 1u);
  ASSERT_EQ(replay->records.size(), 1u);
  // The torn line was the finish record, so the run replays as still running
  // — exactly what the registry resurrects as failed (daemon-restart).
  EXPECT_EQ(replay->records[0].state, ctl::RunState::kRunning);
}

TEST(Journal, GarbageLinesAreCountedAndSkipped) {
  const std::string path = temp_journal("garbage");
  std::remove(path.c_str());
  run_one_through(path);
  {
    std::ofstream out(path, std::ios::app);
    out << "not json at all\n";
    out << "{\"event\": \"log\", \"id\": 999, \"line\": \"orphan transition\"}\n";
    out << "{\"event\": \"martian\", \"id\": 1}\n";
    out << "\n";  // blank lines are fine
  }
  auto replay = ctl::replay_journal(path);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay->malformed_lines, 3u);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].state, ctl::RunState::kDone);
}

TEST(Journal, RegistryRestartRecoversHistoryAndFailsOrphans) {
  const std::string path = temp_journal("restart");
  std::remove(path.c_str());

  // First life: one completed run, one parked mid-flight. Writing the
  // journal by hand for the parked run mimics a SIGKILL — the registry
  // destructor would drain gracefully, which is exactly what a crash skips.
  run_one_through(path);
  {
    // Journal lines are single-line JSON; the pretty request form must be
    // flattened the way Journal::submit flattens it.
    std::string request_json = exp::run_request_to_json(small_request());
    for (char& c : request_json) {
      if (c == '\n') c = ' ';
    }
    std::ofstream out(path, std::ios::app);
    out << "{\"event\": \"submit\", \"id\": 2, \"at\": 1700000000, \"user\": \"ben\", "
           "\"name\": \"crashed\", \"request\": "
        << request_json << "}\n";
    out << "{\"event\": \"start\", \"id\": 2, \"at\": 1700000001}\n";
    out << "{\"event\": \"log\", \"id\": 2, \"line\": \"trial 1/2: ttc 40s\"}\n";
  }

  // Second life on the same journal.
  ctl::Registry::Options options;
  options.workers = 1;
  options.journal_file = path;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);
  ASSERT_TRUE(registry.journal_status().ok()) << registry.journal_status().error();

  const auto done = registry.get(1);
  ASSERT_TRUE(done.ok()) << done.error();
  EXPECT_EQ(done->state, ctl::RunState::kDone);
  EXPECT_EQ(done->result.checksum, 0xfeedbeefcafef00dULL);
  EXPECT_EQ(done->progress.size(), 2u);

  const auto orphan = registry.get(2);
  ASSERT_TRUE(orphan.ok()) << orphan.error();
  EXPECT_EQ(orphan->state, ctl::RunState::kFailed);
  EXPECT_EQ(orphan->fail_reason, ctl::FailReason::kDaemonRestart);
  EXPECT_EQ(orphan->user, "ben");
  EXPECT_EQ(orphan->name, "crashed");
  ASSERT_FALSE(orphan->log.empty());
  EXPECT_NE(orphan->log.back().find("daemon restart"), std::string::npos);
  EXPECT_GT(orphan->finished_at, 0);

  // Counters rebuilt from history; ids continue past the recovered ones.
  EXPECT_EQ(registry.counters().submitted, 2u);
  EXPECT_EQ(registry.counters().completed, 1u);
  EXPECT_EQ(registry.counters().failed, 1u);
  const auto next = registry.submit(small_request(), "ana");
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_EQ(next.id, 3u);
  ASSERT_TRUE(eventually([&] { return registry.counters().completed == 2; }));

  // Third life: the resurrection was journaled, so it replays terminal —
  // restart-after-restart does not re-decide (or double-log) the failure.
  ctl::Registry third(options);
  const auto again = third.get(2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->state, ctl::RunState::kFailed);
  EXPECT_EQ(again->fail_reason, ctl::FailReason::kDaemonRestart);
  const auto restart_lines = [&] {
    std::size_t n = 0;
    for (const auto& line : again->log) {
      if (line.find("daemon restart") != std::string::npos) ++n;
    }
    return n;
  }();
  EXPECT_EQ(restart_lines, 1u);
}

TEST(Journal, UnreadableFileIsATypedStartupError) {
  // A directory where the journal file should be: open for read fails with
  // something other than ENOENT, and the registry surfaces it.
  const std::string path = testing::TempDir();  // a directory, not a file
  ctl::Registry::Options options;
  options.workers = 1;
  options.journal_file = path;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);
  EXPECT_FALSE(registry.journal_status().ok());
}

TEST(Journal, StateAndReasonSpellingsRoundTrip) {
  ctl::RunState state{};
  for (const auto expected :
       {ctl::RunState::kQueued, ctl::RunState::kRunning, ctl::RunState::kDone,
        ctl::RunState::kFailed, ctl::RunState::kCancelled}) {
    ASSERT_TRUE(ctl::parse_run_state(ctl::to_string(expected), state));
    EXPECT_EQ(state, expected);
  }
  EXPECT_FALSE(ctl::parse_run_state("sideways", state));

  ctl::CancelReason cancel{};
  for (const auto expected :
       {ctl::CancelReason::kNone, ctl::CancelReason::kUser, ctl::CancelReason::kShutdown,
        ctl::CancelReason::kDeadline}) {
    ASSERT_TRUE(ctl::parse_cancel_reason(ctl::to_string(expected), cancel));
    EXPECT_EQ(cancel, expected);
  }
  ctl::FailReason fail{};
  for (const auto expected : {ctl::FailReason::kNone, ctl::FailReason::kExecution,
                              ctl::FailReason::kDaemonRestart, ctl::FailReason::kDeadline}) {
    ASSERT_TRUE(ctl::parse_fail_reason(ctl::to_string(expected), fail));
    EXPECT_EQ(fail, expected);
  }
  EXPECT_FALSE(ctl::parse_fail_reason("gremlins", fail));
}

TEST(Journal, IdempotencyKeySurvivesRestart) {
  const std::string path = temp_journal("idempotency-restart");
  std::remove(path.c_str());

  // First life: a keyed submit runs to completion.
  {
    ctl::Registry::Options options;
    options.workers = 1;
    options.journal_file = path;
    options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
    ctl::Registry registry(options);
    const auto first = registry.submit(small_request(), "ana", "retry-token-9");
    ASSERT_TRUE(first.accepted) << first.error;
    EXPECT_FALSE(first.duplicate);
    ASSERT_TRUE(eventually([&] { return registry.counters().completed == 1; }));
  }

  // Second life: the key replays from the journal, so a client retrying its
  // submit against the restarted daemon still gets the original run.
  ctl::Registry::Options options;
  options.workers = 1;
  options.journal_file = path;
  options.executor = [](const exp::RunRequest&, const exp::RunHooks&) { return ok_result(); };
  ctl::Registry registry(options);
  ASSERT_TRUE(registry.journal_status().ok()) << registry.journal_status().error();

  const auto recovered = registry.get(1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->idempotency_key, "retry-token-9");

  const auto retry = registry.submit(small_request(), "ana", "retry-token-9");
  ASSERT_TRUE(retry.accepted) << retry.error;
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(retry.id, 1u);
  EXPECT_EQ(registry.counters().submitted, 1u);
  EXPECT_EQ(registry.list().size(), 1u);
}

}  // namespace
