// Seeded mutation fuzzing of every document the strict JSON reader takes
// from the wire or the disk: the outputs of the RunRequest, RunProgress and
// RunResult emitters, and run-journal lines. Each mutant flips, drops,
// inserts or duplicates bytes of a valid document. It must either parse and
// then round-trip parse -> emit -> parse to the same document, or fail with
// a typed error that names a field or a byte.
//
// No libFuzzer: a fixed seed per suite makes every failure reproducible.
// Deliberately outside the test_*.cpp glob, in its own binary labeled
// sanitize, so `ctest -L sanitize` runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ctl/journal.hpp"
#include "exp/request.hpp"

namespace {

using namespace aimes;

constexpr int kRounds = 3000;

std::string mutate(std::string doc, std::mt19937_64& rng) {
  static constexpr char kBytes[] = "{}[]\",:.-+eE019 \\tnu\x01\x7f\xff";
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops; ++i) {
    const std::size_t at = doc.empty() ? 0 : rng() % doc.size();
    switch (rng() % 4) {
      case 0:
        if (!doc.empty()) doc[at] = static_cast<char>(doc[at] ^ (1 << (rng() % 8)));
        break;
      case 1:
        if (!doc.empty()) doc.erase(at, 1 + rng() % 3);
        break;
      case 2:
        doc.insert(at, 1, kBytes[rng() % (sizeof kBytes - 1)]);
        break;
      default:
        doc.insert(at, doc.substr(at, 1 + rng() % 12));
        break;
    }
  }
  return doc;
}

/// A typed error names the field or the byte it is about.
bool typed(const std::string& error) {
  return error.find(" at byte ") != std::string::npos ||
         error.find("field '") != std::string::npos;
}

/// Runs kRounds mutants of `corpus` through `parse`; accepted ones must
/// round-trip through `emit`.
template <class Parse, class Emit>
void fuzz(const std::vector<std::string>& corpus, std::uint64_t seed, Parse parse, Emit emit) {
  std::mt19937_64 rng(seed);
  int accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string mutant = mutate(corpus[round % corpus.size()], rng);
    auto first = parse(mutant);
    if (!first.ok()) {
      ASSERT_TRUE(typed(first.error())) << first.error() << "\n" << mutant;
      continue;
    }
    ++accepted;
    const std::string emitted = emit(*first);
    auto second = parse(emitted);
    ASSERT_TRUE(second.ok()) << second.error() << "\nmutant: " << mutant;
    ASSERT_EQ(emit(*second), emitted) << "mutant: " << mutant;
  }
  // Some mutants (a flipped digit, an inserted space) stay valid; a run in
  // which none does exercised only the error path.
  EXPECT_GT(accepted, 0);
}

std::vector<exp::RunRequest> requests() {
  std::vector<exp::RunRequest> out(3);
  out[0].name = "plain";
  out[1].profile = "bag-uniform";
  out[1].campaign.tenants = 4;
  out[1].campaign.arrival.poisson_per_hour = 6.0;
  out[1].admission.enabled = true;
  out[1].admission.quota = {3, 2, 48.0};
  out[1].admission.slo = "batch";
  out[1].admission.breaker = true;
  out[1].admission.breaker_threshold = 0.5;
  out[2].name = "q\"uote\\back\tslash";
  out[2].strategy.experiment = 2;
  out[2].seed = 18446744073709551615ULL;
  out[2].sharding.shards = 4;
  out[2].observability.enabled = true;
  return out;
}

std::vector<exp::RunProgress> snapshots() {
  std::vector<exp::RunProgress> out(2);
  out[1].trials_done = 3;
  out[1].trials_total = 8;
  out[1].units_done = 420;
  out[1].vt_seconds = 1234.5;
  out[1].checksum = 0xdeadbeefcafef00dULL;
  out[1].tenants_shed = 2;
  return out;
}

std::vector<exp::RunResult> results() {
  std::vector<exp::RunResult> out(2);
  out[0].ok = true;
  out[0].success = true;
  out[0].trials_requested = 2;
  out[0].trials_completed = 2;
  out[0].checksum = 0xfeedbeefcafef00dULL;
  out[0].progress = snapshots()[1];
  out[1].is_campaign = true;
  out[1].error = "boom";
  out[1].cancelled = true;
  return out;
}

TEST(WireFuzz, RequestBodies) {
  std::vector<std::string> corpus;
  for (const auto& r : requests()) corpus.push_back(exp::run_request_to_json(r));
  fuzz(corpus, 0x7265717565737431ULL,
       [](const std::string& text) { return exp::parse_run_request("fuzz", text); },
       [](const exp::RunRequest& r) { return exp::run_request_to_json(r); });
}

TEST(WireFuzz, ProgressDocuments) {
  std::vector<std::string> corpus;
  for (const auto& p : snapshots()) corpus.push_back(exp::run_progress_to_json(p));
  fuzz(corpus, 0x70726f6772657373ULL,
       [](const std::string& text) { return exp::parse_run_progress("fuzz", text); },
       [](const exp::RunProgress& p) { return exp::run_progress_to_json(p); });
}

TEST(WireFuzz, ResultDocuments) {
  std::vector<std::string> corpus;
  for (const auto& r : results()) corpus.push_back(exp::run_result_to_json(r));
  fuzz(corpus, 0x726573756c747331ULL,
       [](const std::string& text) { return exp::parse_run_result("fuzz", text); },
       [](const exp::RunResult& r) { return exp::run_result_to_json(r); });
}

/// Every field of the replayed records, through the wire emitters.
std::string dump(const ctl::JournalReplay& replay) {
  std::ostringstream out;
  for (const ctl::RunRecord& r : replay.records) {
    out << r.id << ' ' << r.user << ' ' << r.name << ' ' << r.idempotency_key << ' '
        << ctl::to_string(r.state) << ' ' << ctl::to_string(r.cancel_reason) << ' '
        << ctl::to_string(r.fail_reason) << ' ' << r.submitted_at << ' ' << r.started_at << ' '
        << r.finished_at << '\n'
        << exp::run_request_to_json(r.request) << exp::run_result_to_json(r.result);
    for (const auto& line : r.log) out << line << '\n';
    for (const auto& p : r.progress) out << exp::run_progress_to_json(p) << '\n';
  }
  return out.str();
}

std::vector<std::string> lines_of(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
}

/// Journals `records` the way the registry does, one line per transition.
void journal_records(const std::string& path, const std::vector<ctl::RunRecord>& records) {
  std::remove(path.c_str());
  ctl::Journal journal;
  ASSERT_TRUE(journal.open(path).ok());
  for (const ctl::RunRecord& r : records) {
    journal.submit(r);
    if (r.state != ctl::RunState::kQueued) journal.start(r);
    for (const auto& line : r.log) journal.log_line(r.id, line);
    for (const auto& p : r.progress) journal.progress(r.id, p);
    if (r.state != ctl::RunState::kQueued && r.state != ctl::RunState::kRunning) {
      journal.finish(r);
    }
  }
}

TEST(WireFuzz, JournalLines) {
  const std::string path = testing::TempDir() + "aimes_wire_fuzz.jsonl";
  const std::string again = testing::TempDir() + "aimes_wire_fuzz_again.jsonl";
  ctl::RunRecord record;
  record.id = 1;
  record.user = "ana";
  record.name = "fuzz";
  record.idempotency_key = "key-1";
  record.request = requests()[1];
  record.state = ctl::RunState::kDone;
  record.result = results()[0];
  record.log = {"trial 1/2: ttc 40s", "done"};
  record.progress = snapshots();
  record.submitted_at = 100;
  record.started_at = 101;
  record.finished_at = 102;
  journal_records(path, {record});
  const std::vector<std::string> corpus = lines_of(path);
  ASSERT_EQ(corpus.size(), 7u);  // submit, start, 2 logs, 2 progress, finish

  std::mt19937_64 rng(0x6a6f75726e616c31ULL);
  int accepted = 0;
  for (int round = 0; round < kRounds / 3; ++round) {
    // One line of the journal is mutated. A rejected submit orphans every
    // later line of its run; any other rejected line is skipped alone.
    std::vector<std::string> lines = corpus;
    const std::size_t victim = round % corpus.size();
    lines[victim] = mutate(lines[victim], rng);
    write_lines(path, lines);
    auto replay = ctl::replay_journal(path);
    ASSERT_TRUE(replay.ok()) << replay.error();
    ASSERT_LE(replay->malformed_lines, victim == 0 ? lines.size() : 1u) << lines[victim];
    auto twice = ctl::replay_journal(path);
    ASSERT_TRUE(twice.ok());
    ASSERT_EQ(dump(*twice), dump(*replay)) << lines[victim];
    if (replay->malformed_lines > 0 || replay->records.empty()) continue;
    // Accepted: the replayed records journal and replay to themselves.
    ++accepted;
    journal_records(again, replay->records);
    auto round_trip = ctl::replay_journal(again);
    ASSERT_TRUE(round_trip.ok());
    ASSERT_EQ(round_trip->malformed_lines, 0u);
    ASSERT_EQ(dump(*round_trip), dump(*replay)) << lines[victim];
  }
  EXPECT_GT(accepted, 0);
  std::remove(path.c_str());
  std::remove(again.c_str());
}

}  // namespace
