// exp::RunRequest: the one typed run description shared by aimes-run,
// aimesc/aimesd, and the benches. Tests pin the three contracts the
// control plane leans on:
//   1. JSON round trip — serialize and re-parse reproduces every field;
//   2. typed rejection — malformed requests name the dotted field path
//      (and byte offset for JSON) instead of failing vaguely;
//   3. execution parity — execute(request) is bit-identical (FNV-1a
//      checksum) to driving the underlying cell runners directly, so a
//      daemon submission reproduces a CLI run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/request.hpp"
#include "exp/request_cli.hpp"

namespace {

using namespace aimes;

exp::RunRequest quick_request() {
  exp::RunRequest req;
  req.tasks = 4;
  req.trials = 2;
  req.warmup_hours = 1.0;
  req.strategy.pilots = 2;
  return req;
}

TEST(RunRequestJson, RoundTripPreservesEveryField) {
  exp::RunRequest req;
  req.name = "nightly";
  req.user = "ana";
  req.profile = "montage";
  req.tasks = 64;
  req.warmup_hours = 2.5;
  req.seed = 99;
  req.trials = 8;
  req.jobs = 4;
  req.strategy.binding = "early";
  req.strategy.scheduler = "direct";
  req.strategy.pilots = 5;
  req.strategy.selection = "random";
  req.sharding.shards = 2;
  req.sharding.grid_sites = 3;
  req.sharding.shard_workers = 2;
  req.observability.enabled = true;
  req.observability.sample_interval_s = 10.0;

  const std::string json = exp::run_request_to_json(req);
  auto parsed = exp::parse_run_request("round-trip", json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(exp::run_request_to_json(*parsed), json);
  EXPECT_EQ(parsed->name, "nightly");
  EXPECT_EQ(parsed->user, "ana");
  EXPECT_EQ(parsed->profile, "montage");
  EXPECT_EQ(parsed->tasks, 64);
  EXPECT_DOUBLE_EQ(parsed->warmup_hours, 2.5);
  EXPECT_EQ(parsed->seed, 99u);
  EXPECT_EQ(parsed->trials, 8);
  EXPECT_EQ(parsed->jobs, 4);
  EXPECT_EQ(parsed->strategy.binding, "early");
  EXPECT_EQ(parsed->strategy.scheduler, "direct");
  EXPECT_EQ(parsed->strategy.pilots, 5);
  EXPECT_EQ(parsed->strategy.selection, "random");
  EXPECT_EQ(parsed->sharding.shards, 2);
  EXPECT_TRUE(parsed->observability.enabled);
  EXPECT_DOUBLE_EQ(parsed->observability.sample_interval_s, 10.0);
}

TEST(RunRequestJson, CampaignRoundTripWithAdmission) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 4;
  req.campaign.arrival.poisson_per_hour = 6.0;
  req.campaign.mode = exp::CampaignMode::kPrivatePilots;
  req.admission.enabled = true;
  req.admission.quota = {3, 2, 48.0};
  req.admission.slo = "batch";
  req.admission.max_queue_wait_s = 900.0;
  req.admission.breaker = true;
  req.admission.breaker_threshold = 0.5;

  auto parsed = exp::parse_run_request("round-trip", exp::run_request_to_json(req));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->campaign.tenants, 4);
  EXPECT_DOUBLE_EQ(parsed->campaign.arrival.poisson_per_hour, 6.0);
  EXPECT_EQ(parsed->campaign.mode, exp::CampaignMode::kPrivatePilots);
  EXPECT_TRUE(parsed->admission.enabled);
  EXPECT_EQ(parsed->admission.slo, "batch");
  EXPECT_DOUBLE_EQ(parsed->admission.max_queue_wait_s, 900.0);
  EXPECT_TRUE(parsed->admission.breaker);
  EXPECT_DOUBLE_EQ(parsed->admission.breaker_threshold, 0.5);
}

TEST(RunRequestJson, ErrorsCarryDottedPathAndByteOffset) {
  auto bad = exp::parse_run_request("request body", "{\"tasks\": \"lots\"}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("request body"), std::string::npos) << bad.error();
  EXPECT_NE(bad.error().find("'tasks'"), std::string::npos) << bad.error();
  EXPECT_NE(bad.error().find("byte"), std::string::npos) << bad.error();

  auto nested = exp::parse_run_request(
      "request body", "{\"strategy\": {\"pilots\": \"three\"}}");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.error().find("strategy.pilots"), std::string::npos) << nested.error();
}

TEST(RunRequestJson, RejectsGarbageDocument) {
  EXPECT_FALSE(exp::parse_run_request("request body", "not json at all").ok());
  EXPECT_FALSE(exp::parse_run_request("request body", "").ok());
}

TEST(RunRequestJson, LenientBodiesOfTheOldReaderAreTypedErrors) {
  // Each of these once parsed "ok": a typo fell back to the default, a
  // nested key answered for the top-level one, a fraction or an out-of-range
  // seed was truncated. Each must now name the field or the byte.
  const struct {
    const char* body;
    const char* what;
  } cases[] = {
      {"{\"taks\": 32}", "field 'taks' at byte 9: unknown field"},
      {"{\"strategy\": {\"tasks\": 5}, \"tasks\": 64}",
       "field 'strategy.tasks' at byte 23: unknown field"},
      {"{\"tasks\": 32, \"tasks\": 64}", "field 'tasks' at byte 23: duplicate key"},
      {"{\"tasks\": 32} garbage", "at byte 14: unexpected bytes after the document"},
      {"{,,\"tasks\": 32,,}", "at byte 1: expected a string key"},
      {"{\"tasks\": 32", "field 'tasks' at byte 12: expected ',' or '}'"},
      {"{\"tasks\": 64abc}", "field 'tasks' at byte 12: expected ',' or '}'"},
      {"{\"tasks\": 64.9}", "field 'tasks' at byte 10: expected an integer in"},
      {"{\"admission\": {\"enabled\": trueish}}",
       "field 'admission.enabled' at byte 30: expected ',' or '}'"},
      {"{\"seed\": 1e25}", "field 'seed' at byte 9: expected an integer in [0, "},
      {"{\"seed\": -1}", "field 'seed' at byte 9: expected an integer in [0, "},
      {"{\"tasks\": \"32\"}", "field 'tasks' at byte 10: expected a number"},
      {"{\"strategy\": 3}", "field 'strategy' at byte 13: expected an object"},
      {"{\"observability\": {\"enabled\": 1}}",
       "field 'observability.enabled' at byte 30: expected true or false"},
      {"{\"campaign\": {\"arrival\": \"poisson:nan\"}}",
       "field 'campaign.arrival' at byte 25: invalid value 'nan'"},
      {"{\"admission\": {\"quota\": \"3e9:2\"}}",
       "field 'admission.quota' at byte 24: invalid value '3e9'"},
      {"{\"admission\": {\"quota\": \"2.5:1\"}}",
       "field 'admission.quota' at byte 24: expected whole cores and units"},
      // Once accepted by the JSON form although the CLI refused them: the
      // first two overflowed SimDuration::seconds, the next two turned
      // sampling off.
      {"{\"admission\": {\"max_queue_wait_s\": 1e300}}",
       "field 'admission.max_queue_wait_s' at byte 35: must be 0 or in [1, 1000000000]"},
      {"{\"admission\": {\"breaker_cooldown_s\": 1e300}}",
       "field 'admission.breaker_cooldown_s' at byte 37: must be 0 or in [1, 1000000000]"},
      {"{\"observability\": {\"sample_interval_s\": 1e-9}}",
       "field 'observability.sample_interval_s' at byte 40: must be in [0.001, 1000000]"},
      {"{\"observability\": {\"sample_interval_s\": 1e300}}",
       "field 'observability.sample_interval_s' at byte 40: must be in [0.001, 1000000]"},
      {"{\"admission\": {\"breaker_min_events\": 2000000000}}",
       "field 'admission.breaker_min_events' at byte 37: must be 0 or in [1, 1000000]"},
  };
  for (const auto& c : cases) {
    auto parsed = exp::parse_run_request("request body", c.body);
    ASSERT_FALSE(parsed.ok()) << c.body;
    EXPECT_EQ(parsed.error().rfind("request body: ", 0), 0u) << parsed.error();
    EXPECT_NE(parsed.error().find(c.what), std::string::npos)
        << c.body << " -> " << parsed.error();
  }

  // A body of nothing but '[' is a typed depth error, not a stack overflow.
  auto deep = exp::parse_run_request("request body", std::string(1 << 20, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.error().find("nesting deeper than 64 levels"), std::string::npos)
      << deep.error().substr(0, 200);
}

TEST(RunRequestJson, ControlBytesQuotesAndBackslashesRoundTrip) {
  exp::RunRequest req;
  for (int c = 1; c < 0x20; ++c) req.name += static_cast<char>(c);
  req.name += "\"q\" back\\slash a\rb\x01";
  req.user = std::string("nul\0byte", 8);
  const std::string json = exp::run_request_to_json(req);
  for (const char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
  }
  auto parsed = exp::parse_run_request("round-trip", json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->name, req.name);
  EXPECT_EQ(parsed->user, req.user);
  EXPECT_EQ(exp::run_request_to_json(*parsed), json);
}

TEST(RunRequestJson, SeedsBeyondDoublePrecisionRoundTripExactly) {
  exp::RunRequest req;
  req.seed = 18446744073709551615ULL;
  auto parsed = exp::parse_run_request("round-trip", exp::run_request_to_json(req));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->seed, req.seed);
  req.seed = (1ULL << 53) + 1;
  parsed = exp::parse_run_request("round-trip", exp::run_request_to_json(req));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->seed, req.seed);
}

TEST(RunRequestValidate, BoundsAndConflicts) {
  exp::RunRequest req = quick_request();
  EXPECT_TRUE(exp::validate(req).ok());

  req.tasks = 0;
  EXPECT_FALSE(exp::validate(req).ok());
  req = quick_request();

  req.strategy.binding = "middle";
  const auto binding = exp::validate(req);
  ASSERT_FALSE(binding.ok());
  EXPECT_NE(binding.error().find("binding"), std::string::npos) << binding.error();
  req = quick_request();

  // An experiment already fixes the strategy and skeleton; combining it
  // with a skeleton file or a campaign is contradictory.
  req.strategy.experiment = 2;
  req.skeleton_file = "app.cfg";
  EXPECT_FALSE(exp::validate(req).ok());
  req.skeleton_file.clear();
  req.campaign.tenants = 3;
  EXPECT_FALSE(exp::validate(req).ok());
  req = quick_request();

  // Campaigns synthesize their own bags; montage has no campaign form.
  req.campaign.tenants = 3;
  req.profile = "montage";
  EXPECT_FALSE(exp::validate(req).ok());
  req.profile = "bag-uniform";
  EXPECT_TRUE(exp::validate(req).ok());

  // Admission needs a concurrent campaign to admit into.
  req.campaign.tenants = 0;
  req.admission.enabled = true;
  EXPECT_FALSE(exp::validate(req).ok());
}

TEST(RunRequestCli, FlagsAndJsonProduceTheSameRequest) {
  exp::RunRequest cli_req;
  bool quick = false;
  common::cli::Parser cli("test");
  exp::declare_request_options(cli, cli_req, quick);
  std::vector<const char*> argv = {"test",      "--profile", "bag-uniform", "--tasks",
                                   "32",        "--binding", "early",       "--scheduler",
                                   "direct",    "--pilots",  "4",           "--seed",
                                   "7",         "--trials",  "3",           "--jobs",
                                   "2",         "--warmup",  "2"};
  auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  exp::finalize_request_options(cli, cli_req, quick);

  const std::string json =
      "{\"profile\": \"bag-uniform\", \"tasks\": 32, \"seed\": 7, \"trials\": 3,"
      " \"jobs\": 2, \"warmup_hours\": 2,"
      " \"strategy\": {\"binding\": \"early\", \"scheduler\": \"direct\", \"pilots\": 4}}";
  auto json_req = exp::parse_run_request("request body", json);
  ASSERT_TRUE(json_req.ok()) << json_req.error();

  EXPECT_EQ(exp::run_request_to_json(cli_req), exp::run_request_to_json(*json_req));
}

TEST(RunRequestCli, QuickAppliesDefaultsUnlessOverridden) {
  exp::RunRequest req;
  bool quick = false;
  common::cli::Parser cli("test");
  exp::declare_request_options(cli, req, quick);
  std::vector<const char*> argv = {"test", "--quick", "--tasks", "8"};
  auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  exp::finalize_request_options(cli, req, quick);
  EXPECT_EQ(req.tasks, 8);          // explicit flag wins over --quick
  EXPECT_EQ(req.strategy.pilots, 2);
  EXPECT_DOUBLE_EQ(req.warmup_hours, 1.0);
}

// --- the field table drives both front ends --------------------------------

/// A body that sets the dotted `key` to the JSON literal `value`.
std::string body_setting(std::string_view key, const std::string& value) {
  const auto dot = key.find('.');
  const std::string leaf = "\"" + std::string(key.substr(dot + 1)) + "\": " + value;
  if (dot == std::string_view::npos) return "{" + leaf + "}";
  return "{\"" + std::string(key.substr(0, dot)) + "\": {" + leaf + "}}";
}

/// `flag value` through the request flags of `front`, into a fresh request.
common::Expected<exp::RunRequest> parse_flag(std::string_view flag, const std::string& value,
                                             exp::RequestFront front = exp::kAimesRun) {
  exp::RunRequest req;
  common::cli::Parser cli("test");
  exp::declare_request_flags(cli, req, front);
  const std::string name(flag);
  std::vector<const char*> argv = {"test", name.c_str(), value.c_str()};
  auto parsed = cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  if (!parsed) return common::Expected<exp::RunRequest>::error(parsed.error());
  return req;
}

std::string literal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(RunRequestFieldTable, EveryFlaggedRangeIsTheSameForJsonAndCli) {
  int checked = 0;
  for (const exp::RequestField& f : exp::request_field_table()) {
    if (f.flag.empty()) continue;
    const auto front = (f.fronts & exp::kAimesRun) != 0 ? exp::kAimesRun : exp::kAimescSubmit;
    std::vector<std::string> inside;  // as typed on the command line
    std::vector<std::string> outside;
    const bool text = !f.one_of.empty();
    if (std::isfinite(f.min)) {
      // Just past each end, and one further (an integer field rejects the
      // fraction as a type error, the whole step as a range error).
      const auto tiny = [](double bound) { return std::max(std::abs(bound), 1.0) * 1e-9; };
      for (const double v : {f.min - tiny(f.min), f.min - 1, f.max + tiny(f.max), f.max + 1}) {
        if (!(f.zero_ok && v == 0)) outside.push_back(literal(v));
      }
      inside = {literal(f.min), literal(f.max)};
      if (f.zero_ok) inside.push_back("0");
    } else if (text) {
      outside = {"bogus", "early|late"};
      std::string_view rest = f.one_of;
      for (auto bar = rest.find('|');; bar = rest.find('|')) {
        inside.emplace_back(rest.substr(0, bar));
        if (bar == std::string_view::npos) break;
        rest.remove_prefix(bar + 1);
      }
      if (f.zero_ok) inside.emplace_back();
    } else {
      continue;
    }
    const auto body = [&](const std::string& v) {
      return body_setting(f.key, text ? "\"" + v + "\"" : v);
    };
    for (const std::string& v : outside) {
      auto json = exp::parse_run_request("request body", body(v));
      ASSERT_FALSE(json.ok()) << body(v);
      EXPECT_NE(json.error().find("field '" + std::string(f.key) + "' at byte"),
                std::string::npos)
          << json.error();
      auto cli = parse_flag(f.flag, v, front);
      ASSERT_FALSE(cli.ok()) << f.flag << " " << v;
      EXPECT_NE(cli.error().find(std::string(f.flag)), std::string::npos) << cli.error();
    }
    for (const std::string& v : inside) {
      auto json = exp::parse_run_request("request body", body(v));
      ASSERT_TRUE(json.ok()) << body(v) << ": " << json.error();
      auto cli = parse_flag(f.flag, v, front);
      ASSERT_TRUE(cli.ok()) << f.flag << " " << v << ": " << cli.error();
      EXPECT_EQ(exp::run_request_to_json(*cli), exp::run_request_to_json(*json)) << body(v);
      EXPECT_TRUE(exp::validate(*cli).ok()) << f.flag << " " << v;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 22);  // 17 ranged numbers, 5 spelled strings
}

/// The flag names an installed binary's --help lists, sorted.
std::vector<std::string> help_flags(const std::string& command) {
  std::vector<std::string> flags;
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(command.c_str(), "r"), pclose);
  if (!pipe) return flags;
  char line[512];
  while (std::fgets(line, sizeof line, pipe.get()) != nullptr) {
    const std::string text = line;
    if (text.rfind("  --", 0) != 0) continue;
    flags.push_back(text.substr(2, text.find_first_of(" \n", 2) - 2));
  }
  std::sort(flags.begin(), flags.end());
  return flags;
}

TEST(RunRequestFieldTable, HelpListsTheSameFlagsAsBefore) {
  // The flag sets of the hand-declared options the table replaced.
  const std::vector<std::string> request_flags = {
      "--admission",   "--arrival",          "--binding",           "--breaker-cooldown",
      "--breaker-min-events", "--breaker-threshold", "--campaign", "--campaign-mode",
      "--deadline",    "--experiment",       "--fault-plan",        "--grid-sites",
      "--jobs",        "--max-queue-wait",   "--pilot-failure-rate", "--pilots",
      "--profile",     "--quick",            "--quota",             "--scheduler",
      "--seed",        "--selection",        "--shard-workers",     "--shards",
      "--skeleton",    "--slo",              "--tasks",             "--testbed",
      "--trials",      "--warmup"};
  auto run = request_flags;
  run.insert(run.end(), {"--adaptive", "--emit", "--emit-out", "--metrics-out", "--report",
                         "--sample-interval", "--timeline", "--trace", "--trace-out",
                         "--verbose"});
  auto submit = request_flags;
  submit.insert(submit.end(),
                {"--idempotency-key", "--name", "--port", "--retries", "--socket", "--user",
                 "--wait"});
  std::sort(run.begin(), run.end());
  std::sort(submit.begin(), submit.end());
  EXPECT_EQ(help_flags(std::string(AIMES_RUN_BIN) + " --help"), run);
  EXPECT_EQ(help_flags(std::string(AIMESC_BIN) + " submit --help"), submit);
}

TEST(RunRequestExecute, SingleCellMatchesDirectRunner) {
  exp::RunRequest req = quick_request();
  req.observability.enabled = true;  // make the checksum informative

  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  const exp::CellResult direct =
      exp::run_cell(resolved->app, req.trials, req.seed, resolved->tweaks, nullptr, 1);

  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.trials_completed, req.trials);
  EXPECT_NE(result.checksum, 0u);
  EXPECT_EQ(result.checksum, direct.span_checksum);
  EXPECT_TRUE(result.has_first_trial);
  EXPECT_DOUBLE_EQ(result.cell.ttc_s.mean(), direct.ttc_s.mean());
}

TEST(RunRequestExecute, CampaignCellMatchesDirectRunner) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 3;

  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  const exp::CampaignCellResult direct =
      exp::run_campaign_cell(resolved->campaign, req.trials, req.seed, resolved->tweaks, 1);

  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.is_campaign);
  EXPECT_TRUE(result.has_first_campaign);
  EXPECT_EQ(result.checksum, direct.checksum);
  EXPECT_DOUBLE_EQ(result.campaign.makespan_s.mean(), direct.makespan_s.mean());
}

TEST(RunRequestExecute, JobsSweepIsBitIdentical) {
  exp::RunRequest req = quick_request();
  req.trials = 3;
  req.observability.enabled = true;
  const exp::RunResult serial = exp::execute(req);
  req.jobs = 2;
  const exp::RunResult parallel_run = exp::execute(req);
  ASSERT_TRUE(serial.ok && parallel_run.ok);
  EXPECT_EQ(serial.checksum, parallel_run.checksum);
}

TEST(RunRequestExecute, CancellationStopsAtTrialBoundary) {
  exp::RunRequest req = quick_request();
  req.trials = 4;
  exp::RunHooks hooks;
  hooks.cancelled = [] { return true; };  // cancelled before the first trial
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.trials_completed, 0);
  EXPECT_FALSE(result.success);
}

TEST(RunRequestExecute, InvalidRequestFailsTyped) {
  exp::RunRequest req = quick_request();
  req.profile = "no-such-profile";
  const exp::RunResult result = exp::execute(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("profile"), std::string::npos) << result.error;
}

TEST(RunRequestExecute, FaultPlanArmsRecovery) {
  exp::RunRequest req = quick_request();
  req.faults.pilot_failure_rate = 0.5;
  auto resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  EXPECT_TRUE(resolved->tweaks.recovery.enabled);

  req.faults.pilot_failure_rate = 0.0;
  resolved = exp::resolve(req);
  ASSERT_TRUE(resolved.ok()) << resolved.error();
  EXPECT_FALSE(resolved->tweaks.recovery.enabled);
}

TEST(RunProgress, JsonRoundTripPreservesEveryField) {
  exp::RunProgress progress;
  progress.trials_done = 3;
  progress.trials_total = 8;
  progress.units_done = 420;
  progress.units_failed = 7;
  progress.vt_seconds = 1234.5;
  progress.checksum = 0xdeadbeefcafef00dULL;
  progress.tenants_admitted = 9;
  progress.tenants_shed = 2;
  progress.pilots_resubmitted = 4;
  progress.faults_injected = 5;

  const std::string json = exp::run_progress_to_json(progress);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line: journal/SSE framing
  auto parsed = exp::parse_run_progress("test", json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->trials_done, 3);
  EXPECT_EQ(parsed->trials_total, 8);
  EXPECT_EQ(parsed->units_done, 420u);
  EXPECT_EQ(parsed->units_failed, 7u);
  EXPECT_DOUBLE_EQ(parsed->vt_seconds, 1234.5);
  EXPECT_EQ(parsed->checksum, 0xdeadbeefcafef00dULL);  // hex16, not a JSON double
  EXPECT_EQ(parsed->tenants_admitted, 9u);
  EXPECT_EQ(parsed->tenants_shed, 2u);
  EXPECT_EQ(parsed->pilots_resubmitted, 4u);
  EXPECT_EQ(parsed->faults_injected, 5u);
}

TEST(RunProgress, ExecuteEmitsMonotonicSnapshotsConvergingToChecksum) {
  exp::RunRequest req = quick_request();
  req.trials = 3;
  req.observability.enabled = true;
  std::vector<exp::RunProgress> seen;
  exp::RunHooks hooks;
  hooks.progress = [&seen](const exp::RunProgress& p) { seen.push_back(p); };
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;

  // One initial snapshot plus one per trial, monotone in trials_done.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(result.progress_events, 4);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].trials_done, static_cast<int>(i));
    EXPECT_EQ(seen[i].trials_total, 3);
  }
  // The running prefix-fold checksum converges to the final cell checksum:
  // the last live snapshot is bit-identical to the result, so a watcher can
  // verify determinism without waiting for the record.
  EXPECT_EQ(seen.back().checksum, result.checksum);
  EXPECT_EQ(result.progress.checksum, result.checksum);
  EXPECT_GT(seen.back().units_done, 0u);
  EXPECT_GT(seen.back().vt_seconds, 0.0);
}

TEST(RunProgress, ParallelJobsConvergeToSameFinalSnapshot) {
  exp::RunRequest req = quick_request();
  req.trials = 4;
  req.observability.enabled = true;
  const exp::RunResult serial = exp::execute(req);
  req.jobs = 2;
  const exp::RunResult parallel_run = exp::execute(req);
  ASSERT_TRUE(serial.ok && parallel_run.ok);
  // Out-of-order trial completion parks spans until their seed-order turn,
  // so the final folded snapshot is identical across worker counts.
  EXPECT_EQ(serial.progress.checksum, parallel_run.progress.checksum);
  EXPECT_EQ(serial.progress.units_done, parallel_run.progress.units_done);
  EXPECT_EQ(parallel_run.progress.trials_done, 4);
}

TEST(RunProgress, CampaignSnapshotsCountTenantsAndConverge) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 3;
  req.trials = 2;
  std::vector<exp::RunProgress> seen;
  exp::RunHooks hooks;
  hooks.progress = [&seen](const exp::RunProgress& p) { seen.push_back(p); };
  const exp::RunResult result = exp::execute(req, hooks);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(seen.size(), 3u);  // initial + one per campaign trial
  EXPECT_EQ(seen.back().trials_done, 2);
  EXPECT_EQ(seen.back().checksum, result.checksum);
  // Every planned tenant across both trials was either admitted or shed.
  EXPECT_EQ(seen.back().tenants_admitted + seen.back().tenants_shed, 6u);
}

TEST(RunProgress, RunResultJsonRoundTripRestoresVerdict) {
  exp::RunRequest req = quick_request();
  req.trials = 2;
  req.observability.enabled = true;
  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok);

  auto restored = exp::parse_run_result("test", exp::run_result_to_json(result));
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored->ok, result.ok);
  EXPECT_EQ(restored->success, result.success);
  EXPECT_EQ(restored->checksum, result.checksum);
  EXPECT_EQ(restored->trials_completed, result.trials_completed);
  EXPECT_EQ(restored->is_campaign, result.is_campaign);
  EXPECT_EQ(restored->progress_events, result.progress_events);
  EXPECT_EQ(restored->progress.checksum, result.progress.checksum);
  EXPECT_EQ(restored->progress.trials_done, result.progress.trials_done);
}

TEST(RunProgress, CampaignResultJsonRoundTripsAndRejectsUnknownKeys) {
  exp::RunRequest req = quick_request();
  req.profile = "bag-uniform";
  req.campaign.tenants = 3;
  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json = exp::run_result_to_json(result);
  auto restored = exp::parse_run_result("test", json);
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_TRUE(restored->is_campaign);
  EXPECT_EQ(restored->checksum, result.checksum);
  EXPECT_EQ(restored->progress.tenants_admitted, result.progress.tenants_admitted);

  std::string drifted = json;
  drifted.insert(drifted.find("\"slo_violations\""), "\"slo_violatoins\": 0,\n  ");
  auto rejected = exp::parse_run_result("test", drifted);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().find("field 'slo_violatoins'"), std::string::npos)
      << rejected.error();
}

TEST(RunRequestResult, JsonCarriesChecksumAsHexString) {
  exp::RunRequest req = quick_request();
  req.observability.enabled = true;
  const exp::RunResult result = exp::execute(req);
  ASSERT_TRUE(result.ok);
  const std::string json = exp::run_result_to_json(result);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "\"%016llx\"",
                static_cast<unsigned long long>(result.checksum));
  EXPECT_NE(json.find(expected), std::string::npos) << json;
}

}  // namespace
