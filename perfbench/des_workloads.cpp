// The three discrete-event workloads: paper_sweep, campaign_backlog, grid.
//
// Untraced runs call the public entry points exactly as a user does
// (exp::execute for RunRequests, exp::run_grid_trial for the grid). Traced
// runs replay the same operations through the steps exp::execute takes —
// core::Aimes constructor, start, skeleton::materialize, plan, execute (or
// run_campaign) — with a span around each, and must reproduce the untraced
// digests bit for bit, which shows the decomposition is the same program.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include <unistd.h>

#include "common/rng.hpp"
#include "core/aimes.hpp"
#include "core/ttc.hpp"
#include "exp/grid.hpp"
#include "exp/request.hpp"
#include "perfbench.hpp"
#include "skeleton/profiles.hpp"

namespace aimes::perfbench {
namespace {

// --- workload shapes ------------------------------------------------------

constexpr int kSweepSizes[] = {8, 16, 32, 64, 128, 256, 512, 1024, 2048};
constexpr int kSweepTrials = 2;
constexpr int kSweepJobs = 2;
constexpr int kSweepPool = 16;

constexpr int kCampaignTenants = 256;
constexpr int kCampaignBaseTasks = 12;
constexpr double kCampaignArrivalsPerHour = 1000.0;
constexpr int kCampaignPilots = 2;
constexpr int kCampaignPool = 16;

constexpr int kGridSites = 400;
constexpr int kGridHorizonMinutes = 120;
constexpr int kGridPool = 12;

/// Set-up repetitions, spread over the CPUs like the operations; set-up
/// time is their median.
constexpr int kSetupReps = 16;

exp::RunRequest sweep_request(int experiment, int tasks) {
  exp::RunRequest req;
  req.strategy.experiment = experiment;
  req.tasks = tasks;
  req.trials = kSweepTrials;
  req.jobs = kSweepJobs;
  return req;
}

exp::RunRequest campaign_request() {
  exp::RunRequest req;
  req.profile = "bag-uniform";
  req.tasks = kCampaignBaseTasks;
  req.strategy.pilots = kCampaignPilots;
  req.campaign.tenants = kCampaignTenants;
  req.campaign.arrival.poisson_per_hour = kCampaignArrivalsPerHour;
  req.campaign.mode = exp::CampaignMode::kSharedPool;
  req.trials = 1;
  req.jobs = 1;
  return req;
}

exp::GridSpec grid_spec(int shards) {
  exp::GridSpec spec;
  spec.sites = kGridSites;
  spec.horizon = common::SimDuration::minutes(kGridHorizonMinutes);
  spec.shards = shards;
  spec.workers = shards;
  return spec;
}

// --- digests ----------------------------------------------------------------

/// The benchmark's own witness for a single-app cell. span_checksum folds
/// zeros while observability is off, so it cannot tell two results apart;
/// this digest folds the exact bits of every TTC/Tw/Tx/Ts sample in seed
/// order, the failure count, units done and events executed.
std::uint64_t cell_digest(const exp::CellResult& cell, std::uint64_t units_done) {
  Digest d;
  for (const common::Summary* s : {&cell.ttc_s, &cell.tw_s, &cell.tx_s, &cell.ts_s}) {
    d.mix(s->count());
    for (const double v : s->samples()) d.mix_double(v);
  }
  d.mix(cell.failures);
  d.mix(units_done);
  d.mix(cell.events_executed);
  return d.value();
}

std::string sweep_key(int experiment, int tasks, int pool_index) {
  return "e" + std::to_string(experiment) + ".n" + std::to_string(tasks) + ".k" +
         std::to_string(pool_index);
}

// --- set-up -------------------------------------------------------------------

/// A request as the program receives it: rendered to its wire JSON, parsed
/// back and resolved, with the time each step took.
struct PreparedRequest {
  exp::RunRequest request;
  exp::ResolvedRun resolved;
  double parse_us = 0.0;
  double resolve_us = 0.0;
};

std::optional<PreparedRequest> prepare(const exp::RunRequest& req) {
  PreparedRequest out;
  const std::string json = exp::run_request_to_json(req);
  const auto t0 = Clock::now();
  auto parsed = exp::parse_run_request("perfbench", json);
  const auto t1 = Clock::now();
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: request rejected: %s\n", parsed.error().c_str());
    return std::nullopt;
  }
  auto resolved = exp::resolve(*parsed);
  const auto t2 = Clock::now();
  if (!resolved.ok()) {
    std::fprintf(stderr, "perfbench: request unresolved: %s\n", resolved.error().c_str());
    return std::nullopt;
  }
  out.request = *parsed;
  out.resolved = *resolved;
  out.parse_us = seconds_between(t0, t1) * 1e6;
  out.resolve_us = seconds_between(t1, t2) * 1e6;
  return out;
}

/// The resolved inputs of one run plus the golden table.
struct Plan {
  std::vector<PreparedRequest> requests;
  GoldenTable golden;
  bool ok = false;
};

/// Runs `build` kSetupReps times; returns the last plan and the median time.
template <typename Build>
std::pair<Plan, double> timed_setup(const Options& options, Build build) {
  std::vector<double> times;
  Plan plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pin_rotating(getpid(), static_cast<std::uint64_t>(rep), 1);
    const auto t0 = Clock::now();
    plan = Plan{};
    plan.ok = plan.golden.load(options.golden_file) && build(plan);
    times.push_back(seconds_between(t0, Clock::now()));
    if (!plan.ok) break;
  }
  return {std::move(plan), median(times)};
}

bool build_sweep(Plan& plan) {
  for (int e = 1; e <= 4; ++e) {
    for (const int n : kSweepSizes) {
      auto prepared = prepare(sweep_request(e, n));
      if (!prepared) return false;
      plan.requests.push_back(std::move(*prepared));
    }
  }
  return true;
}

bool build_campaign(Plan& plan) {
  auto prepared = prepare(campaign_request());
  if (!prepared) return false;
  plan.requests.push_back(std::move(*prepared));
  return true;
}

void report_setup_context(Result& result, const Plan& plan) {
  std::vector<double> parse, resolve;
  for (const auto& r : plan.requests) {
    parse.push_back(r.parse_us);
    resolve.push_back(r.resolve_us);
  }
  result.context["golden_entries"] = std::to_string(plan.golden.size());
  if (!plan.requests.empty()) {
    result.metric("exp.parse_us", median(parse), "us");
    result.metric("exp.resolve_us", median(resolve), "us");
  }
}

void end_to_end(Result& result, double setup_s, const std::vector<double>& trial_rates,
                const std::vector<double>& run_rates, const std::vector<double>& latencies_s) {
  result.metric("setup_s", setup_s, "s");
  result.metric("trials_per_s", median(trial_rates), "trials/s");
  result.metric("runs_per_s", median(run_rates), "runs/s");
  result.metric("submit_done_p50_ms", quantile(latencies_s, 0.50) * 1e3, "ms");
  result.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  result.context["latency_samples"] = std::to_string(latencies_s.size());
  result.context["rate_rounds"] = std::to_string(trial_rates.size());
  result.context["load_generator"] = "\"closed loop, 1 client thread, in process\"";
}

// --- the traced decomposition -----------------------------------------------------

/// Per-layer counters gathered by the decomposition.
struct LayerCounts {
  std::uint64_t trials = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_queued = 0;
  std::uint64_t windows = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t units_done = 0;
  std::uint64_t units_attempted = 0;
};

core::AimesConfig world_config(const exp::WorldTweaks& tweaks, std::uint64_t seed) {
  core::AimesConfig config;
  config.seed = seed;
  config.warmup = tweaks.warmup;
  if (!tweaks.testbed.empty()) config.testbed = tweaks.testbed;
  config.execution.units.unit_failure_probability = tweaks.unit_failure_probability;
  config.execution.recovery = tweaks.recovery;
  config.faults = tweaks.faults;
  config.observability = tweaks.observability;
  config.sharding = tweaks.sharding;
  return config;
}

void count_world(core::Aimes& aimes, LayerCounts& counts) {
  ++counts.trials;
  counts.events += aimes.world().executed();
  counts.peak_queued = std::max<std::uint64_t>(counts.peak_queued, aimes.world().peak_queued());
  counts.windows += aimes.world().windows();
}

/// One single-app cell through constructor -> start -> materialize -> plan
/// -> execute, aggregated exactly as exp::run_cell does; returns the digest.
std::uint64_t decomposed_cell(const PreparedRequest& prepared, std::uint64_t base_seed,
                              Tracer& tracer, std::uint64_t request_id, LayerCounts& counts) {
  const exp::AppSpec& app = prepared.resolved.app;
  const exp::WorldTweaks& tweaks = prepared.resolved.tweaks;
  exp::CellResult cell;
  std::uint64_t units_done = 0;
  for (int t = 0; t < prepared.request.trials; ++t) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(t) + 1;
    const Tracer::Scope trial(tracer, "exp.trial", request_id);
    std::unique_ptr<core::Aimes> aimes;
    {
      const Tracer::Scope span(tracer, "core.construct", request_id, trial.id());
      aimes = std::make_unique<core::Aimes>(world_config(tweaks, seed));
    }
    {
      const Tracer::Scope span(tracer, "cluster.warmup", request_id, trial.id());
      aimes->start();
    }
    std::optional<skeleton::SkeletonApplication> materialized;
    {
      const Tracer::Scope span(tracer, "skeleton.materialize", request_id, trial.id());
      materialized = skeleton::materialize(app.skeleton, seed);
    }
    common::Expected<core::ExecutionStrategy> strategy =
        common::Expected<core::ExecutionStrategy>::error("not planned");
    {
      const Tracer::Scope span(tracer, "core.plan", request_id, trial.id());
      strategy = aimes->plan(*materialized, app.planner);
    }
    core::ExecutionReport report;
    if (strategy.ok()) {
      const Tracer::Scope span(tracer, "pilot.execute", request_id, trial.id());
      core::RunResult run = aimes->execute(*materialized, *strategy);
      counts.trace_records += run.trace.size();
      report = std::move(run.report);
    }
    count_world(*aimes, counts);
    cell.events_executed += aimes->world().executed();
    units_done += report.units_done;
    counts.units_done += report.units_done;
    counts.units_attempted += materialized->tasks().size();
    if (report.success) {
      cell.ttc_s.add(report.ttc.ttc.to_seconds());
      cell.tw_s.add(report.ttc.tw.to_seconds());
      cell.tx_s.add(report.ttc.tx.to_seconds());
      cell.ts_s.add(report.ttc.ts.to_seconds());
    } else {
      ++cell.failures;
    }
    const Tracer::Scope span(tracer, "core.teardown", request_id, trial.id());
    aimes.reset();
  }
  return cell_digest(cell, units_done);
}

/// One campaign trial as exp::run_campaign_trial runs it in shared-pool
/// mode, plus core::analyze_ttc over the returned trace; returns the
/// campaign checksum (exp::fold_campaign_trial of the trial).
std::uint64_t decomposed_campaign(const PreparedRequest& prepared, std::uint64_t base_seed,
                                  Tracer& tracer, std::uint64_t request_id,
                                  LayerCounts& counts) {
  const exp::CampaignSpec& spec = prepared.resolved.campaign;
  const exp::WorldTweaks& tweaks = prepared.resolved.tweaks;
  const std::uint64_t seed = base_seed + 1;
  const Tracer::Scope trial(tracer, "exp.trial", request_id);
  core::AimesConfig config = world_config(tweaks, seed);
  config.execution.recovery = core::RecoveryPolicy{};  // campaigns carry their own
  std::unique_ptr<core::Aimes> aimes;
  {
    const Tracer::Scope span(tracer, "core.construct", request_id, trial.id());
    aimes = std::make_unique<core::Aimes>(config);
  }
  {
    const Tracer::Scope span(tracer, "cluster.warmup", request_id, trial.id());
    aimes->start();
  }
  std::vector<core::CampaignTenantSpec> tenants;
  {
    const Tracer::Scope span(tracer, "skeleton.materialize", request_id, trial.id());
    const auto arrivals = exp::campaign_arrivals(spec, seed);
    for (int i = 0; i < spec.n_tenants; ++i) {
      const int tasks = exp::campaign_tenant_tasks(spec, i);
      auto skel = spec.gaussian_durations ? skeleton::profiles::bag_gaussian(tasks)
                                          : skeleton::profiles::bag_uniform(tasks);
      skel.name = "t" + std::to_string(i + 1) + "-" + skel.name;
      const std::uint64_t app_seed =
          common::Rng::stream(seed, "campaign/tenant/" + std::to_string(i)).next_u64();
      core::CampaignTenantSpec t;
      t.app = skeleton::materialize(skel, app_seed);
      t.name = "t" + std::to_string(i + 1);
      t.arrival = arrivals[static_cast<std::size_t>(i)];
      if (!spec.weights.empty()) {
        t.weight = spec.weights[static_cast<std::size_t>(i) % spec.weights.size()];
      }
      counts.units_attempted += static_cast<std::uint64_t>(tasks);
      tenants.push_back(std::move(t));
    }
  }
  core::CampaignOptions options;
  options.planner.binding = core::Binding::kLate;
  options.planner.scheduler = pilot::UnitSchedulerKind::kBackfill;
  options.planner.n_pilots = spec.n_pilots;
  options.planner.selection = core::SiteSelection::kRandom;
  options.sharing = core::CampaignSharing::kSharedPool;
  options.pool_idle_grace = spec.pool_idle_grace;
  options.walltime_headroom = spec.walltime_headroom;
  options.units.unit_failure_probability = tweaks.unit_failure_probability;
  options.admission = spec.admission.policy;
  options.breaker = spec.admission.breaker;
  options.recovery = spec.recovery;
  common::Expected<core::CampaignRunResult> run =
      common::Expected<core::CampaignRunResult>::error("not run");
  {
    const Tracer::Scope span(tracer, "pilot.campaign", request_id, trial.id());
    run = aimes->run_campaign(std::move(tenants), options);
  }
  exp::CampaignTrialResult result;
  if (run.ok()) {
    {
      const Tracer::Scope span(tracer, "core.analyze", request_id, trial.id());
      const core::TtcBreakdown ttc = core::analyze_ttc(run->trace);
      (void)ttc;
    }
    counts.trace_records += run->trace.size();
    counts.units_done += run->report.units_done();
    result.report = std::move(run->report);
    result.success = result.report.success;
    result.makespan = result.report.makespan;
    for (const auto& t : result.report.tenants) result.tenant_ttc.push_back(t.ttc.ttc);
  }
  count_world(*aimes, counts);
  const Tracer::Scope span(tracer, "core.teardown", request_id, trial.id());
  aimes.reset();
  return exp::fold_campaign_trial(exp::kChecksumSeed, result);
}

/// Reports span accounting and tracing overhead, and writes the spans.
/// `traced_wall_s` is the wall time of every traced operation; `paired_s`
/// and `untraced_wall_s` are the walls of the operations run both ways, with
/// spans on and with spans off.
void finish_trace(Result& result, const Options& options, const Tracer& tracer,
                  double traced_wall_s, double paired_s, double untraced_wall_s) {
  const double wall_ms = traced_wall_s * 1e3;
  const double unaccounted = wall_ms > 0 ? (wall_ms - tracer.accounted_ms()) / wall_ms : 0.0;
  result.metric("trace.unaccounted_share", unaccounted, "fraction");
  result.metric("trace.overhead_share",
                untraced_wall_s > 0 ? paired_s / untraced_wall_s - 1.0 : 0.0, "fraction");
  print_span_table(tracer, wall_ms);
  if (unaccounted > 0.05 || unaccounted < -0.05) {
    result.correct = false;
    std::fprintf(stderr, "perfbench: span self times leave %.1f%% of traced wall unaccounted\n",
                 100.0 * unaccounted);
  }
  const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (!tracer.write(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  result.context["spans_file"] = "\"" + path + "\"";
}

/// Per-instance mean self time of `name`, ms (0 when never recorded).
double mean_self_ms(const Tracer& tracer, const std::string& name) {
  const auto self = tracer.self_ms();
  const auto counts = tracer.counts();
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second / static_cast<double>(counts.at(name));
}

void report_layers(Result& result, const Options& options, const Tracer& tracer,
                   const LayerCounts& counts, double traced_wall_s, double untraced_wall_s) {
  for (const auto& [span, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"core.construct", "core.construct_ms"},
           {"skeleton.materialize", "skeleton.materialize_ms"},
           {"core.plan", "core.plan_ms"},
           {"cluster.warmup", "cluster.warmup_ms"},
           {"pilot.execute", "pilot.execute_ms"},
           {"pilot.campaign", "pilot.campaign_ms"},
           {"core.analyze", "core.analyze_ms"}}) {
    result.metric(metric, mean_self_ms(tracer, span), "ms");
  }
  const auto total = tracer.total_ms();
  const double trial_ms = total.count("exp.trial") ? total.at("exp.trial") : 0.0;
  const double warmup_ms = total.count("cluster.warmup") ? total.at("cluster.warmup") : 0.0;
  const double trials = static_cast<double>(std::max<std::uint64_t>(counts.trials, 1));
  result.metric("cluster.warmup_share", trial_ms > 0 ? warmup_ms / trial_ms : 0.0, "fraction");
  result.metric("pilot.trace_records", static_cast<double>(counts.trace_records) / trials,
                "count");
  result.metric("pilot.unit_yield",
                counts.units_attempted > 0 ? static_cast<double>(counts.units_done) /
                                                 static_cast<double>(counts.units_attempted)
                                           : 0.0,
                "fraction");
  result.metric("sim.events", static_cast<double>(counts.events) / trials, "count");
  result.metric("sim.peak_queued", static_cast<double>(counts.peak_queued), "count");
  result.metric("sim.windows", static_cast<double>(counts.windows) / trials, "count");
  if (counts.events > 0) {
    result.metric("sim.ns_per_event", trial_ms * 1e6 / static_cast<double>(counts.events), "ns");
  }
  finish_trace(result, options, tracer, traced_wall_s, traced_wall_s, untraced_wall_s);
}

bool time_left(const Options& options, Clock::time_point start, int round) {
  return round == 0 || seconds_between(start, Clock::now()) < options.seconds;
}

/// Checks one untraced single-app result against the golden digest.
void check_cell(Result& result, const Plan& plan, const exp::RunRequest& req,
                const exp::RunResult& run, const std::string& key) {
  if (!run.ok || !run.success || run.trials_completed != req.trials) {
    result.fail("paper_sweep " + key + ": run did not complete (" + run.error + ")");
  } else if (!plan.golden.matches("paper_sweep", key,
                                  cell_digest(run.cell, run.progress.units_done))) {
    result.fail("paper_sweep " + key + ": digest differs from the golden value");
  }
}

/// Times `op` with tracing off and on over the same input, alternating;
/// accumulates both walls.
template <typename Op>
void paired(Op op, Tracer& off, Tracer& on, double& untraced_s, double& traced_s) {
  auto t0 = Clock::now();
  op(off);
  untraced_s += seconds_between(t0, Clock::now());
  t0 = Clock::now();
  op(on);
  traced_s += seconds_between(t0, Clock::now());
}

}  // namespace

Result run_paper_sweep(const Options& options) {
  Result result;
  auto [plan, setup_s] = timed_setup(options, build_sweep);
  if (!plan.ok) return result;
  const int cells = static_cast<int>(plan.requests.size());
  std::vector<double> trial_rates, run_rates, latencies, execute_ms;
  Tracer off(false), on(true);
  LayerCounts counts, ignored;
  double untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t request_id = 0;
  const auto start = Clock::now();
  for (int pass = 0; time_left(options, start, pass); ++pass) {
    // Per pass, not per cell: moving every 10 ms operation to CPUs that sat
    // idle doubles its latency on a virtualised host.
    pin_rotating(getpid(), static_cast<std::uint64_t>(pass), kSweepJobs);
    std::uint64_t trials = 0;
    const auto pass_start = Clock::now();
    for (const int c : permutation(options.seed, static_cast<std::uint64_t>(pass), cells)) {
      const PreparedRequest& prepared = plan.requests[static_cast<std::size_t>(c)];
      const int k = pool_pick(options.seed, static_cast<std::uint64_t>(c) + 1,
                              static_cast<std::uint64_t>(pass), kSweepPool);
      exp::RunRequest req = prepared.request;
      req.seed = pool_seed(k);
      const std::string key = sweep_key(req.strategy.experiment, req.tasks, k);
      const auto t0 = Clock::now();
      const exp::RunResult run = exp::execute(req);
      latencies.push_back(seconds_between(t0, Clock::now()));
      ++result.attempted;
      trials += static_cast<std::uint64_t>(run.trials_completed);
      check_cell(result, plan, req, run, key);
      if (!options.trace) continue;
      execute_ms.push_back(latencies.back() * 1e3);
      ++request_id;
      paired(
          [&](Tracer& tracer) {
            LayerCounts& into = tracer.enabled() ? counts : ignored;
            const std::uint64_t digest =
                decomposed_cell(prepared, req.seed, tracer, request_id, into);
            ++result.attempted;
            if (!plan.golden.matches("paper_sweep", key, digest)) {
              result.fail("paper_sweep " + key + ": traced digest differs from the golden value");
            }
          },
          off, on, untraced_s, traced_s);
    }
    const double wall = seconds_between(pass_start, Clock::now());
    trial_rates.push_back(static_cast<double>(trials) / wall);
    run_rates.push_back(static_cast<double>(cells) / wall);
  }
  if (!options.trace) {
    end_to_end(result, setup_s, trial_rates, run_rates, latencies);
    return result;
  }
  report_setup_context(result, plan);
  result.metric("exp.execute_ms", median(execute_ms), "ms");
  result.metric("submit_done_p99_ms", quantile(execute_ms, 0.99), "ms");
  report_layers(result, options, on, counts, traced_s, untraced_s);
  return result;
}

Result run_campaign_backlog(const Options& options) {
  Result result;
  auto [plan, setup_s] = timed_setup(options, build_campaign);
  if (!plan.ok) return result;
  const PreparedRequest& prepared = plan.requests.front();
  std::vector<double> rates, latencies, execute_ms;
  Tracer off(false), on(true);
  LayerCounts counts, ignored;
  double untraced_s = 0.0, traced_s = 0.0;
  const auto start = Clock::now();
  for (int op = 0; time_left(options, start, op); ++op) {
    const int k = pool_pick(options.seed, 0, static_cast<std::uint64_t>(op), kCampaignPool);
    exp::RunRequest req = prepared.request;
    req.seed = pool_seed(k);
    const std::string key = "k" + std::to_string(k);
    pin_rotating(getpid(), static_cast<std::uint64_t>(op), 1);
    const auto t0 = Clock::now();
    const exp::RunResult run = exp::execute(req);
    latencies.push_back(seconds_between(t0, Clock::now()));
    rates.push_back(1.0 / latencies.back());
    ++result.attempted;
    if (!run.ok || !run.success || run.trials_completed != 1) {
      result.fail("campaign_backlog " + key + ": run did not complete (" + run.error + ")");
    } else if (!plan.golden.matches("campaign_backlog", key, run.campaign.checksum)) {
      result.fail("campaign_backlog " + key + ": checksum differs from the golden value");
    }
    if (!options.trace) continue;
    execute_ms.push_back(latencies.back() * 1e3);
    paired(
        [&](Tracer& tracer) {
          LayerCounts& into = tracer.enabled() ? counts : ignored;
          const std::uint64_t checksum = decomposed_campaign(
              prepared, req.seed, tracer, static_cast<std::uint64_t>(op) + 1, into);
          ++result.attempted;
          if (!plan.golden.matches("campaign_backlog", key, checksum)) {
            result.fail("campaign_backlog " + key +
                        ": traced checksum differs from the golden value");
          }
        },
        off, on, untraced_s, traced_s);
  }
  if (!options.trace) {
    // One trial per run: the two rates coincide by construction.
    end_to_end(result, setup_s, rates, rates, latencies);
    return result;
  }
  report_setup_context(result, plan);
  result.metric("exp.execute_ms", median(execute_ms), "ms");
  result.metric("submit_done_p99_ms", quantile(execute_ms, 0.99), "ms");
  report_layers(result, options, on, counts, traced_s, untraced_s);
  return result;
}

Result run_grid(const Options& options) {
  Result result;
  // A grid trial takes a GridSpec, not a RunRequest: set-up is the golden
  // table alone.
  GoldenTable golden;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pin_rotating(getpid(), static_cast<std::uint64_t>(rep), 1);
    const auto t0 = Clock::now();
    golden = GoldenTable{};
    const bool ok = golden.load(options.golden_file);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    if (!ok) return result;
  }
  std::vector<double> rates, latencies;
  Tracer off(false), on(true);
  double untraced_s = 0.0, traced_s = 0.0, wall1_s = 0.0, wall4_s = 0.0;
  std::uint64_t trials = 0, events = 0, windows = 0, posts = 0, bg_jobs = 0;
  const auto start = Clock::now();
  for (int op = 0; time_left(options, start, op); ++op) {
    const int k = pool_pick(options.seed, 0, static_cast<std::uint64_t>(op), kGridPool);
    const std::string key = "k" + std::to_string(k);
    pin_rotating(getpid(), static_cast<std::uint64_t>(op), 1);
    const auto check = [&](const exp::GridTrialResult& r, const char* what) {
      ++result.attempted;
      if (r.control_completed != r.control_jobs) {
        result.fail(std::string("grid ") + key + what + ": control jobs left unfinished");
      } else if (!golden.matches("grid", key, r.digest)) {
        result.fail(std::string("grid ") + key + what + ": digest differs from the golden value");
      }
    };
    if (!options.trace) {
      const auto t0 = Clock::now();
      const exp::GridTrialResult r = exp::run_grid_trial(grid_spec(1), pool_seed(k));
      latencies.push_back(seconds_between(t0, Clock::now()));
      rates.push_back(1.0 / latencies.back());
      check(r, "");
      continue;
    }
    const std::uint64_t request_id = static_cast<std::uint64_t>(op) + 1;
    paired(
        [&](Tracer& tracer) {
          const auto t0 = Clock::now();
          exp::GridTrialResult r;
          {
            const Tracer::Scope span(tracer, "exp.grid_trial", request_id);
            r = exp::run_grid_trial(grid_spec(1), pool_seed(k));
          }
          check(r, "");
          if (!tracer.enabled()) {
            latencies.push_back(seconds_between(t0, Clock::now()));
            return;
          }
          wall1_s += seconds_between(t0, Clock::now());
          ++trials;
          events += r.events;
          windows += r.windows;
          posts += r.posts;
          bg_jobs += r.background_jobs;
        },
        off, on, untraced_s, traced_s);
    // The same trial on four shards: a different engine schedule, the
    // same digest.
    const auto t0 = Clock::now();
    exp::GridTrialResult r4;
    {
      const Tracer::Scope span(on, "exp.grid_trial_4_shards", request_id);
      r4 = exp::run_grid_trial(grid_spec(4), pool_seed(k));
    }
    wall4_s += seconds_between(t0, Clock::now());
    check(r4, " (4 shards)");
  }
  if (!options.trace) {
    end_to_end(result, median(setup_times), rates, rates, latencies);
    return result;
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(trials, 1));
  result.metric("submit_done_p99_ms", quantile(latencies, 0.99) * 1e3, "ms");
  result.metric("cluster.bg_jobs", static_cast<double>(bg_jobs) / n, "count");
  result.metric("sim.events", static_cast<double>(events) / n, "count");
  result.metric("sim.windows", static_cast<double>(windows) / n, "count");
  result.metric("sim.posts", static_cast<double>(posts) / n, "count");
  if (events > 0) result.metric("sim.ns_per_event", wall1_s * 1e9 / static_cast<double>(events), "ns");
  if (wall4_s > 0) result.metric("sim.shard_speedup_4", wall1_s / wall4_s, "ratio");
  finish_trace(result, options, on, traced_s + wall4_s, traced_s, untraced_s);
  return result;
}

void record_paper_sweep(std::string& out) {
  for (int e = 1; e <= 4; ++e) {
    for (const int n : kSweepSizes) {
      for (int k = 0; k < kSweepPool; ++k) {
        exp::RunRequest req = sweep_request(e, n);
        req.seed = pool_seed(k);
        const exp::RunResult run = exp::execute(req);
        out += "paper_sweep " + sweep_key(e, n, k) + " " +
               hex16(cell_digest(run.cell, run.progress.units_done)) + "\n";
      }
    }
    std::fprintf(stderr, "perfbench: recorded paper_sweep experiment %d\n", e);
  }
}

void record_campaign_backlog(std::string& out) {
  for (int k = 0; k < kCampaignPool; ++k) {
    exp::RunRequest req = campaign_request();
    req.seed = pool_seed(k);
    const exp::RunResult run = exp::execute(req);
    out += "campaign_backlog k" + std::to_string(k) + " " + hex16(run.campaign.checksum) + "\n";
  }
  std::fprintf(stderr, "perfbench: recorded campaign_backlog\n");
}

void record_grid(std::string& out) {
  for (int k = 0; k < kGridPool; ++k) {
    const exp::GridTrialResult r = exp::run_grid_trial(grid_spec(1), pool_seed(k));
    out += "grid k" + std::to_string(k) + " " + hex16(r.digest) + "\n";
  }
  std::fprintf(stderr, "perfbench: recorded grid\n");
}

}  // namespace aimes::perfbench
