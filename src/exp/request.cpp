#include "exp/request.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "cluster/testbed_config.hpp"
#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/fields.hpp"
#include "common/string_util.hpp"
#include "sim/faults.hpp"
#include "skeleton/profiles.hpp"
#include "skeleton/spec.hpp"

namespace aimes::exp {

namespace {

common::Status field_error(const std::string& path, const std::string& what) {
  return common::Status::error("request: field '" + path + "': " + what);
}

/// The strategy-string vocabularies, checked by validate() and mapped by
/// resolve(). One table each, so the spellings cannot drift apart.
bool known_binding(const std::string& s) { return s == "early" || s == "late"; }
bool known_scheduler(const std::string& s) {
  return s.empty() || s == "direct" || s == "round-robin" || s == "backfill";
}
bool known_selection(const std::string& s) { return s == "random" || s == "predicted"; }
bool known_profile(const std::string& s) {
  return s == "bag-uniform" || s == "bag-gaussian" || s == "montage" || s == "blast" ||
         s == "cybershake" || s == "mapreduce";
}

}  // namespace

std::string RunRequest::display_name() const {
  if (!name.empty()) return name;
  std::string base = skeleton_file.empty() ? profile : skeleton_file;
  if (is_campaign()) {
    return "campaign-" + std::to_string(campaign.tenants) + "x" + base + "-" +
           std::to_string(tasks);
  }
  if (strategy.experiment > 0) base = "exp" + std::to_string(strategy.experiment);
  return base + "-" + std::to_string(tasks);
}

common::Status parse_arrival_spec(const std::string& text, ArrivalSpec& out) {
  const auto colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  const std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  if (kind == "poisson") {
    auto rate = common::cli::parse_double(rest, 1e-6, 1e6);
    if (!rate) return common::Status::error(rate.error());
    out.poisson_per_hour = *rate;
    return {};
  }
  if (kind == "fixed") {
    auto seconds = common::cli::parse_double(rest, 0.0, 1e9);
    if (!seconds) return common::Status::error(seconds.error());
    out.poisson_per_hour = 0.0;
    out.fixed_spacing = common::SimDuration::seconds(*seconds);
    return {};
  }
  return common::Status::error("expected poisson:RATE or fixed:SECONDS");
}

std::string arrival_to_string(const ArrivalSpec& arrival) {
  using common::json::number;
  if (arrival.poisson_per_hour > 0.0) return "poisson:" + number(arrival.poisson_per_hour);
  return "fixed:" + number(arrival.fixed_spacing.to_seconds());
}

common::Status parse_quota(const std::string& text, core::TenantQuota& out) {
  std::string rest = text;
  double parts[3] = {0.0, 0.0, 0.0};
  for (int i = 0; i < 3 && !rest.empty(); ++i) {
    const auto colon = rest.find(':');
    // Cores and units are counts that must fit an int; core-hours are real.
    const double max = i < 2 ? std::numeric_limits<int>::max() : 1e12;
    auto field = common::cli::parse_double(rest.substr(0, colon), 0.0, max);
    if (!field) return common::Status::error(field.error());
    if (i < 2 && *field != std::floor(*field)) {
      return common::Status::error("expected whole cores and units, got '" + text + "'");
    }
    parts[i] = *field;
    if (colon == std::string::npos) break;
    rest = rest.substr(colon + 1);
  }
  out.max_cores = static_cast<int>(parts[0]);
  out.max_concurrent_units = static_cast<int>(parts[1]);
  out.max_core_hours = parts[2];
  return {};
}

std::string quota_to_string(const core::TenantQuota& quota) {
  return std::to_string(quota.max_cores) + ":" + std::to_string(quota.max_concurrent_units) +
         ":" + common::json::number(quota.max_core_hours);
}

common::Status parse_slo_class(const std::string& text, core::SloClass& out) {
  if (common::parse_enum(text, core::SloClass::kBatch, out)) return {};
  return common::Status::error("expected interactive, standard, or batch");
}

common::Status validate(const RunRequest& req) {
  if (req.tasks < 1 || req.tasks > 10000000) {
    return field_error("tasks", "must be in [1, 10000000]");
  }
  if (req.trials < 1 || req.trials > 1000000) {
    return field_error("trials", "must be in [1, 1000000]");
  }
  if (req.jobs < 0 || req.jobs > 4096) return field_error("jobs", "must be in [0, 4096]");
  if (req.deadline_s < 0.0 || req.deadline_s > 24.0 * 3600.0 * 365.0) {
    return field_error("deadline_s", "must be in [0, 31536000] (0 = no deadline)");
  }
  if (req.warmup_hours < 0.0 || req.warmup_hours > 24.0 * 365.0) {
    return field_error("warmup_hours", "must be in [0, 8760]");
  }
  if (req.skeleton_file.empty() && !known_profile(req.profile)) {
    return field_error("profile", "unknown profile '" + req.profile + "'");
  }

  const auto& s = req.strategy;
  if (s.experiment < 0 || s.experiment > 4) {
    return field_error("strategy.experiment", "must be 0 (custom) or a Table I row 1-4");
  }
  if (s.experiment > 0 && !req.skeleton_file.empty()) {
    return field_error("strategy.experiment",
                       "a Table I experiment fixes the workload; it cannot combine with "
                       "skeleton_file");
  }
  if (!known_binding(s.binding)) {
    return field_error("strategy.binding", "expected early or late");
  }
  if (!known_scheduler(s.scheduler)) {
    return field_error("strategy.scheduler",
                       "expected direct, round-robin, backfill, or empty to derive");
  }
  if (s.pilots < 1 || s.pilots > 4096) {
    return field_error("strategy.pilots", "must be in [1, 4096]");
  }
  if (!known_selection(s.selection)) {
    return field_error("strategy.selection", "expected random or predicted");
  }

  const auto& c = req.campaign;
  if (c.tenants != 0 && (c.tenants < 2 || c.tenants > 256)) {
    return field_error("campaign.tenants", "must be 0 (single application) or in [2, 256]");
  }
  if (c.tenants > 0) {
    if (!req.skeleton_file.empty()) {
      return field_error("campaign.tenants",
                         "a campaign builds size-cycled bags; it cannot combine with "
                         "skeleton_file");
    }
    if (req.profile != "bag-uniform" && req.profile != "bag-gaussian") {
      return field_error("profile",
                         "a campaign supports the bag-uniform and bag-gaussian profiles");
    }
    if (s.experiment > 0) {
      return field_error("strategy.experiment",
                         "Table I experiments are single-application; campaigns take the "
                         "custom strategy fields");
    }
  }

  const auto& a = req.admission;
  if ((a.enabled || a.breaker) && c.tenants == 0) {
    return field_error("admission.enabled",
                       "admission and breakers guard campaigns; set campaign.tenants");
  }
  if ((a.enabled || a.breaker) && c.mode == CampaignMode::kSequential) {
    return field_error("campaign.mode",
                       "sequential campaigns run tenants one at a time through the "
                       "single-app path, which has no admission controller or site "
                       "breakers; use shared or private");
  }
  core::SloClass slo_class = core::SloClass::kStandard;
  if (auto st = parse_slo_class(a.slo, slo_class); !st.ok()) {
    return field_error("admission.slo", st.error());
  }
  if (a.max_queue_wait_s < 0.0) {
    return field_error("admission.max_queue_wait_s", "must be >= 0 (0 keeps the default)");
  }
  if (a.breaker_threshold != 0.0 &&
      (a.breaker_threshold < 0.01 || a.breaker_threshold > 1.0)) {
    return field_error("admission.breaker_threshold",
                       "must be in [0.01, 1] (0 keeps the default)");
  }
  if (a.breaker_min_events < 0) {
    return field_error("admission.breaker_min_events", "must be >= 0");
  }
  if (a.breaker_cooldown_s < 0.0) {
    return field_error("admission.breaker_cooldown_s", "must be >= 0");
  }

  if (req.sharding.shards < 0 || req.sharding.shards > 4096) {
    return field_error("sharding.shards", "must be in [0, 4096]");
  }
  if (req.sharding.grid_sites < 0 || req.sharding.grid_sites > 100000) {
    return field_error("sharding.grid_sites", "must be in [0, 100000]");
  }
  if (req.sharding.shard_workers < 0 || req.sharding.shard_workers > 4096) {
    return field_error("sharding.shard_workers", "must be in [0, 4096]");
  }
  if (req.faults.pilot_failure_rate < 0.0 || req.faults.pilot_failure_rate > 1.0) {
    return field_error("faults.pilot_failure_rate", "must be in [0, 1]");
  }
  if (req.observability.sample_interval_s <= 0.0) {
    return field_error("observability.sample_interval_s", "must be > 0");
  }
  return {};
}

namespace {

std::string mode_to_string(const CampaignMode& mode) { return std::string(to_string(mode)); }
common::Status parse_mode(const std::string& text, CampaignMode& out) {
  if (parse_campaign_mode(text, out)) return {};
  return common::Status::error("expected shared, private, or sequential");
}

std::string kind_to_string(const bool& is_campaign) {
  return is_campaign ? "campaign" : "single";
}
common::Status parse_kind(const std::string& text, bool& is_campaign) {
  if (text != "campaign" && text != "single") {
    return common::Status::error("expected single or campaign");
  }
  is_campaign = text == "campaign";
  return {};
}

/// The RunRequest wire form, listed once: run_request_to_json writes these
/// fields in this order and parse_run_request accepts exactly these.
template <class R, class V>
void request_fields(R& r, V& v) {
  using common::json::spelled;
  v("name", r.name);
  v("user", r.user);
  v("profile", r.profile);
  v("skeleton_file", r.skeleton_file);
  v("testbed_file", r.testbed_file);
  v("tasks", r.tasks);
  v("warmup_hours", r.warmup_hours);
  v("seed", r.seed);
  v("trials", r.trials);
  v("jobs", r.jobs);
  v("deadline_s", r.deadline_s);
  v("strategy.experiment", r.strategy.experiment);
  v("strategy.binding", r.strategy.binding);
  v("strategy.scheduler", r.strategy.scheduler);
  v("strategy.pilots", r.strategy.pilots);
  v("strategy.selection", r.strategy.selection);
  v("campaign.tenants", r.campaign.tenants);
  v("campaign.arrival", spelled(r.campaign.arrival, arrival_to_string, parse_arrival_spec));
  v("campaign.mode", spelled(r.campaign.mode, mode_to_string, parse_mode));
  v("sharding.shards", r.sharding.shards);
  v("sharding.grid_sites", r.sharding.grid_sites);
  v("sharding.shard_workers", r.sharding.shard_workers);
  v("faults.plan_file", r.faults.plan_file);
  v("faults.pilot_failure_rate", r.faults.pilot_failure_rate);
  v("admission.enabled", r.admission.enabled);
  v("admission.quota", spelled(r.admission.quota, quota_to_string, parse_quota));
  v("admission.slo", r.admission.slo);
  v("admission.max_queue_wait_s", r.admission.max_queue_wait_s);
  v("admission.breaker", r.admission.breaker);
  v("admission.breaker_threshold", r.admission.breaker_threshold);
  v("admission.breaker_min_events", r.admission.breaker_min_events);
  v("admission.breaker_cooldown_s", r.admission.breaker_cooldown_s);
  v("observability.enabled", r.observability.enabled);
  v("observability.sample_interval_s", r.observability.sample_interval_s);
  v("observability.artifacts", r.observability.artifacts);
}

/// The RunProgress wire form, listed once.
template <class P, class V>
void progress_fields(P& p, V& v) {
  v("trials_done", p.trials_done);
  v("trials_total", p.trials_total);
  v("units_done", p.units_done);
  v("units_failed", p.units_failed);
  v("vt_s", p.vt_seconds);
  v("checksum", common::json::hex(p.checksum));
  v("tenants_admitted", p.tenants_admitted);
  v("tenants_shed", p.tenants_shed);
  v("pilots_resubmitted", p.pilots_resubmitted);
  v("faults_injected", p.faults_injected);
}

/// The RunResult verdict fields, listed once. run_result_to_json follows
/// them with "progress" and the per-cell summary (kSummaryKeys).
template <class R, class V>
void result_fields(R& r, V& v) {
  using common::json::hex;
  using common::json::spelled;
  v("ok", r.ok);
  v("success", r.success);
  v("cancelled", r.cancelled);
  v("error", r.error);
  v("kind", spelled(r.is_campaign, kind_to_string, parse_kind));
  v("trials_requested", r.trials_requested);
  v("trials_completed", r.trials_completed);
  v("checksum", hex(r.checksum));
  v("wall_seconds", r.wall_seconds);
  v("progress_events", r.progress_events);
}

/// The per-cell summary keys run_result_to_json writes (campaign and
/// single-app). A Summary holds samples, not one mean, so parse_run_result
/// accepts and type-checks these but does not restore them.
constexpr std::string_view kSummaryKeys[] = {
    "failures",     "makespan_mean_s", "makespan_stddev_s", "tenant_ttc_mean_s",
    "tenants_admitted", "tenants_shed", "slo_violations",   "tasks",
    "ttc_mean_s",   "ttc_stddev_s",    "tw_mean_s",         "tx_mean_s",
    "ts_mean_s",    "events_executed"};

/// Parses `text` as an object document and hands it to `parse`.
template <class T>
common::Expected<T> parse_text(const std::string& origin, const std::string& text,
                               common::Expected<T> (*parse)(const common::json::Node&)) {
  auto doc = common::json::Node::parse(origin, text);
  if (!doc) return common::Expected<T>::error(doc.error());
  return parse(*doc);
}

}  // namespace

std::string run_request_to_json(const RunRequest& req) {
  common::json::Writer out(/*pretty=*/true);
  request_fields(req, out);
  return out.finish() + "\n";
}

common::Expected<RunRequest> parse_run_request(const common::json::Node& doc) {
  using E = common::Expected<RunRequest>;
  RunRequest req;
  common::json::Reader in(doc);
  request_fields(req, in);
  if (auto st = in.finish(); !st.ok()) return E::error(st.error());
  if (auto st = validate(req); !st.ok()) return E::error(st.error());
  return req;
}

common::Expected<RunRequest> parse_run_request(const std::string& origin,
                                               const std::string& text) {
  return parse_text<RunRequest>(origin, text, parse_run_request);
}

std::string run_progress_to_json(const RunProgress& progress) {
  common::json::Writer out(/*pretty=*/false);
  progress_fields(progress, out);
  return out.finish();
}

common::Expected<RunProgress> parse_run_progress(const common::json::Node& doc) {
  RunProgress progress;
  common::json::Reader in(doc);
  progress_fields(progress, in);
  if (auto st = in.finish(); !st.ok()) return common::Expected<RunProgress>::error(st.error());
  return progress;
}

common::Expected<RunProgress> parse_run_progress(const std::string& origin,
                                                 const std::string& text) {
  return parse_text<RunProgress>(origin, text, parse_run_progress);
}

common::Expected<ResolvedRun> resolve(const RunRequest& req) {
  using E = common::Expected<ResolvedRun>;
  if (auto st = validate(req); !st.ok()) return E::error(st.error());

  ResolvedRun run;
  run.is_campaign = req.is_campaign();

  run.tweaks.warmup = common::SimDuration::hours(req.warmup_hours);
  run.tweaks.sharding = req.sharding;
  run.tweaks.observability.enabled = req.observability.enabled;
  run.tweaks.observability.sample_interval =
      common::SimDuration::seconds(req.observability.sample_interval_s);
  run.tweaks.obs_artifacts = req.observability.artifacts;
  if (!req.testbed_file.empty()) {
    auto file = common::Config::load(req.testbed_file);
    if (!file) return E::error("testbed: " + file.error());
    auto pool = cluster::parse_testbed(*file);
    if (!pool) return E::error("testbed: " + pool.error());
    run.tweaks.testbed = std::move(*pool);
  }
  if (!req.faults.plan_file.empty()) {
    auto file = common::Config::load(req.faults.plan_file);
    if (!file) return E::error("fault plan: " + file.error());
    auto plan = sim::FaultPlan::parse(*file);
    if (!plan) return E::error("fault plan: " + plan.error());
    run.tweaks.faults.plan = std::move(*plan);
  }
  if (req.faults.pilot_failure_rate > 0.0) {
    auto rates = run.tweaks.faults.plan.rates();
    rates.pilot_launch_failure = req.faults.pilot_failure_rate;
    run.tweaks.faults.plan.with_rates(rates);
  }
  // Any requested fault makes Execution-Manager recovery part of the
  // experiment (the historical aimes-run behavior); campaigns arm their own
  // recovery through spec.recovery below.
  run.tweaks.recovery.enabled = !run.tweaks.faults.empty();

  if (run.is_campaign) {
    CampaignSpec& spec = run.campaign;
    spec.n_tenants = req.campaign.tenants;
    spec.base_tasks = req.tasks;
    spec.gaussian_durations = req.profile == "bag-gaussian";
    spec.n_pilots = req.strategy.pilots;
    spec.arrival = req.campaign.arrival;
    spec.mode = req.campaign.mode;
    spec.admission.policy.enabled = req.admission.enabled;
    if (req.admission.max_queue_wait_s > 0.0) {
      spec.admission.policy.max_queue_wait =
          common::SimDuration::seconds(req.admission.max_queue_wait_s);
    }
    if (req.admission.enabled) {
      core::SloClass slo = core::SloClass::kStandard;
      (void)parse_slo_class(req.admission.slo, slo);  // validated above
      spec.admission.slos = {slo};
      spec.admission.quotas = {req.admission.quota};
    }
    spec.admission.breaker.enabled = req.admission.breaker;
    if (req.admission.breaker_threshold > 0.0) {
      spec.admission.breaker.trip_threshold = req.admission.breaker_threshold;
    }
    if (req.admission.breaker_min_events > 0) {
      spec.admission.breaker.min_events = req.admission.breaker_min_events;
    }
    if (req.admission.breaker_cooldown_s > 0.0) {
      spec.admission.breaker.cooldown =
          common::SimDuration::seconds(req.admission.breaker_cooldown_s);
    }
    // As in single-app mode, any requested fault arms pilot recovery.
    spec.recovery.enabled = !run.tweaks.faults.empty();
    return run;
  }

  if (req.strategy.experiment > 0) {
    run.app = make_app_spec(table1_experiment(req.strategy.experiment), req.tasks);
    if (!req.name.empty()) run.app.label = req.name;
    return run;
  }

  if (!req.skeleton_file.empty()) {
    auto config = common::Config::load(req.skeleton_file);
    if (!config) return E::error("skeleton: " + config.error());
    auto spec = skeleton::parse_spec(*config);
    if (!spec) return E::error("skeleton: " + spec.error());
    run.app.skeleton = std::move(*spec);
  } else if (req.profile == "bag-uniform") {
    run.app.skeleton = skeleton::profiles::bag_uniform(req.tasks);
  } else if (req.profile == "bag-gaussian") {
    run.app.skeleton = skeleton::profiles::bag_gaussian(req.tasks);
  } else if (req.profile == "montage") {
    run.app.skeleton = skeleton::profiles::montage_like(req.tasks);
  } else if (req.profile == "blast") {
    run.app.skeleton = skeleton::profiles::blast_like(req.tasks);
  } else if (req.profile == "cybershake") {
    run.app.skeleton = skeleton::profiles::cybershake_like(req.tasks);
  } else {  // "mapreduce"; validate() rejected everything else
    run.app.skeleton = skeleton::profiles::map_reduce(
        req.tasks, std::max(1, req.tasks / 8), common::DistributionSpec::constant(300),
        common::DistributionSpec::constant(120));
  }
  // Spellings were checked by validate(); an empty scheduler stays unset
  // and the planner derives it from the binding.
  (void)common::parse_enum(req.strategy.binding, core::Binding::kLate, run.app.planner.binding);
  pilot::UnitSchedulerKind scheduler{};
  if (common::parse_enum(req.strategy.scheduler, pilot::UnitSchedulerKind::kBackfill, scheduler)) {
    run.app.planner.scheduler = scheduler;
  }
  run.app.planner.n_pilots = req.strategy.pilots;
  run.app.planner.selection = req.strategy.selection == "random"
                                  ? core::SiteSelection::kRandom
                                  : core::SiteSelection::kPredictedWait;
  run.app.label = req.display_name();
  return run;
}

RunResult execute(const RunRequest& req, const RunHooks& hooks) {
  RunResult result;
  result.trials_requested = req.trials;
  result.is_campaign = req.is_campaign();

  auto resolved = resolve(req);
  if (!resolved) {
    result.error = resolved.error();
    return result;
  }

  const auto started = std::chrono::steady_clock::now();
  std::mutex first_mutex;

  // Live telemetry: one RunProgress per trial boundary, maintained under
  // first_mutex because trials finish on pool workers. The checksum is a
  // prefix fold — out-of-order finishers park in `pending_*` keyed by trial
  // index until the seed-order predecessor lands — so the final snapshot's
  // checksum equals the cell checksum for a run that completed every trial.
  RunProgress live;
  live.trials_total = req.trials;
  live.checksum = kChecksumSeed;
  int next_fold = 0;
  std::map<int, std::uint64_t> pending_spans;
  std::map<int, CampaignTrialResult> pending_campaign;
  const auto emit = [&] {
    ++result.progress_events;
    result.progress = live;
    if (hooks.progress) hooks.progress(live);
  };
  {
    // Initial snapshot: watchers learn trials_total before any trial lands.
    const std::lock_guard<std::mutex> lock(first_mutex);
    emit();
  }

  if (resolved->is_campaign) {
    const CampaignProgress progress = [&](int t, const CampaignTrialResult& r) {
      {
        const std::lock_guard<std::mutex> lock(first_mutex);
        if (t == 0) {
          result.first_campaign = r;
          result.has_first_campaign = true;
        }
        ++live.trials_done;
        live.units_done += static_cast<std::uint64_t>(r.report.units_done());
        live.vt_seconds = std::max(live.vt_seconds, r.makespan.to_seconds());
        live.pilots_resubmitted +=
            static_cast<std::uint64_t>(r.report.recovery.pilots_resubmitted);
        for (const auto& ten : r.report.tenants) {
          live.units_failed += static_cast<std::uint64_t>(ten.units_failed);
          if (ten.admission == core::AdmissionOutcome::kShed) {
            ++live.tenants_shed;
          } else if (ten.planned) {
            ++live.tenants_admitted;
          }
        }
        CampaignTrialResult trimmed = r;
        trimmed.obs = {};  // the fold never reads obs; don't park artifact buffers
        pending_campaign.emplace(t, std::move(trimmed));
        while (!pending_campaign.empty() && pending_campaign.begin()->first == next_fold) {
          live.checksum = fold_campaign_trial(live.checksum, pending_campaign.begin()->second);
          pending_campaign.erase(pending_campaign.begin());
          ++next_fold;
        }
        emit();
      }
      if (hooks.log) {
        hooks.log("trial " + std::to_string(t + 1) + "/" + std::to_string(req.trials) +
                  ": makespan " + r.makespan.str() +
                  (r.success ? "" : " (INCOMPLETE)"));
      }
    };
    result.campaign = run_campaign_cell(resolved->campaign, req.trials, req.seed,
                                        resolved->tweaks, req.jobs, progress,
                                        hooks.cancelled);
    result.cancelled = result.campaign.cancelled();
    result.trials_completed =
        req.trials - static_cast<int>(result.campaign.trials_skipped);
    result.success = result.trials_completed > 0 &&
                     result.campaign.failures <
                         static_cast<std::size_t>(result.trials_completed);
    result.checksum = result.campaign.checksum;
  } else {
    const TrialProgress progress = [&](int t, const TrialResult& r) {
      {
        const std::lock_guard<std::mutex> lock(first_mutex);
        if (t == 0) {
          result.first_trial = r;
          result.has_first_trial = true;
        }
        ++live.trials_done;
        live.units_done += static_cast<std::uint64_t>(r.report.units_done);
        live.units_failed += static_cast<std::uint64_t>(r.report.units_failed);
        live.vt_seconds = std::max(live.vt_seconds, r.report.ttc.ttc.to_seconds());
        live.pilots_resubmitted +=
            static_cast<std::uint64_t>(r.report.recovery.pilots_resubmitted);
        live.faults_injected += static_cast<std::uint64_t>(r.report.faults.total());
        pending_spans.emplace(t, r.obs.span_checksum);
        while (!pending_spans.empty() && pending_spans.begin()->first == next_fold) {
          live.checksum = fold_trial_span(live.checksum, pending_spans.begin()->second);
          pending_spans.erase(pending_spans.begin());
          ++next_fold;
        }
        emit();
      }
      if (hooks.log) {
        hooks.log("trial " + std::to_string(t + 1) + "/" + std::to_string(req.trials) +
                  ": ttc " + r.report.ttc.ttc.str() +
                  (r.report.success ? "" : " (INCOMPLETE)"));
      }
    };
    result.cell = run_cell(resolved->app, req.trials, req.seed, resolved->tweaks, progress,
                           req.jobs, hooks.cancelled);
    result.cancelled = result.cell.cancelled();
    result.trials_completed = req.trials - static_cast<int>(result.cell.trials_skipped);
    result.success =
        result.trials_completed > 0 &&
        result.cell.failures < static_cast<std::size_t>(result.trials_completed);
    result.checksum = result.cell.span_checksum;
  }

  result.ok = true;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

std::string run_result_to_json(const RunResult& result) {
  common::json::Writer out(/*pretty=*/true);
  result_fields(result, out);
  out.raw("progress", run_progress_to_json(result.progress));
  if (result.is_campaign) {
    const auto& c = result.campaign;
    out("failures", c.failures);
    out("makespan_mean_s", c.makespan_s.mean());
    out("makespan_stddev_s", c.makespan_s.stddev());
    out("tenant_ttc_mean_s", c.tenant_ttc_s.mean());
    out("tenants_admitted", c.tenants_admitted);
    out("tenants_shed", c.tenants_shed);
    out("slo_violations", c.slo_violations);
  } else {
    const auto& c = result.cell;
    out("failures", c.failures);
    out("tasks", c.tasks);
    out("ttc_mean_s", c.ttc_s.mean());
    out("ttc_stddev_s", c.ttc_s.stddev());
    out("tw_mean_s", c.tw_s.mean());
    out("tx_mean_s", c.tx_s.mean());
    out("ts_mean_s", c.ts_s.mean());
    out("events_executed", c.events_executed);
  }
  return out.finish() + "\n";
}

common::Expected<RunResult> parse_run_result(const common::json::Node& doc) {
  RunResult result;
  common::json::Reader in(doc);
  result_fields(result, in);
  in.object("progress", result.progress,
            [](const common::json::Node& o) { return parse_run_progress(o); });
  double summary = 0.0;
  for (const std::string_view key : kSummaryKeys) in(key, summary);
  if (auto st = in.finish(); !st.ok()) return common::Expected<RunResult>::error(st.error());
  return result;
}

common::Expected<RunResult> parse_run_result(const std::string& origin,
                                             const std::string& text) {
  return parse_text<RunResult>(origin, text, parse_run_result);
}

}  // namespace aimes::exp
