#include "exp/request.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <type_traits>
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

/// "poisson:RATE" (tenants/hour) or "fixed:SECONDS".
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

/// "C[:U[:H]]" — concurrent cores, optionally :units and :core-hours.
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

/// The RunRequest fields, each declared once: run_request_to_json writes
/// them in this order, parse_run_request accepts exactly these, it and
/// validate() check each value against its range or spellings, and
/// declare_request_flags makes an option of each flagged one, whose --help
/// line is `help`, then the spellings and RunRequest{}'s value.
template <class R, class V>
void request_fields(R& r, V& v) {
  using common::json::spelled;
  v(r.name, {.key = "name", .flag = "--name", .metavar = "NAME",
             .help = "label for the run in list/view output", .fronts = kAimescSubmit});
  v(r.user, {.key = "user", .flag = "--user", .metavar = "NAME",
             .help = "owner recorded with the run", .fronts = kAimescSubmit});
  v(r.profile, {.key = "profile", .flag = "--profile", .metavar = "NAME",
                .help = "built-in profile when no --skeleton is given:",
                .one_of = "bag-uniform|bag-gaussian|montage|blast|cybershake|mapreduce"});
  v(r.skeleton_file, {.key = "skeleton_file", .flag = "--skeleton", .metavar = "FILE",
                      .help = "skeleton application config file"});
  v(r.testbed_file, {.key = "testbed_file", .flag = "--testbed", .metavar = "FILE",
                     .help = "resource pool config (default: paper's 5 sites)"});
  v(r.tasks, {.key = "tasks", .flag = "--tasks", .metavar = "N",
              .help = "application size for built-in profiles", .min = 1, .max = 1e7});
  v(r.warmup_hours, {.key = "warmup_hours", .flag = "--warmup", .metavar = "H",
                     .help = "background warmup hours", .min = 0, .max = 24 * 365});
  v(r.seed, {.key = "seed", .flag = "--seed", .metavar = "S", .help = "world/application seed"});
  v(r.trials, {.key = "trials", .flag = "--trials", .metavar = "N",
               .help = "sweep mode: run N replicas seeded S+1..S+N and\n"
                       "aggregate TTC (1 = single run)",
               .min = 1, .max = 1e6});
  v(r.jobs, {.key = "jobs", .flag = "--jobs", .metavar = "M",
             .help = "sweep worker threads (0 = hardware concurrency);\n"
                     "aggregates are bit-identical for every M",
             .min = 0, .max = 4096});
  v(r.deadline_s, {.key = "deadline_s", .flag = "--deadline", .metavar = "S",
                   .help = "daemon submissions: fail or cut the run S wall\n"
                           "seconds after submit (0 = none; local runs ignore it)",
                   .min = 0.1, .max = 365 * 24 * 3600, .zero_ok = true});
  v(r.strategy.experiment,
    {.key = "strategy.experiment", .flag = "--experiment", .metavar = "N",
     .help = "run a Table I experiment row (0 = custom); overrides\n"
             "--profile, --binding, --pilots, and --selection",
     .min = 1, .max = 4, .zero_ok = true});
  v(r.strategy.binding,
    {.key = "strategy.binding", .flag = "--binding", .metavar = "B", .one_of = "early|late"});
  v(r.strategy.scheduler,
    {.key = "strategy.scheduler", .flag = "--scheduler", .metavar = "K",
     .help = "unit scheduler; empty derives it from --binding:", .zero_ok = true,
     .one_of = "direct|round-robin|backfill"});
  v(r.strategy.pilots, {.key = "strategy.pilots", .flag = "--pilots", .metavar = "N",
                        .help = "number of pilots", .min = 1, .max = 4096});
  v(r.strategy.selection, {.key = "strategy.selection", .flag = "--selection", .metavar = "S",
                           .one_of = "random|predicted"});
  v(r.campaign.tenants,
    {.key = "campaign.tenants", .flag = "--campaign", .metavar = "N",
     .help = "campaign of N tenants (0 = one application), sized\n"
             "--tasks x {1,2,4} in turn; see --campaign-mode",
     .min = 2, .max = 256, .zero_ok = true});
  v(spelled(r.campaign.arrival, arrival_to_string, parse_arrival_spec),
    {.key = "campaign.arrival", .flag = "--arrival", .metavar = "SPEC",
     .help = "campaign arrival process: poisson:RATE (tenants\n"
             "per hour) or fixed:SECONDS"});
  v(spelled(r.campaign.mode, mode_to_string, parse_mode),
    {.key = "campaign.mode", .flag = "--campaign-mode", .metavar = "M",
     .help = "shared|private|sequential"});
  v(r.sharding.shards,
    {.key = "sharding.shards", .flag = "--shards", .metavar = "N",
     .help = "intra-trial shards: N engines in conservative lock-\n"
             "step windows (0 = classic single-engine drive);\n"
             "results are bit-identical for every N >= 1",
     .min = 0, .max = 4096});
  v(r.sharding.grid_sites,
    {.key = "sharding.grid_sites", .flag = "--grid-sites", .metavar = "N",
     .help = "ambient background sites spread across the shards;\n"
             "the load --shards parallelizes",
     .min = 0, .max = 1e5});
  v(r.sharding.shard_workers,
    {.key = "sharding.shard_workers", .flag = "--shard-workers", .metavar = "W",
     .help = "threads per sharded trial (0 = min(shards, cores));\n"
             "wall clock only. Keep at 1 when sweeping --jobs",
     .min = 0, .max = 4096});
  v(r.faults.plan_file, {.key = "faults.plan_file", .flag = "--fault-plan", .metavar = "FILE",
                         .help = "fault-injection plan config ([fault.*] sections);\n"
                                 "enables Execution-Manager recovery"});
  v(r.faults.pilot_failure_rate,
    {.key = "faults.pilot_failure_rate", .flag = "--pilot-failure-rate", .metavar = "P",
     .help = "probability each pilot submission is rejected", .min = 0, .max = 1});
  v(r.admission.enabled, {.key = "admission.enabled", .flag = "--admission",
                          .help = "campaign: arm the SLO-aware admission ladder\n"
                                  "(admit -> queue -> degrade -> shed)"});
  v(spelled(r.admission.quota, quota_to_string, parse_quota),
    {.key = "admission.quota", .flag = "--quota", .metavar = "C[:U[:H]]",
     .help = "campaign: per-tenant cores[:units[:core-hours]]\n"
             "quota (0 = unlimited); implies --admission"});
  v(r.admission.slo, {.key = "admission.slo", .flag = "--slo", .metavar = "CLASS",
                      .help = "campaign: tenant SLO class, implies --admission:",
                      .one_of = "interactive|standard|batch"});
  v(r.admission.max_queue_wait_s,
    {.key = "admission.max_queue_wait_s", .flag = "--max-queue-wait", .metavar = "S",
     .help = "campaign: admission queue wait bound in seconds\n"
             "(0 keeps the policy's); implies --admission",
     .min = 1, .max = 1e9, .zero_ok = true});
  v(r.admission.breaker, {.key = "admission.breaker"});
  v(r.admission.breaker_threshold,
    {.key = "admission.breaker_threshold", .flag = "--breaker-threshold", .metavar = "X",
     .help = "campaign: EWMA failure score that trips a site's\n"
             "breaker (0 keeps the policy's); arms the breakers",
     .min = 0.01, .max = 1, .zero_ok = true});
  v(r.admission.breaker_min_events,
    {.key = "admission.breaker_min_events", .flag = "--breaker-min-events", .metavar = "N",
     .help = "campaign: events recorded at a site before its\n"
             "breaker may trip (0 keeps the policy's)",
     .min = 1, .max = 1e6, .zero_ok = true});
  v(r.admission.breaker_cooldown_s,
    {.key = "admission.breaker_cooldown_s", .flag = "--breaker-cooldown", .metavar = "S",
     .help = "campaign: seconds an open breaker blocks a site\n"
             "before the half-open probe (0 keeps the policy's)",
     .min = 1, .max = 1e9, .zero_ok = true});
  v(r.observability.enabled, {.key = "observability.enabled"});
  v(r.observability.sample_interval_s,
    {.key = "observability.sample_interval_s", .flag = "--sample-interval", .metavar = "S",
     .help = "metrics sampling interval in virtual seconds", .min = 0.001, .max = 1e6,
     .fronts = kAimesRun});
  v(r.observability.artifacts, {.key = "observability.artifacts"});
}

template <class T>
inline constexpr bool kSpelled = false;
template <class T, class U>
inline constexpr bool kSpelled<common::json::Spelled<T, U>> = true;

std::string bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// Whether field `f` accepts `v`: a number in its range, a string among its
/// spellings. Bools always pass; spelled members are checked by their own
/// parsers.
template <class T>
common::Status check(const RequestField& f, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    bool known = f.one_of.empty() || (f.zero_ok && v.empty());
    for (std::size_t pos = 0; !known && pos <= f.one_of.size();) {
      const std::size_t bar = std::min(f.one_of.find('|', pos), f.one_of.size());
      known = f.one_of.substr(pos, bar - pos) == v;
      pos = bar + 1;
    }
    if (known) return {};
    return common::Status::error("expected one of " + std::string(f.one_of) +
                                 (f.zero_ok ? ", or empty" : ""));
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    const auto x = static_cast<double>(v);
    if ((f.zero_ok && x == 0.0) || (x >= f.min && x <= f.max)) return {};
    return common::Status::error(std::string("must be ") + (f.zero_ok ? "0 or " : "") + "in [" +
                                 bound(f.min) + ", " + bound(f.max) + "]");
  } else {
    return {};
  }
}

/// A CLI value for a string or number field, checked as a JSON one is.
template <class T>
common::Status assign(const RequestField& f, const std::string& text, T& out) {
  T value{};
  if constexpr (std::is_same_v<T, std::string>) {
    value = text;
  } else {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      return common::Status::error("invalid value '" + text + "' (expected " +
                                   (std::is_integral_v<T> ? "an integer)" : "a number)"));
    }
  }
  if (auto st = check(f, value); !st.ok()) {
    return common::Status::error("invalid value '" + text + "': " + st.error());
  }
  out = std::move(value);
  return {};
}

/// A member's value as --help shows a default: empty for bools and unset
/// strings.
template <class M>
std::string shown(const M& m) {
  if constexpr (kSpelled<M>) {
    return m.print(m.value);
  } else if constexpr (std::is_same_v<M, std::string>) {
    return m;
  } else if constexpr (std::is_same_v<M, bool>) {
    return "";
  } else {
    return common::json::number(static_cast<double>(m));
  }
}

/// The rules that span fields; each field's own values are the table's.
common::Status check_rules(const RunRequest& req) {
  const auto& s = req.strategy;
  if (s.experiment > 0 && !req.skeleton_file.empty()) {
    return field_error("strategy.experiment",
                       "a Table I experiment fixes the workload; it cannot combine with "
                       "skeleton_file");
  }
  const auto& c = req.campaign;
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
  return {};
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

common::Status validate(const RunRequest& req) {
  common::Status status;
  auto check_field = [&status](const auto& m, const RequestField& f) {
    auto st = check(f, m);
    if (status.ok() && !st.ok()) status = field_error(std::string(f.key), st.error());
  };
  request_fields(req, check_field);
  return status.ok() ? check_rules(req) : status;
}

std::vector<RequestField> request_field_table() {
  std::vector<RequestField> table;
  const RunRequest req;
  auto add = [&table](const auto&, const RequestField& f) { table.push_back(f); };
  request_fields(req, add);
  return table;
}

void declare_request_flags(common::cli::Parser& cli, RunRequest& req, RequestFront front) {
  std::vector<std::string> defaults;
  const RunRequest fresh;
  auto collect = [&defaults](const auto& m, const RequestField&) { defaults.push_back(shown(m)); };
  request_fields(fresh, collect);
  std::size_t next = 0;
  auto declare = [&](auto&& m, const RequestField& f) {
    using T = std::remove_cvref_t<decltype(m)>;
    const std::string& default_text = defaults[next++];
    if (f.flag.empty() || (f.fronts & front) == 0) return;
    std::string help(f.help);
    if (!f.one_of.empty()) help += (help.empty() ? "" : "\n") + std::string(f.one_of);
    if (!default_text.empty()) help += " (default " + default_text + ")";
    const std::string flag(f.flag);
    const std::string metavar(f.metavar);
    if constexpr (std::is_same_v<T, bool>) {
      cli.flag(flag, m, help);
    } else if constexpr (kSpelled<T>) {
      cli.custom_option(flag, metavar, help,
                        [m](const std::string& text) { return m.parse(text, m.value); });
    } else {
      cli.custom_option(flag, metavar, help, [f, target = &m](const std::string& text) {
        return assign(f, text, *target);
      });
    }
  };
  request_fields(req, declare);
}

std::string run_request_to_json(const RunRequest& req) {
  common::json::Writer out(/*pretty=*/true);
  auto emit = [&out](const auto& m, const RequestField& f) { out(f.key, m); };
  request_fields(req, emit);
  return out.finish() + "\n";
}

common::Expected<RunRequest> parse_run_request(const common::json::Node& doc) {
  using E = common::Expected<RunRequest>;
  RunRequest req;
  common::json::Reader in(doc);
  // Each value is checked as it is read, so a rejection carries its offset.
  auto read = [&in](auto&& m, const RequestField& f) {
    if constexpr (kSpelled<std::remove_cvref_t<decltype(m)>>) {
      in(f.key, std::forward<decltype(m)>(m));
    } else {
      in(f.key, m, [&f](const auto& v) { return check(f, v); });
    }
  };
  request_fields(req, read);
  if (auto st = in.finish(); !st.ok()) return E::error(st.error());
  if (auto st = check_rules(req); !st.ok()) return E::error(st.error());
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
      (void)common::parse_enum(req.admission.slo, core::SloClass::kBatch, slo);  // validated
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
