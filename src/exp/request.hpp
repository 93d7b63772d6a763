// The unified typed run-request API (ROADMAP item 1's load-bearing redesign).
//
// Every front end — `aimes-run`, the bench harnesses, the `aimesd` daemon's
// REST handler — used to assemble its own (flags -> WorldTweaks/CampaignSpec/
// PlannerConfig) plumbing, each with its own defaults and its own drift. A
// RunRequest is the one description of "run this scenario": profile or
// skeleton, strategy, trials/jobs, sharding, faults, admission, observability.
// Both the CLI flag mapper (request_cli.hpp) and the HTTP JSON deserializer
// land on this struct and call the same execute(), so a campaign submitted
// via `aimesc` is bit-identical (FNV-1a checksum) to the same cell run via
// `aimes-run` — the daemon-vs-CLI parity the control-plane tests assert.
//
// Each RunRequest field is declared once, in the field table of request.cpp
// (JSON key, CLI flag, accepted range or spellings, help text), which drives
// the JSON emitter and parser (common/fields.hpp), the CLI options and their
// --help, and validate(); RunProgress and RunResult have tables of their
// own. Parsing is strict: an unknown key, a wrong type, or a value the field
// does not accept fails with origin + dotted field path + byte offset, so a
// 400 from the daemon names exactly what to fix.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

#include "exp/campaign.hpp"
#include "exp/runner.hpp"

namespace aimes::common::cli {
class Parser;
}

namespace aimes::exp {

/// Planning strategy: either one of Table I's four experiment rows, or the
/// custom fields. Enum-valued knobs stay strings here (the wire/CLI form);
/// the field table lists their spellings.
struct StrategyRequest {
  /// Table I row (1-4): binding/scheduler/pilots/durations come from the
  /// paper matrix and the custom fields below are ignored. 0 = custom.
  int experiment = 0;
  std::string binding = "late";
  /// Empty derives it from binding (early -> direct, late -> backfill, the
  /// Table I pairings).
  std::string scheduler;
  int pilots = 3;
  std::string selection = "predicted";
};

/// Multi-tenant campaign shape; tenants == 0 = single-application request.
struct CampaignRequest {
  int tenants = 0;
  ArrivalSpec arrival;
  CampaignMode mode = CampaignMode::kSharedPool;
};

/// Fault injection. The plan file is resolved on the executing host (the
/// daemon runs next to the filesystem the client sees, like app-mesh).
struct FaultRequest {
  std::string plan_file;
  double pilot_failure_rate = 0.0;

  [[nodiscard]] bool any() const {
    return !plan_file.empty() || pilot_failure_rate > 0.0;
  }
};

/// Admission ladder + site breakers (campaign only). Zero-valued knobs keep
/// the policy defaults.
struct AdmissionRequest {
  bool enabled = false;
  core::TenantQuota quota;
  std::string slo = "standard";
  double max_queue_wait_s = 0.0;
  bool breaker = false;
  double breaker_threshold = 0.0;
  int breaker_min_events = 0;
  double breaker_cooldown_s = 0.0;
};

/// Observability (span tracer + metrics registry + sampler).
struct ObsRequest {
  bool enabled = false;
  double sample_interval_s = 30.0;
  /// Also render Chrome-trace/Prometheus/CSV artifacts into the snapshots.
  bool artifacts = false;
};

/// One run: what to simulate, under which strategy, how many trials.
struct RunRequest {
  /// Display label in the daemon's run table (defaults to a derived one).
  std::string name;
  /// Submitting tenant; the daemon fills its default for anonymous clients.
  std::string user;
  /// Built-in workload when no skeleton file is given.
  std::string profile = "bag-gaussian";
  /// Skeleton application config file (single-app only; overrides profile).
  std::string skeleton_file;
  /// Resource pool config file (empty = the paper's five sites).
  std::string testbed_file;
  int tasks = 128;
  double warmup_hours = 6.0;
  std::uint64_t seed = 42;
  /// Trials run at seeds seed+1 .. seed+trials, aggregated in seed order
  /// (bit-identical for every `jobs` value).
  int trials = 1;
  int jobs = 1;  ///< trial-level workers; 0 = hardware concurrency
  /// Client-requested completion deadline in wall seconds from submission;
  /// 0 = none. The daemon fails a run still queued at the deadline with a
  /// typed reason and cuts a running one at its next trial boundary. Local
  /// execution (aimes-run) ignores it, so a deadline never perturbs the
  /// daemon-vs-CLI checksum parity.
  double deadline_s = 0.0;
  StrategyRequest strategy;
  CampaignRequest campaign;
  core::ShardingConfig sharding;
  FaultRequest faults;
  AdmissionRequest admission;
  ObsRequest observability;

  [[nodiscard]] bool is_campaign() const { return campaign.tenants > 0; }
  /// The display label: `name`, or a derived "profile x tasks" form.
  [[nodiscard]] std::string display_name() const;
};

/// Structural + semantic validation: each field's range or spellings from
/// the field table, then the cross-field rules. The first violation comes
/// back as a Status naming the field path ("field 'campaign.tenants': ...").
[[nodiscard]] common::Status validate(const RunRequest& req);

/// The command lines that take request flags, as bits.
enum RequestFront : unsigned { kAimesRun = 1, kAimescSubmit = 2 };

/// One entry of the RunRequest field table (request.cpp).
struct RequestField {
  std::string_view key = {};      ///< dotted JSON path, e.g. "strategy.pilots"
  std::string_view flag = {};     ///< CLI flag; empty = JSON only
  std::string_view metavar = {};  ///< the flag's value in --help
  std::string_view help = {};     ///< --help text, before the spellings and default
  double min = -std::numeric_limits<double>::infinity();  ///< numbers: inclusive range
  double max = std::numeric_limits<double>::infinity();
  /// Also accept 0 (numbers) or "" (strings): "unset" / "keep the default".
  bool zero_ok = false;
  std::string_view one_of = {};  ///< strings: '|'-separated spellings; empty = any
  unsigned fronts = kAimesRun | kAimescSubmit;  ///< which command lines get the flag
};

/// The field table in wire order.
[[nodiscard]] std::vector<RequestField> request_field_table();

/// Declares on `cli` one option per table field flagged for `front`, each
/// writing into `req` (which must outlive the parse) with the same range
/// check the JSON reader applies. --help shows RunRequest{}'s value of each
/// field as its default.
void declare_request_flags(common::cli::Parser& cli, RunRequest& req, RequestFront front);

/// Round-trippable JSON form (the `aimesc submit` / POST /api/v1/runs body).
[[nodiscard]] std::string run_request_to_json(const RunRequest& req);
/// Parses the JSON form. Absent fields keep their defaults; unknown, mistyped,
/// malformed or out-of-range ones fail with origin + dotted field path + byte
/// offset. The parsed request then passes validate()'s cross-field rules.
[[nodiscard]] common::Expected<RunRequest> parse_run_request(const std::string& origin,
                                                             const std::string& text);
/// The same, for a request embedded in a larger document (a journal line).
[[nodiscard]] common::Expected<RunRequest> parse_run_request(const common::json::Node& doc);

/// A request resolved against the filesystem (skeleton/testbed/fault files
/// loaded) into the exact structs the trial runners consume.
struct ResolvedRun {
  bool is_campaign = false;
  AppSpec app;            ///< single-app form
  CampaignSpec campaign;  ///< campaign form
  WorldTweaks tweaks;
};

[[nodiscard]] common::Expected<ResolvedRun> resolve(const RunRequest& req);

/// One live snapshot of a run in flight, emitted at trial boundaries — the
/// typed progress event the daemon journals, streams over SSE, and
/// `aimesc watch`/`top` render. Counter semantics:
///
///  - `checksum` is a *prefix fold*: completed trials are folded in seed
///    order (out-of-order finishers wait in a pending buffer), so the
///    running value converges to the exact CellResult/CampaignCellResult
///    checksum when the last trial lands — a watcher sees the final
///    bit-identity witness before the result document exists.
///  - `vt_seconds` is the maximum virtual time reached by any completed
///    trial (ttc for single-app, makespan for campaigns); trials are
///    independent worlds, so a max is the only order-free notion of "how
///    far the simulation got".
///  - The remaining counters are sums over completed trials, so the *final*
///    snapshot is deterministic for every `jobs` value even though
///    intermediate snapshots depend on worker finish order.
struct RunProgress {
  int trials_done = 0;
  int trials_total = 0;
  std::uint64_t units_done = 0;
  std::uint64_t units_failed = 0;
  double vt_seconds = 0.0;
  std::uint64_t checksum = 0;
  /// Campaign-only (zero for single-app runs).
  std::uint64_t tenants_admitted = 0;
  std::uint64_t tenants_shed = 0;
  /// Recovery / fault-injection counters (single-app sums report.recovery
  /// and report.faults; campaigns sum the campaign recovery stats).
  std::uint64_t pilots_resubmitted = 0;
  std::uint64_t faults_injected = 0;
};

/// Single-line JSON object (no trailing newline) — the journal/SSE wire form.
[[nodiscard]] std::string run_progress_to_json(const RunProgress& progress);
/// Parses the wire form back; the checksum field is the hex16 string that
/// run_progress_to_json wrote.
[[nodiscard]] common::Expected<RunProgress> parse_run_progress(const std::string& origin,
                                                               const std::string& text);
[[nodiscard]] common::Expected<RunProgress> parse_run_progress(const common::json::Node& doc);

/// Execution-side hooks, all optional. `log` receives progress lines from
/// whichever pool worker finished a trial (must be thread-safe when
/// jobs != 1); `progress` receives a RunProgress snapshot per trial boundary
/// (one initial zero-trials snapshot, then one per completed trial, from the
/// finishing worker — same thread-safety contract as `log`); `cancelled` is
/// polled before each trial starts.
struct RunHooks {
  std::function<void(const std::string&)> log;
  std::function<void(const RunProgress&)> progress;
  StopToken cancelled;
};

/// Everything a front end needs to report one finished run.
struct RunResult {
  /// The request was valid and the run executed (possibly with failing
  /// trials). False = rejected or resolve error; see `error`.
  bool ok = false;
  /// At least one completed trial succeeded.
  bool success = false;
  /// The stop token cut the run short; completed trials are still reported
  /// but the checksum no longer claims cross-run bit-identity.
  bool cancelled = false;
  std::string error;
  bool is_campaign = false;
  int trials_requested = 0;
  int trials_completed = 0;
  /// Single-app aggregate (default when is_campaign).
  CellResult cell;
  /// Campaign aggregate (default when !is_campaign).
  CampaignCellResult campaign;
  /// Trial 1's full result (seed+1), for single-run detail printing.
  bool has_first_trial = false;
  TrialResult first_trial;
  bool has_first_campaign = false;
  CampaignTrialResult first_campaign;
  /// The bit-identity witness: campaign.checksum or cell.span_checksum.
  std::uint64_t checksum = 0;
  double wall_seconds = 0.0;
  /// Progress snapshots emitted while running (0 when no progress hook ran)
  /// and the final snapshot — its checksum equals `checksum` for a run that
  /// completed every trial.
  int progress_events = 0;
  RunProgress progress;
};

/// Validates, resolves, and runs the request — the single execution path
/// under every front end.
[[nodiscard]] RunResult execute(const RunRequest& req, const RunHooks& hooks = {});

/// Status summary of a finished (or failed) run as a JSON object — the
/// daemon's view/list payload and `aimes-run --json`-style reporting.
[[nodiscard]] std::string run_result_to_json(const RunResult& result);

/// Parses run_result_to_json's output back into the verdict fields
/// (ok/success/cancelled/error/kind/trials/checksum/wall/progress). The
/// per-cell summary keys are accepted and type-checked but not restored, and
/// first-trial detail is not on the wire: this is the journal-replay path,
/// which needs the verdict and the bit-identity witness, not the full
/// in-memory aggregates.
[[nodiscard]] common::Expected<RunResult> parse_run_result(const std::string& origin,
                                                           const std::string& text);
[[nodiscard]] common::Expected<RunResult> parse_run_result(const common::json::Node& doc);

}  // namespace aimes::exp
