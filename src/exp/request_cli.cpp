#include "exp/request_cli.hpp"

namespace aimes::exp {

void declare_request_options(common::cli::Parser& cli, RunRequest& req, bool& quick,
                             RequestFront front) {
  declare_request_flags(cli, req, front);
  cli.flag("--quick", quick,
           "small fast run: 16 tasks, 2 pilots, 1 h warmup\n"
           "(each unless explicitly overridden)");

  // Declarative exclusions shared by every front end: Table I rows fix the
  // workload, campaigns build their own size-cycled bags.
  cli.conflicts("--experiment", "--skeleton");
  cli.conflicts("--experiment", "--campaign");
  cli.conflicts("--campaign", "--skeleton");
  for (const char* campaign_only :
       {"--arrival", "--campaign-mode", "--admission", "--quota", "--slo", "--max-queue-wait",
        "--breaker-threshold", "--breaker-min-events", "--breaker-cooldown"}) {
    cli.requires_option(campaign_only, "--campaign");
  }
}

void finalize_request_options(const common::cli::Parser& cli, RunRequest& req, bool quick) {
  if (quick) {
    if (!cli.seen("--tasks")) req.tasks = 16;
    if (!cli.seen("--pilots")) req.strategy.pilots = 2;
    if (!cli.seen("--warmup")) req.warmup_hours = 1.0;
  }
  if (cli.seen("--quota") || cli.seen("--slo") || cli.seen("--max-queue-wait")) {
    req.admission.enabled = true;
  }
  if (cli.seen("--breaker-threshold") || cli.seen("--breaker-min-events") ||
      cli.seen("--breaker-cooldown")) {
    req.admission.breaker = true;
  }
}

}  // namespace aimes::exp
