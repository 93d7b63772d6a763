// CLI flag surface of exp::RunRequest — one registration shared by every
// front end that accepts the run flags (`aimes-run`, `aimesc submit`), so
// `--pilots` cannot mean one thing on the CLI and another over HTTP. The
// flags themselves come from the request field table (request.cpp); this
// layer adds `--quick`, the declared conflicts and requirements between
// flags, and the post-parse fixups that depend on which flags were seen.
#pragma once

#include "common/cli.hpp"
#include "exp/request.hpp"

namespace aimes::exp {

/// Registers the run flags of `front` on `cli`, writing into `req` (and the
/// `--quick` flag into `quick`). The caller adds its own front-end-specific
/// flags (presentation, daemon address, ...) on the same parser; `req` and
/// `quick` must outlive the parse.
void declare_request_options(common::cli::Parser& cli, RunRequest& req, bool& quick,
                             RequestFront front = kAimesRun);

/// Post-parse fixups that depend on which flags were *seen*: `--quick`
/// defaults (16 tasks, 2 pilots, 1 h warmup unless overridden), the
/// quota/slo/queue-wait knobs arming admission, and the breaker knobs arming
/// the breakers. Call after cli.parse(); validate(req) still applies.
void finalize_request_options(const common::cli::Parser& cli, RunRequest& req, bool quick);

}  // namespace aimes::exp
