// Export backends for the observability subsystem:
//   * Chrome trace-event JSON — loads in Perfetto (ui.perfetto.dev) or
//     chrome://tracing. Spans become `X` (complete) events on one tid lane
//     per track, instant annotations become `i` events, and every sampled
//     metric becomes a `C` counter track.
//   * Prometheus text exposition — final values of every counter/gauge/
//     histogram, `# TYPE`-annotated, one line per (name, labels).
//   * CSV time series — long format `when_ms,metric,value`, one row per
//     sample point, for pandas/R post-processing.
//
// All exports iterate metrics and spans in registration/creation order, so
// the rendered bytes are deterministic for a given trial.
#pragma once

#include <ostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace aimes::obs {

/// Writes `{"traceEvents":[...]}`. Virtual milliseconds map to trace
/// microseconds (1 sim ms = 1000 trace µs); pid is always 1; tids are
/// assigned per distinct track in first-appearance order and named via `M`
/// metadata events. Open spans are clamped to the latest timestamp seen.
void export_chrome_trace(const SpanTracer& tracer, const MetricsRegistry& metrics,
                         std::ostream& out);

/// Prometheus-style text exposition of final metric values.
void export_prometheus(const MetricsRegistry& metrics, std::ostream& out);

/// Long-format CSV of every sampled series: `when_ms,metric,value`.
void export_csv_series(const MetricsRegistry& metrics, std::ostream& out);

}  // namespace aimes::obs
