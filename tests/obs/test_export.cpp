#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"

namespace aimes::obs {
namespace {

using common::SimDuration;
using common::SimTime;

SimTime at(double s) { return SimTime::epoch() + SimDuration::seconds(s); }

TEST(Export, JsonEscape) {
  // The exporters escape through the one shared JSON escaper.
  using common::json::escape;
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("x\ny"), "x\\ny");
  EXPECT_EQ(escape(std::string("z\x01")), "z\\u0001");
}

TEST(Export, ChromeTraceHasSpansCountersAndTrackNames) {
  SpanTracer t;
  const SpanId a = t.begin_span(at(1), "run bag", "run");
  const SpanId b = t.begin_span(at(2), "unit u.1", "units t1", a);
  t.end_span(b, at(4));
  t.end_span(a, at(5));
  t.instant(at(3), "pilot_lost", "recovery");

  MetricsRegistry m;
  m.counter("aimes_test_total").add();
  m.sample(at(2));
  m.sample(at(4));

  std::ostringstream out;
  export_chrome_trace(t, m, out);
  const std::string json = out.str();

  // Complete (X) span events with microsecond timestamps and causal args.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4000000"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\":\"1\""), std::string::npos);
  // Instant and counter events, plus thread_name metadata for the tracks.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("aimes_test_total"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("units t1"), std::string::npos);
  // Valid JSON shape: object with one traceEvents array.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(Export, ChromeTraceClampsOpenSpansToLatestTimestamp) {
  SpanTracer t;
  t.begin_span(at(1), "open", "run");
  const SpanId b = t.begin_span(at(2), "closed", "run");
  t.end_span(b, at(9));
  MetricsRegistry m;
  std::ostringstream out;
  export_chrome_trace(t, m, out);
  // The open span stretches to the trace's latest timestamp (9 s): 8 s dur.
  EXPECT_NE(out.str().find("\"dur\":8000000"), std::string::npos);
}

TEST(Export, PrometheusGroupsFamiliesUnderOneType) {
  MetricsRegistry m;
  m.counter("aimes_jobs_total", {{"site", "a"}}).add(2);
  m.gauge("aimes_util").set(0.5);
  m.counter("aimes_jobs_total", {{"site", "b"}}).add(3);
  std::ostringstream out;
  export_prometheus(m, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE aimes_jobs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("aimes_jobs_total{site=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("aimes_jobs_total{site=\"b\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aimes_util gauge\naimes_util 0.5\n"), std::string::npos);
  // Both samples of the family sit together, directly after its TYPE line.
  const auto type_pos = text.find("# TYPE aimes_jobs_total");
  const auto b_pos = text.find("aimes_jobs_total{site=\"b\"}");
  const auto util_pos = text.find("# TYPE aimes_util");
  EXPECT_LT(type_pos, b_pos);
  EXPECT_LT(b_pos, util_pos);
  // One TYPE line per family.
  EXPECT_EQ(text.find("# TYPE aimes_jobs_total", type_pos + 1), std::string::npos);
}

TEST(Export, PrometheusHistogramExposition) {
  MetricsRegistry m;
  MetricHistogram& h = m.histogram("lat_seconds", {{"site", "a"}}, 0.0, 4.0, 2);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.0);
  std::ostringstream out;
  export_prometheus(m, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{site=\"a\",le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{site=\"a\",le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{site=\"a\",le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum{site=\"a\"} 13"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count{site=\"a\"} 3"), std::string::npos);
}

TEST(Export, CsvSeriesLongFormat) {
  MetricsRegistry m;
  m.counter("c_total", {{"tenant", "1"}}).add();
  m.sample(at(10));
  m.counter("c_total", {{"tenant", "1"}}).add();
  m.sample(at(20));
  std::ostringstream out;
  export_csv_series(m, out);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("when_ms,metric,value\n", 0), 0u);
  EXPECT_NE(text.find("10000,\"c_total{tenant=\"\"1\"\"}\",1\n"), std::string::npos);
  EXPECT_NE(text.find("20000,\"c_total{tenant=\"\"1\"\"}\",2\n"), std::string::npos);
}

}  // namespace
}  // namespace aimes::obs
