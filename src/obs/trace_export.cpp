#include "obs/trace_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hpp"

namespace aimes::obs {

namespace {

using common::json::escape;

/// Deterministic numeric rendering: integers without a decimal point (the
/// common case for counters/gauges), everything else shortest-ish %.10g.
std::string num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string attrs_json(const std::vector<Attr>& attrs) {
  std::string out = "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + escape(attrs[i].first) + "\":\"" + escape(attrs[i].second) + '"';
  }
  out += '}';
  return out;
}

/// Tracks are mapped to tid lanes in first-appearance order (spans first,
/// then instants), which is creation order and therefore deterministic.
class TrackIndex {
 public:
  int tid(const std::string& track) {
    auto it = map_.find(track);
    if (it != map_.end()) return it->second;
    const int id = static_cast<int>(names_.size()) + 1;
    map_.emplace(track, id);
    names_.push_back(track);
    return id;
  }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, int> map_;
  std::vector<std::string> names_;
};

}  // namespace

void export_chrome_trace(const SpanTracer& tracer, const MetricsRegistry& metrics,
                         std::ostream& out) {
  // Open spans (a run that was aborted, a pilot alive at teardown) are
  // clamped to the latest timestamp anywhere in the trace so Perfetto still
  // renders them.
  std::int64_t latest_ms = 0;
  for (const Span& s : tracer.spans()) {
    latest_ms = std::max(latest_ms, s.begin.count_ms());
    if (s.closed()) latest_ms = std::max(latest_ms, s.end.count_ms());
  }
  for (const InstantEvent& ev : tracer.instants()) {
    latest_ms = std::max(latest_ms, ev.when.count_ms());
  }
  for (const auto& m : metrics.metrics()) {
    if (!m->series.empty()) {
      latest_ms = std::max(latest_ms, m->series.back().when.count_ms());
    }
  }

  TrackIndex tracks;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out << ",\n";
    first = false;
    out << event;
  };

  for (const Span& s : tracer.spans()) {
    const int tid = tracks.tid(s.track);
    const std::int64_t begin_us = s.begin.count_ms() * 1000;
    const std::int64_t end_ms = s.closed() ? s.end.count_ms() : latest_ms;
    const std::int64_t dur_us = std::max<std::int64_t>(0, end_ms - s.begin.count_ms()) * 1000;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64 ",\"dur\":%" PRId64
                  ",\"cat\":\"span\",\"name\":\"",
                  tid, begin_us, dur_us);
    std::string ev = head;
    ev += escape(s.name);
    ev += "\",\"args\":";
    std::vector<Attr> attrs = s.attrs;
    attrs.emplace_back("span_id", std::to_string(s.id));
    if (s.parent != kNoSpan) attrs.emplace_back("parent_span", std::to_string(s.parent));
    ev += attrs_json(attrs);
    ev += '}';
    emit(ev);
  }

  for (const InstantEvent& inst : tracer.instants()) {
    const int tid = tracks.tid(inst.track);
    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64
                  ",\"cat\":\"annotation\",\"name\":\"",
                  tid, inst.when.count_ms() * 1000);
    std::string ev = head;
    ev += escape(inst.name);
    ev += "\",\"args\":";
    ev += attrs_json(inst.attrs);
    ev += '}';
    emit(ev);
  }

  // One counter track per sampled metric (its full key keeps label sets on
  // separate tracks, e.g. aimes_pilot_units_queued{tenant="1"} vs {"2"}).
  for (const auto& m : metrics.metrics()) {
    if (m->series.empty()) continue;
    const std::string name = escape(m->key());
    for (const SeriesPoint& p : m->series) {
      char head[96];
      std::snprintf(head, sizeof(head), "{\"ph\":\"C\",\"pid\":1,\"ts\":%" PRId64
                                        ",\"name\":\"",
                    p.when.count_ms() * 1000);
      std::string ev = head;
      ev += name;
      ev += "\",\"args\":{\"value\":";
      ev += num(p.value);
      ev += "}}";
      emit(ev);
    }
  }

  // Name the tid lanes after their tracks.
  for (std::size_t i = 0; i < tracks.names().size(); ++i) {
    std::string ev = "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
                     ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                     escape(tracks.names()[i]) + "\"}}";
    emit(ev);
  }

  out << "]}\n";
}

void export_prometheus(const MetricsRegistry& metrics, std::ostream& out) {
  // Exposition groups every sample of one family under its # TYPE line.
  // Families are listed in first-appearance (= registration) order and
  // members keep registration order within the family, so the output is
  // byte-stable for a deterministic run.
  std::vector<std::string> families;
  std::unordered_set<std::string> seen;
  for (const auto& m : metrics.metrics()) {
    if (seen.insert(m->name).second) families.push_back(m->name);
  }
  for (const std::string& family : families) {
    bool typed = false;
    for (const auto& m : metrics.metrics()) {
      if (m->name != family) continue;
      if (!typed) {
        typed = true;
        const char* type = "gauge";
        if (m->kind == MetricKind::kCounter) type = "counter";
        if (m->kind == MetricKind::kHistogram) type = "histogram";
        out << "# TYPE " << m->name << ' ' << type << '\n';
      }
      if (m->kind == MetricKind::kHistogram && m->histogram) {
        const MetricHistogram& h = *m->histogram;
        std::string label_prefix = m->name + "_bucket{";
        std::string suffix_labels;
        for (const Attr& a : m->labels) {
          label_prefix += a.first + "=\"" + a.second + "\",";
          suffix_labels += (suffix_labels.empty() ? "{" : ",") + a.first + "=\"" + a.second + '"';
        }
        if (!suffix_labels.empty()) suffix_labels += '}';
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
          cumulative += h.buckets()[i];
          const double ub = h.upper_bound(i);
          out << label_prefix << "le=\""
              << (std::isinf(ub) ? std::string("+Inf") : num(ub)) << "\"} " << cumulative
              << '\n';
        }
        out << m->name << "_sum" << suffix_labels << ' ' << num(h.sum()) << '\n';
        out << m->name << "_count" << suffix_labels << ' ' << h.count() << '\n';
        continue;
      }
      double value = 0.0;
      switch (m->kind) {
        case MetricKind::kCounter: value = m->counter.value(); break;
        case MetricKind::kGauge: value = m->gauge.value(); break;
        case MetricKind::kCallbackGauge:
          value = m->callback ? m->callback()
                              : (m->series.empty() ? 0.0 : m->series.back().value);
          break;
        case MetricKind::kHistogram: break;  // handled above
      }
      out << m->key() << ' ' << num(value) << '\n';
    }
  }
}

void export_csv_series(const MetricsRegistry& metrics, std::ostream& out) {
  out << "when_ms,metric,value\n";
  for (const auto& m : metrics.metrics()) {
    const std::string key = m->key();
    // Metric keys can contain commas between labels; quote the field.
    std::string quoted = "\"";
    for (char c : key) {
      if (c == '"') quoted += "\"\"";
      else quoted += c;
    }
    quoted += '"';
    for (const SeriesPoint& p : m->series) {
      out << p.when.count_ms() << ',' << quoted << ',' << num(p.value) << '\n';
    }
  }
}

}  // namespace aimes::obs
