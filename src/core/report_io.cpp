#include "core/report_io.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/fields.hpp"
#include "common/string_util.hpp"

namespace aimes::core {

std::string report_to_json(const ExecutionReport& report) {
  const auto& s = report.strategy;
  const auto& t = report.ttc;
  const auto& m = report.metrics;
  const auto& f = report.faults;
  const auto& r = report.recovery;
  // A JSON array of `items`, each rendered by `item`.
  const auto list = [](const auto& items, const auto& item) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + item(items[i]);
    return out + "]";
  };
  common::json::Writer out(/*pretty=*/true);
  out("success", report.success);
  out("units_done", report.units_done);
  out("units_failed", report.units_failed);
  out("units_cancelled", report.units_cancelled);
  out("strategy.binding", to_string(s.binding));
  out("strategy.unit_scheduler", pilot::to_string(s.unit_scheduler));
  out("strategy.n_pilots", s.n_pilots);
  out("strategy.pilot_cores", s.pilot_cores);
  out("strategy.pilot_walltime_s", s.pilot_walltime.to_seconds());
  out.raw("strategy.sites", list(s.sites, [](const common::SiteId& site) {
            return '"' + common::json::escape(site.str()) + '"';
          }));
  out("ttc_s", t.ttc.to_seconds());
  out("tw_s", t.tw.to_seconds());
  out("tx_s", t.tx.to_seconds());
  out("ts_s", t.ts.to_seconds());
  out.raw("pilot_waits_s", list(t.pilot_waits, [](const common::SimDuration& w) {
            return common::json::number(w.to_seconds());
          }));
  out("restarted_units", t.restarted_units);
  out("pilots_failed", t.pilots_failed);
  out("pilots_resubmitted", t.pilots_resubmitted);
  out("t_recovery_s", t.recovery_time.to_seconds());
  out("throughput_tasks_per_hour", m.throughput_tasks_per_hour);
  out("pilot_core_hours", m.pilot_core_hours);
  out("useful_core_hours", m.useful_core_hours);
  out("pilot_efficiency", m.pilot_efficiency);
  out("lost_core_hours", m.lost_core_hours);
  out("goodput", m.goodput);
  out("charge", m.charge);
  out("energy_kwh", m.energy_kwh);
  out("faults.total", f.total());
  out("faults.pilot_launch_failures", f.pilot_launch_failures);
  out("faults.pilot_kills", f.pilot_kills);
  out("faults.site_outages", f.site_outages);
  out("faults.transfer_failures", f.transfer_failures);
  out("recovery.pilots_lost", r.pilots_lost);
  out("recovery.pilots_resubmitted", r.pilots_resubmitted);
  out("recovery.recoveries_abandoned", r.recoveries_abandoned);
  out("recovery.recoveries_completed", r.recoveries_completed);
  out("recovery.mean_recovery_latency_s", r.mean_recovery_latency().to_seconds());
  return out.finish() + "\n";
}

common::Status save_report_json(const ExecutionReport& report, const std::string& path) {
  std::ofstream f(path);
  if (!f) return common::Status::error(path + ": cannot open for writing");
  f << report_to_json(report);
  if (!f) return common::Status::error(path + ": write failed");
  return {};
}

common::Expected<ExecutionReport> load_report_json(const std::string& path) {
  using E = common::Expected<ExecutionReport>;
  std::ifstream f(path);
  if (!f) return E::error(path + ": cannot open");
  std::stringstream buffer;
  buffer << f.rdbuf();
  auto doc = common::json::Node::parse(path, buffer.str());
  if (!doc) return E::error(doc.error());

  // Every field is required and no other is accepted. Enums, durations and
  // site ids load into locals and convert below; "faults.total" is derived
  // on write, so it is only checked.
  ExecutionReport r;
  std::string binding;
  std::string scheduler;
  std::vector<std::string> sites;
  std::vector<double> waits;
  double walltime_s = 0.0, ttc_s = 0.0, tw_s = 0.0, tx_s = 0.0, ts_s = 0.0;
  double recovery_s = 0.0, latency_s = 0.0;
  std::uint64_t faults_total = 0;
  common::json::Reader in(*doc, /*require_all=*/true);
  in("success", r.success);
  in("units_done", r.units_done);
  in("units_failed", r.units_failed);
  in("units_cancelled", r.units_cancelled);
  in("strategy.binding", binding);
  in("strategy.unit_scheduler", scheduler);
  in("strategy.n_pilots", r.strategy.n_pilots);
  in("strategy.pilot_cores", r.strategy.pilot_cores);
  in("strategy.pilot_walltime_s", walltime_s);
  in("strategy.sites", sites);
  in("ttc_s", ttc_s);
  in("tw_s", tw_s);
  in("tx_s", tx_s);
  in("ts_s", ts_s);
  in("pilot_waits_s", waits);
  in("restarted_units", r.ttc.restarted_units);
  in("pilots_failed", r.ttc.pilots_failed);
  in("pilots_resubmitted", r.ttc.pilots_resubmitted);
  in("t_recovery_s", recovery_s);
  in("throughput_tasks_per_hour", r.metrics.throughput_tasks_per_hour);
  in("pilot_core_hours", r.metrics.pilot_core_hours);
  in("useful_core_hours", r.metrics.useful_core_hours);
  in("pilot_efficiency", r.metrics.pilot_efficiency);
  in("lost_core_hours", r.metrics.lost_core_hours);
  in("goodput", r.metrics.goodput);
  in("charge", r.metrics.charge);
  in("energy_kwh", r.metrics.energy_kwh);
  in("faults.total", faults_total);
  in("faults.pilot_launch_failures", r.faults.pilot_launch_failures);
  in("faults.pilot_kills", r.faults.pilot_kills);
  in("faults.site_outages", r.faults.site_outages);
  in("faults.transfer_failures", r.faults.transfer_failures);
  in("recovery.pilots_lost", r.recovery.pilots_lost);
  in("recovery.pilots_resubmitted", r.recovery.pilots_resubmitted);
  in("recovery.recoveries_abandoned", r.recovery.recoveries_abandoned);
  in("recovery.recoveries_completed", r.recovery.recoveries_completed);
  in("recovery.mean_recovery_latency_s", latency_s);
  if (auto st = in.finish(); !st.ok()) return E::error(st.error());

  const common::json::Node strategy = doc->get("strategy");
  if (!common::parse_enum(binding, Binding::kLate, r.strategy.binding)) {
    return E::error(strategy.get("binding").describe() + ": unknown value '" + binding + "'");
  }
  if (!common::parse_enum(scheduler, pilot::UnitSchedulerKind::kBackfill,
                          r.strategy.unit_scheduler)) {
    return E::error(strategy.get("unit_scheduler").describe() + ": unknown value '" +
                    scheduler + "'");
  }
  r.strategy.pilot_walltime = common::SimDuration::seconds(walltime_s);
  const std::string prefix = std::string(common::SiteTag::prefix()) + ".";
  for (const std::string& site : sites) {
    char* end = nullptr;
    const unsigned long long id =
        site.starts_with(prefix) ? std::strtoull(site.c_str() + prefix.size(), &end, 10) : 0;
    if (end == nullptr || *end != '\0' || id == 0) {
      return E::error(strategy.get("sites").describe() + ": malformed site id '" + site + "'");
    }
    r.strategy.sites.emplace_back(id);
  }
  r.ttc.ttc = common::SimDuration::seconds(ttc_s);
  r.ttc.tw = common::SimDuration::seconds(tw_s);
  r.ttc.tx = common::SimDuration::seconds(tx_s);
  r.ttc.ts = common::SimDuration::seconds(ts_s);
  for (const double w : waits) r.ttc.pilot_waits.push_back(common::SimDuration::seconds(w));
  r.ttc.recovery_time = common::SimDuration::seconds(recovery_s);
  // The file carries the mean; reconstruct the sum the struct stores.
  r.recovery.total_recovery_latency = common::SimDuration::seconds(
      latency_s * static_cast<double>(r.recovery.recoveries_completed));
  return r;
}

}  // namespace aimes::core
