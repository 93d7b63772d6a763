// Statistics, digests, the golden table and the span tracer.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <sys/resource.h>

#include "perfbench.hpp"

namespace aimes::perfbench {

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_rss_mb_of(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

namespace {

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  return allowed;
}

cpu_set_t rotating_set(std::uint64_t group, int width) {
  const std::vector<int>& allowed = allowed_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t n = allowed.size();
  for (int j = 0; j < width; ++j) {
    CPU_SET(allowed[(group * static_cast<std::size_t>(width) + static_cast<std::size_t>(j)) % n],
            &set);
  }
  return set;
}

}  // namespace

void pin_rotating(int pid, std::uint64_t group, int width) {
  if (allowed_cpus().size() < 2) return;
  const cpu_set_t set = rotating_set(group, width);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
    const auto tid = static_cast<pid_t>(std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof set, &set);
  }
}

void Digest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::mix_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t pool_seed(int index) { return 1000 + static_cast<std::uint64_t>(index) * 7919; }

namespace {

/// Deterministic pick in [0, n) from (run seed, a, b).
int pick(std::uint64_t run_seed, std::uint64_t a, std::uint64_t b, int n) {
  // splitmix64 finaliser over the three inputs.
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL + b + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<int>(z % static_cast<std::uint64_t>(n));
}

}  // namespace

std::vector<int> permutation(std::uint64_t run_seed, std::uint64_t stream, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(pick(run_seed, stream, static_cast<std::uint64_t>(i), i + 1))]);
  }
  return order;
}

int pool_pick(std::uint64_t run_seed, std::uint64_t stream, std::uint64_t i, int n) {
  const auto size = static_cast<std::uint64_t>(n);
  const auto order = permutation(run_seed, stream * 1000003 + i / size, n);
  return order[static_cast<std::size_t>(i % size)];
}

bool GoldenTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read golden digests %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto last = line.rfind(' ');
    if (last == std::string::npos) continue;
    digests_[line.substr(0, last)] = std::strtoull(line.c_str() + last + 1, nullptr, 16);
  }
  return !digests_.empty();
}

bool GoldenTable::matches(const std::string& workload, const std::string& key,
                          std::uint64_t digest) const {
  const auto it = digests_.find(workload + " " + key);
  return it != digests_.end() && it->second == digest;
}

int Tracer::open(const std::string& name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, -1.0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span < 0) return;
  const double now = std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_ms = now;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, double> Tracer::total_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end_ms - s.start_ms;
  return out;
}

std::map<std::string, std::size_t> Tracer::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::size_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

double Tracer::accounted_ms() const {
  double sum = 0.0;
  for (const auto& [name, ms] : self_ms()) sum += ms;
  return sum;
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.6f, \"end_ms\": %.6f, \"parent\": %d, \"request\": ",
                  s.start_ms, s.end_ms, s.parent);
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << buf << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void print_span_table(const Tracer& tracer, double wall_ms) {
  const auto self = tracer.self_ms();
  const auto total = tracer.total_ms();
  const auto counts = tracer.counts();
  std::fprintf(stderr, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms",
               "self%");
  for (const auto& [name, ms] : self) {
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f %6.2f%%\n", name.c_str(), counts.at(name),
                 total.at(name), ms, wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0);
  }
  const double accounted = tracer.accounted_ms();
  std::fprintf(stderr, "%-28s %8s %12s %12.3f %6.2f%%\n", "unaccounted", "", "",
               wall_ms - accounted, wall_ms > 0 ? 100.0 * (wall_ms - accounted) / wall_ms : 0.0);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.construct_ms", "ms"},        {"skeleton.materialize_ms", "ms"},
      {"core.plan_ms", "ms"},             {"cluster.warmup_ms", "ms"},
      {"cluster.warmup_share", "fraction"}, {"cluster.bg_jobs", "count"},
      {"pilot.execute_ms", "ms"},         {"pilot.trace_records", "count"},
      {"pilot.unit_yield", "fraction"},   {"pilot.campaign_ms", "ms"},
      {"core.analyze_ms", "ms"},          {"sim.events", "count"},
      {"sim.peak_queued", "count"},       {"sim.windows", "count"},
      {"sim.posts", "count"},             {"sim.ns_per_event", "ns"},
      {"sim.shard_speedup_4", "ratio"},   {"exp.parse_us", "us"},
      {"exp.resolve_us", "us"},           {"exp.execute_ms", "ms"},
      {"ctl.submit_ms", "ms"},            {"ctl.events_ms", "ms"},
      {"ctl.view_ms", "ms"},              {"ctl.handle_submit_us", "us"},
      {"net.http_overhead_ms", "ms"},     {"ctl.queue_wait_ms", "ms"},
      {"ctl.run_duration_ms", "ms"},      {"ctl.journal_bytes_per_run", "bytes"},
      {"ctl.accept_ratio", "fraction"},   {"trace.overhead_share", "fraction"},
      {"trace.unaccounted_share", "fraction"}, {"submit_done_p99_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace aimes::perfbench
