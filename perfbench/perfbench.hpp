// Shared plumbing of the system benchmark: options, the result document,
// the in-memory span tracer, statistics, the golden digest table and the
// input pools every workload draws from.
//
// A workload run has three phases. Set-up (timed several times, median
// reported as `setup_s`) builds and resolves the requests and loads the
// golden digests. The measured phase runs operations until `--seconds`
// elapse and checks every output against the golden table. With
// `--trace 1` the measured phase is instead the traced decomposition of
// the same operations, which reports per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace aimes::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where spans, journals and port files go (inside the checkout).
  std::string out_dir = ".bench_out";
  std::string golden_file = "perfbench/golden.txt";
  std::string aimesd;
  /// Non-empty: recompute the golden table into this file and exit.
  std::string record_golden;
};

/// The last line the benchmark prints, plus the context it records beside it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), printed in insertion-independent (sorted) order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Extra key/values for the context line (sample counts, load shape).
  std::map<std::string, std::string> context;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one failed operation with its reason on stderr.
  void fail(const std::string& why);
};

// --- time -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Peak resident set of this process, MiB (VmHWM).
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set of process `pid`, MiB (VmHWM from /proc); 0 if gone.
[[nodiscard]] double peak_rss_mb_of(int pid);

// --- placement ---------------------------------------------------------------

/// Pins every thread of process `pid` (and so the threads they create
/// later) to the `group`-th group of `width` consecutive CPUs of this
/// process's allowed set. Rotating the group per operation makes every run
/// sample each core equally: on a shared host one core can run 20-30%
/// slower than another for tens of seconds, which would otherwise decide a
/// whole run.
void pin_rotating(int pid, std::uint64_t group, int width);

// --- digests ---------------------------------------------------------------

/// FNV-1a over 64-bit words, byte by byte.
class Digest {
 public:
  void mix(std::uint64_t v);
  void mix_double(double v);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

[[nodiscard]] std::string hex16(std::uint64_t v);

// --- input pools --------------------------------------------------------------

/// Every operation's seed comes from a fixed per-workload pool so that each
/// one has a golden digest recorded from a trusted commit; `--seed` decides
/// the order in which a run walks the pool.
[[nodiscard]] std::uint64_t pool_seed(int index);
/// A seeded permutation of [0, n).
[[nodiscard]] std::vector<int> permutation(std::uint64_t run_seed, std::uint64_t stream, int n);
/// Pool entry for operation `i` of `stream`: entry i % n of the (i / n)-th
/// seeded permutation of the pool, so every n consecutive operations of a
/// stream cover the whole pool once and only the order depends on the seed.
[[nodiscard]] int pool_pick(std::uint64_t run_seed, std::uint64_t stream, std::uint64_t i, int n);

/// Golden digests: "<workload> <key> <hex digest>" per line.
class GoldenTable {
 public:
  /// Loads the table; false (with a message on stderr) if unreadable.
  bool load(const std::string& path);
  /// True when `key` is present and equals `digest`; false otherwise.
  [[nodiscard]] bool matches(const std::string& workload, const std::string& key,
                             std::uint64_t digest) const;
  [[nodiscard]] std::size_t size() const { return digests_.size(); }

 private:
  std::map<std::string, std::uint64_t> digests_;
};

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder. Spans carry a name, start and end (ms since the
/// tracer was made), the index of the span that caused them (-1 for a
/// top-level span) and the request id shared by the spans of one operation.
/// Disabled tracers record nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = -1.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  /// Opens a span; returns its index, or -1 when disabled.
  int open(const std::string& name, std::uint64_t request, int parent = -1);
  void close(int span);

  /// RAII span; `id()` is the parent handle for nested spans.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t request, int parent = -1)
        : tracer_(tracer), id_(tracer.open(name, request, parent)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Self time per span name (duration minus what its children cover), ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Total duration per span name, ms, and span counts per name.
  [[nodiscard]] std::map<std::string, double> total_ms() const;
  [[nodiscard]] std::map<std::string, std::size_t> counts() const;
  /// Sum of every span's self time, ms (equals the top-level durations).
  [[nodiscard]] double accounted_ms() const;
  /// Writes every span as one JSON document; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Prints the per-span self-time table of a traced run on stderr.
void print_span_table(const Tracer& tracer, double wall_ms);

// --- workloads ----------------------------------------------------------------

Result run_paper_sweep(const Options& options);
Result run_campaign_backlog(const Options& options);
Result run_grid(const Options& options);
Result run_daemon_roundtrip(const Options& options);

/// Golden-table recording: appends this workload's lines to `out`.
void record_paper_sweep(std::string& out);
void record_campaign_backlog(std::string& out);
void record_grid(std::string& out);
void record_daemon_roundtrip(std::string& out);

/// Every per-layer metric name with its unit. A traced run reports all of
/// them; a layer the workload never enters reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace aimes::perfbench
