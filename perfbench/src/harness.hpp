#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "scenario/tank.hpp"
#include "util/json.hpp"

/// Shared pieces of the benchmark program: options, the result report,
/// fixed-size latency histograms, in-memory trace spans, process probes
/// (peak RSS, per-thread CPU time) and the per-layer counters read from a
/// finished tank world through the library's public `*Stats` accessors.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event JSON written at exit when tracing.
  std::string trace_path;
};

/// splitmix64: derives every simulation, artifact and query seed of a run
/// from `--seed`, so the same seed gives the same inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Latency histogram with log-spaced buckets (16 per power of two, ~3 %
/// relative resolution) over [1 ns, 2^40 ns]. Fixed size, so recording
/// millions of samples costs no memory that would show in peak RSS.
class Histogram {
 public:
  void record_ns(std::uint64_t ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1], in nanoseconds (bucket midpoint).
  double quantile_ns(double q) const;

 private:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (41 - kSubBits) * kSub + kSub;
  static int bucket_of(std::uint64_t ns);
  static double bucket_mid(int bucket);
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Median of a sample (by copy); 0 for an empty sample.
double median(std::vector<double> values);

/// Value at quantile q in [0, 1] of a sample (nearest rank, by copy); 0
/// for an empty sample.
double quantile(std::vector<double> values, double q);

/// Sum over a fixed set of operations of each one's upper-quartile time
/// over rounds, where `per_op[i]` holds operation i's time in every round.
/// A shared host runs this code in a loaded phase, about equally slow from
/// one hour to the next, and in unloaded phases that come and go; a
/// median over rounds jumps to whichever phase held most of the run, the
/// upper quartile stays with the loaded phase whenever it holds a quarter
/// of the run (see README.md, "Host noise and the choice of estimators").
double sum_of_upper_quartiles(const std::vector<std::vector<double>>& per_op);

/// Spans recorded from the benchmark's own code around calls into the
/// library. Kept in memory, written once as Chrome trace-event JSON.
/// Disabled tracers record nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. Nested spans on one thread form a parent/child chain; a
  /// span's self time is its duration minus its children's. `weight`
  /// scales the span's contribution to the self-time table (sampled calls
  /// record one span per `weight` calls).
  class Span {
   public:
    Span(Tracer& tracer, const char* name, double weight = 1.0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when disabled
    const char* name_;
    double weight_;
    Clock::time_point start_;
    std::uint64_t child_ns_ = 0;
    std::uint64_t id_ = 0;
    Span* parent_ = nullptr;
  };

  std::size_t span_count() const;
  /// Weighted self time per span name, in milliseconds.
  std::map<std::string, double> self_ms() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint32_t tid;
    std::int64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t self_ns;
    double weight;
  };
  void add(const Event& event);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

/// Per-run output: correctness, operation counts and metrics.
class Report {
 public:
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  const std::map<std::string, double>& e2e_values() const { return e2e_; }
  const std::map<std::string, double>& layer_values() const {
    return layer_;
  }

  /// Free-form facts printed before the result line: digest, percentile
  /// sample counts, workload-specific rates.
  et::util::Json detail = et::util::Json::object();

 private:
  std::vector<std::string> errors_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// CPU seconds (user + system) of every live thread of this process, keyed
/// by thread id, read from /proc/self/task/<tid>/stat.
std::map<int, double> thread_cpu_seconds();
/// Total CPU seconds the threads in `after` used since `before` (threads
/// that did not exist in `before` count from zero).
double cpu_delta(const std::map<int, double>& before,
                 const std::map<int, double>& after);

/// Simulated counts of one or more tank worlds, read after a run through
/// the public stats accessors of every layer.
struct SimCounts {
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  // node: the mote CPU task queue.
  std::uint64_t cpu_tasks_executed = 0;
  std::uint64_t cpu_tasks_dropped = 0;
  // radio: the shared medium.
  std::uint64_t frames_transmitted = 0;
  std::uint64_t pair_attempts = 0;
  std::uint64_t pair_delivered = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bits_sent = 0;
  // net: geo-routing.
  std::uint64_t routed_originated = 0;
  std::uint64_t routed_forwarded = 0;
  std::uint64_t routed_retries = 0;
  std::uint64_t routed_dropped = 0;
  // core: group management and transport.
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t labels_created = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t transport_invocations = 0;
  std::uint64_t transport_delivered = 0;
  std::uint64_t transport_retransmits = 0;
  // metrics: the coherence monitor's view of the target.
  std::uint64_t handovers_ok = 0;
  std::uint64_t handovers_failed = 0;
  std::uint64_t distinct_labels = 0;

  void add(const SimCounts& other);
  /// One line per count, in a fixed order: the digest input.
  std::string render() const;
  /// Writes the per-layer count metrics (node., radio., net., core.).
  void report_layers(Report& report) const;
};

/// Reads every layer's counters from `scenario` after a run that fired
/// `events` events and produced `result`.
SimCounts count_world(et::scenario::TankScenario& scenario,
                      const et::scenario::TankRunResult& result,
                      std::uint64_t events);

/// FNV-1a 64 digest of text fed in pieces, rendered as 16 hex digits.
class Digest {
 public:
  void add(const std::string& text);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// A tank world timed through its phases: build, run, result collection,
/// teardown. Each phase is also a trace span.
struct TimedWorld {
  double build_s = 0.0;
  double run_s = 0.0;
  double result_s = 0.0;
  double teardown_s = 0.0;
  SimCounts counts;
  et::scenario::TankRunResult result;
};

/// Builds the scenario, runs it to completion (target crossing plus
/// cooldown), collects its result and counts, and tears it down.
TimedWorld run_timed_world(const et::scenario::TankScenarioParams& params,
                           Tracer& tracer);

}  // namespace perfbench
