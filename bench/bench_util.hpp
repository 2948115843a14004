#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/kernel_config.hpp"
#include "util/json.hpp"

/// Shared helpers for the figure/table reproduction binaries.
namespace et::bench {

/// Parses an ET_KERNEL-style kernel selector into `*kernel`:
///   ""          / "legacy"  -> legacy serial engine (the seed's order)
///   "serial"                -> canonical-order serial oracle
///   "parallel"              -> tiled parallel kernel, default threads
///   "parallel:N"            -> tiled parallel kernel, N busy threads
///                              (N-1 pool workers plus the master)
/// Returns false (and fills `*error` when non-null) on anything else —
/// including `parallel:0`, negative, or non-numeric thread counts, which
/// must fail loudly: a sweep silently falling back to a default thread
/// count would benchmark the wrong configuration.
inline bool parse_kernel_selector(const std::string& value,
                                  sim::KernelConfig* kernel,
                                  std::string* error = nullptr) {
  *kernel = sim::KernelConfig{};
  if (value.empty() || value == "legacy") return true;
  if (value == "serial") {
    kernel->canonical_order = true;
    return true;
  }
  if (value == "parallel") {
    kernel->use_parallel_kernel = true;
    return true;
  }
  const std::string prefix = "parallel:";
  if (value.rfind(prefix, 0) == 0) {
    const std::string spec = value.substr(prefix.size());
    if (spec.empty() ||
        spec.find_first_not_of("0123456789") != std::string::npos) {
      if (error) {
        *error = "ET_KERNEL '" + value +
                 "': thread count must be a positive integer";
      }
      return false;
    }
    // strtoul saturates on overflow, so absurd counts also land here.
    const unsigned long threads = std::strtoul(spec.c_str(), nullptr, 10);
    if (threads == 0 || threads > 1024) {
      if (error) {
        *error = "ET_KERNEL '" + value +
                 "': thread count must be between 1 and 1024";
      }
      return false;
    }
    kernel->use_parallel_kernel = true;
    kernel->threads = static_cast<unsigned>(threads);
    return true;
  }
  if (error) {
    *error = "unknown ET_KERNEL '" + value +
             "' (expected legacy, serial, parallel, or parallel:N)";
  }
  return false;
}

/// Kernel selection from the ET_KERNEL environment variable (unset/empty =
/// legacy engine). Exits with the parser's message on a malformed value.
/// "serial" and "parallel:N" runs print byte-identical output — CI diffs
/// them.
inline sim::KernelConfig kernel_from_env() {
  sim::KernelConfig kernel;
  const char* env = std::getenv("ET_KERNEL");
  if (!env) return kernel;
  std::string error;
  if (!parse_kernel_selector(env, &kernel, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return kernel;
}

/// Accumulates machine-readable {config, seed, metric, value} rows and
/// renders them as a JSON array — the persisted BENCH_*.json format that
/// lets the perf/robustness trajectory survive repo re-anchors. Rows are
/// appended in deterministic (job) order so serial and parallel sweeps
/// produce byte-identical files.
class JsonRows {
 public:
  /// Appends one row; the value is rendered with %.6g.
  void add(const std::string& config, std::uint64_t seed,
           const std::string& metric, double value) {
    add_row(config, seed, metric, value, 6);
  }

  /// Like add(), but renders the value with full round-trip precision
  /// (%.17g). The chaos fuzzer's serial-vs-parallel differential diffs
  /// these rows byte-for-byte, so a divergence below %.6g must not be
  /// rounded away.
  void add_exact(const std::string& config, std::uint64_t seed,
                 const std::string& metric, double value) {
    add_row(config, seed, metric, value, 17);
  }

  /// Individual rows, for diff tooling that wants the first divergence
  /// rather than a whole-file compare.
  const std::vector<std::string>& rows() const { return rows_; }

  std::string render() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += rows_[i];
      out += i + 1 < rows_.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
  }

  bool empty() const { return rows_.empty(); }

 private:
  void add_row(const std::string& config, std::uint64_t seed,
               const std::string& metric, double value, int precision) {
    // Only the double goes through a bounded snprintf; the row itself is
    // assembled as a std::string so an arbitrarily long config or metric
    // name can never truncate the row and corrupt the JSON file.
    // JSON has no NaN/Inf literal; non-finite metric values (e.g. the NaN
    // mean_error of a run with zero reports) become null.
    char num[40];
    if (std::isfinite(value)) {
      std::snprintf(num, sizeof(num), "%.*g", precision, value);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    std::string row = "  {\"config\": \"";
    row += util::json_escape(config);
    row += "\", \"seed\": ";
    row += std::to_string(seed);
    row += ", \"metric\": \"";
    row += util::json_escape(metric);
    row += "\", \"value\": ";
    row += num;
    row += "}";
    rows_.push_back(std::move(row));
  }

  std::vector<std::string> rows_;
};

/// Seeds per measured point; override with ET_BENCH_SEEDS=n (smaller is
/// faster, noisier).
inline int seeds_per_point(int fallback = 3) {
  if (const char* env = std::getenv("ET_BENCH_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==========================================================\n");
}

}  // namespace et::bench
