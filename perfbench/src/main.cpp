/// perfbench — the repository's benchmark program.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <path>]
///
/// Runs one workload (paper_figures, chaos_trials, serve_mixed) for about
/// `--seconds` seconds of whole rounds, checks its outputs, and prints
/// provenance and detail lines followed by one JSON result line:
/// {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
/// metrics are the end-to-end ones; with `--trace 1` they are the
/// per-layer ones and the spans go to a Chrome trace-event file.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
};

/// Per-layer metrics, reported by every workload in the traced run; a
/// layer the workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.world_build_s", "s"},
    {"sim.teardown_s", "s"},
    {"sim.sim_seconds_per_second", "s/s"},
    {"sim.parallel.sim_seconds_per_second", "s/s"},
    {"sim.parallel.windows", "count"},
    {"sim.parallel.mean_window_us", "us"},
    {"sim.parallel.tile_phase_ms", "ms"},
    {"sim.parallel.serial_phase_ms", "ms"},
    {"sim.parallel.barrier_wait_ms", "ms"},
    {"sim.parallel.serial_fraction", "ratio"},
    {"sim.parallel.fanout_receivers", "count"},
    {"sim.parallel.speedup", "x"},
    {"sim.parallel.thread_cpu_s", "s"},
    {"node.cpu_tasks_executed", "count"},
    {"node.cpu_tasks_dropped", "count"},
    {"radio.frames_transmitted", "count"},
    {"radio.pair_attempts", "count"},
    {"radio.delivery_ratio", "ratio"},
    {"radio.collisions", "count"},
    {"radio.bits_sent", "bit"},
    {"net.originated", "count"},
    {"net.forwarded", "count"},
    {"net.retries", "count"},
    {"net.dropped", "count"},
    {"core.heartbeats_sent", "count"},
    {"core.reports_sent", "count"},
    {"core.labels_created", "count"},
    {"core.takeovers", "count"},
    {"core.transport_retransmits", "count"},
    {"core.transport_delivery_ratio", "ratio"},
    {"metrics.result_s", "s"},
    {"fuzz.generate_ms", "ms"},
    {"fuzz.trial_ms_p50", "ms"},
    {"fuzz.trial_serial_ms_p50", "ms"},
    {"fuzz.trials_per_s", "1/s"},
    {"serve.queries_per_s", "1/s"},
    {"serve.ingest_per_s", "reports/s"},
    {"serve.query_p99_us", "us"},
    {"serve.query_samples", "count"},
    {"serve.apply_batch_us_p50", "us"},
    {"serve.apply_batch_us_p99", "us"},
    {"serve.apply_batch_samples", "count"},
    {"serve.apply_batch_solo_us_p50", "us"},
    {"serve.latest_us_p50", "us"},
    {"serve.region_us_p50", "us"},
    {"serve.region_us_p99", "us"},
    {"serve.history_us_p50", "us"},
    {"serve.region_answer_labels", "count"},
    {"trace.spans", "count"},
    {"trace.ops_per_s", "1/s"},
    {"trace.self_ms.bench.round", "ms"},
    {"trace.self_ms.scenario.build", "ms"},
    {"trace.self_ms.scenario.run", "ms"},
    {"trace.self_ms.scenario.collect", "ms"},
    {"trace.self_ms.scenario.teardown", "ms"},
    {"trace.self_ms.fuzz.generate_artifact", "ms"},
    {"trace.self_ms.fuzz.run_trial", "ms"},
    {"trace.self_ms.fuzz.run_trial_serial", "ms"},
    {"trace.self_ms.fuzz.count_replay", "ms"},
    {"trace.self_ms.serve.record_tape", "ms"},
    {"trace.self_ms.serve.apply_batch", "ms"},
    {"trace.self_ms.serve.query", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_figures|chaos_trials|serve_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || options.seconds < 0.0 ||
          options.seconds > 600.0) {
        usage("--seconds must be a number in [0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.trace_path.empty()) {
    options.trace_path = "trace-" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".json";
  }
  return options;
}

et::util::Json provenance(const Options& options) {
  et::util::Json p = et::util::Json::object();
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  p.set("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  p.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("compiler", "g++ " __VERSION__);
  p.set("workload", options.workload);
  p.set("seed", static_cast<std::int64_t>(options.seed));
  p.set("seconds", options.seconds);
  p.set("trace", options.trace);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Tracer tracer(options.trace);
  Report report;

  const Clock::time_point start = Clock::now();
  if (options.workload == "paper_figures") {
    run_paper_figures(options, tracer, report);
  } else if (options.workload == "chaos_trials") {
    run_chaos_trials(options, tracer, report);
  } else if (options.workload == "serve_mixed") {
    run_serve_mixed(options, tracer, report);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  const double wall_s = seconds_since(start);

  et::util::Json metrics = et::util::Json::object();
  if (options.trace) {
    report.layer("trace.spans", static_cast<double>(tracer.span_count()));
    if (const auto it = report.e2e_values().find("ops_per_s");
        it != report.e2e_values().end()) {
      report.layer("trace.ops_per_s", it->second);
    }
    for (const auto& [name, ms] : tracer.self_ms()) {
      report.layer("trace.self_ms." + name, ms);
    }
    report.check(tracer.write_chrome_json(options.trace_path),
                 "could not write trace file " + options.trace_path);
    report.detail.set("trace_file", options.trace_path);
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.layer_values().find(spec.name);
      et::util::Json m = et::util::Json::object();
      m.set("value", it == report.layer_values().end() ? 0.0 : it->second);
      m.set("unit", spec.unit);
      metrics.set(spec.name, std::move(m));
    }
    for (const auto& [name, value] : report.layer_values()) {
      if (!metrics.contains(name)) {
        std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
                     name.c_str());
        return 3;
      }
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.e2e_values().find(spec.name);
      if (it == report.e2e_values().end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     spec.name);
        return 3;
      }
      et::util::Json m = et::util::Json::object();
      m.set("value", it->second);
      m.set("unit", spec.unit);
      metrics.set(spec.name, std::move(m));
    }
  }

  for (const std::string& error : report.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  report.detail.set("wall_s", wall_s);
  std::printf("provenance %s\n", provenance(options).dump().c_str());
  std::printf("detail %s\n", report.detail.dump().c_str());

  et::util::Json result = et::util::Json::object();
  result.set("correct", report.correct());
  result.set("attempted", static_cast<std::int64_t>(report.attempted));
  result.set("failed", static_cast<std::int64_t>(report.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
