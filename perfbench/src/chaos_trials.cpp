#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "fault/fault_injector.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/trial.hpp"
#include "metrics/invariants.hpp"
#include "serve/ingest.hpp"
#include "serve/track_store.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

/// chaos_trials: 300 generated chaos artifacts from a fixed pool, each judged by
/// fuzz::run_trial with its default two-thread serial-vs-parallel
/// differential. Fault injection, reliable transport, geo-routing ARQ and
/// the parallel kernel on tiny barrier-bound worlds are exercised here and
/// hardly anywhere else.
namespace perfbench {

namespace {

using namespace et;

/// Trials per round: enough that the round's mix of grid sizes, fault
/// plans and stressors is stable from seed to seed.
constexpr std::size_t kTrials = 300;
/// Artifacts come from generator seeds 1..kPoolSize, the first trials of a
/// default chaos_fuzz campaign, all of which pass run_trial; `--seed`
/// picks which kTrials of them a run judges. Generator seeds outside the
/// pool can hit a rare protocol fault (see CHANGES.md), which would make
/// correctness depend on the seed.
constexpr std::uint64_t kPoolSize = 3000;

/// kTrials distinct pool seeds, drawn by `seed`, in ascending order.
std::vector<std::uint64_t> pick_artifact_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> pool(kPoolSize);
  for (std::uint64_t i = 0; i < kPoolSize; ++i) pool[i] = i + 1;
  Rng rng(mix_seed(seed, 7));
  for (std::size_t i = 0; i < kTrials; ++i) {
    std::swap(pool[i], pool[i + rng.next_below(kPoolSize - i)]);
  }
  pool.resize(kTrials);
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Simulated span a trial must cover: the target enters 1.5 hops left of
/// the field and leaves 1.5 hops right of it (sensing radius 1), then the
/// cooldown runs.
double full_span_s(const fuzz::FuzzScenario& s) {
  return (static_cast<double>(s.cols) + 2.0) / s.speed_hops_per_s +
         s.cooldown.to_seconds();
}

struct Replay {
  double run_s = 0.0;
  double thread_cpu_s = 0.0;
  SimCounts counts;
  sim::ParallelKernelStats kernel_stats;
};

/// Re-runs one artifact the way run_trial wires it (invariant oracle,
/// serving tier, fault plan, leader harassment) on `kernel`, and reads
/// every layer's counters afterwards. Only the traced run does this.
Replay count_replay(const fuzz::ReproArtifact& artifact,
                    const char* kernel_selector, Report& report) {
  Replay replay;
  sim::KernelConfig kernel;
  std::string error;
  if (!et::bench::parse_kernel_selector(kernel_selector, &kernel, &error)) {
    report.check(false, error);
    return replay;
  }
  scenario::TankScenario scenario(
      artifact.scenario.to_params(artifact.seed, kernel));
  metrics::InvariantOracle oracle(scenario.system());
  serve::ShardedTrackStore store;
  serve::IngestConfig ingest_config;
  ingest_config.record_tape = true;
  serve::TrackIngest ingest(scenario.system(), NodeId{0}, store,
                            ingest_config);
  fault::FaultInjector injector(scenario.system());
  report.check(injector.schedule(artifact.plan).ok(),
               "chaos_trials: replay could not schedule the fault plan");
  if (artifact.scenario.harass) {
    report.check(injector
                     .harass_leaders(scenario.tracker_type(),
                                     artifact.scenario.harass_period,
                                     artifact.scenario.harass_downtime)
                     .ok(),
                 "chaos_trials: replay could not arm leader harassment");
  }
  const auto cpu_before = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t events = scenario.system().run_until(
      scenario.target_arrival() + artifact.scenario.cooldown);
  replay.run_s = seconds_since(t0);
  replay.thread_cpu_s = cpu_delta(cpu_before, thread_cpu_seconds());
  ingest.flush();
  if (sim::ParallelKernel* k = scenario.system().kernel()) {
    replay.kernel_stats = k->stats();
  }
  replay.counts = count_world(scenario, scenario.result(), events);
  return replay;
}

void add_kernel_stats(sim::ParallelKernelStats& sum,
                      const sim::ParallelKernelStats& s) {
  sum.windows += s.windows;
  sum.window_width_total += s.window_width_total;
  sum.barrier_wait_ns += s.barrier_wait_ns;
  sum.tile_phase_ns += s.tile_phase_ns;
  sum.serial_phase_ns += s.serial_phase_ns;
  sum.fanout_receivers += s.fanout_receivers;
}

}  // namespace

void run_chaos_trials(const Options& options, Tracer& tracer,
                      Report& report) {
  const std::vector<std::uint64_t> seeds = pick_artifact_seeds(options.seed);
  std::vector<fuzz::ReproArtifact> artifacts;
  std::vector<double> setups;
  std::vector<double> generate_ms;
  std::vector<std::vector<double>> trial_s(kTrials);
  std::vector<double> all_trial_ms;
  std::string first_digest;
  double sim_seconds = 0.0;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    Tracer::Span round_span(tracer, "bench.round");
    // Each round's set-up: generate its artifacts and check each survives
    // its JSON round trip (the repro contract).
    std::vector<fuzz::ReproArtifact> generated;
    const Clock::time_point t0 = Clock::now();
    for (const std::uint64_t seed : seeds) {
      Tracer::Span span(tracer, "fuzz.generate_artifact");
      generated.push_back(fuzz::generate_artifact(seed));
    }
    generate_ms.push_back(seconds_since(t0) * 1e3);
    for (std::size_t i = 0; i < generated.size(); ++i) {
      const std::string json = generated[i].to_json_string();
      const std::string name =
          "chaos_trials: artifact " + std::to_string(generated[i].seed);
      const auto back = fuzz::ReproArtifact::from_json_string(json);
      report.check(back.ok() && back.value().to_json_string() == json,
                   name + " does not survive its JSON round trip");
      report.check(rounds == 0 || json == artifacts[i].to_json_string(),
                   name + " is not a pure function of its seed");
    }
    setups.push_back(seconds_since(t0));
    if (rounds == 0) artifacts = std::move(generated);
    Digest digests;
    for (std::size_t i = 0; i < kTrials; ++i) {
      const fuzz::ReproArtifact& artifact = artifacts[i];
      const Clock::time_point trial_start = Clock::now();
      fuzz::TrialResult trial;
      {
        Tracer::Span span(tracer, "fuzz.run_trial");
        trial = fuzz::run_trial(artifact);
      }
      const double dt = seconds_since(trial_start);
      trial_s[i].push_back(dt);
      all_trial_ms.push_back(dt * 1e3);
      digests.add(trial.digest);
      if (rounds == 0) {
        report.check(trial.verdict.ok(),
                     "chaos_trials: artifact seed " +
                         std::to_string(artifact.seed) + ": " +
                         trial.verdict.summary());
        const double want = full_span_s(artifact.scenario);
        report.check(std::abs(trial.sim_seconds - want) < 1e-3,
                     "chaos_trials: artifact seed " +
                         std::to_string(artifact.seed) + " simulated " +
                         std::to_string(trial.sim_seconds) + " s of " +
                         std::to_string(want) + " s");
        sim_seconds += trial.sim_seconds;
      }
    }
    const std::string digest = digests.hex();
    if (rounds == 0) {
      first_digest = digest;
    } else {
      report.check(digest == first_digest,
                   "chaos_trials: round " + std::to_string(rounds) +
                       " produced different trial digests than round 0");
    }
    ++rounds;
    report.attempted += kTrials;
  } while (seconds_since(start) < options.seconds);

  double round_s = 0.0;
  for (const auto& samples : trial_s) round_s += median(samples);
  const double ops_per_s = static_cast<double>(kTrials) / round_s;
  report.e2e("setup_s", median(setups));
  report.e2e("ops_per_s", ops_per_s);
  report.e2e("peak_rss_mb", peak_rss_mb());

  report.layer("fuzz.generate_ms", median(generate_ms));
  report.layer("fuzz.trial_ms_p50", median(all_trial_ms));
  report.layer("fuzz.trials_per_s", ops_per_s);

  report.detail.set("digest", first_digest);
  report.detail.set("rounds", rounds);
  report.detail.set("trials_per_round", static_cast<std::int64_t>(kTrials));
  report.detail.set("artifact_seeds",
                    std::to_string(seeds.front()) + ", " +
                        std::to_string(seeds[1]) + ", ... " +
                        std::to_string(seeds.back()) + " (of 1.." +
                        std::to_string(kPoolSize) + ")");
  report.detail.set("kernels", "run_trial default: serial, parallel:2");
  report.detail.set("trial_samples",
                    static_cast<std::int64_t>(all_trial_ms.size()));
  report.detail.set("sim_seconds_per_round", sim_seconds);

  if (!tracer.enabled()) return;

  // Traced run only: a serial-only run_trial per artifact, then counting
  // replays on both kernels for the per-layer counters run_trial keeps to
  // itself.
  std::vector<double> serial_ms;
  fuzz::TrialOptions serial_only;
  serial_only.differential = false;
  for (const fuzz::ReproArtifact& artifact : artifacts) {
    const Clock::time_point t0 = Clock::now();
    Tracer::Span span(tracer, "fuzz.run_trial_serial");
    const fuzz::TrialResult trial = fuzz::run_trial(artifact, serial_only);
    serial_ms.push_back(seconds_since(t0) * 1e3);
    report.check(trial.verdict.ok(), "chaos_trials: serial-only trial of " +
                                         std::to_string(artifact.seed) +
                                         " failed");
  }
  report.layer("fuzz.trial_serial_ms_p50", median(serial_ms));

  SimCounts counts;
  sim::ParallelKernelStats kernel_stats;
  double serial_run_s = 0.0;
  double parallel_run_s = 0.0;
  double thread_cpu_s = 0.0;
  for (const fuzz::ReproArtifact& artifact : artifacts) {
    Tracer::Span span(tracer, "fuzz.count_replay");
    const Replay serial = count_replay(artifact, "serial", report);
    const Replay parallel = count_replay(artifact, "parallel:2", report);
    report.check(serial.counts.render() == parallel.counts.render(),
                 "chaos_trials: replay counts differ between kernels for " +
                     std::to_string(artifact.seed));
    counts.add(serial.counts);
    add_kernel_stats(kernel_stats, parallel.kernel_stats);
    serial_run_s += serial.run_s;
    parallel_run_s += parallel.run_s;
    thread_cpu_s += parallel.thread_cpu_s;
  }
  counts.report_layers(report);
  report.layer("sim.sim_seconds_per_second", counts.sim_seconds / serial_run_s);
  report.layer("sim.host_ns_per_event",
               serial_run_s * 1e9 / static_cast<double>(counts.events));
  report.layer("sim.parallel.sim_seconds_per_second",
               counts.sim_seconds / parallel_run_s);
  report.layer("sim.parallel.windows",
               static_cast<double>(kernel_stats.windows));
  report.layer("sim.parallel.mean_window_us",
               kernel_stats.mean_window_width_us());
  report.layer("sim.parallel.tile_phase_ms",
               static_cast<double>(kernel_stats.tile_phase_ns) * 1e-6);
  report.layer("sim.parallel.serial_phase_ms",
               static_cast<double>(kernel_stats.serial_phase_ns) * 1e-6);
  report.layer("sim.parallel.barrier_wait_ms",
               static_cast<double>(kernel_stats.barrier_wait_ns) * 1e-6);
  report.layer("sim.parallel.serial_fraction", kernel_stats.serial_fraction());
  report.layer("sim.parallel.fanout_receivers",
               static_cast<double>(kernel_stats.fanout_receivers));
  report.layer("sim.parallel.speedup", serial_run_s / parallel_run_s);
  report.layer("sim.parallel.thread_cpu_s", thread_cpu_s);
}

}  // namespace perfbench
