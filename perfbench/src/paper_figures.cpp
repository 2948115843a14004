#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "workloads.hpp"

/// paper_figures: a fixed grid of complete tank runs at the paper's §6
/// settings, without the speed bisection of the figure benches — every
/// round simulates exactly the same runs, so host time per round measures
/// the simulator and nothing else. Small dense worlds: the mote CPU queue,
/// MAC contention and group management do most of the work.
namespace perfbench {

namespace {

using namespace et;
using namespace et::scenario;

enum class Figure { kFig4, kFig5, kFig6, kTable1 };

struct Point {
  Figure figure;
  TankScenarioParams params;
  double heartbeat_s = 0.0;   // Fig. 5
  bool cross_traffic = false; // Fig. 5
  double ratio = 0.0;         // Fig. 6 (CR:SR)
  bool propagate = false;     // Fig. 4
  double kmh = 0.0;           // Fig. 4, Table 1
};

/// Runs per grid cell. Fig. 4 and the trackability checks aggregate over
/// them, so a single unlucky seed cannot flip a figure's shape.
constexpr int kReplicas = 3;
/// Paper constants the checks recompute from (§6.1).
constexpr double kBitrateBps = 50'000.0;
constexpr double kFreshnessS = 1.0;
/// §6.2 trackability: one label throughout and the target tracked for at
/// least this share of the samples (as in bench/fig5_timers, fig6_ratio).
constexpr double kMinTrackedFraction = 0.3;
/// Fixed probe speeds (hops/s): one each for Fig. 5 and Fig. 6, inside
/// the range where the paper's figures separate the settings.
constexpr double kFig5Speed = 0.3;
constexpr double kFig6Speed = 1.0;

/// The 4 MHz testbed CPU of Fig. 5: the processor, not the channel,
/// saturates first at small heartbeat periods (bench/fig5_timers.cpp).
node::CpuConfig slow_mote_cpu() {
  node::CpuConfig cpu;
  cpu.rx_task_cost = Duration::millis(200);
  cpu.timer_task_cost = Duration::millis(100);
  cpu.queue_capacity = 12;
  return cpu;
}

std::vector<Point> build_grid(std::uint64_t seed) {
  std::vector<Point> grid;
  const auto next_seed = [&] {
    return mix_seed(seed, grid.size()) & 0xffffffffull;
  };

  // Fig. 5: heartbeat period sweep, worst-case takeover, SR 1, slow CPU,
  // with and without cross traffic.
  for (const double hb : {0.0625, 0.125, 0.25, 0.5, 1.0, 2.0}) {
    for (const bool cross : {false, true}) {
      for (int r = 0; r < kReplicas; ++r) {
        Point p{Figure::kFig5, {}};
        p.heartbeat_s = hb;
        p.cross_traffic = cross;
        TankScenarioParams& s = p.params;
        s.cols = 20;
        s.rows = 3;
        s.sensing_radius = 1.0;
        s.track_y = 0.5;
        s.comm_radius = 6.0;
        s.cpu = slow_mote_cpu();
        s.group.wait_radius = 4.5;
        s.group.relinquish_enabled = false;
        s.group.heartbeat_period = Duration::seconds(hb);
        s.base_station.reset();
        if (cross) {
          CrossTrafficConfig noise;
          noise.senders = 10;
          noise.period = Duration::millis(150);
          noise.payload_bytes = 30;
          s.cross_traffic = noise;
        }
        s.speed_hops_per_s = kFig5Speed;
        s.seed = next_seed();
        grid.push_back(std::move(p));
      }
    }
  }

  // Fig. 6: CR:SR sweep for SR 1 and 2, relinquish on, HB 0.5 s.
  for (const double sr : {1.0, 2.0}) {
    for (const double ratio : {0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0}) {
      for (int r = 0; r < kReplicas; ++r) {
        Point p{Figure::kFig6, {}};
        p.ratio = ratio;
        TankScenarioParams& s = p.params;
        s.cols = 20;
        s.rows = 2 * static_cast<std::size_t>(sr) + 1;
        s.sensing_radius = sr;
        s.track_y = sr - 0.5;
        s.comm_radius = ratio * sr;
        s.group.relinquish_enabled = true;
        s.group.heartbeat_period = Duration::seconds(0.5);
        s.group.wait_radius = 2.0 * sr + 2.5;
        s.group.member_relay_heartbeats = true;
        s.base_station.reset();
        s.speed_hops_per_s = kFig6Speed;
        s.seed = next_seed();
        grid.push_back(std::move(p));
      }
    }
  }

  // Fig. 4: heartbeats propagated one hop past the sensing radius or not,
  // at 33 and 50 km/h, takeover-only handover, HB 3 s.
  for (const bool propagate : {true, false}) {
    for (const double kmh : {kTankSlowKmh, kTankFastKmh}) {
      for (int r = 0; r < kReplicas; ++r) {
        Point p{Figure::kFig4, {}};
        p.propagate = propagate;
        p.kmh = kmh;
        TankScenarioParams& s = p.params;
        s.rows = 3;
        s.cols = 14;
        s.sensing_radius = 1.0;
        s.speed_hops_per_s = kmh_to_hops_per_s(kmh);
        s.group.relinquish_enabled = false;
        s.group.heartbeat_period = Duration::seconds(3);
        s.group.heartbeat_range = propagate ? 2.0 : 1.0;
        s.base_station.reset();
        s.seed = next_seed();
        grid.push_back(std::move(p));
      }
    }
  }

  // Table 1: the correct setting (propagation on), reports to the base
  // station at mote 0, three runs per speed as in the paper.
  for (const double kmh : {kTankSlowKmh, kTankFastKmh}) {
    for (int r = 0; r < kReplicas; ++r) {
      Point p{Figure::kTable1, {}};
      p.kmh = kmh;
      TankScenarioParams& s = p.params;
      s.rows = 3;
      s.cols = 14;
      s.sensing_radius = 1.0;
      s.speed_hops_per_s = kmh_to_hops_per_s(kmh);
      s.group.heartbeat_range = 2.0;
      s.seed = next_seed();
      grid.push_back(std::move(p));
    }
  }
  return grid;
}

/// Where the target is at `t` under the scenario's straight-line motion:
/// it enters SR + 0.5 left of the field and leaves SR + 0.5 right of it.
Vec2 analytic_position(const TankScenarioParams& s, double t) {
  const double margin = s.sensing_radius + 0.5;
  const double from = -margin;
  const double to = static_cast<double>(s.cols - 1) + margin;
  return {std::min(from + s.speed_hops_per_s * t, to), s.track_y};
}

struct Share {
  int yes = 0;
  int total = 0;
  void add(bool ok) {
    yes += ok ? 1 : 0;
    ++total;
  }
  double fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(yes) / total;
  }
};

/// The paper's shapes, checked on one round's results.
void check_shapes(const std::vector<Point>& grid,
                  const std::vector<TimedWorld>& worlds, Report& report) {
  Share fig5_fast_hb;
  Share fig5_mid_hb;
  double fig5_fast_dropped = 0.0;
  double fig5_mid_dropped = 0.0;
  Share fig6_collapse;
  Share fig6_wide;
  std::uint64_t fig4_ok[2] = {0, 0};  // [propagate]
  std::uint64_t fig4_fail[2] = {0, 0};
  double util_sum[2] = {0.0, 0.0};  // [fast]
  int util_runs[2] = {0, 0};
  std::size_t report_points = 0;
  double worst_excess = -1e9;

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const TankRunResult& r = worlds[i].result;
    const bool trackable = r.trackable(kMinTrackedFraction);
    switch (p.figure) {
      case Figure::kFig5:
        if (p.heartbeat_s == 0.0625) {
          fig5_fast_hb.add(trackable);
          fig5_fast_dropped += static_cast<double>(r.cpu.dropped);
        } else if (p.heartbeat_s == 0.25 || p.heartbeat_s == 0.5) {
          fig5_mid_hb.add(trackable);
          fig5_mid_dropped += static_cast<double>(r.cpu.dropped);
        }
        break;
      case Figure::kFig6:
        if (p.params.sensing_radius == 1.0) {
          if (p.ratio == 0.75) fig6_collapse.add(trackable);
          if (p.ratio >= 1.5) fig6_wide.add(trackable);
        }
        break;
      case Figure::kFig4:
        fig4_ok[p.propagate] += r.tracking.successful_handovers;
        fig4_fail[p.propagate] += r.tracking.failed_handovers;
        break;
      case Figure::kTable1: {
        const bool fast = p.kmh == kTankFastKmh;
        util_sum[fast] += static_cast<double>(r.medium.bits_sent) /
                          (kBitrateBps * r.elapsed.to_seconds());
        util_runs[fast]++;
        const double bound = p.params.sensing_radius +
                             p.params.speed_hops_per_s * kFreshnessS;
        report.check(!r.track.empty(),
                     "table1: a run delivered no report to the base station");
        for (const metrics::TrackPoint& point : r.track) {
          const Vec2 truth =
              analytic_position(p.params, point.time.to_seconds());
          const double dist = std::hypot(point.reported.x - truth.x,
                                         point.reported.y - truth.y);
          worst_excess = std::max(worst_excess, dist - bound);
          ++report_points;
        }
        break;
      }
    }
  }

  report.check(worst_excess <= 0.0,
               "table1: a base-station report lies " +
                   std::to_string(worst_excess) +
                   " hops beyond sensing radius + speed x freshness of the "
                   "analytic trajectory");
  report.check(fig5_fast_hb.fraction() <= 1.0 / 3.0 &&
                   fig5_mid_hb.fraction() >= 2.0 / 3.0,
               "fig5: HB 0.0625 s trackable in " +
                   std::to_string(fig5_fast_hb.yes) + "/" +
                   std::to_string(fig5_fast_hb.total) +
                   " runs, HB 0.25-0.5 s in " +
                   std::to_string(fig5_mid_hb.yes) + "/" +
                   std::to_string(fig5_mid_hb.total));
  const double fast_drop_rate = fig5_fast_dropped / fig5_fast_hb.total;
  const double mid_drop_rate = fig5_mid_dropped / fig5_mid_hb.total;
  report.check(fast_drop_rate > 2.0 * mid_drop_rate,
               "fig5: HB 0.0625 s drops " + std::to_string(fast_drop_rate) +
                   " CPU tasks per run, not clearly more than HB 0.25-0.5 s (" +
                   std::to_string(mid_drop_rate) + ")");
  report.check(fig6_collapse.fraction() <= 1.0 / 3.0 &&
                   fig6_wide.fraction() >= 2.0 / 3.0,
               "fig6: SR 1 at CR:SR 0.75 trackable in " +
                   std::to_string(fig6_collapse.yes) + "/" +
                   std::to_string(fig6_collapse.total) +
                   " runs, at CR:SR >= 1.5 in " +
                   std::to_string(fig6_wide.yes) + "/" +
                   std::to_string(fig6_wide.total));
  const auto success = [&](int propagate) {
    const std::uint64_t total = fig4_ok[propagate] + fig4_fail[propagate];
    return total == 0 ? 1.0
                      : static_cast<double>(fig4_ok[propagate]) /
                            static_cast<double>(total);
  };
  report.check(success(1) >= success(0),
               "fig4: propagating heartbeats hands over " +
                   std::to_string(success(1)) + " vs " +
                   std::to_string(success(0)) + " without");
  const double util_slow = util_sum[0] / util_runs[0];
  const double util_fast = util_sum[1] / util_runs[1];
  report.check(util_slow >= 0.005 && util_slow <= 0.10 &&
                   util_fast >= 0.005 && util_fast <= 0.10,
               "table1: link utilisation " + std::to_string(util_slow) +
                   " / " + std::to_string(util_fast) +
                   " is not a few percent");
  report.check(std::max(util_slow, util_fast) <=
                   1.5 * std::min(util_slow, util_fast),
               "table1: link utilisation is not flat in speed");

  report.detail.set("fig5_trackable_hb0.0625",
                    std::to_string(fig5_fast_hb.yes) + "/" +
                        std::to_string(fig5_fast_hb.total));
  report.detail.set("fig5_trackable_hb0.25-0.5",
                    std::to_string(fig5_mid_hb.yes) + "/" +
                        std::to_string(fig5_mid_hb.total));
  report.detail.set("fig6_trackable_sr1_ratio0.75",
                    std::to_string(fig6_collapse.yes) + "/" +
                        std::to_string(fig6_collapse.total));
  report.detail.set("fig4_success_propagate", success(1));
  report.detail.set("fig4_success_confined", success(0));
  report.detail.set("table1_link_util_pct_33kmh", 100.0 * util_slow);
  report.detail.set("table1_link_util_pct_50kmh", 100.0 * util_fast);
  report.detail.set("table1_report_points",
                    static_cast<std::int64_t>(report_points));
}

}  // namespace

void run_paper_figures(const Options& options, Tracer& tracer,
                       Report& report) {
  const std::vector<Point> grid = build_grid(options.seed);
  const std::size_t n = grid.size();

  std::vector<std::vector<double>> op_s(n);
  std::vector<double> round_build_s;
  std::vector<double> round_run_s;
  std::vector<double> round_result_s;
  std::vector<double> round_teardown_s;
  std::string first_digest;
  SimCounts round_counts;
  double round_sim_seconds = 0.0;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    Tracer::Span round_span(tracer, "bench.round");
    std::vector<TimedWorld> worlds;
    worlds.reserve(n);
    SimCounts counts;
    Digest digest_text;
    double build = 0.0, run = 0.0, result = 0.0, teardown = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      worlds.push_back(run_timed_world(grid[i].params, tracer));
      const TimedWorld& w = worlds.back();
      op_s[i].push_back(w.build_s + w.run_s + w.result_s + w.teardown_s);
      build += w.build_s;
      run += w.run_s;
      result += w.result_s;
      teardown += w.teardown_s;
      counts.add(w.counts);
      digest_text.add(w.counts.render());
    }
    round_build_s.push_back(build);
    round_run_s.push_back(run);
    round_result_s.push_back(result);
    round_teardown_s.push_back(teardown);
    const std::string digest = digest_text.hex();
    if (rounds == 0) {
      first_digest = digest;
      round_counts = counts;
      round_sim_seconds = counts.sim_seconds;
      check_shapes(grid, worlds, report);
    } else {
      report.check(digest == first_digest,
                   "paper_figures: round " + std::to_string(rounds) +
                       " simulated different counts than round 0");
    }
    ++rounds;
    report.attempted += n;
  } while (seconds_since(start) < options.seconds);

  const double round_s = sum_of_upper_quartiles(op_s);
  const double run_s = median(round_run_s);

  // Each tank run's set-up is its world build; setup_s is one round's
  // builds, as a median over rounds spread across the whole run.
  report.e2e("setup_s", median(round_build_s));
  report.e2e("ops_per_s", static_cast<double>(n) / round_s);
  report.e2e("peak_rss_mb", peak_rss_mb());

  round_counts.report_layers(report);
  report.layer("sim.sim_seconds_per_second", round_sim_seconds / run_s);
  report.layer("sim.host_ns_per_event",
               run_s * 1e9 / static_cast<double>(round_counts.events));
  report.layer("sim.world_build_s", median(round_build_s));
  report.layer("sim.teardown_s", median(round_teardown_s));
  report.layer("metrics.result_s", median(round_result_s));

  report.detail.set("digest", first_digest);
  report.detail.set("digest_counts", round_counts.render());
  report.detail.set("rounds", rounds);
  report.detail.set("runs_per_round", static_cast<std::int64_t>(n));
  report.detail.set("kernel", "default KernelConfig (legacy serial)");
  report.detail.set("sim_seconds_per_round", round_sim_seconds);
  report.detail.set("sim_seconds_per_second", round_sim_seconds / run_s);
}

}  // namespace perfbench
