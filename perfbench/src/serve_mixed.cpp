#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/ingest.hpp"
#include "serve/track_store.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

/// serve_mixed: the track store under a read/write mix, with no simulation
/// in the timed phase. One tank tape is recorded and replicated to 64
/// labels; one closed-loop writer replays it through apply_batch in whole
/// passes while three closed-loop readers run 60 % latest, 30 % region and
/// 10 % history queries (four busy threads for four cores). Every answer
/// is checked against the benchmark's own single-threaded model of the
/// feed, and the quiescent store is then checked against it exactly.
namespace perfbench {

namespace {

using namespace et;
using metrics::DecodedTrack;
using serve::TrackSnapshot;

constexpr int kLabels = 64;
constexpr int kReaders = 3;
/// = IngestConfig::max_batch, the batch size the ingest path flushes.
constexpr std::size_t kBatch = 32;
constexpr std::size_t kShards = 64;
constexpr std::size_t kRing = 512;
constexpr double kHistoryWindowS = 2.0;
/// Throughput is sampled in windows of this length; the run reports the
/// kWindowQuantile window rate. With four busy threads on four vCPUs, a
/// host that stalls one vCPU for a while halves the rate for tens of
/// seconds; short windows between the stalls still run at full rate, and
/// the high quantile reads them (see README.md, "Host noise and the choice
/// of estimators"). A 36 s run has about 1,800 windows, 180 above it.
constexpr double kWindowS = 0.02;
constexpr double kWindowQuantile = 0.9;
/// Traced runs record one span per this many store calls.
constexpr std::uint64_t kQuerySpanEvery = 1024;
constexpr std::uint64_t kBatchSpanEvery = 64;
/// setup_s is the median of this many repetitions, so one preempted
/// repetition does not move it.
constexpr int kSetupReps = 7;

/// Phase 1 of set-up: one tank traverse with the serving tier attached;
/// the ingest tape (decoded, epoch-fenced reports in ingest order) is the
/// replay input.
std::vector<DecodedTrack> record_tape(std::uint64_t seed, Tracer& tracer,
                                      TimedWorld* world) {
  Tracer::Span span(tracer, "serve.record_tape");
  scenario::TankScenarioParams params;
  // A 5 x 24 field crossed slowly with fast reports: a few hundred
  // delivered reports, relayed to the corner base station over several
  // hops.
  params.rows = 5;
  params.cols = 24;
  params.speed_hops_per_s = 0.5;
  params.report_period = Duration::millis(250);
  params.seed = seed;
  Clock::time_point t0 = Clock::now();
  scenario::TankScenario scenario(params);
  world->build_s = seconds_since(t0);
  serve::ShardedTrackStore store;
  serve::IngestConfig ingest_config;
  ingest_config.record_tape = true;
  serve::TrackIngest ingest(scenario.system(), NodeId{0}, store,
                            ingest_config);
  t0 = Clock::now();
  const std::uint64_t events = scenario.system().run_until(
      scenario.target_arrival() + params.cooldown);
  world->run_s = seconds_since(t0);
  ingest.flush();
  t0 = Clock::now();
  world->result = scenario.result();
  world->result_s = seconds_since(t0);
  world->counts = count_world(scenario, world->result, events);
  return ingest.tape();
}

/// Phase 2: the tape replicated to kLabels spatially offset copies,
/// interleaved per report. Copy k of label L gets id L * kLabels + k, so
/// copies never collide with each other or with other labels.
std::vector<DecodedTrack> synthesize(const std::vector<DecodedTrack>& tape) {
  std::vector<DecodedTrack> feed;
  feed.reserve(tape.size() * kLabels);
  for (const DecodedTrack& report : tape) {
    for (int k = 0; k < kLabels; ++k) {
      DecodedTrack copy = report;
      copy.label = LabelId{report.label.value() * kLabels +
                           static_cast<std::uint64_t>(k)};
      copy.position.x += static_cast<double>(k / 8) * 2.0;
      copy.position.y += static_cast<double>(k % 8) * 2.0;
      feed.push_back(copy);
    }
  }
  return feed;
}

/// The benchmark's own replay of the feed: per label, its reports in
/// apply order. The k-th update of a label (seq k) is report
/// (k - 1) mod n of that label, however many passes the writer made.
struct Model {
  std::vector<LabelId> labels;  // sorted
  std::unordered_map<LabelId, std::vector<DecodedTrack>> reports;
  Rect bounds{{1e18, 1e18}, {-1e18, -1e18}};

  explicit Model(const std::vector<DecodedTrack>& feed) {
    for (const DecodedTrack& r : feed) {
      auto& list = reports[r.label];
      if (list.empty()) labels.push_back(r.label);
      list.push_back(r);
      bounds.min.x = std::min(bounds.min.x, r.position.x);
      bounds.min.y = std::min(bounds.min.y, r.position.y);
      bounds.max.x = std::max(bounds.max.x, r.position.x);
      bounds.max.y = std::max(bounds.max.y, r.position.y);
    }
    std::sort(labels.begin(), labels.end());
  }

  /// True when `s` is exactly the seq-th update of its label.
  bool matches(const TrackSnapshot& s) const {
    const auto it = reports.find(s.label);
    if (it == reports.end() || s.seq == 0) return false;
    const DecodedTrack& r = it->second[(s.seq - 1) % it->second.size()];
    return s.position.x == r.position.x && s.position.y == r.position.y &&
           s.time == r.time && s.epoch == r.epoch;
  }

  /// Latest snapshot of `label` after `passes` whole passes.
  TrackSnapshot latest(LabelId label, std::uint64_t passes) const {
    const auto& list = reports.at(label);
    const DecodedTrack& r = list.back();
    return TrackSnapshot{label, r.position, r.time, r.epoch,
                         passes * list.size()};
  }

  /// history(label, window) after `passes` whole passes: the last
  /// min(ring, updates) updates, filtered to the window before the newest.
  std::vector<TrackSnapshot> history(LabelId label, std::uint64_t passes,
                                     Duration window) const {
    const auto& list = reports.at(label);
    const std::uint64_t updates = passes * list.size();
    const std::uint64_t kept = std::min<std::uint64_t>(updates, kRing);
    const Time cutoff = list.back().time - window;
    std::vector<TrackSnapshot> out;
    for (std::uint64_t seq = updates - kept + 1; seq <= updates; ++seq) {
      const DecodedTrack& r = list[(seq - 1) % list.size()];
      if (r.time >= cutoff) {
        out.push_back(TrackSnapshot{label, r.position, r.time, r.epoch, seq});
      }
    }
    return out;
  }
};

bool same(const TrackSnapshot& a, const TrackSnapshot& b) {
  return a.label == b.label && a.position.x == b.position.x &&
         a.position.y == b.position.y && a.time == b.time &&
         a.epoch == b.epoch && a.seq == b.seq;
}

/// One reader's counters, on its own cache line.
struct alignas(64) ReaderState {
  std::atomic<std::uint64_t> queries{0};
  Histogram all;
  Histogram latest;
  Histogram region;
  Histogram history;
  std::uint64_t region_queries = 0;
  std::uint64_t region_labels = 0;
  std::uint64_t bad = 0;
  std::string first_bad;
};

std::uint64_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

void reader_loop(const serve::ShardedTrackStore& store, const Model& model,
                 std::uint64_t seed, const std::atomic<bool>& stop,
                 const std::atomic<std::uint64_t>& passes_done,
                 Tracer& tracer, ReaderState& state) {
  Rng rng(seed);
  const auto fail = [&](const std::string& what) {
    if (state.bad++ == 0) state.first_bad = what;
  };
  std::uint64_t n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t roll = rng.next_below(100);
    const LabelId label = model.labels[rng.next_below(model.labels.size())];
    // Read before the query: a label is guaranteed present once the writer
    // has finished a whole pass.
    const bool must_exist = passes_done.load(std::memory_order_acquire) > 0;
    std::optional<Tracer::Span> span;
    if (tracer.enabled() && n % kQuerySpanEvery == 0) {
      span.emplace(tracer, "serve.query",
                   static_cast<double>(kQuerySpanEvery));
    }
    const Clock::time_point t0 = Clock::now();
    if (roll < 60) {
      const std::optional<TrackSnapshot> snap = store.latest(label);
      const Clock::time_point t1 = Clock::now();
      state.latest.record_ns(elapsed_ns(t0, t1));
      state.all.record_ns(elapsed_ns(t0, t1));
      if (snap.has_value()) {
        if (snap->label != label || !model.matches(*snap)) {
          fail("latest(" + std::to_string(label.value()) + ") seq " +
               std::to_string(snap->seq) + " is not that update of the feed");
        }
      } else if (must_exist) {
        fail("latest(" + std::to_string(label.value()) +
             ") lost a label after a whole pass");
      }
    } else if (roll < 90) {
      const double x = model.bounds.min.x +
                       rng.next_double() * model.bounds.width();
      const double y = model.bounds.min.y +
                       rng.next_double() * model.bounds.height();
      const Rect rect{{x - 2.0, y - 2.0}, {x + 2.0, y + 2.0}};
      const std::vector<TrackSnapshot> answer = store.tracks_in_region(rect);
      const Clock::time_point t1 = Clock::now();
      state.region.record_ns(elapsed_ns(t0, t1));
      state.all.record_ns(elapsed_ns(t0, t1));
      state.region_queries++;
      state.region_labels += answer.size();
      for (std::size_t i = 0; i < answer.size(); ++i) {
        const TrackSnapshot& s = answer[i];
        if (i > 0 && !(answer[i - 1].label < s.label)) {
          fail("region answer not strictly label-sorted");
        }
        if (!rect.contains(s.position)) fail("region answer outside rect");
        if (!model.matches(s)) fail("region answer is not a feed update");
      }
    } else {
      const std::vector<TrackSnapshot> points =
          store.history(label, Duration::seconds(kHistoryWindowS));
      const Clock::time_point t1 = Clock::now();
      state.history.record_ns(elapsed_ns(t0, t1));
      state.all.record_ns(elapsed_ns(t0, t1));
      if (points.size() > kRing) fail("history longer than the ring");
      for (std::size_t i = 0; i < points.size(); ++i) {
        const TrackSnapshot& p = points[i];
        if (p.label != label || !model.matches(p)) {
          fail("history point is not a feed update of its label");
        }
        if (i > 0 && p.seq <= points[i - 1].seq) {
          fail("history not in update order");
        }
      }
    }
    span.reset();
    state.queries.store(++n, std::memory_order_relaxed);
  }
}

/// Replays whole passes of `feed` until `stop`; returns passes made.
std::uint64_t writer_loop(serve::ShardedTrackStore& store,
                          const std::vector<DecodedTrack>& feed,
                          const std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>& reports,
                          std::atomic<std::uint64_t>& passes_done,
                          Tracer& tracer, Histogram& apply) {
  std::vector<DecodedTrack> batch;
  batch.reserve(kBatch);
  std::uint64_t passes = 0;
  std::uint64_t batches = 0;
  do {
    for (std::size_t i = 0; i < feed.size();) {
      batch.clear();
      for (; i < feed.size() && batch.size() < kBatch; ++i) {
        batch.push_back(feed[i]);
      }
      std::optional<Tracer::Span> span;
      if (tracer.enabled() && batches % kBatchSpanEvery == 0) {
        span.emplace(tracer, "serve.apply_batch",
                     static_cast<double>(kBatchSpanEvery));
      }
      const Clock::time_point t0 = Clock::now();
      store.apply_batch(batch);
      apply.record_ns(elapsed_ns(t0, Clock::now()));
      span.reset();
      ++batches;
      reports.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    passes_done.store(++passes, std::memory_order_release);
  } while (!stop.load(std::memory_order_relaxed));
  return passes;
}

serve::StoreConfig store_config() {
  serve::StoreConfig config;
  config.shard_count = kShards;
  config.ring_capacity = kRing;
  return config;
}

/// Exact comparison of the quiescent store with the model.
void check_quiescent(const serve::ShardedTrackStore& store, const Model& model,
                     std::uint64_t passes, std::size_t feed_size,
                     std::uint64_t seed, Report& report) {
  std::size_t wrong_latest = 0;
  std::size_t wrong_history = 0;
  for (const LabelId label : model.labels) {
    const auto snap = store.latest(label);
    if (!snap || !same(*snap, model.latest(label, passes))) ++wrong_latest;
    const auto got = store.history(label, Duration::seconds(kHistoryWindowS));
    const auto want =
        model.history(label, passes, Duration::seconds(kHistoryWindowS));
    if (got.size() != want.size() ||
        !std::equal(got.begin(), got.end(), want.begin(), same)) {
      ++wrong_history;
    }
  }
  report.check(wrong_latest == 0,
               "serve_mixed: " + std::to_string(wrong_latest) +
                   " labels' latest() differ from the model after " +
                   std::to_string(passes) + " passes");
  report.check(wrong_history == 0,
               "serve_mixed: " + std::to_string(wrong_history) +
                   " labels' history() differ from the model");

  // Region answers against a brute-force filter of the model's latest
  // positions, on fixed rectangles plus the everything-rect.
  Rng rng(seed);
  std::size_t wrong_region = 0;
  for (int q = 0; q <= 200; ++q) {
    Rect rect{{-1e18, -1e18}, {1e18, 1e18}};
    if (q > 0) {
      const double x = model.bounds.min.x +
                       rng.next_double() * model.bounds.width();
      const double y = model.bounds.min.y +
                       rng.next_double() * model.bounds.height();
      const double half = 0.5 + rng.next_double() * 4.0;
      rect = Rect{{x - half, y - half}, {x + half, y + half}};
    }
    std::vector<TrackSnapshot> want;
    for (const LabelId label : model.labels) {
      const TrackSnapshot s = model.latest(label, passes);
      if (rect.contains(s.position)) want.push_back(s);
    }
    const auto got = store.tracks_in_region(rect);
    if (got.size() != want.size() ||
        !std::equal(got.begin(), got.end(), want.begin(), same)) {
      ++wrong_region;
    }
  }
  report.check(wrong_region == 0,
               "serve_mixed: " + std::to_string(wrong_region) +
                   " region answers differ from the brute-force filter");
  const serve::StoreStats stats = store.stats();
  report.check(stats.reports_applied == passes * feed_size &&
                   stats.labels == model.labels.size(),
               "serve_mixed: store stats disagree with the feed");
}

}  // namespace

void run_serve_mixed(const Options& options, Tracer& tracer, Report& report) {
  const std::uint64_t tape_seed = mix_seed(options.seed, 11) & 0xffffffffull;

  // Set-up: record the tape, synthesize the feed, build the model.
  TimedWorld tape_world;
  const std::vector<DecodedTrack> feed =
      synthesize(record_tape(tape_seed, tracer, &tape_world));
  report.check(!feed.empty(), "serve_mixed: the tank run delivered no "
                              "track report to the base station");
  if (feed.empty()) return;
  const Model model(feed);

  // Writer alone: apply_batch latency with no readers.
  Histogram solo;
  {
    serve::ShardedTrackStore store(store_config());
    std::atomic<bool> stop{true};
    std::atomic<std::uint64_t> reports{0};
    std::atomic<std::uint64_t> passes{0};
    Tracer off(false);
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < 0.25) {
      writer_loop(store, feed, stop, reports, passes, off, solo);
    }
  }

  // setup_s: the set-up again, kSetupReps times on a warm process; each
  // repetition must reproduce the same feed.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    TimedWorld world;
    const std::vector<DecodedTrack> again =
        synthesize(record_tape(tape_seed, tracer, &world));
    const Model rebuilt(again);
    setups.push_back(seconds_since(t0));
    report.check(again.size() == feed.size() &&
                     std::equal(again.begin(), again.end(), feed.begin(),
                                [](const DecodedTrack& a,
                                   const DecodedTrack& b) {
                                  return a.label == b.label &&
                                         a.time == b.time &&
                                         a.position.x == b.position.x &&
                                         a.position.y == b.position.y &&
                                         a.epoch == b.epoch;
                                }),
                 "serve_mixed: re-recording the tape changed the feed");
  }

  serve::ShardedTrackStore store(store_config());
  std::atomic<bool> stop_writer{false};
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> reports{0};
  std::atomic<std::uint64_t> passes_done{0};
  Histogram apply;
  std::uint64_t passes = 0;
  std::vector<ReaderState> readers(kReaders);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  threads.emplace_back([&] {
    passes = writer_loop(store, feed, stop_writer, reports, passes_done,
                         tracer, apply);
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      reader_loop(store, model, mix_seed(options.seed, 100 + r), stop_readers,
                  passes_done, tracer, readers[r]);
    });
  }

  // Sample throughput in fixed windows while the load runs.
  const auto total_ops = [&] {
    std::uint64_t ops = reports.load(std::memory_order_relaxed);
    for (const ReaderState& r : readers) {
      ops += r.queries.load(std::memory_order_relaxed);
    }
    return ops;
  };
  std::vector<double> window_ops;
  std::vector<double> window_queries;
  std::vector<double> window_reports;
  std::uint64_t last_ops = total_ops();
  std::uint64_t last_reports = reports.load(std::memory_order_relaxed);
  Clock::time_point last = Clock::now();
  while (seconds_since(start) < options.seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    const Clock::time_point now = Clock::now();
    const std::uint64_t ops = total_ops();
    const std::uint64_t applied = reports.load(std::memory_order_relaxed);
    const double dt = seconds_between(last, now);
    window_ops.push_back(static_cast<double>(ops - last_ops) / dt);
    window_reports.push_back(static_cast<double>(applied - last_reports) / dt);
    window_queries.push_back(window_ops.back() - window_reports.back());
    last_ops = ops;
    last_reports = applied;
    last = now;
  }
  stop_writer.store(true, std::memory_order_relaxed);
  threads[0].join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();

  Histogram all, latest, region, history;
  std::uint64_t queries = 0, region_queries = 0, region_labels = 0, bad = 0;
  for (const ReaderState& r : readers) {
    all.merge(r.all);
    latest.merge(r.latest);
    region.merge(r.region);
    history.merge(r.history);
    queries += r.queries.load();
    region_queries += r.region_queries;
    region_labels += r.region_labels;
    bad += r.bad;
    report.check(r.bad == 0, "serve_mixed: " + std::to_string(r.bad) +
                                 " wrong answers, first: " + r.first_bad);
  }
  check_quiescent(store, model, passes, feed.size(),
                  mix_seed(options.seed, 200), report);

  report.attempted = queries + passes * feed.size();
  report.e2e("setup_s", median(setups));
  report.e2e("ops_per_s", quantile(window_ops, kWindowQuantile));
  report.e2e("peak_rss_mb", peak_rss_mb());

  const auto us = [](const Histogram& h, double q) {
    return h.quantile_ns(q) / 1e3;
  };
  report.layer("serve.queries_per_s", median(window_queries));
  report.layer("serve.ingest_per_s", median(window_reports));
  report.layer("serve.query_p99_us", us(all, 0.99));
  report.layer("serve.query_samples", static_cast<double>(all.count()));
  report.layer("serve.apply_batch_us_p50", us(apply, 0.5));
  report.layer("serve.apply_batch_us_p99", us(apply, 0.99));
  report.layer("serve.apply_batch_samples", static_cast<double>(apply.count()));
  report.layer("serve.apply_batch_solo_us_p50", us(solo, 0.5));
  report.layer("serve.latest_us_p50", us(latest, 0.5));
  report.layer("serve.region_us_p50", us(region, 0.5));
  report.layer("serve.region_us_p99", us(region, 0.99));
  report.layer("serve.history_us_p50", us(history, 0.5));
  report.layer("serve.region_answer_labels",
               region_queries == 0 ? 0.0
                                   : static_cast<double>(region_labels) /
                                         static_cast<double>(region_queries));
  // The tape recording is this workload's only simulation.
  tape_world.counts.report_layers(report);
  report.layer("sim.sim_seconds_per_second",
               tape_world.counts.sim_seconds / tape_world.run_s);
  report.layer("sim.host_ns_per_event",
               tape_world.run_s * 1e9 /
                   static_cast<double>(tape_world.counts.events));
  report.layer("sim.world_build_s", tape_world.build_s);
  report.layer("metrics.result_s", tape_world.result_s);

  const auto pct = [&](const Histogram& h, double q) {
    et::util::Json j = et::util::Json::object();
    j.set("us", us(h, q));
    j.set("samples", static_cast<std::int64_t>(h.count()));
    return j;
  };
  report.detail.set("queries_per_s", median(window_queries));
  report.detail.set("ingest_per_s", median(window_reports));
  report.detail.set("query_p50", pct(all, 0.5));
  report.detail.set("query_p99", pct(all, 0.99));
  report.detail.set("query_p999", pct(all, 0.999));
  report.detail.set("apply_batch_p50", pct(apply, 0.5));
  report.detail.set("apply_batch_p99", pct(apply, 0.99));
  report.detail.set("apply_batch_solo_p50", pct(solo, 0.5));
  report.detail.set("passes", static_cast<std::int64_t>(passes));
  report.detail.set("feed_reports", static_cast<std::int64_t>(feed.size()));
  report.detail.set("labels", static_cast<std::int64_t>(model.labels.size()));
  report.detail.set("windows", static_cast<std::int64_t>(window_ops.size()));
  report.detail.set("readers", kReaders);
  report.detail.set("bad_answers", static_cast<std::int64_t>(bad));
  report.detail.set("tape_seed", static_cast<std::int64_t>(tape_seed));
}

}  // namespace perfbench
