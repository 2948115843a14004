#include "harness.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Histogram -------------------------------------------------------------

int Histogram::bucket_of(std::uint64_t ns) {
  if (ns < static_cast<std::uint64_t>(kSub)) return static_cast<int>(ns);
  const int msb = 63 - __builtin_clzll(ns);
  if (msb > 40) return kBuckets - 1;
  const int sub = static_cast<int>((ns >> (msb - kSubBits)) & (kSub - 1));
  return (msb - kSubBits + 1) * kSub + sub;
}

double Histogram::bucket_mid(int bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const int msb = bucket / kSub - 1 + kSubBits;
  const int sub = bucket % kSub;
  const double width = static_cast<double>(1ull << (msb - kSubBits));
  const double low = static_cast<double>(kSub + sub) * width;
  return low + width / 2.0;
}

void Histogram::record_ns(std::uint64_t ns) {
  counts_[static_cast<std::size_t>(bucket_of(ns))]++;
  count_++;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) > rank) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::lround(q * static_cast<double>(values.size() - 1)));
  return values[std::min(rank, values.size() - 1)];
}

double sum_of_upper_quartiles(const std::vector<std::vector<double>>& per_op) {
  double total = 0.0;
  for (const std::vector<double>& samples : per_op) {
    total += quantile(samples, 0.75);
  }
  return total;
}

// --- Tracer ----------------------------------------------------------------

namespace {

thread_local Tracer::Span* tl_current_span = nullptr;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, double weight)
    : tracer_(tracer.enabled() ? &tracer : nullptr),
      name_(name),
      weight_(weight) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  parent_ = tl_current_span;
  tl_current_span = this;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const auto dur = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  tl_current_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  Event event;
  event.name = name_;
  event.id = id_;
  event.parent = parent_ != nullptr ? parent_->id_ : 0;
  event.tid = thread_index();
  event.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start_ - tracer_->origin_)
                       .count();
  event.dur_ns = dur;
  event.self_ns = dur > child_ns_ ? dur - child_ns_ : 0;
  event.weight = weight_;
  tracer_->add(event);
}

void Tracer::add(const Event& event) {
  std::lock_guard lock(mu_);
  events_.push_back(event);
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const Event& e : events_) {
    out[e.name] += static_cast<double>(e.self_ns) * 1e-6 * e.weight;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"self_us\": %.3f, \"weight\": %g}}%s\n",
                  e.name, e.tid, static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent),
                  static_cast<double>(e.self_ns) / 1e3, e.weight,
                  i + 1 < events_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Report ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::e2e(const std::string& name, double value) { e2e_[name] = value; }

void Report::layer(const std::string& name, double value) {
  layer_[name] = value;
}

// --- Process probes --------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<int, double> thread_cpu_seconds() {
  std::map<int, double> out;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                       "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    out[std::atoi(entry->d_name)] = (utime + stime) / ticks;
  }
  closedir(dir);
  return out;
}

double cpu_delta(const std::map<int, double>& before,
                 const std::map<int, double>& after) {
  double total = 0.0;
  for (const auto& [tid, seconds] : after) {
    const auto it = before.find(tid);
    total += seconds - (it == before.end() ? 0.0 : it->second);
  }
  return total;
}

// --- Simulated counts --------------------------------------------------------

void SimCounts::add(const SimCounts& o) {
  events += o.events;
  sim_seconds += o.sim_seconds;
  cpu_tasks_executed += o.cpu_tasks_executed;
  cpu_tasks_dropped += o.cpu_tasks_dropped;
  frames_transmitted += o.frames_transmitted;
  pair_attempts += o.pair_attempts;
  pair_delivered += o.pair_delivered;
  collisions += o.collisions;
  bits_sent += o.bits_sent;
  routed_originated += o.routed_originated;
  routed_forwarded += o.routed_forwarded;
  routed_retries += o.routed_retries;
  routed_dropped += o.routed_dropped;
  heartbeats_sent += o.heartbeats_sent;
  reports_sent += o.reports_sent;
  labels_created += o.labels_created;
  takeovers += o.takeovers;
  transport_invocations += o.transport_invocations;
  transport_delivered += o.transport_delivered;
  transport_retransmits += o.transport_retransmits;
  handovers_ok += o.handovers_ok;
  handovers_failed += o.handovers_failed;
  distinct_labels += o.distinct_labels;
}

std::string SimCounts::render() const {
  std::ostringstream out;
  out << "events " << events << "\n"
      << "cpu_tasks_executed " << cpu_tasks_executed << "\n"
      << "cpu_tasks_dropped " << cpu_tasks_dropped << "\n"
      << "frames_transmitted " << frames_transmitted << "\n"
      << "pair_attempts " << pair_attempts << "\n"
      << "pair_delivered " << pair_delivered << "\n"
      << "collisions " << collisions << "\n"
      << "bits_sent " << bits_sent << "\n"
      << "routed_originated " << routed_originated << "\n"
      << "routed_forwarded " << routed_forwarded << "\n"
      << "routed_retries " << routed_retries << "\n"
      << "routed_dropped " << routed_dropped << "\n"
      << "heartbeats_sent " << heartbeats_sent << "\n"
      << "reports_sent " << reports_sent << "\n"
      << "labels_created " << labels_created << "\n"
      << "takeovers " << takeovers << "\n"
      << "transport_invocations " << transport_invocations << "\n"
      << "transport_delivered " << transport_delivered << "\n"
      << "transport_retransmits " << transport_retransmits << "\n"
      << "handovers_ok " << handovers_ok << "\n"
      << "handovers_failed " << handovers_failed << "\n"
      << "distinct_labels " << distinct_labels << "\n";
  return out.str();
}

void SimCounts::report_layers(Report& report) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  report.layer("sim.events", d(events));
  report.layer("node.cpu_tasks_executed", d(cpu_tasks_executed));
  report.layer("node.cpu_tasks_dropped", d(cpu_tasks_dropped));
  report.layer("radio.frames_transmitted", d(frames_transmitted));
  report.layer("radio.pair_attempts", d(pair_attempts));
  report.layer("radio.delivery_ratio",
               pair_attempts == 0 ? 0.0 : d(pair_delivered) / d(pair_attempts));
  report.layer("radio.collisions", d(collisions));
  report.layer("radio.bits_sent", d(bits_sent));
  report.layer("net.originated", d(routed_originated));
  report.layer("net.forwarded", d(routed_forwarded));
  report.layer("net.retries", d(routed_retries));
  report.layer("net.dropped", d(routed_dropped));
  report.layer("core.heartbeats_sent", d(heartbeats_sent));
  report.layer("core.reports_sent", d(reports_sent));
  report.layer("core.labels_created", d(labels_created));
  report.layer("core.takeovers", d(takeovers));
  report.layer("core.transport_retransmits", d(transport_retransmits));
  report.layer("core.transport_delivery_ratio",
               transport_invocations == 0
                   ? 0.0
                   : d(transport_delivered) / d(transport_invocations));
}

SimCounts count_world(et::scenario::TankScenario& scenario,
                      const et::scenario::TankRunResult& result,
                      std::uint64_t events) {
  SimCounts c;
  c.events = events;
  c.sim_seconds = result.elapsed.to_seconds();
  c.cpu_tasks_executed = result.cpu.executed;
  c.cpu_tasks_dropped = result.cpu.dropped;
  const et::radio::TypeStats medium = result.medium.totals();
  c.frames_transmitted = medium.transmitted;
  c.pair_attempts = medium.pair_attempts;
  c.pair_delivered = medium.pair_delivered;
  c.collisions = medium.pair_lost_collision;
  c.bits_sent = result.medium.bits_sent;
  c.heartbeats_sent = result.groups.heartbeats_sent;
  c.reports_sent = result.groups.reports_sent;
  c.labels_created = result.groups.labels_created;
  c.takeovers = result.groups.takeovers;
  c.handovers_ok = result.tracking.successful_handovers;
  c.handovers_failed = result.tracking.failed_handovers;
  c.distinct_labels = result.tracking.distinct_labels;
  et::core::EnviroTrackSystem& system = scenario.system();
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    et::core::MiddlewareStack& stack = system.stack(et::NodeId{i});
    const et::net::RoutingStats& routing = stack.routing().stats();
    c.routed_originated += routing.originated;
    c.routed_forwarded += routing.forwarded;
    c.routed_retries += routing.retries;
    c.routed_dropped += routing.dropped_dead_end + routing.dropped_ttl;
    if (const et::core::Transport* transport = stack.transport()) {
      const et::core::TransportStats& ts = transport->stats();
      c.transport_invocations += ts.invocations_sent;
      c.transport_delivered += ts.delivered;
      c.transport_retransmits += ts.retransmits;
    }
  }
  return c;
}

void Digest::add(const std::string& text) {
  for (const unsigned char ch : text) {
    hash_ ^= ch;
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

TimedWorld run_timed_world(const et::scenario::TankScenarioParams& params,
                           Tracer& tracer) {
  TimedWorld world;
  std::unique_ptr<et::scenario::TankScenario> scenario;
  Clock::time_point t0 = Clock::now();
  {
    Tracer::Span span(tracer, "scenario.build");
    scenario = std::make_unique<et::scenario::TankScenario>(params);
  }
  Clock::time_point t1 = Clock::now();
  world.build_s = seconds_between(t0, t1);
  std::uint64_t events = 0;
  {
    Tracer::Span span(tracer, "scenario.run");
    events = scenario->system().run_until(scenario->target_arrival() +
                                          params.cooldown);
  }
  t0 = Clock::now();
  world.run_s = seconds_between(t1, t0);
  {
    Tracer::Span span(tracer, "scenario.collect");
    world.result = scenario->result();
  }
  t1 = Clock::now();
  world.result_s = seconds_between(t0, t1);
  world.counts = count_world(*scenario, world.result, events);
  t0 = Clock::now();
  {
    Tracer::Span span(tracer, "scenario.teardown");
    scenario.reset();
  }
  world.teardown_s = seconds_since(t0);
  return world;
}

}  // namespace perfbench
