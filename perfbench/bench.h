// End-to-end SCI benchmark — shared harness.
//
// Every workload drives the public `Sci` facade on the default durable
// deployment (reliable channel, one synchronous standby per shard, WAL with
// ack_after_fsync, views on) and reports through one Report. Nothing in here
// reaches into the middleware beyond its public headers: layers are measured
// from outside, by timing calls into them and by reading the deployment's
// obs::MetricsRegistry.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sci.h"
#include "entity/component.h"

namespace perfbench {

using namespace sci;

// --- allocation audit --------------------------------------------------------
// The binary replaces global operator new with a counting one (bench.cpp).
// Bench-side bookkeeping runs inside an AllocPause so only the middleware's
// (and the simulated users' own) allocations are counted.
std::uint64_t allocations();

class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

// --- clocks --------------------------------------------------------------------
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// --- exact samples -----------------------------------------------------------
// Percentiles come from every sample (obs::Histogram keeps no quantiles).
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values) : values_(std::move(values)) {}
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  // Nearest-rank quantile, p in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double mean() const;
  // Mean of the slowest `share` of the samples (e.g. 0.01: the top 1%).
  [[nodiscard]] double tail_mean(double share) const;
  // Samples strictly above the p-quantile (the tail a percentile rests on).
  [[nodiscard]] std::size_t beyond(double p) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// --- report ------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  // the contract metrics (last line)
  std::vector<std::string> detail;  // human-readable lines printed first

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // A detail line naming a workload-specific metric, its unit and, for a
  // percentile, how many samples it was computed from.
  void note(std::string_view name, double value, std::string_view unit,
            std::size_t samples = 0);
  // Adds a percentile detail line and fails the run when fewer than ten
  // samples lie beyond it.
  void note_percentile(std::string_view name, const Samples& s, double p,
                       std::string_view unit);
};

// Prints detail lines, errors (stderr) and the final one-line JSON object.
void print_report(const Report& report);

// --- tracing ------------------------------------------------------------------
// Who a delivered frame was addressed to.
enum class Role : std::uint8_t {
  kPrimary,     // a shard primary Context Server
  kStandby,     // a standby Context Server
  kSubscriber,  // a Context Aware Application
  kProducer,    // a Context Entity
  kOther,       // any other node (overlay plumbing)
  kTimer,       // the step delivered no frame
  kCount,
};

// Public calls the workloads make outside (or inside) simulator steps.
enum class Probe : std::uint8_t {
  kPublishCall,    // ContextEntity::publish
  kSubmitQuery,    // query::Builder + Sci::submit_query
  kEnroll,         // Sci::enroll (runs the handshake's steps inside)
  kCancel,         // QueryHandle::cancel / ContextServer::unsubscribe
  kSubscribePattern,  // ContextServer::subscribe_pattern
  kProfileUpdate,  // Component::set_metadata / set_location / set_paper
  kStop,           // Component::stop
  kCount,
};

// Span recorder for the traced run. Each simulator step becomes a span,
// attributed by the kMessageDeliver trace record the step appended (its
// destination GUID maps to a Role) or to kTimer when there is none. Probes
// wrap public calls; a probe inside a step is subtracted from that step's
// self time. Spans are aggregated in memory and read when the run ends.
class Tracer {
 public:
  explicit Tracer(Sci& sci);

  void set_role(Guid node, Role role) { roles_[node] = role; }

  // Executes one simulator event at or before `until`, as a span.
  bool step(SimTime until = SimTime::infinity());

  template <typename F>
  decltype(auto) probe(Probe which, F&& call) {
    const std::int64_t start = wall_ns();
    ++depth_;
    struct Close {
      Tracer* t;
      Probe which;
      std::int64_t start;
      ~Close() { t->close_probe(which, start); }
    } close{this, which, start};
    return call();
  }

  // Resolves pending attributions; call once the traced window ends.
  void finish();

  [[nodiscard]] double role_mean_us(Role role) const;
  [[nodiscard]] double probe_mean_us(Probe which) const;
  [[nodiscard]] std::uint64_t queue_depth_max() const {
    return queue_depth_max_;
  }
  // Wall time covered by top-level spans (steps and probes), ns.
  [[nodiscard]] std::int64_t attributed_ns() const { return attributed_ns_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  struct Pending {
    std::int64_t self_ns;
    std::uint64_t first_record;
    std::uint64_t end_record;
  };
  void close_probe(Probe which, std::int64_t start);
  void drain();
  void attribute(Role role, std::int64_t self_ns);

  Sci& sci_;
  obs::TraceBuffer& trace_;
  std::unordered_map<Guid, Role> roles_;
  std::vector<Pending> pending_;
  int depth_ = 0;
  std::int64_t nested_ns_ = 0;  // probe time inside the current step
  std::int64_t attributed_ns_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t queue_depth_max_ = 0;
  std::int64_t role_ns_[static_cast<std::size_t>(Role::kCount)] = {};
  std::uint64_t role_steps_[static_cast<std::size_t>(Role::kCount)] = {};
  std::int64_t probe_ns_[static_cast<std::size_t>(Probe::kCount)] = {};
  std::uint64_t probe_calls_[static_cast<std::size_t>(Probe::kCount)] = {};
};

// Runs `call` under a probe when tracing, plainly otherwise.
template <typename F>
decltype(auto) probed(Tracer* tracer, Probe which, F&& call) {
  if (tracer != nullptr) return tracer->probe(which, std::forward<F>(call));
  return call();
}

// Advances simulated time to `until`: Simulator::run_until when untraced,
// one timed step at a time when traced.
void run_until(Sci& sci, SimTime until, Tracer* tracer);

// Steps until `done()` holds or `deadline` passes. Returns done().
template <typename Done>
bool step_until(Sci& sci, Done&& done, SimTime deadline, Tracer* tracer) {
  while (!done()) {
    const bool stepped = tracer != nullptr ? tracer->step(deadline)
                                           : sci.simulator().step(deadline);
    if (!stepped) return done();
  }
  return true;
}

// --- deployment ----------------------------------------------------------------
// The one deployment every workload runs on.
RangeOptions durable_range_options();

// A sensor publishing one event type (profile output, so named
// subscription queries can bind to it).
class Sensor final : public entity::ContextEntity {
 public:
  Sensor(net::Network& network, Guid id, std::string name, std::string type)
      : ContextEntity(network, id, std::move(name),
                      entity::EntityKind::kDevice),
        type_(std::move(type)) {}

  [[nodiscard]] const std::string& type() const { return type_; }

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {entity::TypeSig{type_, "celsius", ""}};
  }

 private:
  std::string type_;
};

// The workload's event payload shape (also used by the serde probes).
Value reading_payload(double reading, std::int64_t counter);

// --- workloads ------------------------------------------------------------------
// Per-op latencies of one prefix, in op order. The DES is deterministic, so
// op k of one replay is op k of every replay with the same seed. An open-loop
// workload, whose ops overlap, leaves wall_us empty: its per-op wall figure is
// then each unit's wall time divided by the ops completed in that unit.
struct Latencies {
  std::vector<double> wall_us;
  std::vector<double> sim_ms;
};

// Counts a workload exposes so per-layer ratios share one base.
struct WorkCounts {
  std::uint64_t ops = 0;         // the workload's own unit of work
  std::uint64_t publishes = 0;   // ContextEntity::publish calls
  std::uint64_t deliveries = 0;  // unique subscriber deliveries
  std::uint64_t updates = 0;     // profile updates the workload made
  std::uint64_t queries = 0;     // queries submitted
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Destroys the current deployment, if any; not timed.
  virtual void teardown() = 0;
  // Builds a fresh deployment from `seed` (tearing down any previous one):
  // ranges, enrolment, subscriptions. Timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  // Brings the deployment to steady state; not measured.
  virtual void warmup() = 0;
  // One unit of the workload. Units up to prefix_units() form the fixed,
  // seed-determined prefix that sim-time and count metrics come from.
  virtual void unit(Tracer* tracer) = 0;
  [[nodiscard]] virtual std::uint64_t prefix_units() const = 0;
  // How many times the end-to-end run replays the prefix: a constant, so
  // every build is measured with the same median-over-replays statistic.
  [[nodiscard]] virtual std::size_t replays() const = 0;
  // Called when the prefix ends: stops recording latency samples.
  virtual void end_prefix() = 0;
  // Stops the load, quiesces, and checks every output. Adds attempted /
  // failed and any correctness failure to `report`.
  virtual void check(Report& report) = 0;
  // The prefix's per-op latencies, and the names its detail lines use for
  // them (e.g. "deliver_cost", "deliver_sim").
  [[nodiscard]] virtual const Latencies& latencies() const = 0;
  [[nodiscard]] virtual std::string_view wall_label() const = 0;
  [[nodiscard]] virtual std::string_view sim_label() const = 0;
  // Names every node of the deployment for step attribution.
  virtual void assign_roles(Tracer& tracer) const = 0;
  // Workload-specific per-layer probes run after the traced window.
  virtual void layer_probes(Report& report) = 0;

  [[nodiscard]] virtual const WorkCounts& counts() const = 0;
  [[nodiscard]] virtual Sci& sci() = 0;
  [[nodiscard]] virtual std::string_view op_unit() const = 0;
};

// Open-loop publishing at `rate` publishes per simulated second; the prefix
// is `prefix_seconds` simulated seconds.
std::unique_ptr<Workload> make_publish_fanout(double rate, int prefix_seconds,
                                              std::size_t replays);
std::unique_ptr<Workload> make_query_churn();
std::unique_ptr<Workload> make_campus_churn();

// --- per-layer collection (layers.cpp) -----------------------------------------
// Counter/gauge/histogram readings around the traced window.
class LayerWindow {
 public:
  explicit LayerWindow(Sci& sci);
  // Reads the registry again and adds every registry-derived per-layer
  // metric over the window, normalised by `counts`.
  void close(const WorkCounts& counts, const Tracer& tracer, Report& report);

  // Per-primary ServerStats sums (standbys replaying the same ops would
  // double the deployment-wide counters).
  struct PrimaryTotals {
    std::uint64_t forwarded = 0;
    std::uint64_t redirects = 0;
    std::uint64_t mirror_batches = 0;
  };

 private:
  Sci& sci_;
  obs::MetricsSnapshot before_;
  PrimaryTotals before_totals_;
};

// Samples the deployment's replication lag (max over primaries).
std::uint64_t replication_lag(Sci& sci);

// Shared microbenchmarks on the workload's own shapes.
void probe_serde(Report& report);
void probe_event_table(Sci& sci, const std::vector<event::Event>& mix,
                       Report& report);
void probe_route_cost(const location::LocationDirectory& directory,
                      const std::vector<location::PlaceId>& anchors,
                      const std::vector<location::PlaceId>& targets,
                      Report& report);

}  // namespace perfbench
