// End-to-end SCI benchmark — entry point.
//
//   sci_perfbench --workload <publish_fanout|publish_fanout_800|
//                              query_churn|campus_churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics. A fixed, seed-determined prefix
// of the workload is replayed a fixed number of times, each on a fresh
// deployment built twice just before it (setup_s is the median build time;
// see end_to_end below), so sim-time latencies and counts repeat exactly per
// seed. --seconds caps the replays' wall time. Wall times
// are scaled to a nominal machine speed by a reference workload interleaved
// with each replay (see Reference below).
//
// --trace 1 prints the per-layer metrics: the prefix runs once untraced and
// once more, on a fresh deployment with the same seed, one timed simulator
// step at a time, and the layers are read around that traced replay.
//
// Either way the outputs are checked (exactly-once delivery, zero stale
// answers, zero dead letters) and the run exits 1 without metrics when a
// check fails. The last line of stdout is one JSON object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kSetupsPerReplay = 2;

// The machine the benchmark runs on may be shared, and its speed then drifts
// by tens of percent over minutes, longer than any one run, so repeating the
// work within a run cannot remove it. Instead a fixed reference workload,
// which does not use the middleware, runs in short chunks interleaved with
// every replay, at least every kChunkEvery of wall time. A replay's slowdown
// is its mean chunk time over kChunkNominalNs, and every wall time measured
// in the replay, and in the set-ups just before it, is divided by it: the
// end-to-end wall metrics read as on a
// machine running the reference at its nominal speed (a calm 4-vCPU x86-64
// server). The reference does the DES's kind of work: a timer heap, a hash
// map of small buffers, heap allocation, copies and type-erased calls.
class Reference {
  using Timer = std::pair<std::uint64_t, std::uint64_t>;

 public:
  static constexpr std::int64_t kChunkEvery = 20'000'000;  // ns
  static constexpr std::int64_t kChunkNominalNs = 220'000;

  Reference() {
    for (int i = 0; i < 1024; ++i) timers_.push({next() % 100000, next()});
    for (int i = 0; i < 8; ++i) chunk();  // fills the buffer map
  }

  // Runs a chunk if kChunkEvery has passed since the last one.
  void tick() {
    if (wall_ns() - last_ >= kChunkEvery) chunk();
  }

  // Starts a new tally with one chunk.
  void begin() {
    ns_ = 0;
    chunks_ = 0;
    chunk();
  }

  // The slowdown over the chunks since begin().
  [[nodiscard]] double slowdown() const {
    return static_cast<double>(ns_) / static_cast<double>(chunks_) /
           static_cast<double>(kChunkNominalNs);
  }

 private:
  // Runs one chunk (~0.2 ms at nominal speed) into the tally.
  void chunk() {
    AllocPause pause;
    const std::int64_t start = wall_ns();
    for (int i = 0; i < 500; ++i) {
      const Timer t = timers_.top();
      timers_.pop();
      std::vector<std::uint8_t>& buffer = buffers_[t.second % 1024];
      auto frame = std::make_unique<std::uint8_t[]>(192 + (t.second & 63));
      std::memset(frame.get(), static_cast<int>(t.second), 192);
      buffer.assign(frame.get(), frame.get() + 192);
      const std::function<void()> call = [this, &buffer, t] {
        sum_ += buffer[t.second % 192] + t.first;
      };
      call();
      timers_.push({t.first + 1 + next() % 1000, next()});
    }
    last_ = wall_ns();
    ns_ += last_ - start;
    ++chunks_;
  }

  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::uint64_t x_ = 88172645463325252ULL;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> buffers_;
  std::uint64_t sum_ = 0;
  std::int64_t last_ = 0;
  std::int64_t ns_ = 0;
  std::uint64_t chunks_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The per-layer metrics in BENCHMARK.json order, with units. Every traced
// run prints all of them; a layer a workload leaves idle reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events_per_delivery", "count"},
    {"sim.cancel_share", "ratio"},
    {"sim.queue_depth_max", "count"},
    {"sim.timer_step_us", "us"},
    {"net.frames_per_delivery", "count"},
    {"net.bytes_per_delivery", "bytes"},
    {"net.drop_share", "ratio"},
    {"reliable.retransmits_per_publish", "count"},
    {"reliable.dup_suppressed_per_publish", "count"},
    {"reliable.ack_rtt_mean_ms", "ms"},
    {"reliable.dead_letters", "count"},
    {"event.match_us", "us"},
    {"event.subscribe_us", "us"},
    {"event.deliveries_per_publish", "count"},
    {"event.table_size", "count"},
    {"range.primary_step_us", "us"},
    {"range.resolve_p99_us", "us"},
    {"range.queries_forwarded_share", "ratio"},
    {"range.redirects_per_op", "count"},
    {"range.mirror_batches_per_op", "count"},
    {"range.handshake_sim_ms", "ms"},
    {"replicate.standby_step_us", "us"},
    {"replicate.records_per_publish", "count"},
    {"replicate.batches_per_publish", "count"},
    {"replicate.lag_max", "count"},
    {"persist.syncs_per_publish", "count"},
    {"persist.wal_bytes_per_publish", "bytes"},
    {"persist.checkpoint_bytes", "bytes"},
    {"entity.publish_call_us", "us"},
    {"entity.subscriber_step_us", "us"},
    {"entity.producer_step_us", "us"},
    {"serde.event_encode_us", "us"},
    {"serde.event_decode_us", "us"},
    {"serde.eventview_parse_us", "us"},
    {"mem.pool_reuse_ratio", "ratio"},
    {"mem.pool_bytes_reserved", "bytes"},
    {"compose.view_hit_ratio", "ratio"},
    {"compose.invalidations_per_update", "count"},
    {"location.route_cost_us", "us"},
    {"core.submit_query_us", "us"},
    {"overlay.hops_mean", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

std::unique_ptr<Workload> make(const std::string& name) {
  // The two publish rates straddle the WAL's group-commit threshold
  // (publish_fanout.cpp); the slower one runs twice as long a prefix so
  // both carry about as many deliveries.
  if (name == "publish_fanout") return make_publish_fanout(2000.0, 10, 6);
  if (name == "publish_fanout_800") return make_publish_fanout(800.0, 20, 8);
  if (name == "query_churn") return make_query_churn();
  if (name == "campus_churn") return make_campus_churn();
  return nullptr;
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(wall_ns() - start) / 1e9;
}

// Runs the prefix; returns its wall seconds. Samples replication lag per
// unit when `lag_max` is given.
double run_prefix(Workload& w, Tracer* tracer, std::uint64_t* lag_max) {
  const std::int64_t start = wall_ns();
  for (std::uint64_t i = 0; i < w.prefix_units(); ++i) {
    w.unit(tracer);
    if (lag_max != nullptr) {
      *lag_max = std::max(*lag_max, replication_lag(w.sci()));
    }
  }
  return seconds_since(start);
}

// The prefix is replayed w.replays() times on fresh deployments with the
// same seed (fewer only if --seconds run out first). Every replay executes
// the identical simulation, so sim-time samples and op counts must come out
// identical in every replay. Each replay's wall times are divided by its
// slowdown; a wall metric is the median over replays of that replay's
// figure. Each replay runs on the last of kSetupsPerReplay set-ups made just
// before it; setup_s is the median over all set-ups.
void end_to_end(Workload& w, const Options& o, Report& report) {
  const std::int64_t start = wall_ns();
  Reference reference;
  Samples setup_s;
  Samples raw_setup_s;
  std::vector<double> unit_ops;  // ops completed in each unit
  std::vector<double> sim_ms;
  std::uint64_t prefix_ops = 0;
  std::size_t wall_samples = 0;
  std::size_t wall_beyond_p99 = 0;
  double rss_mb = 0.0;
  // Per replay.
  Samples slowdowns;
  Samples raw_prefix_s;
  Samples ops_per_s;
  Samples wall_p50;
  Samples wall_p99;
  Samples allocs_per_op;
  while (slowdowns.size() < w.replays() &&
         (slowdowns.size() == 0 || seconds_since(start) < o.seconds)) {
    double replay_setup_s[kSetupsPerReplay];
    for (double& setup : replay_setup_s) {
      w.teardown();
      const std::int64_t setup_start = wall_ns();
      w.setup(o.seed);
      setup = seconds_since(setup_start);
    }
    w.warmup();
    std::vector<double> unit_s;
    unit_s.reserve(w.prefix_units());
    std::vector<double> ops_in_unit;
    ops_in_unit.reserve(w.prefix_units());
    reference.begin();
    const std::uint64_t ops_start = w.counts().ops;
    const std::uint64_t allocs_start = allocations();
    for (std::uint64_t i = 0; i < w.prefix_units(); ++i) {
      const std::uint64_t unit_ops_start = w.counts().ops;
      const std::int64_t unit_start = wall_ns();
      w.unit(nullptr);
      unit_s.push_back(seconds_since(unit_start));
      ops_in_unit.push_back(
          static_cast<double>(w.counts().ops - unit_ops_start));
      reference.tick();
    }
    w.end_prefix();
    const std::uint64_t ops = w.counts().ops - ops_start;
    const double allocs =
        ops == 0 ? 0.0
                 : static_cast<double>(allocations() - allocs_start) /
                       static_cast<double>(ops);
    const double slowdown = reference.slowdown();
    w.check(report);
    const Latencies& lat = w.latencies();
    if (slowdowns.size() == 0) {
      prefix_ops = ops;
      unit_ops = ops_in_unit;
      sim_ms = lat.sim_ms;
      // One deployment's footprint: later replays only add allocator slack.
      rss_mb = peak_rss_mb();
    } else if (ops != prefix_ops || ops_in_unit != unit_ops ||
               lat.sim_ms != sim_ms) {
      report.fail("replays of one seed diverged");
      return;
    }

    double raw_s = 0.0;
    for (const double u : unit_s) raw_s += u;
    // A closed-loop op is timed on its own; open-loop ops overlap, so each
    // unit's wall time is shared out over the ops completed in it.
    Samples wall;
    for (const double us : lat.wall_us) wall.add(us / slowdown);
    if (lat.wall_us.empty()) {
      for (std::size_t i = 0; i < unit_s.size(); ++i) {
        if (unit_ops[i] > 0.0) {
          wall.add(unit_s[i] / slowdown * 1e6 / unit_ops[i]);
        }
      }
    }
    wall_samples = wall.size();
    wall_beyond_p99 = wall.beyond(0.99);
    slowdowns.add(slowdown);
    for (const double setup : replay_setup_s) {
      setup_s.add(setup / slowdown);
      raw_setup_s.add(setup);
    }
    raw_prefix_s.add(raw_s);
    ops_per_s.add(static_cast<double>(ops) * slowdown / raw_s);
    wall_p50.add(wall.quantile(0.5));
    wall_p99.add(wall.quantile(0.99));
    allocs_per_op.add(allocs);
  }
  const double window_s = seconds_since(start);

  const Samples sim(sim_ms);
  report.add("setup_s", setup_s.quantile(0.5), "s");
  report.add("ops_per_s", ops_per_s.quantile(0.5), "1/s");
  report.add("op_wall_p50_us", wall_p50.quantile(0.5), "us");
  report.add("op_wall_p99_us", wall_p99.quantile(0.5), "us");
  report.add("op_sim_mean_ms", sim.mean(), "ms");
  report.add("op_sim_tail_ms", sim.tail_mean(0.01), "ms");
  report.add("allocs_per_op", allocs_per_op.quantile(0.5), "count");
  report.add("peak_rss_mb", rss_mb, "MiB");

  const std::string wall_label(w.wall_label());
  const std::string sim_label(w.sim_label());
  report.note(wall_label + "_p50_us", wall_p50.quantile(0.5), "us",
              wall_samples);
  report.note(wall_label + "_p99_us", wall_p99.quantile(0.5), "us",
              wall_samples);
  report.detail.push_back("    (per replay, median over replays; " +
                          std::to_string(wall_beyond_p99) +
                          " samples beyond p99)");
  if (wall_beyond_p99 < 10) {
    report.fail(wall_label + "_p99_us: fewer than ten samples beyond it");
  }
  report.note_percentile(sim_label + "_p50_ms", sim, 0.5, "ms");
  report.note_percentile(sim_label + "_p99_ms", sim, 0.99, "ms");
  report.note(sim_label + "_tail_ms", sim.tail_mean(0.01), "ms", sim.size());
  report.note("replays", static_cast<double>(slowdowns.size()), "count");
  if (slowdowns.size() < w.replays()) {
    report.detail.push_back("  (--seconds ran out before " +
                            std::to_string(w.replays()) + " replays)");
  }
  report.note("setups", static_cast<double>(setup_s.size()), "count");
  report.note("window_s", window_s, "s");
  report.note("prefix_ops", static_cast<double>(prefix_ops),
              std::string(w.op_unit()));
  report.note("raw_prefix_s", raw_prefix_s.quantile(0.5), "s");
  report.note("raw_setup_s", raw_setup_s.quantile(0.5), "s");
  report.note("slowdown_min", slowdowns.quantile(0.0), "ratio");
  report.note("slowdown_median", slowdowns.quantile(0.5), "ratio");
  report.note("slowdown_max", slowdowns.quantile(1.0), "ratio");
  report.note("allocs_per_op", allocs_per_op.quantile(0.5), "count",
              prefix_ops);
  report.note("failed_share",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "ratio", report.attempted);
}

void traced(Workload& w, const Options& o, Report& report) {
  // Untraced reference over the same prefix, once before and once after the
  // traced replay; the faster of the two is the base of trace.overhead_share.
  auto untraced_rate = [&] {
    w.setup(o.seed);
    w.warmup();
    const std::uint64_t ops_start = w.counts().ops;
    const double seconds = run_prefix(w, nullptr, nullptr);
    const double rate =
        static_cast<double>(w.counts().ops - ops_start) / seconds;
    w.end_prefix();
    w.check(report);
    return rate;
  };
  double base_rate = untraced_rate();

  // Traced replay: same seed, same inputs.
  w.setup(o.seed);
  w.warmup();
  Tracer tracer(w.sci());
  w.assign_roles(tracer);
  const WorkCounts before = w.counts();
  LayerWindow window(w.sci());
  std::uint64_t lag_max = replication_lag(w.sci());
  const std::int64_t start = wall_ns();
  run_prefix(w, &tracer, &lag_max);
  const std::int64_t traced_ns = wall_ns() - start;
  tracer.finish();
  w.end_prefix();
  WorkCounts delta = w.counts();
  delta.ops -= before.ops;
  delta.publishes -= before.publishes;
  delta.deliveries -= before.deliveries;
  delta.updates -= before.updates;
  delta.queries -= before.queries;
  window.close(delta, tracer, report);
  report.add("replicate.lag_max", static_cast<double>(lag_max), "count");
  report.add("trace.unattributed_share",
             1.0 - static_cast<double>(tracer.attributed_ns()) /
                       static_cast<double>(traced_ns),
             "ratio");
  w.check(report);
  w.layer_probes(report);
  probe_serde(report);

  base_rate = std::max(base_rate, untraced_rate());
  const double traced_s = static_cast<double>(traced_ns) / 1e9;
  const double traced_rate = static_cast<double>(delta.ops) / traced_s;
  report.add("trace.overhead_share",
             base_rate > 0.0 ? 1.0 - traced_rate / base_rate : 0.0, "ratio");
  report.note("traced_steps", static_cast<double>(tracer.steps()), "count");
  report.note("traced_s", traced_s, "s");
  report.note("untraced_ops_per_s", base_rate, "1/s");

  // Canonical order; a layer the workload never reached reads 0.
  std::vector<Metric> ordered;
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    for (const Metric& got : report.metrics) {
      if (got.name == m.name) value = got.value;
    }
    ordered.push_back(Metric{m.name, value, m.unit});
  }
  for (const Metric& got : report.metrics) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerMetric& m) { return got.name == m.name; });
    SCI_ASSERT_MSG(known, got.name.c_str());
  }
  report.metrics = std::move(ordered);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = make(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Report report;
  report.detail.push_back(options.workload + " seed=" +
                          std::to_string(options.seed) +
                          (options.trace ? " (traced)" : ""));
  if (options.trace) {
    traced(*workload, options, report);
  } else {
    end_to_end(*workload, options, report);
  }
  print_report(report);
  return report.correct ? 0 : 1;
}
