// End-to-end SCI benchmark — per-layer readings.
//
// Registry-derived metrics are deltas of the deployment's obs counters over
// the traced window, normalised by the workload's own counts; step and probe
// times come from the Tracer; the remaining layer costs are measured by
// timing public calls on the workload's own shapes after the window.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "event/subscription.h"
#include "serde/buffer.h"

namespace perfbench {
namespace {

std::vector<range::ContextServer*> primaries(Sci& sci) {
  std::vector<range::ContextServer*> out;
  for (range::ContextServer* server : sci.ranges()) {
    if (server->role() == range::RangeConfig::Role::kPrimary &&
        !server->is_fenced()) {
      out.push_back(server);
    }
  }
  return out;
}

LayerWindow::PrimaryTotals primary_totals(Sci& sci) {
  LayerWindow::PrimaryTotals t;
  for (const range::ContextServer* server : primaries(sci)) {
    t.forwarded += server->stats().queries_forwarded;
    t.redirects += server->stats().shard_redirects;
    t.mirror_batches += server->stats().mirror_batches;
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Mean of one histogram over the window (histograms are cumulative).
double window_mean(const obs::MetricsSnapshot& before,
                   const obs::MetricsSnapshot& after, std::string_view name) {
  const auto* b = before.histogram(name);
  const auto* a = after.histogram(name);
  if (a == nullptr) return 0.0;
  const double count_b = b != nullptr ? static_cast<double>(b->count) : 0.0;
  const double sum_b = b != nullptr ? b->mean * count_b : 0.0;
  const double count_a = static_cast<double>(a->count);
  return ratio(a->mean * count_a - sum_b, count_a - count_b);
}

// Defeats dead-code elimination of timed calls.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::uint64_t replication_lag(Sci& sci) {
  std::uint64_t lag = 0;
  for (const range::ContextServer* server : primaries(sci)) {
    lag = std::max(lag, server->replication_lag());
  }
  return lag;
}

LayerWindow::LayerWindow(Sci& sci)
    : sci_(sci),
      before_(sci.metrics().snapshot()),
      before_totals_(primary_totals(sci)) {}

void LayerWindow::close(const WorkCounts& counts, const Tracer& tracer,
                        Report& report) {
  const obs::MetricsSnapshot after = sci_.metrics().snapshot();
  const PrimaryTotals totals = primary_totals(sci_);
  auto d = [&](std::string_view name) {
    return static_cast<double>(after.counter(name) - before_.counter(name));
  };
  auto g = [&](std::string_view name) {
    return after.gauge(name) - before_.gauge(name);
  };
  const auto deliveries = static_cast<double>(counts.deliveries);
  const auto publishes = static_cast<double>(counts.publishes);
  const auto ops = static_cast<double>(counts.ops);

  report.add("sim.events_per_delivery", ratio(d("sim.events.executed"), deliveries), "count");
  report.add("sim.cancel_share", ratio(d("sim.events.cancelled"), d("sim.events.scheduled")), "ratio");
  report.add("sim.queue_depth_max", static_cast<double>(tracer.queue_depth_max()), "count");
  report.add("sim.timer_step_us", tracer.role_mean_us(Role::kTimer), "us");

  report.add("net.frames_per_delivery", ratio(d("net.sent"), deliveries), "count");
  report.add("net.bytes_per_delivery", ratio(d("net.bytes_sent"), deliveries), "bytes");
  report.add("net.drop_share", ratio(d("net.dropped"), d("net.sent")), "ratio");

  report.add("reliable.retransmits_per_publish", ratio(d("rel.retransmits"), publishes), "count");
  report.add("reliable.dup_suppressed_per_publish", ratio(d("rel.dup_suppressed"), publishes), "count");
  report.add("reliable.ack_rtt_mean_ms", window_mean(before_, after, "rel.ack_rtt_ms"), "ms");
  report.add("reliable.dead_letters", d("rel.dead_letters"), "count");

  report.add("event.deliveries_per_publish", ratio(d("em.deliveries"), publishes), "count");
  std::size_t table_size = 0;
  for (const range::ContextServer* server : primaries(sci_)) {
    table_size += server->mediator().table().size();
  }
  report.add("event.table_size", static_cast<double>(table_size), "count");

  report.add("range.primary_step_us", tracer.role_mean_us(Role::kPrimary), "us");
  report.add("range.queries_forwarded_share",
             ratio(static_cast<double>(totals.forwarded - before_totals_.forwarded),
                   static_cast<double>(counts.queries)),
             "ratio");
  report.add("range.redirects_per_op",
             ratio(static_cast<double>(totals.redirects - before_totals_.redirects), ops),
             "count");
  report.add("range.mirror_batches_per_op",
             ratio(static_cast<double>(totals.mirror_batches - before_totals_.mirror_batches), ops),
             "count");

  report.add("replicate.standby_step_us", tracer.role_mean_us(Role::kStandby), "us");
  report.add("replicate.records_per_publish", ratio(d("repl.records_shipped"), publishes), "count");
  report.add("replicate.batches_per_publish", ratio(d("repl.batches"), publishes), "count");

  report.add("persist.syncs_per_publish", ratio(d("persist.syncs"), publishes), "count");
  report.add("persist.wal_bytes_per_publish", ratio(d("persist.wal_bytes"), publishes), "bytes");
  report.add("persist.checkpoint_bytes", d("persist.checkpoint_bytes"), "bytes");

  report.add("entity.publish_call_us", tracer.probe_mean_us(Probe::kPublishCall), "us");
  report.add("entity.subscriber_step_us", tracer.role_mean_us(Role::kSubscriber), "us");
  report.add("entity.producer_step_us", tracer.role_mean_us(Role::kProducer), "us");

  const double reuses = g("mem.pool.reuses");
  report.add("mem.pool_reuse_ratio", ratio(reuses, reuses + g("mem.pool.block_allocs")), "ratio");
  report.add("mem.pool_bytes_reserved", after.gauge("mem.pool.bytes_reserved"), "bytes");

  const double hits = d("view.hits");
  report.add("compose.view_hit_ratio", ratio(hits, hits + d("view.misses")), "ratio");
  report.add("compose.invalidations_per_update",
             ratio(d("view.invalidations"), static_cast<double>(counts.updates)), "count");

  report.add("core.submit_query_us", tracer.probe_mean_us(Probe::kSubmitQuery), "us");
  // Replica health is not a per-layer metric, but a divergence is worth
  // seeing next to them.
  report.note("repl.state_divergence", d("repl.state_divergence"), "count");
  report.add("overlay.hops_mean", window_mean(before_, after, "scinet.route.hops"), "count");
}

void probe_serde(Report& report) {
  constexpr int kCalls = 20000;
  event::Event e;
  e.type = "hall.reading";
  e.source = Guid(0x1234, 0x5678);
  e.sequence = 42;
  e.timestamp = SimTime::from_micros(1234567);
  e.payload = reading_payload(21.5, 42);

  std::int64_t start = wall_ns();
  for (int i = 0; i < kCalls; ++i) {
    serde::Writer w;
    e.encode(w);
    g_sink = g_sink + w.size();
  }
  report.add("serde.event_encode_us",
             static_cast<double>(wall_ns() - start) / 1e3 / kCalls, "us");

  serde::Writer frame;
  e.encode(frame);
  const serde::BufferRef bytes = frame.take_ref();
  start = wall_ns();
  for (int i = 0; i < kCalls; ++i) {
    serde::Reader r(bytes);
    auto decoded = event::Event::decode(r);
    g_sink = g_sink + (decoded ? decoded->sequence : 0);
  }
  report.add("serde.event_decode_us",
             static_cast<double>(wall_ns() - start) / 1e3 / kCalls, "us");

  start = wall_ns();
  for (int i = 0; i < kCalls; ++i) {
    auto view = event::EventView::parse(serde::FrameView(bytes));
    g_sink = g_sink + (view ? view->sequence() : 0);
  }
  report.add("serde.eventview_parse_us",
             static_cast<double>(wall_ns() - start) / 1e3 / kCalls, "us");
}

void probe_event_table(Sci& sci, const std::vector<event::Event>& mix,
                       Report& report) {
  constexpr std::size_t kMatchCalls = 50000;
  constexpr std::size_t kSubscribeCalls = 20000;
  std::int64_t match_ns = 0;
  std::int64_t subscribe_ns = 0;
  std::size_t tables = 0;
  std::vector<event::MatchRef> out;
  for (const range::ContextServer* server : primaries(sci)) {
    // A copy of the live table, rebuilt through the replication interface,
    // so probing never disturbs the deployment.
    event::SubscriptionTable copy;
    for (event::Subscription s : server->mediator().table().all()) {
      copy.restore(std::move(s));
    }
    copy.set_next_id(server->mediator().table().next_id());
    ++tables;
    if (!mix.empty()) {
      const std::int64_t start = wall_ns();
      for (std::size_t i = 0; i < kMatchCalls; ++i) {
        copy.collect_matches_into(mix[i % mix.size()], out);
        g_sink = g_sink + out.size();
      }
      match_ns += wall_ns() - start;
    }
    Rng rng(29);
    const std::int64_t start = wall_ns();
    for (std::size_t i = 0; i < kSubscribeCalls; ++i) {
      static const event::Event kNone{};
      const event::Event& like = mix.empty() ? kNone : mix[i % mix.size()];
      const event::SubscriptionId id = copy.add(
          Guid(rng.next_u64(), rng.next_u64()),
          i % 4 == 0 ? std::nullopt : std::optional<Guid>(like.source),
          like.type, {});
      (void)copy.remove(id);
    }
    subscribe_ns += wall_ns() - start;
  }
  const double match_calls = static_cast<double>(tables * kMatchCalls);
  report.add("event.match_us",
             mix.empty() ? 0.0 : ratio(static_cast<double>(match_ns) / 1e3, match_calls),
             "us");
  report.add("event.subscribe_us",
             ratio(static_cast<double>(subscribe_ns) / 1e3,
                   static_cast<double>(tables * kSubscribeCalls)),
             "us");
}

void probe_route_cost(const location::LocationDirectory& directory,
                      const std::vector<location::PlaceId>& anchors,
                      const std::vector<location::PlaceId>& targets,
                      Report& report) {
  std::int64_t calls = 0;
  const std::int64_t start = wall_ns();
  for (const location::PlaceId from : anchors) {
    for (const location::PlaceId to : targets) {
      const auto cost = directory.route_cost(from, to);
      g_sink = g_sink + (cost ? 1 : 0);
      ++calls;
    }
  }
  report.add("location.route_cost_us",
             ratio(static_cast<double>(wall_ns() - start) / 1e3,
                   static_cast<double>(calls)),
             "us");
}

}  // namespace perfbench
