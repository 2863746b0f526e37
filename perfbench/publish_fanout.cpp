// publish_fanout — open-loop event mediation on one range.
//
// ~10^3 registered entities. 300 sensors share one event type and publish on
// a seeded Poisson schedule at a fixed aggregate rate (independent sensors:
// an open loop, so a slow stack falls behind rather than receiving less
// load). Their named subscriptions fall into fan-out classes 1 / 8 / 32, the
// subscriber counts of fig2's BM_EventDispatch/50/{1,8,32}; the 200 / 80 / 20
// split gives the 8 and 32 classes 640 subscriptions each, and with 4
// wildcard monitors hearing every event a publish reaches ~8.9 subscribers,
// BM_EventDispatch/50/8's fan-out. The unit of work is one unique subscriber
// delivery.
//
// The aggregate rate picks the WAL's group-commit path. A publish appends
// ~1.1-1.25 replication records to each shard store, which flushes when 32
// records are buffered or every 20 ms (DurabilityConfig::flush_threshold,
// flush_interval): 1600 records/s, ~1450 publishes/s. The benchmark runs one
// rate on each side of it — 2000/s flushes on the threshold, 800/s on the
// timer.
#include <cmath>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr const char* kType = "hall.reading";
constexpr unsigned kFanout1 = 200;   // producers with one subscriber
constexpr unsigned kFanout8 = 80;    // ... with eight
constexpr unsigned kFanout32 = 20;   // ... with thirty-two
constexpr unsigned kProducers = kFanout1 + kFanout8 + kFanout32;
constexpr unsigned kApps = 600;
constexpr unsigned kMonitors = 4;
constexpr unsigned kIdle = 96;  // registered, never publishing
constexpr Duration kUnit = Duration::millis(10);
constexpr Duration kWarmup = Duration::seconds(1);
constexpr std::uint64_t kMonitorTag = std::uint64_t{1} << 40;

unsigned fanout_of(unsigned producer) {
  if (producer < kFanout1) return 1;
  if (producer < kFanout1 + kFanout8) return 8;
  return 32;
}

class PublishFanout;

class Subscriber final : public entity::ContextAwareApp {
 public:
  Subscriber(PublishFanout& bench, net::Network& network, Guid id,
             std::string name)
      : ContextAwareApp(network, id, std::move(name),
                        entity::EntityKind::kSoftware),
        bench_(bench) {}

  // (owner tag, subscription index) pairs this app holds.
  std::vector<std::pair<std::uint64_t, std::size_t>> subs;
  std::size_t answered = 0;
  std::size_t refused = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t tag) override;
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override;

 private:
  PublishFanout& bench_;
};

struct Subscription {
  unsigned producer = 0;  // kProducers = wildcard
  std::vector<std::uint8_t> seen;  // by sequence (named) or publish index
};

class PublishFanout final : public Workload {
 public:
  // The prefix is a whole number of ten simulated seconds, a multiple of
  // every periodic timer (heartbeats, lease renewals, WAL checkpoints every
  // 5 s, replication snapshots every 10 s), so each prefix carries the same
  // periodic work whatever its phase.
  PublishFanout(double rate, int prefix_seconds, std::size_t replays)
      : rate_(rate),
        prefix_units_(static_cast<std::uint64_t>(
            Duration::seconds(prefix_seconds).count_micros() /
            kUnit.count_micros())),
        replays_(replays) {
    SCI_ASSERT(prefix_seconds % 10 == 0);
  }

  void teardown() override;
  void setup(std::uint64_t seed) override;
  void warmup() override;
  void unit(Tracer* tracer) override;
  [[nodiscard]] std::uint64_t prefix_units() const override {
    return prefix_units_;
  }
  [[nodiscard]] std::size_t replays() const override { return replays_; }
  void end_prefix() override {
    prefix_end_ = published_;
  }
  void check(Report& report) override;
  [[nodiscard]] const Latencies& latencies() const override { return lat_; }
  [[nodiscard]] std::string_view wall_label() const override {
    return "deliver_cost";
  }
  [[nodiscard]] std::string_view sim_label() const override {
    return "deliver_sim";
  }
  void assign_roles(Tracer& tracer) const override;
  void layer_probes(Report& report) override;
  [[nodiscard]] const WorkCounts& counts() const override { return counts_; }
  [[nodiscard]] Sci& sci() override { return *sci_; }
  [[nodiscard]] std::string_view op_unit() const override {
    return "deliveries";
  }

  void deliver(Subscriber& app, const event::Event& event, std::uint64_t tag);
  void subscribed(Subscriber& app, std::size_t index, std::uint64_t tag) {
    AllocPause pause;
    app.subs.emplace_back(tag, index);
  }

 private:
  void publish_next();

  const double rate_;  // aggregate publishes per simulated second
  const std::uint64_t prefix_units_;
  const std::size_t replays_;
  std::unique_ptr<Sci> sci_;
  std::unique_ptr<mobility::Building> building_;
  range::ContextServer* range_ = nullptr;
  std::vector<std::unique_ptr<Sensor>> producers_;
  std::vector<std::unique_ptr<Subscriber>> apps_;  // apps then monitors
  std::vector<std::unique_ptr<entity::ContextEntity>> idle_;
  std::unordered_map<Guid, unsigned> producer_index_;
  std::vector<Subscription> subs_;

  // Generator (open loop).
  Rng gen_{0};
  bool generating_ = false;
  sim::TimerHandle next_publish_;
  std::uint64_t published_ = 0;
  std::vector<std::vector<std::uint32_t>> index_of_seq_;  // per producer

  // Measurement.
  // Latency samples cover the publishes with index in [begin, end).
  std::uint64_t prefix_begin_ = UINT64_MAX;
  std::uint64_t prefix_end_ = UINT64_MAX;
  std::uint64_t duplicates_ = 0;
  std::uint64_t strays_ = 0;  // deliveries matching no publish/subscription
  Tracer* tracer_ = nullptr;
  Latencies lat_;
  WorkCounts counts_;
};

void Subscriber::on_event(const event::Event& event, std::uint64_t tag) {
  bench_.deliver(*this, event, tag);
}

void Subscriber::on_query_result(const std::string& query_id,
                                 const Error& error, const Value& result) {
  const auto index = static_cast<std::size_t>(std::stoul(query_id.substr(1)));
  if (!error.ok()) {
    ++refused;
    return;
  }
  ++answered;
  bench_.subscribed(*this, index,
                    static_cast<std::uint64_t>(
                        result.at("config").as_int().value_or(0)));
}

void PublishFanout::teardown() {
  // Dependency order: components before the deployment.
  idle_.clear();
  apps_.clear();
  producers_.clear();
  range_ = nullptr;
  sci_.reset();
  building_.reset();
}

void PublishFanout::setup(std::uint64_t seed) {
  teardown();
  producer_index_.clear();
  subs_.clear();
  index_of_seq_.assign(kProducers, {});
  published_ = 0;
  generating_ = false;
  counts_ = {};
  lat_ = {};
  duplicates_ = strays_ = 0;
  prefix_begin_ = UINT64_MAX;
  prefix_end_ = UINT64_MAX;

  sci_ = std::make_unique<Sci>(seed);
  gen_ = Rng(seed ^ 0x9e3779b97f4a7c15ULL);
  building_ = std::make_unique<mobility::Building>(
      mobility::BuildingSpec{.floors = 1, .rooms_per_floor = 8});
  sci_->set_location_directory(&building_->directory());
  auto created = sci_->create_range("hall", building_->building_path(),
                                    durable_range_options());
  SCI_ASSERT_MSG(created.has_value(), "create_range failed");
  range_ = *created;
  Sci& sci = *sci_;

  for (unsigned p = 0; p < kProducers; ++p) {
    producers_.push_back(std::make_unique<Sensor>(
        sci.network(), sci.new_guid(), "s" + std::to_string(p), kType));
    SCI_ASSERT(sci.enroll(*producers_.back(), *range_).is_ok());
    producer_index_[producers_.back()->id()] = p;
  }
  for (unsigned a = 0; a < kApps + kMonitors; ++a) {
    apps_.push_back(std::make_unique<Subscriber>(
        *this, sci.network(), sci.new_guid(), "a" + std::to_string(a)));
    SCI_ASSERT(sci.enroll(*apps_.back(), *range_).is_ok());
  }
  for (unsigned i = 0; i < kIdle; ++i) {
    idle_.push_back(std::make_unique<entity::ContextEntity>(
        sci.network(), sci.new_guid(), "i" + std::to_string(i),
        entity::EntityKind::kDevice));
    SCI_ASSERT(sci.enroll(*idle_.back(), *range_).is_ok());
  }

  // Named subscriptions: producer p gets fanout_of(p) distinct apps, chosen
  // from the seeded stream; every one is a Fig-6 subscription query.
  Rng pick(seed ^ 0x5851f42d4c957f2dULL);
  for (unsigned p = 0; p < kProducers; ++p) {
    std::vector<unsigned> chosen;
    while (chosen.size() < fanout_of(p)) {
      const auto a = static_cast<unsigned>(pick.next_below(kApps));
      if (std::find(chosen.begin(), chosen.end(), a) == chosen.end()) {
        chosen.push_back(a);
      }
    }
    for (const unsigned a : chosen) {
      const std::size_t index = subs_.size();
      subs_.push_back(Subscription{p, {}});
      const query::Query q =
          query::Builder("s" + std::to_string(index), apps_[a]->id())
              .what_named(producers_[p]->id())
              .subscribe();
      SCI_ASSERT(sci.submit_query(*apps_[a], q).has_value());
    }
  }
  const std::size_t named = subs_.size();
  const bool all_answered = step_until(
      sci,
      [&] {
        std::size_t done = 0;
        for (const auto& app : apps_) done += app->answered + app->refused;
        return done == named;
      },
      sci.now() + Duration::seconds(30), nullptr);
  SCI_ASSERT_MSG(all_answered, "subscription queries did not settle");
  for (unsigned m = 0; m < kMonitors; ++m) {
    const std::size_t index = subs_.size();
    subs_.push_back(Subscription{kProducers, {}});
    Subscriber& monitor = *apps_[kApps + m];
    range_->subscribe_pattern(monitor.id(), kType, {}, kMonitorTag + index);
    subscribed(monitor, index, kMonitorTag + index);
  }
  sci.run_for(Duration::millis(200));
}

void PublishFanout::publish_next() {
  if (!generating_) return;
  const auto p = static_cast<unsigned>(gen_.next_below(kProducers));
  {
    AllocPause pause;
    index_of_seq_[p].push_back(static_cast<std::uint32_t>(published_));
  }
  const double reading = 15.0 + gen_.next_double() * 10.0;
  probed(tracer_, Probe::kPublishCall, [&] {
    producers_[p]->publish(
        kType, reading_payload(reading, static_cast<std::int64_t>(published_)));
  });
  ++published_;
  ++counts_.publishes;
  const double gap_s = -std::log(1.0 - gen_.next_double()) / rate_;
  next_publish_ = sci_->simulator().schedule(
      Duration::micros(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(gap_s * 1e6)))),
      [this] { publish_next(); });
}

void PublishFanout::warmup() {
  generating_ = true;
  publish_next();
  sci_->run_for(kWarmup);
  prefix_begin_ = published_;
}

void PublishFanout::unit(Tracer* tracer) {
  tracer_ = tracer;
  run_until(*sci_, sci_->now() + kUnit, tracer);
  tracer_ = nullptr;
  counts_.ops = counts_.deliveries;
}

void PublishFanout::deliver(Subscriber& app, const event::Event& event,
                            std::uint64_t tag) {
  AllocPause pause;
  const auto producer = producer_index_.find(event.source);
  std::size_t sub = subs_.size();
  for (const auto& [t, index] : app.subs) {
    if (t == tag) sub = index;
  }
  if (producer == producer_index_.end() || sub == subs_.size() ||
      event.sequence == 0 ||
      event.sequence > index_of_seq_[producer->second].size()) {
    ++strays_;
    return;
  }
  const std::uint64_t g = index_of_seq_[producer->second][event.sequence - 1];
  Subscription& s = subs_[sub];
  if (s.producer != kProducers && s.producer != producer->second) {
    ++strays_;
    return;
  }
  const std::uint64_t slot = s.producer == kProducers ? g : event.sequence - 1;
  if (s.seen.size() <= slot) s.seen.resize(slot + 1, 0);
  if (s.seen[slot]++ != 0) {
    ++duplicates_;
    return;
  }
  ++counts_.deliveries;
  if (g >= prefix_begin_ && g < prefix_end_) {
    lat_.sim_ms.push_back((sci_->now() - event.timestamp).millis_f());
  }
}

void PublishFanout::check(Report& report) {
  generating_ = false;
  sci_->simulator().cancel(next_publish_);
  sci_->run_for(Duration::seconds(2));  // let every acked send settle
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  for (const Subscription& s : subs_) {
    const std::uint64_t count = s.producer == kProducers
                                    ? published_
                                    : index_of_seq_[s.producer].size();
    expected += count;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (i >= s.seen.size() || s.seen[i] == 0) ++missing;
    }
  }
  std::size_t refused = 0;
  for (const auto& app : apps_) refused += app->refused;
  report.attempted += expected + subs_.size();
  report.failed += missing + duplicates_ + refused;
  if (missing > 0) {
    report.fail("exactly-once: " + std::to_string(missing) +
                " expected deliveries never arrived");
  }
  if (duplicates_ > 0) {
    report.fail("exactly-once: " + std::to_string(duplicates_) +
                " duplicate deliveries");
  }
  if (strays_ > 0) {
    report.fail(std::to_string(strays_) +
                " deliveries match no publish or subscription");
  }
  if (refused > 0) {
    report.fail(std::to_string(refused) + " subscription queries refused");
  }
  const std::uint64_t dead =
      sci_->metrics().snapshot().counter("rel.dead_letters");
  if (dead > 0) report.fail(std::to_string(dead) + " dead letters");
}

void PublishFanout::assign_roles(Tracer& tracer) const {
  tracer.set_role(range_->server_node(), Role::kPrimary);
  tracer.set_role(range_->id(), Role::kPrimary);
  for (const range::ContextServer* standby : sci_->standbys("hall")) {
    tracer.set_role(standby->attached_node(), Role::kStandby);
  }
  for (const auto& app : apps_) tracer.set_role(app->id(), Role::kSubscriber);
  for (const auto& p : producers_) tracer.set_role(p->id(), Role::kProducer);
  for (const auto& i : idle_) tracer.set_role(i->id(), Role::kProducer);
}

void PublishFanout::layer_probes(Report& report) {
  std::vector<event::Event> mix;
  Rng rng(17);
  for (unsigned i = 0; i < 512; ++i) {
    event::Event e;
    e.type = kType;
    e.source = producers_[rng.next_below(kProducers)]->id();
    e.sequence = i + 1;
    e.payload = reading_payload(20.0, i);
    mix.push_back(std::move(e));
  }
  probe_event_table(*sci_, mix, report);
  probe_route_cost(building_->directory(), building_->rooms(),
                   building_->rooms(), report);
}

}  // namespace

std::unique_ptr<Workload> make_publish_fanout(double rate, int prefix_seconds,
                                              std::size_t replays) {
  return std::make_unique<PublishFanout>(rate, prefix_seconds, replays);
}

}  // namespace perfbench
