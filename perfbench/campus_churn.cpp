// campus_churn — registrar and mediator writes on a lossy 2-shard range.
//
// One range partitioned across two shard primaries, 1% iid link loss on
// every frame once set up. 40 background sensors publish open-loop
// (Poisson, 100 events per simulated second in aggregate). Beside them one
// closed-loop client repeats a fixed cycle of churn ops, each waiting for
// its acknowledgement where one exists: enrol a component, submit named and
// wildcard event subscriptions (the wildcard ones mirror across shards),
// update profiles, cancel the oldest subscriptions, stop the oldest
// components. The reliable channel retransmits and deduplicates whatever
// the loss drops. The unit of work is one churn op.
//
// Exactly-once is scoped per subscription: every event published while the
// subscription was acknowledged and not yet cancelled (less a settling
// margin at both ends for frames the loss delays) arrives exactly once; no
// event outside [submit - slack, cancel + slack] arrives at all; nothing
// arrives twice.
#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr const char* kType = "campus.reading";
constexpr unsigned kShards = 2;
constexpr double kLoss = 0.01;
constexpr unsigned kSensors = 40;
constexpr double kRate = 100.0;  // aggregate publishes per simulated second
constexpr unsigned kApps = 32;
constexpr unsigned kIdleStart = 32;  // churned components alive at start
constexpr unsigned kLiveSubs = 64;   // subscriptions alive at any time
constexpr Duration kThink = Duration::millis(15);  // between ops
constexpr Duration kDeadline = Duration::seconds(10);
// Frames delayed by up to three consecutive losses settle within this.
constexpr Duration kSettle = Duration::seconds(2);
constexpr std::uint64_t kPrefixOps = 6000;
constexpr std::uint64_t kWildTag = std::uint64_t{1} << 40;

class CampusChurn;

class Listener final : public entity::ContextAwareApp {
 public:
  Listener(CampusChurn& bench, net::Network& network, Guid id,
           std::string name)
      : ContextAwareApp(network, id, std::move(name),
                        entity::EntityKind::kSoftware),
        bench_(bench) {}

  std::vector<std::pair<std::uint64_t, std::size_t>> subs;  // (tag, index)
  std::uint64_t results = 0;
  bool last_ok = false;
  std::uint64_t last_tag = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t tag) override;
  void on_query_result(const std::string&, const Error& error,
                       const Value& result) override {
    ++results;
    last_ok = error.ok();
    last_tag = error.ok() ? static_cast<std::uint64_t>(
                                result.at("config").as_int().value_or(0))
                          : 0;
  }

 private:
  CampusChurn& bench_;
};

struct Sub {
  unsigned app = 0;
  unsigned producer = kSensors;  // kSensors = wildcard
  std::uint64_t tag = 0;
  SimTime submitted;
  SimTime acked = SimTime::infinity();
  SimTime cancelled = SimTime::infinity();
  bool cancel_failed = false;  // cancel() reported nothing cancelled
  std::uint64_t base = 0;  // publish index of a wildcard's first slot
  std::vector<std::uint8_t> seen;
  std::optional<Sci::QueryHandle> handle;  // named
  event::SubscriptionId direct = 0;        // wildcard
  unsigned shard = 0;                      // wildcard
};

class CampusChurn final : public Workload {
 public:
  void teardown() override;
  void setup(std::uint64_t seed) override;
  void warmup() override;
  void unit(Tracer* tracer) override;
  [[nodiscard]] std::uint64_t prefix_units() const override {
    return kPrefixOps;
  }
  [[nodiscard]] std::size_t replays() const override { return 3; }
  void end_prefix() override { sampling_ = false; }
  void check(Report& report) override;
  [[nodiscard]] const Latencies& latencies() const override { return lat_; }
  [[nodiscard]] std::string_view wall_label() const override {
    return "sub_ready_wall";
  }
  [[nodiscard]] std::string_view sim_label() const override {
    return "sub_ready_sim";
  }
  void assign_roles(Tracer& tracer) const override;
  void layer_probes(Report& report) override;
  [[nodiscard]] const WorkCounts& counts() const override { return counts_; }
  [[nodiscard]] Sci& sci() override { return *sci_; }
  [[nodiscard]] std::string_view op_unit() const override {
    return "churn ops";
  }

  void deliver(Listener& app, const event::Event& event, std::uint64_t tag);

 private:
  void publish_next();
  void enrol(Tracer* tracer);
  void subscribe_named(Tracer* tracer);
  void subscribe_wildcard(Tracer* tracer);
  void update_profile(Tracer* tracer);
  void cancel_oldest(Tracer* tracer);
  void stop_oldest(Tracer* tracer);
  void add_sub(Sub sub) {
    AllocPause pause;
    apps_[sub.app]->subs.emplace_back(sub.tag, subs_.size());
    live_.push_back(subs_.size());
    subs_.push_back(std::move(sub));
  }

  std::unique_ptr<Sci> sci_;
  std::unique_ptr<mobility::Building> building_;
  std::vector<range::ContextServer*> shards_;
  std::vector<std::unique_ptr<Sensor>> sensors_;
  std::vector<std::unique_ptr<Listener>> apps_;
  std::vector<std::unique_ptr<entity::ContextEntity>> components_;
  std::deque<std::size_t> idle_;  // running churned components, oldest first
  std::unordered_map<Guid, unsigned> sensor_index_;
  std::vector<Sub> subs_;
  std::deque<std::size_t> live_;  // live subscriptions, oldest first

  Rng rng_{0};
  Rng gen_{0};
  bool generating_ = false;
  sim::TimerHandle next_publish_;
  std::vector<std::vector<std::uint32_t>> index_of_seq_;  // per sensor
  std::vector<SimTime> published_at_;  // by publish index
  std::uint64_t op_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t strays_ = 0;
  std::uint64_t wild_next_ = 0;
  Tracer* tracer_ = nullptr;
  bool sampling_ = false;
  Latencies lat_;
  Samples handshake_ms_;
  Samples resolve_us_;
  WorkCounts counts_;
};

void Listener::on_event(const event::Event& event, std::uint64_t tag) {
  bench_.deliver(*this, event, tag);
}

void CampusChurn::teardown() {
  idle_.clear();
  live_.clear();
  subs_.clear();
  components_.clear();
  apps_.clear();
  sensors_.clear();
  shards_.clear();
  sci_.reset();
}

void CampusChurn::setup(std::uint64_t seed) {
  teardown();
  sensor_index_.clear();
  index_of_seq_.assign(kSensors, {});
  published_at_.clear();
  generating_ = false;
  op_ = failed_ops_ = duplicates_ = strays_ = wild_next_ = 0;
  sampling_ = false;
  lat_ = {};
  handshake_ms_ = {};
  resolve_us_ = {};
  counts_ = {};

  if (building_ == nullptr) {
    building_ = std::make_unique<mobility::Building>(
        mobility::BuildingSpec{.floors = 1, .rooms_per_floor = 16});
  }
  sci_ = std::make_unique<Sci>(seed);
  rng_ = Rng(seed ^ 0xbf58476d1ce4e5b9ULL);
  gen_ = Rng(seed ^ 0x94d049bb133111ebULL);
  Sci& sci = *sci_;
  sci.set_location_directory(&building_->directory());
  RangeOptions options = durable_range_options();
  options.sharding.shard_count = kShards;
  auto created =
      sci.create_range("campus", building_->building_path(), options);
  SCI_ASSERT_MSG(created.has_value(), "create_range failed");
  shards_ = sci.shards("campus");
  range::ContextServer& lead = **created;

  for (unsigned s = 0; s < kSensors; ++s) {
    sensors_.push_back(std::make_unique<Sensor>(
        sci.network(), sci.new_guid(), "s" + std::to_string(s), kType));
    SCI_ASSERT(sci.enroll(*sensors_.back(), lead).is_ok());
    sensor_index_[sensors_.back()->id()] = s;
  }
  for (unsigned a = 0; a < kApps; ++a) {
    apps_.push_back(std::make_unique<Listener>(
        *this, sci.network(), sci.new_guid(), "a" + std::to_string(a)));
    SCI_ASSERT(sci.enroll(*apps_.back(), lead).is_ok());
  }
  for (unsigned i = 0; i < kIdleStart; ++i) enrol(nullptr);
  // The steady live set: three named subscriptions per wildcard one.
  while (live_.size() < kLiveSubs) {
    if (live_.size() % 4 == 3) {
      subscribe_wildcard(nullptr);
    } else {
      subscribe_named(nullptr);
    }
  }
  sci.run_for(Duration::millis(200));
  // Loss starts once the deployment stands, so setup_s stays a property of
  // the stack rather than of retransmit timers.
  net::LinkModel lossy = sci.network().link_model();
  lossy.drop_probability = kLoss;
  sci.network().set_link_model(lossy);
}

void CampusChurn::publish_next() {
  if (!generating_) return;
  const auto s = static_cast<unsigned>(gen_.next_below(kSensors));
  {
    AllocPause pause;
    index_of_seq_[s].push_back(
        static_cast<std::uint32_t>(published_at_.size()));
    published_at_.push_back(sci_->now());
  }
  const double reading = 15.0 + gen_.next_double() * 10.0;
  probed(tracer_, Probe::kPublishCall, [&] {
    sensors_[s]->publish(
        kType, reading_payload(reading, static_cast<std::int64_t>(
                                            published_at_.size())));
  });
  ++counts_.publishes;
  const double gap_s = -std::log(1.0 - gen_.next_double()) / kRate;
  next_publish_ = sci_->simulator().schedule(
      Duration::micros(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(gap_s * 1e6)))),
      [this] { publish_next(); });
}

void CampusChurn::warmup() {
  generating_ = true;
  publish_next();
  sci_->run_for(Duration::seconds(1));
  sampling_ = true;
}

void CampusChurn::enrol(Tracer* tracer) {
  {
    AllocPause pause;  // the component object is the bench's, not the stack's
    components_.push_back(std::make_unique<entity::ContextEntity>(
        sci_->network(), sci_->new_guid(),
        "c" + std::to_string(components_.size()),
        entity::EntityKind::kDevice));
  }
  entity::ContextEntity& c = *components_.back();
  const SimTime start = sci_->now();
  (void)probed(tracer, Probe::kEnroll,
               [&] { return sci_->enroll(c, *shards_[0]); });
  // Registration outlasting the facade's bounded wait (hello retransmits
  // under loss) still completes; only a deadline miss fails the op.
  if (!step_until(*sci_, [&] { return c.is_registered(); },
                  sci_->now() + kDeadline, tracer)) {
    ++failed_ops_;
  }
  AllocPause pause;
  if (sampling_ && tracer != nullptr) {
    handshake_ms_.add((sci_->now() - start).millis_f());
  }
  idle_.push_back(components_.size() - 1);
}

void CampusChurn::subscribe_named(Tracer* tracer) {
  const auto a = static_cast<unsigned>(rng_.next_below(kApps));
  const auto s = static_cast<unsigned>(rng_.next_below(kSensors));
  Listener& app = *apps_[a];
  const std::uint64_t before = app.results;
  const std::int64_t wall_start = wall_ns();
  Sub sub;
  sub.app = a;
  sub.producer = s;
  sub.submitted = sci_->now();
  auto handle = probed(tracer, Probe::kSubmitQuery, [&] {
    return sci_->submit_query(
        app, query::Builder("n" + std::to_string(counts_.queries), app.id())
                 .what_named(sensors_[s]->id())
                 .subscribe());
  });
  ++counts_.queries;
  const bool answered =
      handle.has_value() &&
      step_until(*sci_, [&] { return app.results > before; },
                 sci_->now() + kDeadline, tracer);
  const std::int64_t wall_end = wall_ns();
  if (!answered || !app.last_ok) {
    ++failed_ops_;
    return;
  }
  AllocPause pause;
  sub.tag = app.last_tag;
  sub.acked = sci_->now();
  sub.handle = *handle;
  if (sampling_) {
    lat_.sim_ms.push_back((sub.acked - sub.submitted).millis_f());
    lat_.wall_us.push_back(static_cast<double>(wall_end - wall_start) / 1e3);
    if (tracer != nullptr) {
      if (const auto outcome = handle->last_outcome()) {
        resolve_us_.add(outcome->resolve_micros);
      }
    }
  }
  add_sub(std::move(sub));
}

void CampusChurn::subscribe_wildcard(Tracer* tracer) {
  const auto a = static_cast<unsigned>(rng_.next_below(kApps));
  Listener& app = *apps_[a];
  const auto shard = sci_->shard_of("campus", app.id());
  SCI_ASSERT(shard.has_value());
  Sub sub;
  sub.app = a;
  sub.tag = kWildTag + wild_next_++;
  sub.submitted = sub.acked = sci_->now();
  // Slots start at the first event a delayed frame could still carry.
  sub.base = static_cast<std::uint64_t>(
      std::lower_bound(published_at_.begin(), published_at_.end(),
                       sub.submitted + Duration::micros(
                                           -kSettle.count_micros())) -
      published_at_.begin());
  sub.shard = *shard;
  sub.direct = probed(tracer, Probe::kSubscribePattern, [&] {
    return shards_[*shard]->subscribe_pattern(app.id(), kType, {}, sub.tag);
  });
  add_sub(std::move(sub));
}

void CampusChurn::update_profile(Tracer* tracer) {
  if (idle_.empty()) return;
  entity::ContextEntity& c =
      *components_[idle_[rng_.next_below(idle_.size())]];
  probed(tracer, Probe::kProfileUpdate, [&] {
    c.set_metadata(vmap({{"tick", static_cast<std::int64_t>(op_)}}));
  });
  ++counts_.updates;
}

void CampusChurn::cancel_oldest(Tracer* tracer) {
  if (live_.empty()) return;
  Sub& sub = subs_[live_.front()];
  live_.pop_front();
  const SimTime now = sci_->now();
  const bool cancelled = probed(tracer, Probe::kCancel, [&] {
    return sub.handle ? sub.handle->cancel()
                      : shards_[sub.shard]->unsubscribe(sub.direct).is_ok();
  });
  // A cancel the API reports as not done is a failed op. Deliveries are
  // then due up to the cancel and allowed (never twice) after it.
  sub.cancelled = now;
  if (!cancelled) {
    sub.cancel_failed = true;
    ++failed_ops_;
  }
}

void CampusChurn::stop_oldest(Tracer* tracer) {
  if (idle_.empty()) return;
  entity::ContextEntity& c = *components_[idle_.front()];
  idle_.pop_front();
  probed(tracer, Probe::kStop, [&] { c.stop(); });
}

void CampusChurn::unit(Tracer* tracer) {
  tracer_ = tracer;
  // A fixed cycle of eight ops: the live sets of components (one enrolled,
  // one stopped) and subscriptions (two in, two out) stay level.
  switch (op_ % 8) {
    case 0: enrol(tracer); break;
    case 1: subscribe_named(tracer); break;
    case 2: update_profile(tracer); break;
    case 3:
      if ((op_ / 8) % 2 == 0) {
        subscribe_wildcard(tracer);
      } else {
        subscribe_named(tracer);
      }
      break;
    case 4: cancel_oldest(tracer); break;
    case 5: cancel_oldest(tracer); break;
    case 6: stop_oldest(tracer); break;
    default: update_profile(tracer); break;
  }
  ++op_;
  ++counts_.ops;
  run_until(*sci_, sci_->now() + kThink, tracer);
  tracer_ = nullptr;
}

void CampusChurn::deliver(Listener& app, const event::Event& event,
                          std::uint64_t tag) {
  AllocPause pause;
  std::size_t index = subs_.size();
  for (const auto& [t, i] : app.subs) {
    if (t == tag) index = i;
  }
  const auto sensor = sensor_index_.find(event.source);
  if (index == subs_.size() || sensor == sensor_index_.end() ||
      event.sequence == 0 ||
      event.sequence > index_of_seq_[sensor->second].size()) {
    ++strays_;
    return;
  }
  Sub& sub = subs_[index];
  const std::uint64_t g = index_of_seq_[sensor->second][event.sequence - 1];
  const SimTime at = published_at_[g];
  const bool wildcard = sub.producer == kSensors;
  if ((!wildcard && sub.producer != sensor->second) ||
      at + kSettle < sub.submitted || (wildcard && g < sub.base) ||
      (!sub.cancelled.is_infinite() && !sub.cancel_failed &&
       sub.cancelled + kSettle < at)) {
    ++strays_;
    return;
  }
  const std::uint64_t slot = wildcard ? g - sub.base : event.sequence - 1;
  if (sub.seen.size() <= slot) sub.seen.resize(slot + 1, 0);
  if (sub.seen[slot]++ != 0) {
    ++duplicates_;
    return;
  }
  ++counts_.deliveries;
}

void CampusChurn::check(Report& report) {
  generating_ = false;
  sci_->simulator().cancel(next_publish_);
  sci_->run_for(Duration::seconds(10));  // retransmits under loss settle
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  for (const Sub& sub : subs_) {
    if (sub.acked.is_infinite()) continue;
    const SimTime from = sub.acked + kSettle;
    const SimTime to = sub.cancelled.is_infinite()
                           ? SimTime::infinity()
                           : sub.cancelled + Duration::micros(
                                                 -kSettle.count_micros());
    auto must = [&](std::uint64_t g, std::uint64_t slot) {
      const SimTime at = published_at_[g];
      if (at < from || !(at < to)) return;
      ++expected;
      if (slot >= sub.seen.size() || sub.seen[slot] == 0) ++missing;
    };
    if (sub.producer == kSensors) {
      for (std::uint64_t g = sub.base; g < published_at_.size(); ++g) {
        must(g, g - sub.base);
      }
    } else {
      const auto& seqs = index_of_seq_[sub.producer];
      for (std::uint64_t i = 0; i < seqs.size(); ++i) must(seqs[i], i);
    }
  }
  report.attempted += op_ + expected;
  report.failed += failed_ops_ + missing;
  if (missing > 0) {
    report.fail("exactly-once: " + std::to_string(missing) + " of " +
                std::to_string(expected) +
                " deliveries due inside subscription lifetimes never arrived");
  }
  if (duplicates_ > 0) {
    report.fail("exactly-once: " + std::to_string(duplicates_) +
                " duplicate deliveries");
  }
  if (strays_ > 0) {
    report.fail(std::to_string(strays_) +
                " deliveries outside any subscription's lifetime");
  }
  const std::uint64_t dead =
      sci_->metrics().snapshot().counter("rel.dead_letters");
  if (dead > 0) report.fail(std::to_string(dead) + " dead letters");
}

void CampusChurn::assign_roles(Tracer& tracer) const {
  for (const range::ContextServer* shard : shards_) {
    tracer.set_role(shard->server_node(), Role::kPrimary);
    tracer.set_role(shard->id(), Role::kPrimary);
    for (const range::ContextServer* standby :
         sci_->standbys(shard->config().name)) {
      tracer.set_role(standby->attached_node(), Role::kStandby);
    }
  }
  for (const auto& app : apps_) tracer.set_role(app->id(), Role::kSubscriber);
  for (const auto& s : sensors_) tracer.set_role(s->id(), Role::kProducer);
  for (const auto& c : components_) tracer.set_role(c->id(), Role::kProducer);
}

void CampusChurn::layer_probes(Report& report) {
  report.add("range.resolve_p99_us", resolve_us_.quantile(0.99), "us");
  report.add("range.handshake_sim_ms", handshake_ms_.mean(), "ms");
  std::vector<event::Event> mix;
  Rng rng(23);
  for (unsigned i = 0; i < 512; ++i) {
    event::Event e;
    e.type = kType;
    e.source = sensors_[rng.next_below(kSensors)]->id();
    e.sequence = i + 1;
    e.payload = reading_payload(20.0, i);
    mix.push_back(std::move(e));
  }
  probe_event_table(*sci_, mix, report);
  probe_route_cost(building_->directory(), building_->rooms(),
                   building_->rooms(), report);
}

}  // namespace

std::unique_ptr<Workload> make_campus_churn() {
  return std::make_unique<CampusChurn>();
}

}  // namespace perfbench
