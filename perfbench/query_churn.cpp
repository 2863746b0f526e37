// query_churn — closed-loop Fig-6 queries across two ranges.
//
// fig11's BM_RepeatedQueries traffic, spread over two ranges: 48 users,
// 160 printers (one per room of a 2 x 80-room building, one range per floor,
// joined in SCINET), Zipf(1) over the users, a user moving every 25 queries
// and one printer out of paper at a time. The paper-out rotation runs every
// 80 queries rather than fig11's 400: a 4000-query prefix then holds 50
// rotations instead of 10, and the uncached resolves they cause — the
// expensive queries — no longer vary by ~13% between seeds (IQR over
// median, seeds 1-10) but by ~4%. One app, enrolled on floor 0, waits
// for each reply before asking again: "closest printer with paper" for the
// chosen user. Users alternate floors by Zipf rank, so the odd ranks — about
// 42% of the asks (H(24) / 2H(48)) — are about users on floor 1; those
// queries are scoped in() the user's room there and forwarded over the
// overlay. After a move or a paper change the system quiesces before the
// next ask, so the bench-side oracle — the true closest printer with paper
// by route cost — is exact. The unit of work is one answered query.
#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "entity/printer.h"

namespace perfbench {
namespace {

constexpr unsigned kFloors = 2;
constexpr unsigned kRoomsPerFloor = 80;
constexpr unsigned kRooms = kFloors * kRoomsPerFloor;
constexpr unsigned kUsers = 48;
// As in fig11: one printer out of paper at a time.
constexpr unsigned kPaperless = 1;
constexpr unsigned kMovePeriod = 25;    // a user moves every N queries
constexpr unsigned kPaperPeriod = 80;   // a paper swap every N queries
constexpr Duration kQuiesce = Duration::millis(100);
constexpr Duration kAnswerDeadline = Duration::seconds(10);
constexpr std::uint64_t kPrefixQueries = 4000;

class Asker final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  std::uint64_t replies = 0;
  bool last_ok = false;
  std::string last_winner;

 protected:
  void on_query_result(const std::string&, const Error& error,
                       const Value& result) override {
    ++replies;
    last_ok = error.ok();
    AllocPause pause;
    last_winner = error.ok() ? result.at("name").string_or("") : "";
  }
};

class QueryChurn final : public Workload {
 public:
  void teardown() override;
  void setup(std::uint64_t seed) override;
  void warmup() override;
  void unit(Tracer* tracer) override;
  [[nodiscard]] std::uint64_t prefix_units() const override {
    return kPrefixQueries;
  }
  [[nodiscard]] std::size_t replays() const override { return 5; }
  void end_prefix() override { sampling_ = false; }
  void check(Report& report) override;
  [[nodiscard]] const Latencies& latencies() const override { return lat_; }
  [[nodiscard]] std::string_view wall_label() const override {
    return "query_wall";
  }
  [[nodiscard]] std::string_view sim_label() const override {
    return "answer_sim";
  }
  void assign_roles(Tracer& tracer) const override;
  void layer_probes(Report& report) override;
  [[nodiscard]] const WorkCounts& counts() const override { return counts_; }
  [[nodiscard]] Sci& sci() override { return *sci_; }
  [[nodiscard]] std::string_view op_unit() const override { return "queries"; }

 private:
  static unsigned floor_of(unsigned room) { return room / kRoomsPerFloor; }
  location::PlaceId place(unsigned room) const {
    return building_->room(floor_of(room), room % kRoomsPerFloor);
  }
  unsigned pick_user();
  void ask(unsigned user, Tracer* tracer);
  void churn(Tracer* tracer);
  // True when `winner` is a closest printer with paper as seen from `room`.
  bool oracle_accepts(unsigned room, unsigned winner) const;

  std::unique_ptr<Sci> sci_;
  std::unique_ptr<mobility::Building> building_;
  range::ContextServer* ranges_[kFloors] = {};
  std::vector<std::unique_ptr<entity::PrinterCE>> printers_;  // by room
  std::vector<std::unique_ptr<entity::ContextEntity>> users_;
  std::unique_ptr<Asker> app_;

  // Ground truth.
  std::vector<unsigned> user_room_;
  std::vector<bool> has_paper_;
  std::deque<unsigned> paperless_;
  std::vector<std::vector<double>> cost_;  // [room][room], same floor only

  Rng rng_{0};
  std::vector<double> zipf_cumulative_;
  std::uint64_t asked_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t stale_ = 0;
  bool sampling_ = false;
  Latencies lat_;
  Samples resolve_us_;
  WorkCounts counts_;
};

void QueryChurn::teardown() {
  app_.reset();
  users_.clear();
  printers_.clear();
  sci_.reset();
  std::fill(std::begin(ranges_), std::end(ranges_), nullptr);
}

void QueryChurn::setup(std::uint64_t seed) {
  teardown();
  counts_ = {};
  asked_ = failed_ = stale_ = 0;
  sampling_ = false;
  lat_ = {};
  resolve_us_ = {};
  paperless_.clear();
  has_paper_.assign(kRooms, true);
  user_room_.assign(kUsers, 0);

  if (building_ == nullptr) {
    building_ = std::make_unique<mobility::Building>(mobility::BuildingSpec{
        .floors = kFloors, .rooms_per_floor = kRoomsPerFloor});
  }
  sci_ = std::make_unique<Sci>(seed);
  rng_ = Rng(seed ^ 0x2545f4914f6cdd1dULL);
  Sci& sci = *sci_;
  sci.set_location_directory(&building_->directory());
  for (unsigned f = 0; f < kFloors; ++f) {
    auto created =
        sci.create_range(f == 0 ? "west" : "east", building_->floor_path(f),
                         durable_range_options());
    SCI_ASSERT_MSG(created.has_value(), "create_range failed");
    ranges_[f] = *created;
  }
  for (unsigned room = 0; room < kRooms; ++room) {
    printers_.push_back(std::make_unique<entity::PrinterCE>(
        sci.network(), sci.new_guid(), "P" + std::to_string(room),
        place(room)));
    SCI_ASSERT(sci.enroll(*printers_.back(), *ranges_[floor_of(room)]).is_ok());
  }
  for (unsigned u = 0; u < kUsers; ++u) {
    const unsigned floor = u % kFloors;
    const unsigned room =
        floor * kRoomsPerFloor +
        static_cast<unsigned>(rng_.next_below(kRoomsPerFloor));
    user_room_[u] = room;
    users_.push_back(std::make_unique<entity::ContextEntity>(
        sci.network(), sci.new_guid(), "U" + std::to_string(u),
        entity::EntityKind::kPerson));
    users_[u]->set_location(location::LocRef::from_place(place(room)));
    SCI_ASSERT(sci.enroll(*users_[u], *ranges_[floor]).is_ok());
  }
  app_ = std::make_unique<Asker>(sci.network(), sci.new_guid(), "asker",
                                 entity::EntityKind::kSoftware);
  SCI_ASSERT(sci.enroll(*app_, *ranges_[0]).is_ok());
  // The initial paperless set.
  while (paperless_.size() < kPaperless) {
    const auto room = static_cast<unsigned>(rng_.next_below(kRooms));
    if (!has_paper_[room]) continue;
    has_paper_[room] = false;
    printers_[room]->set_paper(false);
    paperless_.push_back(room);
  }
  sci.run_for(Duration::seconds(1));

  zipf_cumulative_.clear();
  double total = 0.0;
  for (unsigned u = 0; u < kUsers; ++u) {
    total += 1.0 / static_cast<double>(u + 1);
    zipf_cumulative_.push_back(total);
  }
}

unsigned QueryChurn::pick_user() {
  const double pick = rng_.next_double() * zipf_cumulative_.back();
  return static_cast<unsigned>(
      std::lower_bound(zipf_cumulative_.begin(), zipf_cumulative_.end(),
                       pick) -
      zipf_cumulative_.begin());
}

void QueryChurn::warmup() {
  // The oracle's route costs: static topology, computed once per process.
  if (cost_.empty()) {
    AllocPause pause;
    cost_.assign(kRooms, std::vector<double>(kRooms, -1.0));
    for (unsigned a = 0; a < kRooms; ++a) {
      for (unsigned b = 0; b < kRooms; ++b) {
        if (floor_of(a) != floor_of(b)) continue;
        const auto cost = building_->directory().route_cost(place(a), place(b));
        SCI_ASSERT(cost.has_value());
        cost_[a][b] = *cost;
      }
    }
  }
  // Every user's query is primed once.
  for (unsigned u = 0; u < kUsers; ++u) ask(u, nullptr);
  sampling_ = true;
}

bool QueryChurn::oracle_accepts(unsigned room, unsigned winner) const {
  if (winner >= kRooms || floor_of(winner) != floor_of(room) ||
      !has_paper_[winner]) {
    return false;
  }
  double best = -1.0;
  for (unsigned r = floor_of(room) * kRoomsPerFloor;
       r < (floor_of(room) + 1) * kRoomsPerFloor; ++r) {
    if (has_paper_[r] && (best < 0.0 || cost_[room][r] < best)) {
      best = cost_[room][r];
    }
  }
  return cost_[room][winner] <= best + 1e-9;
}

void QueryChurn::ask(unsigned user, Tracer* tracer) {
  const unsigned room = user_room_[user];
  const std::uint64_t before = app_->replies;
  const std::int64_t wall_start = wall_ns();
  const SimTime sim_start = sci_->now();
  auto handle = probed(tracer, Probe::kSubmitQuery, [&] {
    query::Builder b("q" + std::to_string(asked_), app_->id());
    b.what_entity_type("printing");
    if (floor_of(room) == 0) {
      b.closest_to(users_[user]->id());
    } else {
      // Scoped in() the user's room on the other range: forwarded.
      b.in(building_->room_path(floor_of(room), room % kRoomsPerFloor));
    }
    return sci_->submit_query(
        *app_, b.select(query::SelectPolicy::kClosest)
                   .require("has_paper", Value(true))
                   .advertisement());
  });
  ++asked_;
  ++counts_.queries;
  const bool answered =
      handle.has_value() &&
      step_until(*sci_, [&] { return app_->replies > before; },
                 sci_->now() + kAnswerDeadline, tracer);
  const std::int64_t wall_end = wall_ns();
  AllocPause pause;
  if (!answered || !app_->last_ok) {
    ++failed_;
    return;
  }
  ++counts_.ops;
  const unsigned winner = static_cast<unsigned>(
      std::strtoul(app_->last_winner.c_str() + 1, nullptr, 10));
  if (app_->last_winner.empty() || !oracle_accepts(room, winner)) ++stale_;
  if (sampling_) {
    lat_.sim_ms.push_back((sci_->now() - sim_start).millis_f());
    lat_.wall_us.push_back(static_cast<double>(wall_end - wall_start) / 1e3);
    if (tracer != nullptr) {
      if (const auto outcome = handle->last_outcome()) {
        resolve_us_.add(outcome->resolve_micros);
      }
    }
  }
}

void QueryChurn::churn(Tracer* tracer) {
  bool changed = false;
  if (asked_ % kMovePeriod == 0) {
    const auto u = static_cast<unsigned>(rng_.next_below(kUsers));
    const unsigned floor = u % kFloors;
    const unsigned room =
        floor * kRoomsPerFloor +
        static_cast<unsigned>(rng_.next_below(kRoomsPerFloor));
    user_room_[u] = room;
    probed(tracer, Probe::kProfileUpdate, [&] {
      users_[u]->set_location(location::LocRef::from_place(place(room)));
    });
    ++counts_.updates;
    changed = true;
  }
  if (asked_ % kPaperPeriod == 0) {
    const unsigned restored = paperless_.front();
    paperless_.pop_front();
    has_paper_[restored] = true;
    unsigned victim = 0;
    do {
      victim = static_cast<unsigned>(rng_.next_below(kRooms));
    } while (!has_paper_[victim]);
    has_paper_[victim] = false;
    paperless_.push_back(victim);
    probed(tracer, Probe::kProfileUpdate, [&] {
      printers_[restored]->set_paper(true);
      printers_[victim]->set_paper(false);
    });
    counts_.updates += 2;
    changed = true;
  }
  if (changed) run_until(*sci_, sci_->now() + kQuiesce, tracer);
}

void QueryChurn::unit(Tracer* tracer) {
  churn(tracer);
  ask(pick_user(), tracer);
}

void QueryChurn::check(Report& report) {
  sci_->run_for(Duration::seconds(1));
  report.attempted += asked_;
  report.failed += failed_;
  if (stale_ > 0) {
    report.fail("stale answers: " + std::to_string(stale_) + " of " +
                std::to_string(asked_) + " named a printer the oracle rejects");
  }
  const std::uint64_t dead =
      sci_->metrics().snapshot().counter("rel.dead_letters");
  if (dead > 0) report.fail(std::to_string(dead) + " dead letters");
}

void QueryChurn::assign_roles(Tracer& tracer) const {
  for (const range::ContextServer* range : ranges_) {
    tracer.set_role(range->server_node(), Role::kPrimary);
    tracer.set_role(range->id(), Role::kPrimary);
    for (const range::ContextServer* standby :
         sci_->standbys(range->config().name)) {
      tracer.set_role(standby->attached_node(), Role::kStandby);
    }
  }
  tracer.set_role(app_->id(), Role::kSubscriber);
  for (const auto& p : printers_) tracer.set_role(p->id(), Role::kProducer);
  for (const auto& u : users_) tracer.set_role(u->id(), Role::kProducer);
}

void QueryChurn::layer_probes(Report& report) {
  report.add("range.resolve_p99_us", resolve_us_.quantile(0.99), "us");
  std::vector<event::Event> mix;
  for (unsigned room = 0; room < kRooms; ++room) {
    event::Event e;
    e.type = entity::types::kPrinterStatus;
    e.source = printers_[room]->id();
    e.sequence = 1;
    mix.push_back(std::move(e));
  }
  probe_event_table(*sci_, mix, report);
  std::vector<location::PlaceId> anchors;
  for (const unsigned room : user_room_) anchors.push_back(place(room));
  probe_route_cost(building_->directory(), anchors, building_->rooms(),
                   report);
}

}  // namespace

std::unique_ptr<Workload> make_query_churn() {
  return std::make_unique<QueryChurn>();
}

}  // namespace perfbench
