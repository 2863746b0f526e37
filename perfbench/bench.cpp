// End-to-end SCI benchmark — harness implementation: allocation audit,
// exact-sample percentiles, the span recorder and the report printer.
#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// ---------------------------------------------------------------------------
// Allocation counting: a replacement global operator new (the fig2 idiom).
// The simulation is single-threaded, so plain integers suffice.

namespace {
std::uint64_t g_allocations = 0;
int g_paused = 0;
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_paused == 0) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (g_paused == 0) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() { return g_allocations; }
AllocPause::AllocPause() { ++g_paused; }
AllocPause::~AllocPause() { --g_paused; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p * static_cast<double>(values_.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::tail_mean(double share) const {
  if (values_.empty()) return 0.0;
  (void)quantile(0.5);  // sorts
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(share * static_cast<double>(values_.size()))));
  double sum = 0.0;
  for (std::size_t i = values_.size() - n; i < values_.size(); ++i) {
    sum += values_[i];
  }
  return sum / static_cast<double>(n);
}

std::size_t Samples::beyond(double p) const {
  const double q = quantile(p);
  return static_cast<std::size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), q));
}

// ---------------------------------------------------------------------------

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Report::note(std::string_view name, double value, std::string_view unit,
                  std::size_t samples) {
  std::string line = "  " + std::string(name) + " = " + number(value) + " " +
                     std::string(unit);
  if (samples > 0) line += "  (n=" + std::to_string(samples) + ")";
  detail.push_back(std::move(line));
}

void Report::note_percentile(std::string_view name, const Samples& s, double p,
                             std::string_view unit) {
  std::string line = "  " + std::string(name) + " = " +
                     number(s.quantile(p)) + " " + std::string(unit) +
                     "  (n=" + std::to_string(s.size());
  if (p > 0.5) line += ", beyond=" + std::to_string(s.beyond(p));
  line += ")";
  detail.push_back(std::move(line));
  if (p > 0.5 && s.beyond(p) < 10) {
    fail(std::string(name) + ": fewer than ten samples beyond the percentile");
  }
}

void print_report(const Report& report) {
  for (const std::string& line : report.detail) std::printf("%s\n", line.c_str());
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  if (report.correct) {
    bool first = true;
    for (const Metric& m : report.metrics) {
      if (!first) json += ", ";
      first = false;
      json += quoted(m.name) + ": {\"value\": " + number(m.value) +
              ", \"unit\": " + quoted(m.unit) + "}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

namespace {
// Trace ring size in the traced run; pending steps are resolved before half
// of it can be overwritten.
constexpr std::size_t kTraceRing = std::size_t{1} << 16;
}  // namespace

Tracer::Tracer(Sci& sci) : sci_(sci), trace_(sci.trace()) {
  trace_.set_enabled(true);
  trace_.set_capacity(kTraceRing);
  pending_.reserve(kTraceRing);
}

bool Tracer::step(SimTime until) {
  const std::uint64_t first = trace_.total_recorded();
  nested_ns_ = 0;
  ++depth_;
  const std::int64_t start = wall_ns();
  const bool stepped = sci_.simulator().step(until);
  const std::int64_t elapsed = wall_ns() - start;
  --depth_;
  if (depth_ == 0) attributed_ns_ += elapsed;
  if (!stepped) return false;
  ++steps_;
  const std::int64_t self = elapsed - nested_ns_;
  const std::uint64_t end = trace_.total_recorded();
  if (end == first) {
    attribute(Role::kTimer, self);
  } else {
    pending_.push_back(Pending{self, first, end});
    if (end - pending_.front().first_record > kTraceRing / 2) drain();
  }
  const std::uint64_t depth = sci_.simulator().pending_events();
  if (depth > queue_depth_max_) queue_depth_max_ = depth;
  return true;
}

void Tracer::close_probe(Probe which, std::int64_t start) {
  const std::int64_t elapsed = wall_ns() - start;
  --depth_;
  probe_ns_[static_cast<std::size_t>(which)] += elapsed;
  ++probe_calls_[static_cast<std::size_t>(which)];
  if (depth_ == 0) {
    attributed_ns_ += elapsed;
  } else {
    nested_ns_ += elapsed;
  }
}

void Tracer::attribute(Role role, std::int64_t self_ns) {
  role_ns_[static_cast<std::size_t>(role)] += self_ns;
  ++role_steps_[static_cast<std::size_t>(role)];
}

void Tracer::drain() {
  if (pending_.empty()) return;
  const std::vector<obs::TraceRecord> records = trace_.snapshot();
  const std::uint64_t base = trace_.total_recorded() - records.size();
  for (const Pending& p : pending_) {
    Role role = Role::kTimer;
    for (std::uint64_t i = std::max(p.first_record, base); i < p.end_record;
         ++i) {
      const obs::TraceRecord& r = records[i - base];
      if (r.kind != obs::TraceKind::kMessageDeliver) continue;
      const auto it = roles_.find(r.b);
      role = it == roles_.end() ? Role::kOther : it->second;
      break;
    }
    attribute(role, p.self_ns);
  }
  pending_.clear();
}

void Tracer::finish() { drain(); }

double Tracer::role_mean_us(Role role) const {
  const auto i = static_cast<std::size_t>(role);
  return role_steps_[i] == 0 ? 0.0
                             : static_cast<double>(role_ns_[i]) / 1e3 /
                                   static_cast<double>(role_steps_[i]);
}

double Tracer::probe_mean_us(Probe which) const {
  const auto i = static_cast<std::size_t>(which);
  return probe_calls_[i] == 0 ? 0.0
                              : static_cast<double>(probe_ns_[i]) / 1e3 /
                                    static_cast<double>(probe_calls_[i]);
}

void run_until(Sci& sci, SimTime until, Tracer* tracer) {
  if (tracer == nullptr) {
    sci.simulator().run_until(until);
    return;
  }
  while (tracer->step(until)) {
  }
  // Moves the clock to the horizon exactly as the untraced run does.
  sci.simulator().run_until(until);
}

// ---------------------------------------------------------------------------

// Spelled out rather than left to the facade's defaults, so a later change
// of defaults cannot silently change what the benchmark measures.
RangeOptions durable_range_options() {
  RangeOptions options;
  options.reliability.acked_delivery = true;
  options.replication.standby_count = 1;
  options.replication.sync_acks = 1;
  options.durability.enable = true;
  options.durability.ack_after_fsync = true;
  options.views.enable = true;
  return options;
}

Value reading_payload(double reading, std::int64_t counter) {
  return vmap({{"reading", reading}, {"unit", "celsius"}, {"n", counter}});
}

}  // namespace perfbench
