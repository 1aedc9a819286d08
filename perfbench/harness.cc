#include "harness.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology_spec.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace perfbench {

namespace net = wasp::net;
namespace obs = wasp::obs;
namespace runtime = wasp::runtime;
namespace faults = wasp::faults;
namespace workload = wasp::workload;
using wasp::OperatorId;
using wasp::Rng;
using wasp::SiteId;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Paper testbed (§8.2) and the uniform clique at 1000 ev/s per site.
constexpr double kPaperRateEps = 10'000.0;
constexpr double kUniformRateEps = 1'000.0;

}  // namespace

// ---- Workloads --------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  // Run lengths keep one run well under a second at today's speed (~7 us,
  // ~5.7 ms and ~200 us per tick), so one benchmark run (BENCHMARK.json's
  // run_seconds) covers dozens of runs; the input-set counts average out how
  // strongly one seed's dynamics sway the tick cost.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"paper16-live", WorkloadKind::kPaper16Live, 20'000, 32},
      {"uniform256-steady", WorkloadKind::kUniform256Steady, 100, 2},
      {"paper16-chaos-traced", WorkloadKind::kPaper16ChaosTraced,
       static_cast<int>(kChaosCycleSec + kChaosTailSec), 32},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint64_t input_seed(std::uint64_t seed, int index) {
  return splitmix64(splitmix64(seed) + static_cast<std::uint64_t>(index));
}

// ---- Trace sink ---------------------------------------------------------------

void CountingSink::write(const obs::TraceEvent& event) {
  const auto start = timed_ ? Clock::now() : Clock::time_point{};
  std::string line = obs::to_json_line(event);
  line.push_back('\n');
  auto it = by_type_.find(event.type);
  if (it == by_type_.end()) it = by_type_.emplace(event.type, Tally{}).first;
  it->second.events += 1;
  it->second.bytes += line.size();
  total_.events += 1;
  total_.bytes += line.size();
  if (timed_) busy_ns_ += elapsed_ns(start);
}

// ---- Chaos schedule -------------------------------------------------------------

std::string chaos_schedule_text(const net::Topology& topology,
                                std::uint64_t seed, int cycles) {
  // Protected sites: the heartbeat coordinator (FailureDetector's default
  // pick, the site with the most slots, lowest id on ties) and the sink (the
  // first data center, where topk pins it).
  const auto& sites = topology.sites();
  SiteId coordinator = sites.front().id;
  int most_slots = sites.front().slots;
  SiteId sink{-1};
  for (const auto& site : sites) {
    if (site.slots > most_slots) {
      most_slots = site.slots;
      coordinator = site.id;
    }
    if (!sink.valid() && site.type == net::SiteType::kDataCenter) {
      sink = site.id;
    }
  }
  const std::set<int> protected_domains = {topology.domain_of(coordinator),
                                           topology.domain_of(sink)};
  std::vector<SiteId> crashable, edges;
  std::set<int> domain_set;
  for (const auto& site : sites) {
    if (site.type == net::SiteType::kEdge) {
      edges.push_back(site.id);
      continue;
    }
    if (protected_domains.count(topology.domain_of(site.id)) != 0) continue;
    crashable.push_back(site.id);
    domain_set.insert(topology.domain_of(site.id));
  }
  const std::vector<int> domains(domain_set.begin(), domain_set.end());

  Rng rng(seed);
  auto pick = [&rng](const auto& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  auto jitter = [&rng](double lo, double hi) {
    return std::round(rng.uniform(lo, hi));
  };

  std::ostringstream out;
  for (int c = 0; c < cycles; ++c) {
    const double base = c * kChaosCycleSec;
    // Flapping link from an edge into a crashable data center.
    const double flap_at = base + jitter(20, 40);
    out << flap_at << " flap from=" << pick(edges).value()
        << " to=" << pick(crashable).value()
        << " period=" << jitter(8, 16) << " duration=" << jitter(50, 80)
        << "\n";
    // Whole-site crash, restored 60-120 s later.
    const double crash_at = base + jitter(140, 160);
    const SiteId crashed = pick(crashable);
    out << crash_at << " crash site=" << crashed.value() << "\n"
        << crash_at + jitter(60, 120) << " restore site=" << crashed.value()
        << "\n";
    // Directed partition that heals itself.
    const SiteId a = pick(sites).id;
    SiteId b = pick(sites).id;
    while (b == a) b = pick(sites).id;
    out << base + jitter(300, 320) << " partition from=" << a.value()
        << " to=" << b.value() << " duration=" << jitter(20, 50) << "\n";
    // Correlated failure of one data-center domain.
    const double down_at = base + jitter(400, 420);
    const int domain = pick(domains);
    out << down_at << " domain_down domain=" << domain << "\n"
        << down_at + jitter(90, 150) << " domain_restore domain=" << domain
        << "\n";
    // Straggler onset and clear.
    const double slow_at = base + jitter(640, 660);
    const SiteId slow = pick(crashable);
    out << slow_at << " straggler site=" << slow.value()
        << " factor=" << jitter(2, 5) / 10.0 << "\n"
        << slow_at + jitter(40, 80) << " straggler site=" << slow.value()
        << " factor=1\n";
    // Control-plane stall.
    out << base + jitter(780, 800) << " stall duration=" << jitter(10, 30)
        << "\n";
  }
  return out.str();
}

bool faults_clear_by(const faults::FaultSchedule& schedule,
                     double horizon_sec, std::string* why) {
  // Open faults keyed by kind and subject; the value is when it opened.
  std::map<std::pair<int, std::int64_t>, double> open;
  auto link_key = [](const faults::FaultEvent& e) {
    return e.from.value() * 1'000'003 + e.to.value();
  };
  auto fail = [why](const std::string& what, double t) {
    if (why != nullptr) {
      std::ostringstream msg;
      msg << what << " at t=" << t;
      *why = msg.str();
    }
    return false;
  };
  for (const auto& e : schedule.events()) {
    if (e.t >= horizon_sec) return fail("fault past the horizon", e.t);
    switch (e.kind) {
      case faults::FaultKind::kSiteCrash:
        open[{0, e.site.value()}] = e.t;
        break;
      case faults::FaultKind::kSiteRestore:
        open.erase({0, e.site.value()});
        break;
      case faults::FaultKind::kDomainDown:
        open[{1, e.domain}] = e.t;
        break;
      case faults::FaultKind::kDomainRestore:
        open.erase({1, e.domain});
        break;
      case faults::FaultKind::kLinkPartition:
        if (e.duration_sec > 0.0) {
          if (e.t + e.duration_sec >= horizon_sec) {
            return fail("partition heals past the horizon", e.t);
          }
        } else {
          open[{2, link_key(e)}] = e.t;
        }
        break;
      case faults::FaultKind::kLinkHeal:
        open.erase({2, link_key(e)});
        break;
      case faults::FaultKind::kLinkFlap:
      case faults::FaultKind::kControlStall:
        if (e.t + e.duration_sec >= horizon_sec) {
          return fail(std::string(faults::to_string(e.kind)) +
                          " ends past the horizon",
                      e.t);
        }
        break;
      case faults::FaultKind::kStraggler:
        if (e.factor < 1.0) {
          open[{3, e.site.value()}] = e.t;
        } else {
          open.erase({3, e.site.value()});
        }
        break;
    }
  }
  if (!open.empty()) {
    static const char* const kOpenKinds[] = {"crash", "domain_down",
                                             "partition", "straggler"};
    const auto& [key, t] = *open.begin();
    return fail(std::string(kOpenKinds[key.first]) + " never cleared", t);
  }
  return true;
}

// ---- Measuring --------------------------------------------------------------------

Percentile percentile(std::vector<double> values, double pct) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return {values[lo] + frac * (values[hi] - values[lo]), values.size()};
}

namespace {

// Bucket layout: values below 2^kSubBits land in exact unit buckets; above,
// each power of two splits into 2^kSubBits equal buckets.
constexpr int kSubBits = 7;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int exp = std::bit_width(ns) - 1;  // >= kSubBits
  const std::uint64_t sub = (ns >> (exp - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>((exp - kSubBits + 1) * kSub + sub);
}

// [lower bound, width) of a bucket, in ns.
std::pair<double, double> bucket_range(std::size_t bucket) {
  if (bucket < kSub) return {static_cast<double>(bucket), 1.0};
  const int exp = static_cast<int>(bucket / kSub) - 1 + kSubBits;
  const std::uint64_t sub = bucket % kSub;
  const double width = std::ldexp(1.0, exp - kSubBits);
  return {static_cast<double>(kSub + sub) * width, width};
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::add(std::uint64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

Percentile LatencyHistogram::percentile_us(double pct) const {
  if (count_ == 0) return {};
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 * static_cast<double>(count_);
  double below = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto in_bucket = static_cast<double>(buckets_[b]);
    if (in_bucket == 0.0) continue;
    if (below + in_bucket >= rank) {
      const auto [lo, width] = bucket_range(b);
      const double frac = std::clamp((rank - below) / in_bucket, 0.0, 1.0);
      return {(lo + frac * width) / 1e3, count_};
    }
    below += in_bucket;
  }
  return {};  // unreachable: rank <= count_
}

namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  void number(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void series(const wasp::TimeSeries& s) {
    bytes(s.name().data(), s.name().size());
    for (const auto& [t, v] : s.points()) {
      number(t);
      number(v);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::uint64_t results_digest(const runtime::WaspSystem& system) {
  Fnv1a h;
  const auto& rec = system.recorder();
  h.series(rec.delay());
  h.series(rec.ratio());
  h.series(rec.parallelism());
  h.series(rec.backlog());
  for (const auto& [name, value] : system.metrics().snapshot()) {
    h.bytes(name.data(), name.size());
    h.number(value);
  }
  return h.value();
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

// ---- Running ------------------------------------------------------------------------

namespace {

double counter_value(const obs::MetricsRegistry& metrics,
                     std::string_view name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

// Sources, sink and roles of the topk query: on the paper testbed every edge
// feeds a source (split east/west) and the first data center hosts the
// sink; on the uniform clique site 0 is the sink hub and every other site a
// source, split by parity.
workload::QuerySpec make_query(const net::Topology& topology, bool uniform) {
  std::vector<SiteId> east, west;
  SiteId sink{-1};
  for (const auto& site : topology.sites()) {
    if (uniform) {
      if (!sink.valid()) {
        sink = site.id;
        continue;
      }
      (site.id.value() % 2 != 0 ? east : west).push_back(site.id);
    } else if (site.type == net::SiteType::kEdge) {
      (east.size() <= west.size() ? east : west).push_back(site.id);
    } else if (!sink.valid()) {
      sink = site.id;
    }
  }
  return workload::make_topk_topics(east, west, sink);
}

}  // namespace

RunOutcome execute(const WorkloadSpec& spec, std::uint64_t seed, bool profile,
                   LatencyHistogram* ticks_ns) {
  const bool uniform = spec.kind == WorkloadKind::kUniform256Steady;
  const bool chaos = spec.kind == WorkloadKind::kPaper16ChaosTraced;
  RunOutcome out;
  out.ticks = spec.ticks;

  std::shared_ptr<CountingSink> sink;
  if (chaos) sink = std::make_shared<CountingSink>(profile);

  auto t0 = Clock::now();
  Rng topo_rng(seed);
  const net::Topology topology =
      uniform ? net::TopologySpec::parse("uniform:sites=256")->build(topo_rng)
              : net::Topology::make_paper_testbed(topo_rng);
  out.topology_s = elapsed_s(t0);

  t0 = Clock::now();
  std::shared_ptr<const net::BandwidthModel> bandwidth;
  if (uniform) {
    bandwidth = std::make_shared<net::ConstantBandwidth>();
  } else {
    Rng bw_rng(seed + 1);
    net::RandomWalkBandwidth::Config cfg;
    cfg.horizon_sec = spec.ticks;
    cfg.min_factor = 0.51;
    cfg.max_factor = 2.36;
    bandwidth = std::make_shared<net::RandomWalkBandwidth>(
        topology.num_sites(), cfg, bw_rng);
  }
  net::Network network(topology, bandwidth);
  out.network_s = elapsed_s(t0);

  // Generated fault inputs are benchmark-side: not part of set-up time.
  faults::FaultSchedule schedule;
  if (chaos) {
    const int cycles = static_cast<int>(
        (spec.ticks - kChaosTailSec) / kChaosCycleSec);
    std::istringstream text(chaos_schedule_text(topology, seed, cycles));
    std::string error;
    out.checks.expect(faults::FaultSchedule::parse(text, &schedule, &error),
                      "chaos schedule parses: " + error);
    out.checks.expect(faults_clear_by(schedule, spec.ticks, &error),
                      "chaos schedule clears its faults: " + error);
  }

  t0 = Clock::now();
  workload::QuerySpec query = make_query(topology, uniform);
  std::unique_ptr<workload::WorkloadPattern> pattern;
  Rng wl_rng(seed + 2);
  if (spec.kind == WorkloadKind::kPaper16Live) {
    workload::RandomWalkWorkload::Config cfg;
    cfg.horizon_sec = spec.ticks;
    auto live = std::make_unique<workload::RandomWalkWorkload>(cfg, wl_rng);
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        live->set_base_rate(src, s, kPaperRateEps);
      }
    }
    pattern = std::move(live);
  } else {
    // Uniform: 1000 ev/s per site on average, each site within +/-10%.
    auto steady = std::make_unique<workload::SteppedWorkload>();
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        steady->set_base_rate(
            src, s,
            uniform ? kUniformRateEps * wl_rng.uniform(0.9, 1.1)
                    : kPaperRateEps);
      }
    }
    pattern = std::move(steady);
  }
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.seed = seed;
  config.threads = 1;
  config.profile = profile;
  // Only the shutdown profile event: periodic ones would add trace volume
  // the unprofiled runs do not have.
  config.profile_every = std::numeric_limits<int>::max();
  if (chaos) {
    config.standby_replicas = 1;
    config.trace_sink = sink;
  }
  auto system = std::make_unique<runtime::WaspSystem>(
      network, std::move(query), *pattern, config);
  std::unique_ptr<faults::FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<faults::FaultInjector>(
        network, std::move(schedule), Rng(seed ^ 0xFA17));
    faults::FaultInjector::Hooks hooks;
    runtime::WaspSystem* sys = system.get();
    hooks.crash_site = [sys](SiteId s) { sys->fail_sites({s}); };
    hooks.restore_site = [sys](SiteId s) { sys->restore_sites({s}); };
    hooks.set_straggler = [sys](SiteId s, double f) {
      sys->mutable_engine().set_straggler(s, f);
    };
    hooks.stall_control = [sys](double sec) { sys->stall_control_for(sec); };
    injector->set_hooks(std::move(hooks));
    injector->set_trace(&system->trace());
  }
  out.deploy_s = elapsed_s(t0);

  const auto loop_start = Clock::now();
  for (int i = 0; i < spec.ticks; ++i) {
    const auto tick_start = ticks_ns != nullptr ? Clock::now()
                                                : Clock::time_point{};
    if (injector != nullptr) {
      const auto inject_start = Clock::now();
      injector->tick(system->now());
      out.inject_ns += elapsed_ns(inject_start);
    }
    system->step();
    if (ticks_ns != nullptr) ticks_ns->add(elapsed_ns(tick_start));
  }
  out.loop_s = elapsed_s(loop_start);

  const auto& rec = system->recorder();
  out.digest = results_digest(*system);
  out.processed_fraction = rec.processed_fraction();
  out.delay_p95_s = {rec.delay_histogram().percentile(95),
                     rec.delay_histogram().sample_count()};
  bool delays_ok = !rec.delay().points().empty();
  for (const auto& [t, d] : rec.delay().points()) {
    delays_ok = delays_ok && std::isfinite(d) && d >= 0.0;
  }
  out.checks.expect(delays_ok, "every delay sample is finite and >= 0");
  // The recorder sums per-tick event counts in double precision; once every
  // generated event is admitted the ratio can land a few ulps above 1.
  constexpr double kRoundingSlack = 1e-9;
  out.checks.expect(out.processed_fraction >= 0.0 &&
                        out.processed_fraction <= 1.0 + kRoundingSlack,
                    "processed fraction in [0, 1] (input seed " +
                        std::to_string(seed) + ")");
  out.checks.expect(system->now() == static_cast<double>(spec.ticks),
                    "the run reached its horizon");

  out.flows = network.num_flows();
  out.tasks = system->engine().total_parallelism();
  out.adaptations = rec.events().size();
  out.recovery_events = rec.recovery_events().size();
  for (const auto& e : rec.events()) out.migrated_mb += e.migrated_mb;
  const auto& metrics = system->metrics();
  out.transition_aborts = counter_value(metrics, "runtime.transition_aborts");
  out.transition_retries =
      counter_value(metrics, "runtime.transition_retries");
  out.promotions = counter_value(metrics, "runtime.failovers");
  if (system->standby() != nullptr) {
    out.completed_syncs = system->standby()->completed_syncs();
  }
  if (profile) out.phases = system->profiler().accums();

  if (sink != nullptr) {
    out.trace = sink->total();
    const auto it = sink->by_type().find("link_alloc");
    if (it != sink->by_type().end()) out.link_alloc_bytes = it->second.bytes;
    out.sink_ns = sink->busy_ns();
  }

  if (chaos) {
    out.checks.expect(injector->done(), "every scheduled fault was applied");
    bool clean = true;
    for (const auto& a : network.topology().sites()) {
      clean = clean && !network.site_down(a.id);
      for (const auto& b : network.topology().sites()) {
        clean = clean && !network.link_partitioned(a.id, b.id);
      }
    }
    out.checks.expect(clean, "no site down or link partitioned at the end");
    // Hot-standby delta syncs are periodic bulk flows, so one may be in
    // flight at the horizon. Step on (untimed, after the digest and tallies)
    // until none is open; an orphaned flow never completes.
    constexpr int kDrainTicks = 120;
    for (int i = 0; i < kDrainTicks && network.num_bulk_flows() > 0; ++i) {
      system->step();
    }
    out.checks.expect(network.num_bulk_flows() == 0,
                      "no bulk flow is left at the end of the chaos run "
                      "(input seed " + std::to_string(seed) + ")");
  }
  return out;
}

}  // namespace perfbench
