// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§8) and prints the same rows/series the paper plots, plus a
// short "expected shape" note so the output is self-describing. The
// environment mirrors §8.2: the 16-site testbed, α = 0.8, p_max = 3, 40 s
// monitoring interval, checkpointing every 30 s, initial parallelism 1.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_options.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/time_series.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "runtime/scenario.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::bench {

inline constexpr std::uint64_t kSeed = 7;

// The §8.2 testbed: 8 edge + 8 DC sites with the paper's link distributions
// by default; `--topology=SPEC` (default_topology_spec()) swaps in a
// generated topology -- for the paper spec, build() is exactly
// make_paper_testbed, so defaults are byte-identical to the historical
// testbed. Roles come from runtime::roles_of: edge sites feed sources
// (split east/west), the first DC hosts the sink.
struct Testbed : runtime::Roles {
  explicit Testbed(std::shared_ptr<const net::BandwidthModel> model = nullptr,
                   std::uint64_t seed = kSeed)
      : rng(seed),
        topology(default_topology_spec().build(rng)),
        network(topology, model ? model
                                : std::make_shared<net::ConstantBandwidth>()) {
    static_cast<runtime::Roles&>(*this) = runtime::roles_of(topology);
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
};

enum class Query { kYsb, kTopk, kEventsOfInterest };

inline const char* query_name(Query q) {
  switch (q) {
    case Query::kYsb:
      return "YSB Advertising Campaign";
    case Query::kTopk:
      return "Top-K Popular Topics";
    case Query::kEventsOfInterest:
      return "Events of Interest";
  }
  return "?";
}

inline workload::QuerySpec make_query(const Testbed& bed, Query q) {
  const char* name = q == Query::kYsb    ? "ysb"
                     : q == Query::kTopk ? "topk"
                                         : "interest";
  return *runtime::make_query(name, bed);
}

// Uniform per-site source rates (the §8.4 setup distributes the YSB evenly
// over the 8 edge sites; the Twitter trace is replayed scaled).
inline workload::SteppedWorkload uniform_rates(const workload::QuerySpec& spec,
                                               double eps_per_site) {
  workload::SteppedWorkload pattern;
  runtime::set_base_rates(&pattern, spec, eps_per_site);
  return pattern;
}

inline void expected_shape(const std::string& note) {
  std::cout << "\n[expected shape] " << note << "\n";
}

// Coarse time series (bucketed means) named for the legend.
inline TimeSeries bucketed(const TimeSeries& s, double dt,
                           const std::string& name) {
  TimeSeries out(name);
  for (const auto& [t, v] : s.downsample(dt)) out.add(t, v);
  return out;
}

}  // namespace wasp::bench
