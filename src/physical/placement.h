// Physical placement primitives.
//
// A stage's placement is the per-site task count vector p[s] that the
// WAN-aware scheduler optimizes (paper §4.1, Table 1). `NetworkView` is the
// control plane's read-only window onto the network: implementations back it
// with the WAN Monitor's (noisy, possibly stale) estimates rather than
// ground truth, mirroring the prototype.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "common/ids.h"

namespace wasp::physical {

// What the scheduler knows about the network when planning.
class NetworkView {
 public:
  virtual ~NetworkView() = default;
  [[nodiscard]] virtual std::size_t num_sites() const = 0;
  // Estimated available bandwidth (Mbps) on the directed link from -> to.
  [[nodiscard]] virtual double available_mbps(SiteId from, SiteId to) const = 0;
  [[nodiscard]] virtual double latency_ms(SiteId from, SiteId to) const = 0;
  // Free computing slots at `site`.
  [[nodiscard]] virtual int available_slots(SiteId site) const = 0;
};

// Per-site task counts for one stage.
struct StagePlacement {
  std::vector<int> per_site;  // indexed by site id

  [[nodiscard]] int parallelism() const {
    return std::accumulate(per_site.begin(), per_site.end(), 0);
  }

  // Sites hosting at least one task.
  [[nodiscard]] std::vector<SiteId> sites() const {
    std::vector<SiteId> out;
    for (std::size_t s = 0; s < per_site.size(); ++s) {
      if (per_site[s] > 0) out.push_back(SiteId(static_cast<std::int64_t>(s)));
    }
    return out;
  }

  // One site entry per task, in site order (task -> site mapping).
  [[nodiscard]] std::vector<SiteId> expand() const {
    std::vector<SiteId> out;
    for (std::size_t s = 0; s < per_site.size(); ++s) {
      for (int k = 0; k < per_site[s]; ++k) {
        out.push_back(SiteId(static_cast<std::int64_t>(s)));
      }
    }
    return out;
  }

  [[nodiscard]] int at(SiteId s) const {
    return per_site[static_cast<std::size_t>(s.value())];
  }

  friend bool operator==(const StagePlacement&, const StagePlacement&) =
      default;
};

// A solved placement together with its Eq. 1 objective value. Produced by
// the scheduler; defined here so the placement cache can store it without
// depending on the scheduler headers.
struct PlacementOutcome {
  StagePlacement placement;
  double objective = 0.0;  // traffic-weighted delay (ms-weighted tasks)
};

// Sites to drain (S - S') and to populate (S' - S) when moving from
// placement `from` to placement `to`; the unit is tasks.
struct PlacementDiff {
  std::vector<std::pair<SiteId, int>> drain;  // site, tasks leaving
  std::vector<std::pair<SiteId, int>> fill;   // site, tasks arriving
};

[[nodiscard]] PlacementDiff diff_placements(const StagePlacement& from,
                                            const StagePlacement& to);

}  // namespace wasp::physical
