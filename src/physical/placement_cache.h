// Memoization for the Eq. 1-5 placement ILP.
//
// Every adaptation decision re-prices placements: `place_with_min_parallelism`
// sweeps candidate parallelisms, and the planner prices every candidate
// logical plan, so within one decision epoch the same (stage, parallelism,
// network snapshot) ILP is solved many times. The cache keys a solve by the
// exact bytes of everything the ILP reads -- alpha, parallelism, per-site
// floors and extra slots, the traffic endpoints, and the slots/latency/
// bandwidth the view reports for those endpoints -- so a hit is guaranteed to
// return the bit-identical outcome the solver would have produced. Exact keys
// (rather than quantized ones) trade a few extra misses for that guarantee.
//
// The cache keeps two generations: `Scheduler::begin_epoch` makes the
// current one the previous one and drops the older. A miss in the current
// generation consults the previous one, so a steady-state re-plan whose
// inputs did not change reuses last epoch's outcome; anything older would
// only be dead weight, since network measurements drift between epochs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "physical/placement.h"

namespace wasp::physical {

struct StageContext;

// Exact byte key covering every input `build_placement_ilp` reads, rebuilt
// into `key` (cleared first; capacity is reused across calls). Two calls with
// equal keys are guaranteed to produce identical outcomes.
void placement_cache_key(std::string& key, const StageContext& context,
                         const NetworkView& view, double alpha,
                         const std::vector<int>& extra_slots);

class PlacementCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  // Single-hash find-or-insert: returns {slot, hit}. On a hit the slot holds
  // the memoized outcome (infeasible results, nullopt, are cached too); on a
  // miss a default (nullopt) slot was reserved and the caller must fill it
  // with the solved outcome. A current-generation miss also consults the
  // previous generation (see begin_epoch); a hit there is promoted into the
  // current generation. Exact-byte keys make that reuse safe: equal keys mean
  // the solver would read identical bytes and produce the identical outcome.
  [[nodiscard]] std::pair<std::optional<PlacementOutcome>*, bool>
  find_or_reserve(const std::string& key);

  // Epoch rotation: the current generation becomes the previous one (the old
  // previous generation is dropped).
  void begin_epoch() {
    prev_ = std::move(map_);
    map_.clear();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<std::string, std::optional<PlacementOutcome>> map_;
  std::unordered_map<std::string, std::optional<PlacementOutcome>> prev_;
  Stats stats_;
};

}  // namespace wasp::physical
