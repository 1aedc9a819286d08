// Hot-standby replication (DESIGN.md §12).
//
// A StandbyManager keeps K passive replicas of every protected stage --
// stateful, splittable, unpinned -- on sites chosen by the placement ILP
// under a failure-domain anti-affinity constraint: a standby never shares a
// domain with any of the stage's primary sites, so one `domain_down` cannot
// take both copies. Replicas are kept warm by periodic state-delta shipping
// over `net::Network` bulk flows, which share WAN links with the data plane
// and in-flight migrations (standby sync is not free bandwidth).
//
// The division of labor with the runtime:
//  - planning (which site hosts a replica) runs in the background at the
//    sync cadence, so the ILP never sits on the failure hot path;
//  - on a confirmed failure the runtime asks `viable_standby` -- a pure
//    lookup -- and, if one exists, promotes it via Engine::promote_standby,
//    replaying only the delta since the replica's last completed sync;
//  - a promoted (or dead) replica is consumed/dropped and re-planned at the
//    next sync boundary.
//
// Determinism: every decision here is a pure function of (engine state,
// monitor view, schedule); slots and flows are iterated in stable vector
// order and the ILP is deterministic, so same seed + same fault schedule
// gives byte-identical traces at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "engine/engine.h"
#include "net/network.h"
#include "physical/scheduler.h"

namespace wasp::obs {
class Profiler;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::resilience {

struct StandbyConfig {
  // Passive replicas per protected stage. 0 disables the subsystem.
  int replicas = 0;
  // Delta-shipping cadence; also the background planning cadence.
  double sync_interval_sec = 30.0;
  // A replica whose last completed sync captured state older than this is
  // not promotable: replaying that much delta would cost more than the
  // fallback replan path saves.
  double max_staleness_sec = 300.0;
  // Floor on a sync flow's size (metadata, membership, manifests).
  double min_sync_mb = 1.0;
};

class StandbyManager {
 public:
  // The Network must outlive the manager (sync flows live in it).
  StandbyManager(net::Network& network, StandbyConfig config);
  ~StandbyManager();

  StandbyManager(const StandbyManager&) = delete;
  StandbyManager& operator=(const StandbyManager&) = delete;

  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }

  // Tick-phase profiler hook (DESIGN.md §13): tick() runs under the
  // control.standby_sync phase (its placement-ILP calls nest under
  // control.solver.placement through the scheduler's own hook). Null (the
  // default) disables.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  // Control-plane trust predicate (heartbeat detector), supplied by the
  // runtime so the manager never reads engine failure flags directly.
  using SiteOk = std::function<bool(SiteId)>;

  // Background pump, called once per control tick: completes / aborts
  // in-flight sync flows, drops replicas on dead sites, and at every sync
  // boundary re-plans missing replicas (placement ILP with domain
  // anti-affinity) and launches the next round of delta flows.
  void tick(double now, const engine::Engine& engine,
            const physical::Scheduler& scheduler,
            const physical::NetworkView& view, const SiteOk& trusted);

  // Hot-path query (pure lookup, no solver): the freshest promotable replica
  // of `op` covering `failed_site`, if any.
  struct Promotion {
    SiteId standby_site;
    double synced_window_events = 0.0;  // window prefix resident at standby
    double staleness_sec = 0.0;         // age of that prefix
  };
  [[nodiscard]] std::optional<Promotion> viable_standby(
      OperatorId op, SiteId failed_site, double now,
      const SiteOk& trusted) const;

  // Consumes the replica at `standby_site` after the runtime promoted it
  // (the site is now a primary). A replacement is planned at the next sync
  // boundary.
  void consume(OperatorId op, SiteId standby_site);

  // Drops every replica and aborts in-flight syncs. Called on re-plan:
  // operator ids are renumbered, so replicas must be rebuilt from scratch.
  void reset();

  // Slots reserved by replicas per site; the runtime's scheduler view
  // subtracts these from availability so standbys are not double-booked.
  [[nodiscard]] const std::vector<int>& reserved_slots() const {
    return reserved_;
  }

  [[nodiscard]] std::size_t num_replicas() const { return slots_.size(); }
  // Replica inventory (op, standby site) in planning order; inspection hook
  // for tests and tools.
  [[nodiscard]] std::vector<std::pair<OperatorId, SiteId>> replicas() const;
  [[nodiscard]] std::size_t completed_syncs() const {
    return completed_syncs_;
  }
  // Sync flows launched and not yet finished (still in the network).
  [[nodiscard]] std::size_t inflight_sync_flows() const;

 private:
  struct InFlightSync {
    FlowId flow;
    SiteId primary;
    double captured_at = 0.0;  // snapshot time (staleness is measured here)
    double window_at_capture = 0.0;
    double state_mb_at_capture = 0.0;
    double size_mb = 0.0;
  };
  struct Slot {
    OperatorId op;
    SiteId site;
    int reserved_tasks = 0;
    // Per-primary-site replica contents, from the last *completed* sync.
    std::vector<double> synced_window;
    std::vector<double> synced_state_mb;
    std::vector<double> synced_at;  // capture time; -1 = never synced
    std::vector<InFlightSync> inflight;
  };

  void pump_syncs(double now, const SiteOk& trusted);
  void plan_missing(double now, const engine::Engine& engine,
                    const physical::Scheduler& scheduler,
                    const physical::NetworkView& view, const SiteOk& trusted);
  void launch_syncs(double now, const engine::Engine& engine,
                    const SiteOk& trusted);
  void drop_slot(std::size_t index);
  void rebuild_reserved();

  net::Network& network_;
  StandbyConfig config_;
  obs::TraceEmitter* trace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<int> reserved_;
  double last_sync_ = -1e18;
  std::size_t completed_syncs_ = 0;
};

}  // namespace wasp::resilience
