// Network: topology + time-varying capacity + active flows.
//
// This is the simulator's data plane. Stream flows carry event streams
// between stages; bulk flows carry checkpoint state during migration (§5).
// Flows sharing a directed site-pair link split its current capacity by
// max-min fairness, so a state migration naturally competes with (and slows)
// the data streams crossing the same link -- a dynamic the paper's overhead
// experiments (§8.7) depend on.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "net/bandwidth_model.h"
#include "net/topology.h"

namespace wasp::obs {
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::exec {
class ThreadPool;
}  // namespace wasp::exec

namespace wasp::net {

enum class FlowKind {
  kStream,  // continuous event stream; demand set each tick
  kBulk,    // finite transfer (state migration); consumes all spare share
};

struct Flow {
  FlowId id;
  SiteId from;
  SiteId to;
  FlowKind kind = FlowKind::kStream;
  double demand_mbps = 0.0;     // streams: offered load this tick
  double allocated_mbps = 0.0;  // filled in by allocate()
  double remaining_mb = 0.0;    // bulk only
  bool done = false;            // bulk only
  std::int32_t link = -1;       // link-table row; -1 for same-site flows
};

// One row of the network's link table: a directed cross-site link that has
// registered flows. step(t) writes the numeric fields once per link.
struct Link {
  SiteId from;
  SiteId to;
  std::vector<Flow*> flows;  // flows_ map order at the last regroup
  double capacity = 0.0;     // capacity(from, to, t) at the table's time
  double allocated = 0.0;    // sum of flows' allocated_mbps, in list order
  double headroom = 0.0;     // max(0, capacity - allocated)
  std::size_t refs = 0;      // registered flows; 0 = row free for reuse
};

class Network {
 public:
  Network(Topology topology, std::shared_ptr<const BandwidthModel> model);

  [[nodiscard]] const Topology& topology() const { return topology_; }

  // Current capacity of the directed link from -> to (Mbps). A partitioned
  // link, or a link with a down endpoint, has zero capacity: every stream and
  // bulk flow crossing it stalls until the partition heals / the site is
  // restored.
  [[nodiscard]] double capacity(SiteId from, SiteId to, double t) const;

  // --- fault state ---------------------------------------------------------

  // Marks the directed link from -> to as partitioned (capacity 0).
  void set_link_partitioned(SiteId from, SiteId to, bool partitioned);
  [[nodiscard]] bool link_partitioned(SiteId from, SiteId to) const;

  // Marks a whole site as down: every link touching it (including local,
  // same-site transfers) has zero capacity.
  void set_site_down(SiteId site, bool down);
  [[nodiscard]] bool site_down(SiteId site) const;

  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const {
    return topology_.latency_ms(from, to);
  }

  // --- flow management -----------------------------------------------------

  // A cross-site flow joins its link's table row (allocated on the link's
  // first flow, freed with its last) and keeps that row id in Flow::link.
  FlowId add_stream_flow(SiteId from, SiteId to);
  FlowId add_bulk_flow(SiteId from, SiteId to, double size_mb);
  void remove_flow(FlowId id);
  void set_stream_demand(FlowId id, double mbps) {
    set_stream_demand(*flow_slot(id), mbps);
  }
  // The same write through a cached flow_slot() (no id lookup).
  static void set_stream_demand(Flow& flow, double mbps) {
    assert(flow.kind == FlowKind::kStream);
    flow.demand_mbps = std::max(0.0, mbps);
  }

  [[nodiscard]] const Flow& flow(FlowId id) const;
  [[nodiscard]] bool has_flow(FlowId id) const;
  // Stable address of a live flow's record, valid until remove_flow(id).
  [[nodiscard]] Flow* flow_slot(FlowId id);

  // Computes the max-min fair allocation of every link's capacity at time
  // `t` among its flows, then advances bulk transfers by `dt` seconds.
  // Stream allocations are readable via flow().allocated_mbps until the next
  // call.
  void step(double t, double dt);

  // The link table as of time `t`: one row per link id (rows with no flows
  // are free and hold stale numbers). step(t) fills it; a read at another
  // time, or after a flow add/remove or fault setter, refreshes every row
  // first -- capacity at `t`, allocations as the last step() left them.
  [[nodiscard]] const std::vector<Link>& links(double t);
  // Row id of the directed link from -> to; -1 when it has no flows (or
  // from == to).
  [[nodiscard]] std::int32_t link_id(SiteId from, SiteId to) const;
  // (to site, row id) of every link out of `from` with flows, by to site.
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::int32_t>>&
  links_from(SiteId from) const {
    return rows_from_[static_cast<std::size_t>(from.value())];
  }

  // Sum of allocated bandwidth on the directed link from -> to (Mbps) as of
  // the last step(); used by tests.
  [[nodiscard]] double link_allocated(SiteId from, SiteId to);

  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }

  // Number of unfinished bulk transfers; a clean shutdown (and a clean
  // chaos run) ends with zero.
  [[nodiscard]] std::size_t num_bulk_flows() const;

  // Optional trace hook (non-owning; may be null). step() emits one
  // "link_alloc" event per link with unfinished flows, in link-id order, and
  // a "bulk_done" event when a bulk (migration) transfer completes.
  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceEmitter* trace() const { return trace_; }

  // Optional intra-run executor (non-owning; null = serial). The link-table
  // fill chunks its rows across the pool: each row (link) is computed by
  // exactly one chunk with the same flow order either way, so allocations
  // are bit-identical for any thread count. Traced runs share this fill;
  // their link_alloc events are emitted serially after it.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] exec::ThreadPool* pool() const { return pool_; }

 private:
  // Max-min fair share of `capacity` among `active`: one link's unfinished
  // flows in list order, in caller-owned scratch (parallel chunks pass
  // distinct vectors) that the fill consumes. Bulk flows are treated as
  // having unbounded demand.
  static void waterfill(std::vector<Flow*>& active, double capacity);

  // Link-table row of from -> to for a new flow, allocating one (the last
  // freed row, else a new one) on the link's first flow.
  std::int32_t acquire_link(SiteId from, SiteId to);
  // Rebuilds every row's flow list (and local_flows_) by one pass over
  // `flows_` in map order -- the order waterfill's progressive filling and
  // the allocated sums have always visited. Flow churn is orders of
  // magnitude rarer than ticks, so add/remove only mark the lists dirty.
  void regroup();
  // Writes capacity (at `t`), allocated and headroom of every row; with
  // `solve`, runs each row's waterfill first (the step() path).
  void fill_links(double t, bool solve);

  Topology topology_;
  std::shared_ptr<const BandwidthModel> model_;
  std::vector<char> link_partitioned_;  // num_sites^2, row-major from*n+to
  std::vector<char> site_down_;         // num_sites
  std::unordered_map<FlowId, Flow> flows_;
  std::vector<Link> links_;
  std::vector<std::int32_t> free_links_;  // rows with refs == 0
  // Per source site, (to site, row) of its links sorted by destination:
  // O(links) entries, updated only by flow add/remove.
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> rows_from_;
  std::vector<Flow*> local_flows_;  // from == to
  // Per-chunk waterfill working sets of the table fill (persist across
  // steps; no allocation after warm-up). One slot per row chunk.
  std::vector<std::vector<Flow*>> wf_scratch_;
  exec::ThreadPool* pool_ = nullptr;
  bool flows_dirty_ = true;   // row flow lists need regroup()
  bool links_stale_ = true;   // row numbers need fill_links()
  double links_t_ = 0.0;      // time of the last fill
  std::int64_t next_flow_id_ = 0;
  obs::TraceEmitter* trace_ = nullptr;
};

}  // namespace wasp::net
