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
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "net/bandwidth_model.h"
#include "net/topology.h"

namespace wasp::obs {
class Profiler;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::net {

enum class FlowKind : std::uint8_t {
  kStream,  // continuous event stream; demand set each tick
  kBulk,    // finite transfer (state migration); consumes all spare share
};

// One record of the flow table; the 8-byte fields lead so it packs into 56
// bytes.
struct Flow {
  FlowId id;
  SiteId from;
  SiteId to;
  double demand_mbps = 0.0;     // streams: offered load this tick
  double allocated_mbps = 0.0;  // filled in by allocate()
  double remaining_mb = 0.0;    // bulk only
  std::int32_t link = -1;       // link-table row; -1 for same-site flows
  FlowKind kind = FlowKind::kStream;
  bool done = false;            // bulk only
};

// Index of a flow's record in the network's flow table (Network::flow_table).
using FlowSlot = std::uint32_t;
inline constexpr FlowSlot kNoSlot = std::numeric_limits<FlowSlot>::max();

// One row of the network's link table: a directed cross-site link that has
// registered flows. step(t) writes the numeric fields once per link; the
// row's flows are Network::link_flows(row).
struct Link {
  SiteId from;
  SiteId to;
  double base_mbps = 0.0;  // topology().base_bandwidth(from, to), fixed
  double capacity = 0.0;   // capacity(from, to, t) at the table's time
  double allocated = 0.0;  // sum of flows' allocated_mbps, in flow-id order
  double headroom = 0.0;   // max(0, capacity - allocated)
  std::size_t refs = 0;    // registered flows; 0 = row free for reuse
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
  // Capacity for `n` more flows, so a deployment's adds do not reallocate
  // the flow store step by step. Changes no flow.
  void reserve_flows(std::size_t n) {
    flows_.reserve(num_flows() + n);
    by_id_.reserve(by_id_.size() + n);
  }
  void set_stream_demand(FlowId id, double mbps) {
    set_stream_demand(flows_[flow_slot(id)], mbps);
  }
  // The same write through a flow_table() record (no id lookup). Demands
  // are never negative, NaN or -0.0.
  static void set_stream_demand(Flow& flow, double mbps) {
    assert(flow.kind == FlowKind::kStream);
    flow.demand_mbps = std::max(0.0, mbps);
  }

  [[nodiscard]] const Flow& flow(FlowId id) const {
    return flows_[flow_slot(id)];
  }
  [[nodiscard]] bool has_flow(FlowId id) const {
    return find_slot(id) != kNoSlot;
  }
  // Slot of a live flow: its index into flow_table(), fixed until
  // remove_flow(id) frees it for reuse. O(log flows).
  [[nodiscard]] FlowSlot flow_slot(FlowId id) const {
    const FlowSlot slot = find_slot(id);
    assert(slot != kNoSlot);
    return slot;
  }
  // The flow table, indexed by slot. Adding a flow may reallocate it, so a
  // pointer into it is good only until the next add_*_flow() or
  // reserve_flows(); readers that outlive that (the engine) keep slots and
  // re-fetch the base each tick.
  [[nodiscard]] Flow* flow_table() { return flows_.data(); }
  [[nodiscard]] const Flow* flow_table() const { return flows_.data(); }

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
  // Slots of the flows on link-table row `row`, in ascending flow-id order.
  // Valid until the next flow add/remove.
  [[nodiscard]] std::span<const FlowSlot> link_flows(std::int32_t row);
  // (to site, row id) of every link out of `from` with flows, by to site.
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::int32_t>>&
  links_from(SiteId from) const {
    return rows_from_[static_cast<std::size_t>(from.value())];
  }

  // Sum of allocated bandwidth on the directed link from -> to (Mbps) as of
  // the last step(); used by tests.
  [[nodiscard]] double link_allocated(SiteId from, SiteId to);

  [[nodiscard]] std::size_t num_flows() const {
    return flows_.size() - free_slots_.size();
  }

  // Number of unfinished bulk transfers; a clean shutdown (and a clean
  // chaos run) ends with zero. O(bulk flows).
  [[nodiscard]] std::size_t num_bulk_flows() const;

  // Optional trace hook (non-owning; may be null). step() emits one
  // "link_alloc" event per link with unfinished flows, in link-id order, and
  // a "bulk_done" event, in flow-id order, when a bulk (migration) transfer
  // completes.
  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceEmitter* trace() const { return trace_; }
  // Optional profiler hook (non-owning; may be null): step() times its
  // "link_alloc" emission as the "waterfill.emit" phase, nested in the
  // caller's "waterfill", so that phase reports the fill alone.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }

  // Max-min fair share of `capacity` among the flows at slots `active` of
  // `flows`: one link's unfinished flows in id order, in scratch that the
  // fill consumes. Bulk flows are treated as having unbounded demand.
  static void waterfill(Flow* flows, std::span<FlowSlot> active,
                        double capacity);
  // What waterfill gives the only flow of a row, in closed form and bit for
  // bit: a finished bulk flow (or a capacity of at most 1e-12) gets 0, an
  // unfinished bulk flow the capacity, a stream min(demand, capacity).
  static double one_flow_share(const Flow& flow, double capacity) {
    if (capacity <= 1e-12 || (flow.kind == FlowKind::kBulk && flow.done)) {
      return 0.0;
    }
    return flow.kind == FlowKind::kStream
               ? std::min(flow.demand_mbps, capacity)
               : capacity;
  }

 private:
  // capacity() of from -> to given its base bandwidth (a link row keeps
  // its own, so the per-tick fill does not look it up).
  [[nodiscard]] double link_capacity(SiteId from, SiteId to, double base_mbps,
                                     double t) const;
  // Link-table row of from -> to for a new flow, allocating one (the last
  // freed row, else a new one) on the link's first flow.
  std::int32_t acquire_link(SiteId from, SiteId to);
  // Index of `id`'s entry in by_id_; by_id_.size() when it has none.
  [[nodiscard]] std::size_t id_index(FlowId id) const;
  // Slot of `id`; kNoSlot when no live flow has it.
  [[nodiscard]] FlowSlot find_slot(FlowId id) const;
  // Slot for a new flow record: the last freed one, else a new one.
  void insert_flow(const Flow& flow);
  // Rebuilds the CSR rows (and local_flows_) by a counting pass over the
  // live flows in id order, so every row lists its flows by ascending id --
  // the order waterfill's progressive filling and the allocated sums visit.
  // O(flows + rows), no sort. Flow churn is orders of magnitude rarer than
  // ticks, so add/remove only mark the rows dirty.
  void regroup();
  // Drops removed flows from by_id_.
  void compact_ids();
  // Writes capacity (at `t`), allocated and headroom of every row; with
  // `solve`, runs each row's waterfill first (the step() path).
  void fill_links(double t, bool solve);

  Topology topology_;
  std::shared_ptr<const BandwidthModel> model_;
  std::vector<char> link_partitioned_;  // num_sites^2, row-major from*n+to
  std::vector<char> site_down_;         // num_sites
  // The flow table: one record per slot; a free slot has an invalid id.
  std::vector<Flow> flows_;
  std::vector<FlowSlot> free_slots_;
  // (id, slot) of every flow in ascending id order -- ids are issued in
  // increasing order, so adds append -- searched by the by-id calls. A
  // removed flow's entry keeps its id with slot kNoSlot until compact_ids().
  std::vector<std::pair<FlowId, FlowSlot>> by_id_;
  std::size_t removed_ids_ = 0;  // kNoSlot entries in by_id_
  std::vector<FlowSlot> bulk_;   // bulk flows, ascending id
  std::vector<Link> links_;
  std::vector<std::int32_t> free_links_;  // rows with refs == 0
  // Per source site, (to site, row) of its links sorted by destination:
  // O(links) entries, updated only by flow add/remove.
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> rows_from_;
  // CSR rows: row r's flows are row_flows_[row_off_[r] .. row_off_[r + 1]),
  // ascending id; a free row's range is empty.
  std::vector<std::uint32_t> row_off_;
  std::vector<FlowSlot> row_flows_;
  std::vector<FlowSlot> local_flows_;  // from == to, ascending id
  // Scratch of regroup() and of the multi-flow waterfill (persists across
  // steps; no allocation after warm-up).
  std::vector<std::uint32_t> row_fill_;
  std::vector<FlowSlot> wf_active_;
  bool flows_dirty_ = true;   // CSR rows need regroup()
  bool links_stale_ = true;   // row numbers need fill_links()
  double links_t_ = 0.0;      // time of the last fill
  std::int64_t next_flow_id_ = 0;
  obs::TraceEmitter* trace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace wasp::net
