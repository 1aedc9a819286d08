// Fluid-level stream-engine simulator (the Flink substitute).
//
// The engine executes one deployed query -- a logical plan plus a physical
// placement -- over the WAN substrate, at a fixed tick (default 1 s of
// simulated time). It is a *fluid* model: event populations are real-valued
// rates and queue levels, not individual records. That is exactly the
// granularity WASP's adaptation layer observes (per-operator rates, queues,
// backpressure flags, state sizes; §3.2), so every control-plane code path
// of the paper is exercised faithfully while whole experiments run in
// milliseconds.
//
// Faithfulness notes (see DESIGN.md for the full substitution table):
//  - Tasks of a stage co-located at a site are aggregated into one "group"
//    (they are symmetric under balanced partitioning, §7).
//  - Channels connect (stage, site) groups along logical edges. Cross-site
//    channels ride Network stream flows and share link capacity with other
//    traffic (including state-migration bulk flows). Intra-site channels are
//    unconstrained.
//  - Buffers are bounded (per-channel and per-input-queue), so sustained
//    bottlenecks propagate backpressure up to the sources, where backlog
//    accumulates -- mirroring Flink's credit-based flow control feeding
//    from a replayable source.
//  - Event-time latency is recovered from cumulative curves at the sources
//    (head-of-backlog age) plus per-hop sojourn times downstream.
//  - Degrade mode implements the paper's baseline: events whose latency
//    would exceed the SLO are shed at the sources (§8.4's "drop late
//    events"), trading processing ratio for delay.
//
// Internals are data-oriented (structure-of-arrays): per-(stage,site) group
// state and per-channel state live in flat parallel arrays indexed by dense
// ids, with CSR-style adjacency indexes rebuilt only when the channel set
// changes. The per-tick loops walk contiguous memory; the ordered floating-
// point reductions (group sums in site order, channel sums in channel-id
// order) are preserved exactly, so the SoA engine is bit-identical to the
// legacy per-object implementation. See DESIGN.md "Engine internals".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "engine/delay_tracker.h"
#include "engine/metrics.h"
#include "net/network.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"

namespace wasp::obs {
class Counter;
class Gauge;
class MetricsRegistry;
class Profiler;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::exec {
class ThreadPool;
}  // namespace wasp::exec

namespace wasp::engine {

struct EngineConfig {
  double tick_sec = 1.0;
  // Bounded buffers. A channel accepts new output only while its queue is
  // below `channel_buffer_sec` seconds of its observed drain rate plus a
  // floor -- like Flink's byte-bounded network buffers, scaled to what the
  // link actually sustains. An input queue absorbs up to one tick of the
  // group's processing capacity plus a floor. Sustained bottlenecks
  // therefore propagate backpressure to the sources within seconds, and the
  // overload backlog accumulates in the replayable source, where its age
  // drives the event-time delay -- exactly as in the paper's prototype.
  double channel_buffer_sec = 2.0;
  double channel_buffer_floor_events = 5'000.0;
  double input_buffer_floor_events = 10'000.0;
  // Degrade baseline: shed source events older than the SLO.
  bool degrade = false;
  double slo_sec = 10.0;
  // Local checkpoint restore throughput (MB/s) after a failure (§5:
  // localized checkpointing makes restore a local, fast operation).
  double local_restore_mb_per_sec = 200.0;
  double checkpoint_interval_sec = 30.0;
  // Tiered checkpoints: every Nth checkpoint is a full snapshot; the ones
  // between record only dirty-group deltas, so checkpoint cost scales with
  // the change rate instead of total state size (DESIGN.md §12). 1 = every
  // checkpoint is full (the pre-tiered behavior).
  int full_checkpoint_every = 5;
  // When false, the vectorization-annotated per-tick kernels are swapped for
  // their scalar reference twins (src/engine/kernels.h). The two are
  // bit-identical by contract -- this switch exists so tests can prove it on
  // whole simulations, not for production use.
  bool use_fast_kernels = true;
  // Optional observability hooks (non-owning; may be null). The trace
  // receives tick/placement/replan/failure/checkpoint events; the registry
  // receives engine.* counters and gauges. See DESIGN.md §6.
  obs::TraceEmitter* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Optional tick-phase profiler (non-owning; may be null = untimed). A pure
  // observer by contract: it reads the steady clock and nothing else, so it
  // cannot move a byte of any trace or metric (DESIGN.md §13).
  obs::Profiler* profiler = nullptr;
  // Optional intra-run executor (non-owning; may be null = serial). When set,
  // the per-tick element sweeps and per-site update loops are chunked across
  // the pool. Chunk boundaries are fixed by the data layout -- never by the
  // worker count -- and every cross-chunk floating-point reduction is
  // recombined serially in the legacy operand order, so results (and traces)
  // are bit-identical to the serial engine for any thread count
  // (DESIGN.md §11).
  exec::ThreadPool* pool = nullptr;
};

class Engine {
 public:
  Engine(query::LogicalPlan logical, physical::PhysicalPlan physical,
         net::Network& network, EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- workload ------------------------------------------------------------

  // Sets the generation rate (events/s) of `source` at `site`. Persists
  // until changed. The site must be one of the source's pinned sites.
  void set_source_rate(OperatorId source, SiteId site, double eps);

  // --- simulation ----------------------------------------------------------

  // Advances one tick ending at time `t`. The caller must have advanced the
  // Network to `t` first (flow allocations are read, new demands written).
  void tick(double t);

  // --- adaptation control (used by the WASP runtime) ------------------------

  void suspend_stage(OperatorId op);
  void resume_stage(OperatorId op);
  void suspend_all();
  void resume_all();
  [[nodiscard]] bool stage_suspended(OperatorId op) const;

  // Replaces the placement of one stage. Queued events and window state are
  // redistributed to the new task groups (the physical state transfer is
  // priced and sequenced by the migration planner, not here).
  void apply_placement(OperatorId op, const physical::StagePlacement& placement);

  // Replaces the whole plan (query re-planning, §4.3). Stateful operators
  // and sources whose signatures match carry their state/backlog over;
  // everything else starts fresh. Delay-metric state of the previous
  // execution (degrade budget, pending replay) is reset, and source delay
  // trackers whose signature no longer names a live source are pruned.
  void apply_replan(query::LogicalPlan logical,
                    physical::PhysicalPlan physical);

  // Failure injection: a failed site contributes no processing capacity and
  // accepts no deliveries until restored. Restoration replays the local
  // checkpoint (a restore pause proportional to state size).
  // fail_site on an already-failed site is a no-op; restore_site on a
  // healthy site is a no-op (a spurious restore must not roll live state
  // back to the checkpoint). Neither touches straggler factors: a slow
  // machine is still slow after it recovers from a crash.
  void fail_site(SiteId site);
  void restore_site(SiteId site);
  [[nodiscard]] bool site_failed(SiteId site) const;

  // Hot-standby promotion (DESIGN.md §12): moves the (op, failed_site) task
  // group onto `standby_site`, which already holds a replica of the group's
  // window synced up to `synced_window_events`. The synced prefix is
  // installed at the standby with no restore pause (the replica is warm);
  // only the delta the primary accumulated after the last sync -- plus the
  // queued-but-unprocessed input -- is lost and replayed from the sources.
  // No solver runs here: the standby site was chosen ahead of time.
  struct PromotionResult {
    int moved_tasks = 0;
    double installed_window_events = 0.0;
    double replayed_source_units = 0.0;
  };
  PromotionResult promote_standby(OperatorId op, SiteId failed_site,
                                  SiteId standby_site,
                                  double synced_window_events);

  // Toggles the degrade baseline (shed source events older than the SLO) at
  // runtime; the control plane flips this on as a graceful fallback when
  // recovery placement is infeasible.
  void set_degrade(bool enabled) { config_.degrade = enabled; }
  [[nodiscard]] bool degrade_enabled() const { return config_.degrade; }

  // Pins the total state of `op` to a fixed size (controlled-state
  // experiments, §8.7); negative clears the override.
  void set_state_override_mb(OperatorId op, double mb);

  // Straggler injection (§1: "stragglers and failures are inevitable"):
  // scales the processing capacity of every task at `site` by `factor`
  // (e.g. 0.1 = a 10x slowdown). 1.0 restores full speed.
  void set_straggler(SiteId site, double factor);
  [[nodiscard]] double straggler_factor(SiteId site) const;

  // Key-skew injection (probing §7's balanced-partitioning assumption):
  // hash routing into `op` weights one hosting site's tasks by `hot_factor`
  // (>1 = hot keys concentrate there). The hot site is *pinned* to the
  // lowest-indexed hosting site at call time and stays put across
  // migrations that reorder or extend the placement (hot keys do not follow
  // rebalancing); if a later placement removes the pinned site entirely,
  // the skew re-anchors to the new lowest-indexed hosting site. 1.0
  // restores balance. Ignored on forward-partitioned edges.
  void set_partition_skew(OperatorId op, double hot_factor);
  // The site the hot key is currently pinned to; -1 when unskewed.
  [[nodiscard]] std::int32_t partition_skew_site(OperatorId op) const {
    return stage_skew_site_[static_cast<std::size_t>(op.value())];
  }

  // --- introspection --------------------------------------------------------

  [[nodiscard]] const query::LogicalPlan& logical() const { return logical_; }
  // Source operator ids of the current plan, cached at (re)build time so
  // per-tick callers avoid logical().sources()'s allocation.
  [[nodiscard]] const std::vector<OperatorId>& source_ids() const {
    return source_ids_;
  }
  [[nodiscard]] const physical::PhysicalPlan& physical_plan() const {
    return physical_;
  }
  [[nodiscard]] const physical::StagePlacement& placement(OperatorId op) const;
  // Total task count across all stages; equals physical_plan().total_tasks()
  // but reads the engine's flat parallelism mirror instead of walking the
  // plan's stage map.
  [[nodiscard]] int total_parallelism() const {
    int total = 0;
    for (const std::int32_t p : stage_parallelism_) total += p;
    return total;
  }

  // Last tick's per-operator metrics. The _into form reuses the caller's
  // vectors (placement, state_mb_per_site) so a per-tick monitoring loop
  // performs no allocation after warm-up. Pass include_state = false to skip
  // the costliest fields when the caller only consumes rates/queues/
  // backpressure: the per-site state-size fill and the placement copy are
  // both omitted (state_mb_per_site is left empty, placement untouched --
  // read parallelism via stage_parallelism() instead).
  [[nodiscard]] OperatorMetrics op_metrics(OperatorId op) const;
  void op_metrics_into(OperatorId op, OperatorMetrics& m,
                       bool include_state = true) const;
  // Current parallelism of `op`'s stage (flat-array read).
  [[nodiscard]] int stage_parallelism(OperatorId op) const {
    return stage_parallelism_[static_cast<std::size_t>(op.value())];
  }
  // Last tick's inbound channels of `op`.
  [[nodiscard]] std::vector<ChannelMetrics> channels_into(OperatorId op) const;
  // Last tick's whole-query metrics.
  [[nodiscard]] const QueryTickMetrics& last_tick() const { return last_; }

  // Current state size of `op` at `site` / across all sites (MB).
  [[nodiscard]] double state_mb(OperatorId op, SiteId site) const;
  [[nodiscard]] double total_state_mb(OperatorId op) const;

  // Open-window contents (events) of `op`'s group at `site`; what a standby
  // replica snapshots when it syncs.
  [[nodiscard]] double window_events(OperatorId op, SiteId site) const;

  // Size (MB) actually written by the most recent checkpoint: the full state
  // for a full checkpoint, the dirty-group delta for an incremental one.
  // Standby sync flows are priced off the same delta.
  [[nodiscard]] double last_checkpoint_written_mb() const {
    return last_checkpoint_written_mb_;
  }
  // Checkpoint-replay deadline of `op`'s group at `site` (simulated seconds;
  // <= now means no replay in progress). Exposed for the fail-during-replay
  // regression tests.
  [[nodiscard]] double restore_until(OperatorId op, SiteId site) const;

  // The *actual* workload: current generation rate of `source` (events/s),
  // independent of backpressure (§3.3's λ_O[src]).
  [[nodiscard]] double source_generation_eps(OperatorId source) const;

  // Total events waiting in source backlogs (source-time units).
  [[nodiscard]] double source_backlog_events() const;

  // Slots in use per site (for slot accounting by the scheduler view).
  [[nodiscard]] std::vector<int> slots_in_use() const;

  // Allocated stream bandwidth (Mbps) per directed link, keyed
  // from*num_sites+to, for channels adjacent to `op`'s stage. The adaptation
  // layer adds this back onto the monitor's availability estimates when
  // re-placing that stage (its own traffic moves with it).
  [[nodiscard]] std::unordered_map<std::int64_t, double> adjacent_link_mbps(
      OperatorId op) const;

  // Same, over every channel of the query (used when re-planning: the whole
  // execution vacates its links).
  [[nodiscard]] std::unordered_map<std::int64_t, double> all_link_mbps() const;

  // Tick-accounting internals, exposed for regression tests: the previous
  // tick's delay (the degrade admission budget), events pending their
  // one-time fold into generated_eps after a replay, and the number of live
  // per-source delay trackers (stale ones are pruned on re-plan).
  [[nodiscard]] double degrade_budget_delay_sec() const {
    return prev_delay_sec_;
  }
  [[nodiscard]] double replay_pending_events() const {
    return replay_pending_events_;
  }
  [[nodiscard]] std::size_t num_source_trackers() const {
    return source_trackers_.size();
  }

 private:
  // --- data-oriented layout ------------------------------------------------
  //
  // Stage index == operator id (stages are dense and aligned with the
  // logical plan's ids). Group id: gid = stage * num_sites_ + site. Channels
  // are parallel arrays indexed by a dense channel id whose order is the
  // construction order (rebuilds keep survivors' relative order and append
  // replacements) -- the same order the legacy std::vector<Channel> had, so
  // every ordered FP reduction over channels visits identical sequences.
  //
  // Immutable-per-rebuild channel descriptor; the mutable per-tick state
  // (queue/offered/delivered/...) lives in the c_* arrays alongside.
  struct ChannelDesc {
    std::int32_t from_stage = 0;
    std::int32_t to_stage = 0;
    std::int32_t from_site = 0;
    std::int32_t to_site = 0;
    double event_bytes = 100.0;
    FlowId flow;             // invalid for intra-site channels
    std::int32_t link = -1;  // its link-table row (Flow::link); -1 intra-site
  };

  [[nodiscard]] std::size_t stage_index(OperatorId op) const;
  [[nodiscard]] std::size_t gid(std::size_t stage, std::size_t site) const {
    return stage * num_sites_ + site;
  }
  [[nodiscard]] double group_capacity_eps(std::size_t stage,
                                          std::size_t site) const;

  void build_runtime();
  void teardown_channels();
  // Appends one channel (creating its network flow when cross-site) to the
  // parallel arrays. Indexes are stale until rebuild_channel_indexes().
  void append_channel(std::size_t from_stage, std::size_t to_stage, SiteId su,
                      SiteId sd, double event_bytes, double queue,
                      double delivered, double delivered_prev);
  // Rebuilds the CSR adjacency indexes, cached flow pointers and link rows,
  // and the precomputed routing shares after any change to the channel set.
  void rebuild_channel_indexes();
  // Recomputes c_share_ only (placement/skew changed, channels did not).
  void recompute_channel_shares();
  [[nodiscard]] double compute_channel_share(std::size_t ci) const;
  // (Re)creates the per-source delay trackers and dense rate mirror, prunes
  // trackers whose signature no longer names a live source, and refreshes
  // the per-stage tracker pointer cache.
  void refresh_source_runtime();
  // Rebuilds all channels adjacent to `stage_idx`, preserving aggregate
  // queued events per logical edge.
  void rebuild_adjacent_channels(std::size_t stage_idx);
  void apply_degrade_drops(double t);
  void emit_tick_trace(double t, double dt);
  // Re-injects `units` source-time events at the replayable sources
  // (rate-proportional shares across sources, equal split across each
  // source's hosting sites) -- the common tail of restore_site, replan
  // replay, and standby promotion.
  void replay_at_sources(double units);
  void set_flow_demands(double dt);
  void update_delay_metric(double t);
  [[nodiscard]] double stage_total_state_mb(std::size_t stage) const;
  [[nodiscard]] double group_state_mb(std::size_t stage,
                                      std::size_t site) const;

  query::LogicalPlan logical_;
  physical::PhysicalPlan physical_;
  net::Network& network_;
  EngineConfig config_;

  std::size_t num_stages_ = 0;
  std::size_t num_sites_ = 0;
  std::vector<std::size_t> topo_order_;  // stage indices, sources first
  std::vector<OperatorId> source_ids_;   // cached logical_.sources()

  // Plan-constant per-stage operator properties (rebuilt with the plan).
  std::vector<double> stage_eps_per_slot_;
  std::vector<double> stage_selectivity_;
  std::vector<double> stage_window_len_;
  std::vector<double> stage_base_mb_;
  std::vector<double> stage_mb_per_kevent_;
  std::vector<double> stage_fixed_mb_;
  std::vector<char> stage_is_source_;
  std::vector<char> stage_is_sink_;
  std::vector<char> stage_stateful_;
  std::vector<char> stage_windowed_;
  std::vector<char> stage_forward_;  // output partitioning == kForward

  // Mutable per-stage runtime state.
  std::vector<physical::StagePlacement> stage_placement_;
  std::vector<std::int32_t> stage_parallelism_;
  std::vector<char> stage_suspended_;
  std::vector<char> stage_backpressured_;
  std::vector<double> stage_state_override_;
  std::vector<double> stage_skew_;            // hot-key weight factor
  std::vector<std::int32_t> stage_skew_site_; // pinned hot site; -1 = none
  std::vector<double> stage_processed_;
  std::vector<double> stage_emitted_;
  std::vector<double> stage_arrived_;
  std::vector<DelayTracker*> stage_tracker_;  // null for non-sources

  // Per-group state, indexed by gid = stage * num_sites_ + site.
  std::vector<std::int32_t> g_tasks_;
  std::vector<double> g_input_queue_;   // events awaiting processing
  std::vector<double> g_window_events_; // events in the open window
  std::vector<double> g_restore_until_; // checkpoint replay deadline
  std::vector<double> g_processed_prev_;
  std::vector<double> g_source_rate_;   // dense mirror of source_rates_
  // group_capacity_eps() snapshot taken at tick start. Its inputs (tasks,
  // per-slot rate, straggler factor, failure flags) only change between
  // ticks, so every in-tick consumer reads the same value the live function
  // would return -- one multiply per group per tick instead of one per call.
  std::vector<double> g_capacity_;

  // Per-channel state (parallel arrays; see ChannelDesc above).
  std::vector<ChannelDesc> chan_;
  std::vector<double> c_queue_;     // events awaiting transfer (sender side)
  std::vector<double> c_offered_;
  std::vector<double> c_delivered_;
  // Previous tick's delivery (events): the drain rate that sizes the
  // channel's buffer for backpressure purposes.
  std::vector<double> c_delivered_prev_;
  std::vector<double> c_event_bytes_;  // mirror of chan_[i].event_bytes
  std::vector<double> c_share_;        // precomputed routing share
  std::vector<net::Flow*> c_flow_;  // null for intra-site channels
  std::vector<std::int32_t> c_to_stage_;  // mirror for the reset kernel

  // Hosting sites per stage (ascending site index), rebuilt with every
  // placement change. Loops guarded by "tasks > 0" iterate these instead of
  // all sites; capacity sums over them are FP-exact shortcuts because the
  // skipped groups contribute exact zeros.
  std::vector<std::uint32_t> ss_off_, ss_ids_;
  void rebuild_stage_sites();

  // CSR adjacency indexes over channel ids; each bucket lists ids in
  // ascending order (== the order a filtered scan of the channel vector
  // would visit, which the ordered FP sums rely on).
  std::vector<std::uint32_t> in_off_, in_ids_;     // by (to_stage, to_site)
  std::vector<std::uint32_t> out_off_, out_ids_;   // by (from_stage, from_site)
  std::vector<std::uint32_t> edge_off_, edge_ids_; // by (from_stage, to_stage)
  std::vector<std::uint32_t> sin_off_, sin_ids_;   // by to_stage

  // Per-tick scratch (no allocation after warm-up).
  std::vector<double> lat_scratch_;
  std::vector<double> demand_scratch_;
  // The network's link table as of this tick (fetched at tick start, never
  // stale: see Network::links), indexed by chan_[ci].link.
  const net::Link* links_ = nullptr;

  // --- intra-run parallelism (DESIGN.md §11) -------------------------------
  //
  // Chunk boundaries are functions of the data layout alone (fixed channel
  // strides, one chunk per hosting site), never of the worker count, and all
  // cross-chunk FP reductions are recombined serially in legacy operand
  // order -- so any thread count, including the no-pool serial path, yields
  // bit-identical state and traces.
  //
  // Runs fn(0..n-1) on the pool, or inline (in index order) without one.
  void run_region(std::size_t n, const std::function<void(std::size_t)>& fn);
  // Region chunk bodies. Each is shared-nothing across its index domain;
  // `par_stage_` carries the stage index into per-site chunks so the region
  // lambdas capture only `this` (no allocation per region).
  void phase_reset_chunk(std::size_t i);   // channel resets + capacity rows
  void stage_site_chunk(std::size_t k);    // fused deliver+process, one site
  void flow_demand_chunk(std::size_t chunk);  // demand kernel + flow writes
  void delay_pre_chunk(std::size_t chunk); // per-channel delay-metric terms
  std::size_t par_chan_chunks_ = 0;  // channel-chunk count of this tick
  std::size_t par_stage_ = 0;        // stage whose sites are being processed

  // Per-gid / per-channel scratch written by parallel chunks and recombined
  // serially (see tick()). want_by_channel_ replaces the dense want_scratch_
  // indexing inside deliver: per-channel slots make the deliver chunks
  // shared-nothing.
  std::vector<double> want_by_channel_;
  std::vector<double> proc_scratch_;  // per-gid processed events this tick
  std::vector<char> bp_scratch_;      // per-gid backpressure flag
  std::vector<double> d_qexcess_;     // per-channel max(0, queue - offered)
  std::vector<double> d_weight_;      // per-channel latency weight
  std::vector<double> d_wlat_;        // per-channel weighted latency (ms)
  std::vector<double> d_linkeps_;     // per-channel link drain bound (eps)

  // Cached metric handles (stable node addresses inside the registry);
  // resolved once so the per-tick emit path performs no name lookups.
  struct MetricHandles {
    obs::Counter* ticks = nullptr;
    obs::Gauge* delay_sec = nullptr;
    obs::Gauge* generated_eps = nullptr;
    obs::Gauge* admitted_eps = nullptr;
    obs::Gauge* sink_eps = nullptr;
    obs::Gauge* processing_ratio = nullptr;
    obs::Gauge* source_backlog = nullptr;
    obs::Gauge* backpressured_stages = nullptr;
    obs::Counter* dropped_events = nullptr;
    obs::Counter* checkpoints = nullptr;
  };
  MetricHandles mh_;

  std::unordered_map<std::int64_t, double> source_rates_;  // (op,site) -> eps
  // char, not bool: the capacity-row kernel reads it as a raw array.
  std::vector<char> failed_sites_;
  std::vector<double> straggler_factor_;  // per-site capacity multiplier

  // Per-source delay tracking; key is the source's signature so trackers
  // survive re-planning. Entries whose signature stops matching a live
  // source are pruned on re-plan.
  std::unordered_map<std::string, DelayTracker> source_trackers_;

  QueryTickMetrics last_;
  double prev_delay_sec_ = 0.0;  // previous tick's delay (degrade budget)
  double replay_pending_events_ = 0.0;  // re-injected by the last re-plan
  double now_ = 0.0;  // end time of the latest tick
  double last_checkpoint_ = 0.0;
  int checkpoint_seq_ = 0;  // full when seq % full_checkpoint_every == 0
  double last_checkpoint_written_mb_ = 0.0;
  // Per-group state size / open-window contents at the last checkpoint,
  // indexed by gid. restore_site() rolls a recovered group's window back to
  // this snapshot and re-injects the lost delta at the replayable sources.
  std::vector<double> checkpointed_state_;
  std::vector<double> checkpointed_window_;
};

}  // namespace wasp::engine
