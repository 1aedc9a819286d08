#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/units.h"
#include "obs/trace.h"

namespace wasp::net {
namespace {

// Lower bound of `to` in one source site's sorted (to site, row) list.
template <typename Rows>
auto find_row(Rows& rows, SiteId to) {
  return std::lower_bound(
      rows.begin(), rows.end(), to.value(),
      [](const auto& r, std::int64_t site) { return r.first < site; });
}

}  // namespace

Network::Network(Topology topology, std::shared_ptr<const BandwidthModel> model)
    : topology_(std::move(topology)),
      model_(std::move(model)),
      link_partitioned_(topology_.num_sites() * topology_.num_sites(), 0),
      site_down_(topology_.num_sites(), 0),
      rows_from_(topology_.num_sites()) {
  assert(model_ != nullptr);
}

double Network::capacity(SiteId from, SiteId to, double t) const {
  return link_capacity(from, to, topology_.base_bandwidth(from, to), t);
}

double Network::link_capacity(SiteId from, SiteId to, double base_mbps,
                              double t) const {
  if (link_partitioned(from, to) || site_down(from) || site_down(to)) {
    return 0.0;
  }
  return base_mbps * model_->factor(from, to, t);
}

void Network::set_link_partitioned(SiteId from, SiteId to, bool partitioned) {
  const auto n = static_cast<std::size_t>(topology_.num_sites());
  const auto f = static_cast<std::size_t>(from.value());
  const auto d = static_cast<std::size_t>(to.value());
  assert(f < n && d < n);
  link_partitioned_[f * n + d] = partitioned ? 1 : 0;
  links_stale_ = true;
}

bool Network::link_partitioned(SiteId from, SiteId to) const {
  const auto n = static_cast<std::size_t>(topology_.num_sites());
  const auto f = static_cast<std::size_t>(from.value());
  const auto d = static_cast<std::size_t>(to.value());
  assert(f < n && d < n);
  return link_partitioned_[f * n + d] != 0;
}

void Network::set_site_down(SiteId site, bool down) {
  const auto s = static_cast<std::size_t>(site.value());
  assert(s < site_down_.size());
  site_down_[s] = down ? 1 : 0;
  links_stale_ = true;
}

bool Network::site_down(SiteId site) const {
  const auto s = static_cast<std::size_t>(site.value());
  assert(s < site_down_.size());
  return site_down_[s] != 0;
}

std::int32_t Network::acquire_link(SiteId from, SiteId to) {
  if (from == to) return -1;
  auto& rows = rows_from_[static_cast<std::size_t>(from.value())];
  auto it = find_row(rows, to);
  if (it == rows.end() || it->first != to.value()) {
    if (free_links_.empty()) {
      free_links_.push_back(static_cast<std::int32_t>(links_.size()));
      links_.emplace_back();
    }
    const std::int32_t row = free_links_.back();
    free_links_.pop_back();
    links_[static_cast<std::size_t>(row)] =
        Link{from, to, topology_.base_bandwidth(from, to)};
    it = rows.insert(it, {to.value(), row});
  }
  ++links_[static_cast<std::size_t>(it->second)].refs;
  return it->second;
}

void Network::insert_flow(const Flow& flow) {
  FlowSlot slot;
  if (free_slots_.empty()) {
    slot = static_cast<FlowSlot>(flows_.size());
    flows_.push_back(flow);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    flows_[slot] = flow;
  }
  by_id_.emplace_back(flow.id, slot);
  if (flow.kind == FlowKind::kBulk) bulk_.push_back(slot);
  flows_dirty_ = links_stale_ = true;
}

FlowId Network::add_stream_flow(SiteId from, SiteId to) {
  const FlowId id(next_flow_id_++);
  insert_flow(Flow{id, from, to, 0.0, 0.0, 0.0, acquire_link(from, to),
                   FlowKind::kStream, false});
  return id;
}

FlowId Network::add_bulk_flow(SiteId from, SiteId to, double size_mb) {
  const FlowId id(next_flow_id_++);
  insert_flow(Flow{id, from, to, 0.0, 0.0, size_mb, acquire_link(from, to),
                   FlowKind::kBulk, size_mb <= 0.0});
  return id;
}

void Network::remove_flow(FlowId id) {
  const std::size_t at = id_index(id);
  if (at == by_id_.size() || by_id_[at].second == kNoSlot) return;
  const FlowSlot slot = by_id_[at].second;
  Flow& flow = flows_[slot];
  if (const std::int32_t l = flow.link; l >= 0) {
    Link& link = links_[static_cast<std::size_t>(l)];
    if (--link.refs == 0) {
      auto& rows = rows_from_[static_cast<std::size_t>(link.from.value())];
      rows.erase(find_row(rows, link.to));
      free_links_.push_back(l);
    }
  }
  if (flow.kind == FlowKind::kBulk) {
    bulk_.erase(std::find(bulk_.begin(), bulk_.end(), slot));
  }
  flow = Flow{};
  free_slots_.push_back(slot);
  by_id_[at].second = kNoSlot;
  // Keep the id index within twice the live flows between regroups.
  if (++removed_ids_ > by_id_.size() / 2) compact_ids();
  flows_dirty_ = links_stale_ = true;
}

void Network::compact_ids() {
  std::erase_if(by_id_, [](const auto& e) { return e.second == kNoSlot; });
  removed_ids_ = 0;
}

void Network::regroup() {
  if (removed_ids_ > 0) compact_ids();
  // Counting sort of the id-ordered flows by row: each row's range comes
  // out in ascending id order.
  row_off_.assign(links_.size() + 1, 0);
  local_flows_.clear();
  for (const auto& [id, slot] : by_id_) {
    const std::int32_t l = flows_[slot].link;
    if (l < 0) {
      local_flows_.push_back(slot);
    } else {
      ++row_off_[static_cast<std::size_t>(l) + 1];
    }
  }
  for (std::size_t r = 0; r < links_.size(); ++r) {
    row_off_[r + 1] += row_off_[r];
  }
  row_fill_.assign(row_off_.begin(), row_off_.end() - 1);
  row_flows_.resize(row_off_.back());
  for (const auto& [id, slot] : by_id_) {
    const std::int32_t l = flows_[slot].link;
    if (l >= 0) row_flows_[row_fill_[static_cast<std::size_t>(l)]++] = slot;
  }
  flows_dirty_ = false;
}

std::size_t Network::id_index(FlowId id) const {
  // Ids are issued in increasing order, so while no entry newer than `id`
  // has been compacted away, its entry sits (newest id - id) places from
  // the end: the common case of a lookup just after an add, and of removing
  // flows oldest first.
  const std::int64_t back = next_flow_id_ - 1 - id.value();
  if (back >= 0 && back < static_cast<std::int64_t>(by_id_.size())) {
    const std::size_t at = by_id_.size() - 1 - static_cast<std::size_t>(back);
    if (by_id_[at].first == id) return at;
  }
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [](const auto& entry, FlowId key) { return entry.first < key; });
  return it != by_id_.end() && it->first == id
             ? static_cast<std::size_t>(it - by_id_.begin())
             : by_id_.size();
}

FlowSlot Network::find_slot(FlowId id) const {
  const std::size_t at = id_index(id);
  return at == by_id_.size() ? kNoSlot : by_id_[at].second;
}

std::span<const FlowSlot> Network::link_flows(std::int32_t row) {
  if (flows_dirty_) regroup();
  const auto r = static_cast<std::size_t>(row);
  return {row_flows_.data() + row_off_[r], row_off_[r + 1] - row_off_[r]};
}

void Network::waterfill(Flow* flows, std::span<FlowSlot> active_scratch,
                        double capacity) {
  // Classic progressive filling. Bulk flows have unbounded demand and end up
  // with an equal split of whatever streams leave unused. The working set is
  // compacted in place (stably, so the fill order matches the input order):
  // no allocation after warm-up.
  double remaining = capacity;
  for (const FlowSlot s : active_scratch) flows[s].allocated_mbps = 0.0;

  std::size_t active = active_scratch.size();
  while (active > 0 && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(active);
    bool anyone_satisfied = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active; ++i) {
      Flow& f = flows[active_scratch[i]];
      const bool bounded = f.kind == FlowKind::kStream;
      const double want = bounded ? f.demand_mbps - f.allocated_mbps
                                  : std::numeric_limits<double>::infinity();
      if (bounded && want <= share) {
        f.allocated_mbps += want;
        remaining -= want;
        anyone_satisfied = true;
      } else {
        active_scratch[kept++] = active_scratch[i];
      }
    }
    active = kept;
    if (!anyone_satisfied) {
      // Everyone wants at least the equal share: split evenly and stop.
      const double each = remaining / static_cast<double>(active);
      for (std::size_t i = 0; i < active; ++i) {
        flows[active_scratch[i]].allocated_mbps += each;
      }
      remaining = 0.0;
      break;
    }
  }
}

void Network::fill_links(double t, bool solve) {
  if (flows_dirty_) regroup();
  Flow* const flows = flows_.data();
  // Rows are independent; each is computed with its flows in id order.
  for (std::size_t r = 0; r < links_.size(); ++r) {
    const FlowSlot* const begin = row_flows_.data() + row_off_[r];
    const FlowSlot* const end = row_flows_.data() + row_off_[r + 1];
    if (begin == end) continue;  // free row
    Link& link = links_[r];
    link.capacity = link_capacity(link.from, link.to, link.base_mbps, t);
    double allocated = 0.0;
    if (end - begin == 1) {  // ~all rows of a large clique
      Flow& f = flows[*begin];
      if (solve) f.allocated_mbps = one_flow_share(f, link.capacity);
      allocated += f.allocated_mbps;
    } else {
      if (solve) {
        wf_active_.clear();
        for (const FlowSlot* p = begin; p != end; ++p) {
          Flow& f = flows[*p];
          if (f.kind == FlowKind::kBulk && f.done) {
            f.allocated_mbps = 0.0;
          } else {
            wf_active_.push_back(*p);
          }
        }
        if (!wf_active_.empty()) waterfill(flows, wf_active_, link.capacity);
      }
      for (const FlowSlot* p = begin; p != end; ++p) {
        allocated += flows[*p].allocated_mbps;
      }
    }
    link.allocated = allocated;
    link.headroom = std::max(0.0, link.capacity - allocated);
  }
  links_t_ = t;
  links_stale_ = false;
}

const std::vector<Link>& Network::links(double t) {
  if (links_stale_ || t != links_t_) fill_links(t, /*solve=*/false);
  return links_;
}

std::int32_t Network::link_id(SiteId from, SiteId to) const {
  const auto& rows = links_from(from);
  const auto it = find_row(rows, to);
  return it == rows.end() || it->first != to.value() ? -1 : it->second;
}

void Network::step(double t, double dt) {
  fill_links(t, /*solve=*/true);  // regroups local_flows_ too
  for (const FlowSlot s : local_flows_) {
    Flow& f = flows_[s];
    if ((f.kind == FlowKind::kBulk && f.done) || site_down(f.from)) {
      f.allocated_mbps = 0.0;
    } else {
      f.allocated_mbps = f.kind == FlowKind::kStream ? f.demand_mbps
                                                     : kLocalBandwidthMbps;
    }
  }

  const bool tracing = trace_ != nullptr && trace_->enabled();
  if (tracing) {
    for (std::size_t r = 0; r < links_.size(); ++r) {
      double stream_mbps = 0.0, bulk_mbps = 0.0;
      std::size_t active = 0;
      for (std::uint32_t k = row_off_[r]; k < row_off_[r + 1]; ++k) {
        const Flow& f = flows_[row_flows_[k]];
        if (f.kind == FlowKind::kBulk && f.done) continue;
        ++active;
        (f.kind == FlowKind::kStream ? stream_mbps : bulk_mbps) +=
            f.allocated_mbps;
      }
      if (active == 0) continue;
      const Link& link = links_[r];
      trace_->event_at(t, "link_alloc")
          .num("from_site", static_cast<double>(link.from.value()))
          .num("to_site", static_cast<double>(link.to.value()))
          .num("capacity_mbps", link.capacity)
          .num("stream_mbps", stream_mbps)
          .num("bulk_mbps", bulk_mbps)
          .num("num_flows", static_cast<double>(active));
    }
  }

  // Advance bulk transfers, in id order.
  for (const FlowSlot s : bulk_) {
    Flow& f = flows_[s];
    if (f.done) continue;
    f.remaining_mb -= mbps_to_mb_per_sec(f.allocated_mbps) * dt;
    if (f.remaining_mb <= 1e-9) {
      f.remaining_mb = 0.0;
      f.done = true;
      if (tracing) {
        trace_->event_at(t, "bulk_done")
            .num("flow", static_cast<double>(f.id.value()))
            .num("from_site", static_cast<double>(f.from.value()))
            .num("to_site", static_cast<double>(f.to.value()));
      }
    }
  }
}

std::size_t Network::num_bulk_flows() const {
  return static_cast<std::size_t>(std::count_if(
      bulk_.begin(), bulk_.end(), [&](FlowSlot s) { return !flows_[s].done; }));
}

double Network::link_allocated(SiteId from, SiteId to) {
  if (from != to) {
    const std::int32_t id = link_id(from, to);
    return id < 0 ? 0.0
                  : links(links_t_)[static_cast<std::size_t>(id)].allocated;
  }
  if (flows_dirty_) regroup();
  double total = 0.0;
  for (const FlowSlot s : local_flows_) {
    if (flows_[s].from == from) total += flows_[s].allocated_mbps;
  }
  return total;
}

}  // namespace wasp::net
