#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/units.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace wasp::net {
namespace {

// Link-table rows per parallel-region chunk of the fill. A layout
// constant (never a function of the worker count): chunk boundaries must be
// identical for --threads 1 and --threads N.
constexpr std::size_t kLinkChunk = 16;

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
  if (link_partitioned(from, to) || site_down(from) || site_down(to)) {
    return 0.0;
  }
  return topology_.base_bandwidth(from, to) * model_->factor(from, to, t);
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
    links_[static_cast<std::size_t>(row)] = Link{from, to, {}};
    it = rows.insert(it, {to.value(), row});
  }
  ++links_[static_cast<std::size_t>(it->second)].refs;
  return it->second;
}

FlowId Network::add_stream_flow(SiteId from, SiteId to) {
  const FlowId id(next_flow_id_++);
  flows_.emplace(id, Flow{id, from, to, FlowKind::kStream, 0.0, 0.0, 0.0,
                          false, acquire_link(from, to)});
  flows_dirty_ = links_stale_ = true;
  return id;
}

FlowId Network::add_bulk_flow(SiteId from, SiteId to, double size_mb) {
  const FlowId id(next_flow_id_++);
  flows_.emplace(id, Flow{id, from, to, FlowKind::kBulk, 0.0, 0.0, size_mb,
                          size_mb <= 0.0, acquire_link(from, to)});
  flows_dirty_ = links_stale_ = true;
  return id;
}

void Network::remove_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  if (const std::int32_t l = it->second.link; l >= 0) {
    Link& link = links_[static_cast<std::size_t>(l)];
    if (--link.refs == 0) {
      auto& rows = rows_from_[static_cast<std::size_t>(link.from.value())];
      rows.erase(find_row(rows, link.to));
      free_links_.push_back(l);
    }
  }
  flows_.erase(it);
  flows_dirty_ = links_stale_ = true;
}

void Network::regroup() {
  for (Link& link : links_) link.flows.clear();
  local_flows_.clear();
  for (auto& [id, f] : flows_) {
    if (f.link < 0) {
      local_flows_.push_back(&f);
    } else {
      links_[static_cast<std::size_t>(f.link)].flows.push_back(&f);
    }
  }
  flows_dirty_ = false;
}

const Flow& Network::flow(FlowId id) const {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  return it->second;
}

Flow* Network::flow_slot(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  return &it->second;
}

bool Network::has_flow(FlowId id) const { return flows_.contains(id); }

void Network::waterfill(std::vector<Flow*>& active_scratch, double capacity) {
  // Classic progressive filling. Bulk flows have unbounded demand and end up
  // with an equal split of whatever streams leave unused. The working set is
  // compacted in place (stably, so the fill order matches the input order):
  // no allocation after warm-up.
  double remaining = capacity;
  for (Flow* f : active_scratch) f->allocated_mbps = 0.0;

  std::size_t active = active_scratch.size();
  while (active > 0 && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(active);
    bool anyone_satisfied = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active; ++i) {
      Flow* f = active_scratch[i];
      const bool bounded = f->kind == FlowKind::kStream;
      const double want = bounded ? f->demand_mbps - f->allocated_mbps
                                  : std::numeric_limits<double>::infinity();
      if (bounded && want <= share) {
        f->allocated_mbps += want;
        remaining -= want;
        anyone_satisfied = true;
      } else {
        active_scratch[kept++] = f;
      }
    }
    active = kept;
    if (!anyone_satisfied) {
      // Everyone wants at least the equal share: split evenly and stop.
      const double each = remaining / static_cast<double>(active);
      for (std::size_t i = 0; i < active; ++i) {
        active_scratch[i]->allocated_mbps += each;
      }
      remaining = 0.0;
      break;
    }
  }
}

void Network::fill_links(double t, bool solve) {
  if (flows_dirty_) regroup();
  // Rows are independent, so the fill runs on the pool in fixed chunks of
  // row ids. Each row is computed by one chunk with its flows in list order:
  // every allocation and sum is bit-identical for any thread count.
  const std::size_t n_links = links_.size();
  const std::size_t n_chunks = (n_links + kLinkChunk - 1) / kLinkChunk;
  if (wf_scratch_.size() < n_chunks) wf_scratch_.resize(n_chunks);
  const auto fill_chunk = [&](std::size_t c) {
    std::vector<Flow*>& active = wf_scratch_[c];
    const std::size_t end = std::min(n_links, (c + 1) * kLinkChunk);
    for (std::size_t li = c * kLinkChunk; li < end; ++li) {
      Link& link = links_[li];
      if (link.flows.empty()) continue;  // free row
      link.capacity = capacity(link.from, link.to, t);
      if (solve) {
        active.clear();
        for (Flow* f : link.flows) {
          if (f->kind == FlowKind::kBulk && f->done) {
            f->allocated_mbps = 0.0;
          } else {
            active.push_back(f);
          }
        }
        if (!active.empty()) waterfill(active, link.capacity);
      }
      double allocated = 0.0;
      for (const Flow* f : link.flows) allocated += f->allocated_mbps;
      link.allocated = allocated;
      link.headroom = std::max(0.0, link.capacity - allocated);
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(n_chunks, fill_chunk);
  } else {
    for (std::size_t c = 0; c < n_chunks; ++c) fill_chunk(c);
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
  for (Flow* f : local_flows_) {
    if ((f->kind == FlowKind::kBulk && f->done) || site_down(f->from)) {
      f->allocated_mbps = 0.0;
    } else {
      f->allocated_mbps = f->kind == FlowKind::kStream ? f->demand_mbps
                                                       : kLocalBandwidthMbps;
    }
  }

  const bool tracing = trace_ != nullptr && trace_->enabled();
  if (tracing) {
    for (const Link& link : links_) {
      double stream_mbps = 0.0, bulk_mbps = 0.0;
      std::size_t active = 0;
      for (const Flow* f : link.flows) {
        if (f->kind == FlowKind::kBulk && f->done) continue;
        ++active;
        (f->kind == FlowKind::kStream ? stream_mbps : bulk_mbps) +=
            f->allocated_mbps;
      }
      if (active == 0) continue;
      trace_->event_at(t, "link_alloc")
          .num("from_site", static_cast<double>(link.from.value()))
          .num("to_site", static_cast<double>(link.to.value()))
          .num("capacity_mbps", link.capacity)
          .num("stream_mbps", stream_mbps)
          .num("bulk_mbps", bulk_mbps)
          .num("num_flows", static_cast<double>(active));
    }
  }

  // Advance bulk transfers.
  for (auto& [id, f] : flows_) {
    if (f.kind != FlowKind::kBulk || f.done) continue;
    f.remaining_mb -= mbps_to_mb_per_sec(f.allocated_mbps) * dt;
    if (f.remaining_mb <= 1e-9) {
      f.remaining_mb = 0.0;
      f.done = true;
      if (tracing) {
        trace_->event_at(t, "bulk_done")
            .num("flow", static_cast<double>(id.value()))
            .num("from_site", static_cast<double>(f.from.value()))
            .num("to_site", static_cast<double>(f.to.value()));
      }
    }
  }
}

std::size_t Network::num_bulk_flows() const {
  std::size_t count = 0;
  for (const auto& [id, f] : flows_) {
    if (f.kind == FlowKind::kBulk && !f.done) ++count;
  }
  return count;
}

double Network::link_allocated(SiteId from, SiteId to) {
  if (from != to) {
    const std::int32_t id = link_id(from, to);
    return id < 0 ? 0.0
                  : links(links_t_)[static_cast<std::size_t>(id)].allocated;
  }
  double total = 0.0;
  for (const auto& [id, f] : flows_) {
    if (f.from == from && f.to == to) total += f.allocated_mbps;
  }
  return total;
}

}  // namespace wasp::net
