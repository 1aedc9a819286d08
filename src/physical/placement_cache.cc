#include "physical/placement_cache.h"

#include <cstring>

#include "physical/scheduler.h"

namespace wasp::physical {
namespace {

void append_double(std::string& out, double v) {
  char buf[sizeof(double)];
  std::memcpy(buf, &v, sizeof(double));
  out.append(buf, sizeof(double));
}

void append_int(std::string& out, std::int64_t v) {
  char buf[sizeof(std::int64_t)];
  std::memcpy(buf, &v, sizeof(std::int64_t));
  out.append(buf, sizeof(std::int64_t));
}

// One traffic endpoint plus everything the ILP reads from the view about it:
// the latency from/to every site and the bandwidth on every link the
// endpoint's traffic would cross.
void append_endpoint(std::string& out, const TrafficEndpoint& ep,
                     const NetworkView& view, bool upstream) {
  append_int(out, ep.site.value());
  append_double(out, ep.events_per_sec);
  append_double(out, ep.event_bytes);
  const std::size_t m = view.num_sites();
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    if (upstream) {
      append_double(out, view.latency_ms(ep.site, site));
      append_double(out, view.available_mbps(ep.site, site));
    } else {
      append_double(out, view.latency_ms(site, ep.site));
      append_double(out, view.available_mbps(site, ep.site));
    }
  }
}

}  // namespace

void placement_cache_key(std::string& key, const StageContext& context,
                         const NetworkView& view, double alpha,
                         const std::vector<int>& extra_slots) {
  const std::size_t m = view.num_sites();
  key.clear();
  key.reserve(64 + 8 * m * (2 * (context.upstream.size() +
                                 context.downstream.size()) + 2));
  append_double(key, alpha);
  append_int(key, context.parallelism);
  append_int(key, static_cast<std::int64_t>(m));
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    int slots = view.available_slots(site);
    if (s < extra_slots.size()) slots += extra_slots[s];
    append_int(key, slots);
    append_int(key, s < context.min_per_site.size() ? context.min_per_site[s]
                                                    : 0);
    // -1 = uncapped (the default), matching build_placement_ilp's reading of
    // max_per_site; the sentinel keeps capped and uncapped contexts distinct.
    append_int(key, s < context.max_per_site.size() ? context.max_per_site[s]
                                                    : -1);
  }
  append_int(key, static_cast<std::int64_t>(context.upstream.size()));
  for (const TrafficEndpoint& u : context.upstream) {
    append_endpoint(key, u, view, /*upstream=*/true);
  }
  append_int(key, static_cast<std::int64_t>(context.downstream.size()));
  for (const TrafficEndpoint& d : context.downstream) {
    append_endpoint(key, d, view, /*upstream=*/false);
  }
  // Anti-affinity is a solver input like any other: two contexts differing
  // only in exclusions must never collide (exact-byte key contract).
  append_int(key, static_cast<std::int64_t>(context.excluded_sites.size()));
  for (SiteId ex : context.excluded_sites) append_int(key, ex.value());
}

std::pair<std::optional<PlacementOutcome>*, bool>
PlacementCache::find_or_reserve(const std::string& key) {
  const auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) {
    ++stats_.hits;
    return {&it->second, true};
  }
  const auto prev_it = prev_.find(key);
  if (prev_it != prev_.end()) {
    // Promote the previous-generation entry so repeat lookups this epoch
    // stay single-hash.
    it->second = prev_it->second;
    ++stats_.hits;
    return {&it->second, true};
  }
  ++stats_.misses;
  return {&it->second, false};
}

}  // namespace wasp::physical
