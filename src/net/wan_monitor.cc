#include "net/wan_monitor.h"

#include <algorithm>

namespace wasp::net {

WanMonitor::WanMonitor(Network& network, const Config& config, Rng rng)
    : network_(network), config_(config), rng_(rng) {
  const std::size_t n = network_.topology().num_sites();
  estimates_.assign(n * n, Ewma(config_.ewma_alpha));
}

void WanMonitor::tick(double t) {
  if (t - last_probe_ >= config_.probe_interval_sec) probe_now(t);
}

void WanMonitor::probe_now(double t) {
  const auto n =
      static_cast<std::int64_t>(network_.topology().num_sites());
  const std::vector<Link>& links = network_.links(t);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& rows = network_.links_from(SiteId(i));  // ascending to site
    auto row = rows.begin();
    for (std::int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const SiteId from(i), to(j);
      while (row != rows.end() && row->first < j) ++row;
      // iperf-style probes observe *available* bandwidth: the capacity
      // headroom left by the traffic currently riding the link (all of it
      // when no flow rides it).
      const double truth =
          row != rows.end() && row->first == j
              ? links[static_cast<std::size_t>(row->second)].headroom
              : std::max(0.0, network_.capacity(from, to, t));
      const double noisy =
          std::max(0.0, truth * (1.0 + rng_.normal(0.0, config_.noise_stddev)));
      estimates_[static_cast<std::size_t>(i * n + j)].add(noisy);
    }
  }
  last_probe_ = t;
}

double WanMonitor::available(SiteId from, SiteId to) const {
  if (from == to) return kLocalBandwidthMbps;
  const auto n = network_.topology().num_sites();
  const auto& e = estimates_[static_cast<std::size_t>(from.value()) * n +
                             static_cast<std::size_t>(to.value())];
  return e.initialized() ? e.value() : 0.0;
}

}  // namespace wasp::net
