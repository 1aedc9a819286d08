// WAN Monitor: the control plane's view of inter-site bandwidth.
//
// The WASP prototype runs a background module that periodically measures
// pair-wise available bandwidth between sites (§8.1, iperf-style probes).
// The adaptation layer never sees the network's true instantaneous capacity;
// it plans against this monitor's estimates, which are (a) only refreshed at
// the probe interval, so they can be stale, and (b) perturbed by measurement
// noise and smoothed with an EWMA. The α-headroom in the placement ILP
// (§4.1) exists precisely to absorb these estimation errors.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"

namespace wasp::net {

class WanMonitor {
 public:
  struct Config {
    double probe_interval_sec = 40.0;
    double noise_stddev = 0.05;  // relative probe noise
    double ewma_alpha = 0.5;
  };

  WanMonitor(Network& network, const Config& config, Rng rng);

  // Advances the monitor; probes all links whenever the interval elapses.
  void tick(double t);

  // Forces an immediate probe of all links (used at deployment time). Links
  // with flows read their headroom from the network's link table.
  void probe_now(double t);

  // Latest bandwidth estimate (Mbps) for the directed link from -> to.
  // Same-site pairs report the local fabric constant.
  [[nodiscard]] double available(SiteId from, SiteId to) const;

  [[nodiscard]] double last_probe_time() const { return last_probe_; }

 private:
  Network& network_;
  Config config_;
  Rng rng_;
  double last_probe_ = -1e18;
  std::vector<Ewma> estimates_;  // [from * n + to]
};

}  // namespace wasp::net
