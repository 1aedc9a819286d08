// Bandwidth-trace I/O: drive the network from measured traces.
//
// The paper's controlled experiments replay a 1-day EC2 measurement; users
// of this library will want to replay their own. `TraceBandwidth` is a
// BandwidthModel backed by an explicit per-directed-link factor table, and
// the CSV helpers read/write the long format
//
//     time_sec,from_site,to_site,factor
//
// (header optional, '#' comments allowed). Factors multiply the topology's
// base bandwidth, exactly like the built-in models; a link absent from the
// trace keeps factor 1. Between samples the factor of the latest sample at
// or before t applies (step interpolation, matching iperf-style periodic
// measurements).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "net/bandwidth_model.h"

namespace wasp::net {

class TraceBandwidth final : public BandwidthModel {
 public:
  TraceBandwidth() = default;

  // Appends a sample; samples may arrive in any order and are kept sorted
  // per link.
  void add_sample(SiteId from, SiteId to, double t, double factor);

  [[nodiscard]] double factor(SiteId from, SiteId to, double t) const override;

  [[nodiscard]] std::size_t num_samples() const;

  // Every (from, to) pair with at least one sample.
  [[nodiscard]] std::vector<std::pair<SiteId, SiteId>> links() const;

  // False, with a message in *error, when a sample names a site at or above
  // `num_sites` (a row the network would never consult).
  [[nodiscard]] bool fits(std::size_t num_sites, std::string* error) const;

 private:
  // (from, to) -> time-sorted (t, factor) samples.
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::vector<std::pair<double, double>>>
      samples_;
};

// Parses a CSV trace. Returns the model, or an error message via `error`
// (empty on success). Malformed lines abort the parse with a message
// naming the line number.
[[nodiscard]] TraceBandwidth load_bandwidth_trace(std::istream& in,
                                                  std::string* error);

// Writes `model` sampled every `period_sec` over [0, horizon_sec) for all
// directed pairs of `num_sites` sites, in the CSV format above.
void save_bandwidth_trace(std::ostream& out, const BandwidthModel& model,
                          std::size_t num_sites, double horizon_sec,
                          double period_sec);

}  // namespace wasp::net
