// Workload-trace I/O: drive the sources from measured rate traces.
//
// Complements net/trace_io: where that replays link bandwidth, this replays
// per-(source, site) event rates -- e.g. a real geo-tagged ingest trace
// aggregated into (time, site) buckets. CSV long format:
//
//     time_sec,source_name,site,events_per_sec
//
// (header optional, '#' comments allowed). Source names match the query's
// source operator names (e.g. "tweets-east"); rates hold until the next
// sample for the same (source, site). Pairs absent from the trace stay at
// rate 0.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "workload/patterns.h"

namespace wasp::workload {

class TraceWorkload final : public WorkloadPattern {
 public:
  TraceWorkload() = default;

  // Appends a sample (kept time-sorted per key).
  void add_sample(const std::string& source_name, SiteId site, double t,
                  double events_per_sec);

  // Binds a query's source operator id to its trace name. Rates for unbound
  // operators are 0. (The pattern is keyed by name in the file so one trace
  // serves any query with matching source names.)
  void bind_source(OperatorId source, const std::string& name);

  [[nodiscard]] double rate(OperatorId source, SiteId site,
                            double t) const override;

  [[nodiscard]] std::size_t num_samples() const;
  [[nodiscard]] std::vector<std::string> source_names() const;

  // False, with a message in *error, when a sample names a source outside
  // `source_names` or a site at or above `num_sites` (a row no source
  // operator would ever read).
  [[nodiscard]] bool fits(std::size_t num_sites,
                          const std::vector<std::string>& source_names,
                          std::string* error) const;

 private:
  // (name, site) -> time-sorted (t, rate) samples.
  std::map<std::pair<std::string, std::int64_t>,
           std::vector<std::pair<double, double>>>
      samples_;
  std::unordered_map<OperatorId, std::string> bindings_;
};

// Parses a CSV workload trace; `error` is empty on success.
[[nodiscard]] TraceWorkload load_workload_trace(std::istream& in,
                                                std::string* error);

// Writes `pattern` sampled every `period_sec` over [0, horizon_sec) for the
// given (source id, name, sites) bindings.
struct SourceBinding {
  OperatorId source;
  std::string name;
  std::vector<SiteId> sites;
};
void save_workload_trace(std::ostream& out, const WorkloadPattern& pattern,
                         const std::vector<SourceBinding>& bindings,
                         double horizon_sec, double period_sec);

}  // namespace wasp::workload
