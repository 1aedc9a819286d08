// Scripted fault schedules (chaos scripts).
//
// A schedule is a time-ordered list of fault events parsed from a small
// line-oriented text format -- one event per line, `#` starts a comment:
//
//   TIME KIND key=value ...
//
//   120 crash site=3
//   240 restore site=3
//   300 partition from=2 to=0 duration=60     # heals itself at t=360
//   360 heal from=2 to=0                      # or heal explicitly
//   100 flap from=1 to=0 period=12 duration=90
//   400 straggler site=5 factor=0.2           # factor=1 clears
//   600 stall duration=30                     # control plane freezes 30 s
//   500 domain_down domain=2                  # every site in domain 2 crashes
//   620 domain_restore domain=2
//
// The schedule itself is pure data; the FaultInjector turns it into calls on
// the Network / engine hooks at the right simulated times, with any jitter
// (flapping) drawn from the injector's forked Rng so replays are
// deterministic given the seed (§8.6's failure experiments depend on this).
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "common/ids.h"

namespace wasp::faults {

enum class FaultKind {
  kSiteCrash,      // site=S
  kSiteRestore,    // site=S
  kLinkPartition,  // from=A to=B [duration=D]
  kLinkHeal,       // from=A to=B
  kLinkFlap,       // from=A to=B period=P duration=D
  kStraggler,      // site=S factor=F  (factor >= 1 clears)
  kControlStall,   // duration=D
  kDomainDown,     // domain=D  (crashes every site labeled with the domain)
  kDomainRestore,  // domain=D
};

struct FaultEvent {
  double t = 0.0;
  FaultKind kind = FaultKind::kSiteCrash;
  SiteId site{-1};
  SiteId from{-1};
  SiteId to{-1};
  double duration_sec = 0.0;
  double period_sec = 0.0;
  double factor = 1.0;
  int domain = -1;
};

[[nodiscard]] const char* to_string(FaultKind kind);

class FaultSchedule {
 public:
  // Parses the text format above. On success returns true and fills the
  // schedule (sorted by time, stable for ties); on failure returns false and
  // writes a one-line diagnostic (with line number) into *error.
  static bool parse(std::istream& in, FaultSchedule* out, std::string* error);
  static bool parse_file(const std::string& path, FaultSchedule* out,
                         std::string* error);

  void add(FaultEvent event);

  // False, with a diagnostic in *error, when an event names a site id a
  // topology of `num_sites` sites does not have (a schedule written for a
  // larger topology); the injector would index past its link tables.
  [[nodiscard]] bool fits(int num_sites, std::string* error) const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace wasp::faults
