#include "net/trace_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/parse.h"

namespace wasp::net {

void TraceBandwidth::add_sample(SiteId from, SiteId to, double t,
                                double factor) {
  auto& series = samples_[{from.value(), to.value()}];
  series.emplace_back(t, factor);
  // Keep sorted; appends are usually already in order.
  if (series.size() > 1 &&
      series[series.size() - 2].first > series.back().first) {
    std::sort(series.begin(), series.end());
  }
}

double TraceBandwidth::factor(SiteId from, SiteId to, double t) const {
  const auto it = samples_.find({from.value(), to.value()});
  if (it == samples_.end() || it->second.empty()) return 1.0;
  const auto& series = it->second;
  // Last sample at or before t; before the first sample, use the first.
  auto pos = std::upper_bound(
      series.begin(), series.end(), t,
      [](double x, const std::pair<double, double>& s) { return x < s.first; });
  if (pos == series.begin()) return series.front().second;
  return std::prev(pos)->second;
}

std::size_t TraceBandwidth::num_samples() const {
  std::size_t n = 0;
  for (const auto& [link, series] : samples_) n += series.size();
  return n;
}

std::vector<std::pair<SiteId, SiteId>> TraceBandwidth::links() const {
  std::vector<std::pair<SiteId, SiteId>> out;
  out.reserve(samples_.size());
  for (const auto& [link, series] : samples_) {
    out.emplace_back(SiteId(link.first), SiteId(link.second));
  }
  return out;
}

bool TraceBandwidth::fits(std::size_t num_sites, std::string* error) const {
  for (const auto& [link, series] : samples_) {
    for (const std::int64_t site : {link.first, link.second}) {
      if (static_cast<std::size_t>(site) >= num_sites) {
        *error = "a sample names site " + std::to_string(site) +
                 ", but the topology has " + std::to_string(num_sites) +
                 " sites";
        return false;
      }
    }
  }
  return true;
}

TraceBandwidth load_bandwidth_trace(std::istream& in, std::string* error) {
  TraceBandwidth trace;
  if (error != nullptr) error->clear();
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    // time_sec,from_site,to_site,factor: whole, finite cells.
    std::istringstream fields(line);
    std::string cells[4];
    double t = 0.0, factor = 0.0;
    int from = 0, to = 0;
    bool ok = true;
    for (std::string& cell : cells) {
      ok = ok && std::getline(fields, cell, ',');
      cell = trim_blanks(cell);
    }
    ok = ok && try_parse_number(cells[0], &t) &&
         try_parse_number(cells[1], &from) && try_parse_number(cells[2], &to) &&
         try_parse_number(cells[3], &factor);
    if (!ok) {
      // A non-numeric first line is accepted as a header.
      if (line_no == 1) continue;
      if (error != nullptr) {
        *error = "malformed trace line " + std::to_string(line_no) + ": '" +
                 line + "'";
      }
      return TraceBandwidth{};
    }
    if (factor < 0.0 || from < 0 || to < 0) {
      if (error != nullptr) {
        *error = "negative value on trace line " + std::to_string(line_no);
      }
      return TraceBandwidth{};
    }
    trace.add_sample(SiteId(from), SiteId(to), t, factor);
  }
  return trace;
}

void save_bandwidth_trace(std::ostream& out, const BandwidthModel& model,
                          std::size_t num_sites, double horizon_sec,
                          double period_sec) {
  out << "time_sec,from_site,to_site,factor\n";
  for (double t = 0.0; t < horizon_sec; t += period_sec) {
    for (std::size_t i = 0; i < num_sites; ++i) {
      for (std::size_t j = 0; j < num_sites; ++j) {
        if (i == j) continue;
        const SiteId from(static_cast<std::int64_t>(i));
        const SiteId to(static_cast<std::int64_t>(j));
        out << t << ',' << i << ',' << j << ',' << model.factor(from, to, t)
            << '\n';
      }
    }
  }
}

}  // namespace wasp::net
