#include "runtime/recorder.h"

#include <algorithm>

#include "obs/metrics_registry.h"

namespace wasp::runtime {

void Recorder::record_tick(double t, double delay_sec, double ratio,
                           double parallelism_factor, double backlog_events,
                           double generated, double admitted, double dropped) {
  delay_.add(t, delay_sec);
  ratio_.add(t, ratio);
  parallelism_.add(t, parallelism_factor);
  backlog_.add(t, backlog_events);
  if (admitted > 0.0) delay_hist_.add(delay_sec, admitted);
  total_generated_ += generated;
  total_processed_ += admitted;
  total_dropped_ += dropped;

  if (metrics_ != nullptr) {
    m_delay_->set(delay_sec);
    m_ratio_->set(ratio);
    m_parallelism_->set(parallelism_factor);
    m_backlog_->set(backlog_events);
    m_generated_->inc(generated);
    m_processed_->inc(admitted);
    m_dropped_->inc(dropped);
    if (admitted > 0.0) m_delay_hist_->add(delay_sec, admitted);
  }
}

void Recorder::bind_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_delay_ = m_ratio_ = m_parallelism_ = m_backlog_ = nullptr;
    m_generated_ = m_processed_ = m_dropped_ = nullptr;
    m_delay_hist_ = nullptr;
    return;
  }
  m_delay_ = &registry->gauge("runtime.delay_sec");
  m_ratio_ = &registry->gauge("runtime.processing_ratio");
  m_parallelism_ = &registry->gauge("runtime.parallelism_factor");
  m_backlog_ = &registry->gauge("runtime.backlog_events");
  m_generated_ = &registry->counter("runtime.generated_events");
  m_processed_ = &registry->counter("runtime.processed_events");
  m_dropped_ = &registry->counter("runtime.dropped_events");
  m_delay_hist_ = &registry->histogram("runtime.delay_sec");
}

double Recorder::processed_fraction() const {
  if (total_generated_ <= 0.0) return 1.0;
  // Admitted events never outnumber generated ones, but the two totals are
  // separate double sums over different per-tick splits (a backlog admits
  // later than it was generated), so their rounding can leave the ratio a
  // few ulps above 1. Clamp it to the fraction it is.
  return std::clamp(total_processed_ / total_generated_, 0.0, 1.0);
}

}  // namespace wasp::runtime
