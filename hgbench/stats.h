// Statistics the served-workload benchmark reports: the percentile rule,
// counter and histogram deltas between two registry snapshots, and ratios
// that carry their numerator and denominator.
#ifndef HGBENCH_STATS_H_
#define HGBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hgbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr size_t kTailSamples = 10;

/// True when n samples leave at least kTailSamples beyond quantile q.
bool PercentileSupported(size_t n, double q);

/// The highest of {0.999, 0.99, 0.9, 0.5} that n samples support, or 0
/// when none is.
double HighestSupportedPercentile(size_t n);

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& samples, double q);

/// Smallest sample count that supports quantile q.
size_t MinSamplesFor(double q);

/// Quantile q of latencies `ms` completing at times `done` (same length)
/// in the run's least disturbed stretch. The samples' time span is cut into
/// equal windows, as many as `max_windows` while each window still holds
/// about MinSamplesFor(q) samples, and the lowest per-window quantile among
/// the windows that support q is returned. On a shared host the machine's
/// own speed drifts by tens of percent over seconds; the program's cost
/// shows in every window, the neighbours' load only in some. Falls back to
/// the pooled quantile when no window supports q.
double BestWindowQuantile(const std::vector<double>& ms,
                          const std::vector<uint64_t>& done, double q,
                          size_t max_windows);

/// The highest, over `windows` equal windows of [start, start + span_ns),
/// number of `done` times falling in a window, per second.
double BestWindowRate(const std::vector<uint64_t>& done, uint64_t start,
                      uint64_t span_ns, size_t windows);

/// A measured ratio with its base. value() is 0 for a zero denominator.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den > 0 ? num / den : 0.0; }
  /// "num/den", for printing the base beside the value.
  std::string Basis() const;
};

/// after - before for one counter (0 when absent from `after`).
uint64_t CounterDelta(const hygraph::obs::MetricsSnapshot& after,
                      const hygraph::obs::MetricsSnapshot& before,
                      const std::string& name);

/// Bucket-wise after - before for one histogram. min/max of the delta are
/// the bounds of its lowest and highest non-empty buckets, so Quantile()
/// interpolates inside the delta's own envelope.
hygraph::obs::HistogramSnapshot HistogramDelta(
    const hygraph::obs::MetricsSnapshot& after,
    const hygraph::obs::MetricsSnapshot& before, const std::string& name);

}  // namespace hgbench

#endif  // HGBENCH_STATS_H_
