#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hgbench {
namespace {

/// Nearest-rank index (0-based) of quantile q in n sorted samples.
size_t PercentileIndex(size_t n, double q) {
  if (n == 0) return 0;
  // ceil(q * n) - 1, guarded against q * n landing a rounding error above
  // an integer.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

}  // namespace

bool PercentileSupported(size_t n, double q) {
  if (n == 0) return false;
  return n - 1 - PercentileIndex(n, q) >= kTailSamples;
}

double HighestSupportedPercentile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (PercentileSupported(n, q)) return q;
  }
  return 0;
}

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[PercentileIndex(samples.size(), q)];
}

size_t MinSamplesFor(double q) {
  size_t n = kTailSamples + 1;
  while (!PercentileSupported(n, q)) ++n;
  return n;
}

double BestWindowQuantile(const std::vector<double>& ms,
                        const std::vector<uint64_t>& done, double q,
                        size_t max_windows) {
  if (ms.empty()) return 0;
  // A quarter of slack: time-equal windows hold unequal sample counts.
  const size_t per_window = MinSamplesFor(q) + MinSamplesFor(q) / 4;
  const size_t windows =
      std::clamp<size_t>(ms.size() / per_window, 1, std::max<size_t>(1, max_windows));
  const auto [lo, hi] = std::minmax_element(done.begin(), done.end());
  const uint64_t width = (*hi - *lo) / windows + 1;
  std::vector<std::vector<double>> per(windows);
  for (size_t i = 0; i < ms.size(); ++i) {
    per[(done[i] - *lo) / width].push_back(ms[i]);
  }
  std::vector<double> values;
  for (auto& v : per) {
    if (PercentileSupported(v.size(), q)) values.push_back(Percentile(v, q));
  }
  if (values.empty()) {
    std::vector<double> all = ms;
    return Percentile(all, q);
  }
  return *std::min_element(values.begin(), values.end());
}

double BestWindowRate(const std::vector<uint64_t>& done, uint64_t start,
                    uint64_t span_ns, size_t windows) {
  if (windows == 0 || span_ns < windows) return 0;
  const uint64_t width = span_ns / windows;
  std::vector<double> counts(windows, 0);
  for (uint64_t t : done) {
    if (t < start) continue;
    const uint64_t k = (t - start) / width;
    if (k < windows) counts[k] += 1;
  }
  return *std::max_element(counts.begin(), counts.end()) /
         (static_cast<double>(width) / 1e9);
}

std::string Ratio::Basis() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g/%.17g", num, den);
  return buf;
}

uint64_t CounterDelta(const hygraph::obs::MetricsSnapshot& after,
                      const hygraph::obs::MetricsSnapshot& before,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  const uint64_t base = b == before.counters.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

hygraph::obs::HistogramSnapshot HistogramDelta(
    const hygraph::obs::MetricsSnapshot& after,
    const hygraph::obs::MetricsSnapshot& before, const std::string& name) {
  using hygraph::obs::HistogramSnapshot;
  HistogramSnapshot out;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  const auto b = before.histograms.find(name);
  const HistogramSnapshot empty;
  const HistogramSnapshot& base =
      b == before.histograms.end() ? empty : b->second;
  size_t lo = out.buckets.size();
  size_t hi = 0;
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    const uint64_t x = a->second.buckets[i];
    const uint64_t y = base.buckets[i];
    out.buckets[i] = x >= y ? x - y : 0;
    if (out.buckets[i] != 0) {
      lo = std::min(lo, i);
      hi = i;
      out.count += out.buckets[i];
    }
  }
  out.sum = a->second.sum >= base.sum ? a->second.sum - base.sum : 0;
  if (out.count != 0) {
    out.min = hygraph::obs::HistogramBucketLowerBound(lo);
    out.max = hygraph::obs::HistogramBucketUpperBound(hi);
  }
  return out;
}

}  // namespace hgbench
