#ifndef HYGRAPH_BENCH_BENCH_UTIL_H_
#define HYGRAPH_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/clock.h"

namespace hygraph::bench {

/// Wall-clock time of one invocation, in milliseconds. Reads the shared
/// monotonic clock through obs::SystemClock so every timing in the repo
/// goes through one source (enforced by the raw-clock lint rule).
template <typename Fn>
double TimeMs(Fn&& fn) {
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t start = clock->NowNanos();
  fn();
  return static_cast<double>(clock->NowNanos() - start) / 1e6;
}

/// Runs `fn` once as warmup and then `repetitions` timed times; returns the
/// per-run statistics (mean response time, CV, ...).
template <typename Fn>
RunningStats Repeat(size_t repetitions, Fn&& fn) {
  fn();  // warmup
  RunningStats stats;
  for (size_t i = 0; i < repetitions; ++i) {
    stats.Add(TimeMs(fn));
  }
  return stats;
}

/// Prints a section header mirroring the paper's table/figure captions.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// One named measurement headed for a BENCH_<name>.json file.
struct JsonResult {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The process's recorded results, in Record() order.
inline std::vector<JsonResult>& Results() {
  static std::vector<JsonResult> results;
  return results;
}

/// Appends one result for WriteJson.
inline void Record(const std::string& name, double value,
                   const std::string& unit) {
  Results().push_back({name, value, unit});
}

/// Writes every recorded result to BENCH_<benchmark_name>.json in the
/// current directory; exits 1 when the file cannot be opened.
inline void WriteJson(const std::string& benchmark_name) {
  const std::string path = "BENCH_" + benchmark_name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"results\": [\n",
               benchmark_name.c_str());
  const std::vector<JsonResult>& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu results)\n", path.c_str(), results.size());
}

}  // namespace hygraph::bench

#endif  // HYGRAPH_BENCH_BENCH_UTIL_H_
