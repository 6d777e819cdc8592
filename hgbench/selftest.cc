// Self-tests for the benchmark's own logic: the percentile rule, counter
// and histogram deltas, ratios, and the answer checker. hgbench/run.py runs
// this binary before every benchmark run and stops on a failure.

#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using hygraph::Value;
using hygraph::query::QueryResult;

void PercentileRule() {
  using hgbench::HighestSupportedPercentile;
  using hgbench::PercentileSupported;
  // p99 needs ten samples beyond it: 1000 is the smallest count.
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(100, 0.9));
  EXPECT(!PercentileSupported(99, 0.9));
  EXPECT(PercentileSupported(20, 0.5));
  EXPECT(!PercentileSupported(19, 0.5));
  EXPECT(!PercentileSupported(0, 0.5));
  EXPECT(HighestSupportedPercentile(10000) == 0.999);
  EXPECT(HighestSupportedPercentile(5000) == 0.99);
  EXPECT(HighestSupportedPercentile(500) == 0.9);
  EXPECT(HighestSupportedPercentile(50) == 0.5);
  EXPECT(HighestSupportedPercentile(10) == 0);

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, unsorted
  EXPECT(hgbench::Percentile(v, 0.5) == 500);
  EXPECT(hgbench::Percentile(v, 0.99) == 990);
  EXPECT(hgbench::Percentile(v, 1.0) == 1000);
  std::vector<double> empty;
  EXPECT(hgbench::Percentile(empty, 0.5) == 0);
}

void Windowed() {
  using hgbench::BestWindowQuantile;
  EXPECT(hgbench::MinSamplesFor(0.99) == 1000);
  EXPECT(hgbench::MinSamplesFor(0.9) == 100);
  EXPECT(hgbench::MinSamplesFor(0.5) == 20);

  // 5000 samples over 5 s: 1 ms in the fourth second, 2 ms elsewhere and
  // 9 ms in a slow second spell. The best window is the fourth second.
  std::vector<double> ms;
  std::vector<uint64_t> done;
  for (uint64_t i = 0; i < 5000; ++i) {
    done.push_back(i * 1000000);
    ms.push_back(i >= 1000 && i < 2000 ? 9.0 : i >= 3000 && i < 4000 ? 1.0
                                                                     : 2.0);
  }
  EXPECT(BestWindowQuantile(ms, done, 0.5, 5) == 1.0);
  // One window only: the pooled quantile.
  EXPECT(BestWindowQuantile(ms, done, 0.5, 1) == 2.0);
  // p99 needs 1000 samples a window: 5000 samples make 4 windows, none of
  // them free of the slow spell's tail or the 2 ms body.
  EXPECT(BestWindowQuantile(ms, done, 0.99, 5) == 2.0);
  // Too few samples for even one window: the pooled quantile.
  std::vector<double> few_ms = {3, 1, 2};
  std::vector<uint64_t> few_done = {0, 1, 2};
  EXPECT(BestWindowQuantile(few_ms, few_done, 0.5, 5) == 2.0);
  EXPECT(BestWindowQuantile({}, {}, 0.5, 5) == 0);

  // Rates: 10 events per window in four windows, 30 in one; best 30/s.
  std::vector<uint64_t> events;
  for (uint64_t w = 0; w < 5; ++w) {
    const int n = w == 2 ? 30 : 10;
    for (int i = 0; i < n; ++i) events.push_back(w * 1000000000 + i);
  }
  EXPECT(hgbench::BestWindowRate(events, 0, 5000000000ull, 5) == 30.0);
  // Events outside the span are ignored.
  EXPECT(hgbench::BestWindowRate(events, 0, 2000000000ull, 2) == 10.0);
}

void CounterDeltas() {
  hygraph::obs::MetricsRegistry reg;
  reg.counter("a")->Add(5);
  reg.histogram("h")->Record(1000);
  const auto before = reg.Snapshot();
  reg.counter("a")->Add(7);
  reg.counter("b")->Add(3);  // created after `before`
  for (int i = 0; i < 99; ++i) reg.histogram("h")->Record(100);
  reg.histogram("h")->Record(1000000);
  const auto after = reg.Snapshot();

  EXPECT(hgbench::CounterDelta(after, before, "a") == 7);
  EXPECT(hgbench::CounterDelta(after, before, "b") == 3);
  EXPECT(hgbench::CounterDelta(after, before, "missing") == 0);
  // A counter that went backwards (a reset) never underflows.
  EXPECT(hgbench::CounterDelta(before, after, "a") == 0);

  const auto h = hgbench::HistogramDelta(after, before, "h");
  EXPECT(h.count == 100);
  EXPECT(h.sum == 99 * 100 + 1000000);
  // The value recorded before the window is gone from the delta.
  const uint64_t p50 = h.Quantile(0.5);
  EXPECT(p50 >= 80 && p50 <= 128);
  EXPECT(h.Quantile(1.0) >= 1000000);
  EXPECT(hgbench::HistogramDelta(after, before, "missing").count == 0);

  const hgbench::Ratio r{3, 4};
  EXPECT(r.value() == 0.75);
  EXPECT(r.Basis() == "3/4");
  EXPECT((hgbench::Ratio{5, 0}.value() == 0));
}

QueryResult Table(double x) {
  QueryResult r;
  r.columns = {"n", "a"};
  r.rows.push_back({Value("S1"), Value(x)});
  r.rows.push_back({Value("S2"), Value(int64_t{7})});
  return r;
}

void AnswerChecker() {
  std::string why;
  const QueryResult expected = Table(0.1);
  EXPECT(hgbench::AnswersIdentical(expected, Table(0.1), &why));
  EXPECT(hgbench::AnswersAgree(expected, Table(0.1), &why));

  // Deliberately corrupted expected results must be caught.
  QueryResult corrupt = expected;
  corrupt.rows[0][1] = Value(0.1 + 1e-6);
  EXPECT(!hgbench::AnswersIdentical(corrupt, Table(0.1), &why));
  EXPECT(!hgbench::AnswersAgree(corrupt, Table(0.1), &why));
  EXPECT(why.find("column a") != std::string::npos);

  corrupt = expected;
  corrupt.rows[1][0] = Value("S3");
  EXPECT(!hgbench::AnswersIdentical(corrupt, Table(0.1), &why));
  EXPECT(!hgbench::AnswersAgree(corrupt, Table(0.1), &why));

  corrupt = expected;
  corrupt.rows.pop_back();
  EXPECT(!hgbench::AnswersIdentical(corrupt, Table(0.1), &why));
  EXPECT(!hgbench::AnswersAgree(corrupt, Table(0.1), &why));

  corrupt = expected;
  corrupt.columns = {"n", "b"};
  EXPECT(!hgbench::AnswersIdentical(corrupt, Table(0.1), &why));

  // The oracle rule tolerates association error; the exact rule does not.
  const QueryResult nudged = Table(0.1 * (1 + 1e-13));
  EXPECT(hgbench::AnswersAgree(expected, nudged, &why));
  EXPECT(!hgbench::AnswersIdentical(expected, nudged, &why));
  // Same number, different type: equal for the oracle, not exact.
  QueryResult as_double = expected;
  as_double.rows[1][1] = Value(7.0);
  EXPECT(hgbench::AnswersAgree(expected, as_double, &why));
  EXPECT(!hgbench::AnswersIdentical(expected, as_double, &why));
}

}  // namespace

int main() {
  PercentileRule();
  Windowed();
  CounterDeltas();
  AnswerChecker();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
