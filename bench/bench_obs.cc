// Observability overhead microbench (ISSUE 4), emitted to BENCH_obs.json:
//
//   1. Instrument hot-path cost — Counter::Add, Histogram::Record, and
//      Gauge::Set in a tight loop, reported as ns/op. The budget is "a
//      relaxed atomic add": single-digit nanoseconds on the reference
//      machine.
//   2. Span cost — ScopedSpan with a null tracer (the disabled path, which
//      must be free) vs an enabled tracer reading the real clock.
//   3. PROFILE overhead and reconciliation — a Table 1-style aggregate
//      query run normally vs under Profile() on both backends: relative
//      slowdown, and the fraction of wall time the operator tree accounts
//      for (the ISSUE's "timings reconcile with wall time" acceptance).
//   4. Export cost — Snapshot + ToPrometheusText/ToJson on a registry the
//      size the engine actually produces.
//
// `--smoke` shrinks iteration counts and the workload for CI.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/profile.h"
#include "storage/all_in_graph.h"
#include "storage/polyglot.h"
#include "workloads/bike_sharing.h"

namespace hygraph::bench {
namespace {

// ---------------------------------------------------------------------------
// 1. Instrument hot-path cost.

void BenchInstruments(size_t iters) {
  PrintHeader("Instrument cost (ns/op, relaxed atomics)");
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.counter("bench.counter");
  obs::Gauge* gauge = registry.gauge("bench.gauge");
  obs::Histogram* histogram = registry.histogram("bench.histogram");

  const double counter_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) counter->Add(1);
  });
  const double gauge_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) gauge->Set(static_cast<double>(i));
  });
  const double histogram_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) histogram->Record(i & 0xffff);
  });
  if (counter->value() != iters) std::exit(1);  // defeat dead-code elim

  const double n = static_cast<double>(iters);
  std::printf("counter add:      %6.2f ns/op\n", counter_ms * 1e6 / n);
  std::printf("gauge set:        %6.2f ns/op\n", gauge_ms * 1e6 / n);
  std::printf("histogram record: %6.2f ns/op\n", histogram_ms * 1e6 / n);
  Record("counter_add_ns", counter_ms * 1e6 / n, "ns");
  Record("gauge_set_ns", gauge_ms * 1e6 / n, "ns");
  Record("histogram_record_ns", histogram_ms * 1e6 / n, "ns");
}

// ---------------------------------------------------------------------------
// 2. Span cost: disabled (null tracer) vs enabled.

void BenchSpans(size_t iters) {
  PrintHeader("Trace span cost (ns/span)");
  const double disabled_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) {
      obs::ScopedSpan span(nullptr, "op");
      span.AddCounter("rows", 1);
    }
  });
  obs::Tracer tracer;
  const double enabled_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) {
      // Same-name spans merge into one node, so the tree stays O(1) and
      // this measures steady-state span cost, not tree growth.
      obs::ScopedSpan span(&tracer, "op");
      span.AddCounter("rows", 1);
    }
  });
  if (tracer.root().children.size() != 1) std::exit(1);

  const double n = static_cast<double>(iters);
  std::printf("disabled (null tracer): %6.2f ns/span\n",
              disabled_ms * 1e6 / n);
  std::printf("enabled  (real clock):  %6.2f ns/span\n", enabled_ms * 1e6 / n);
  Record("span_disabled_ns", disabled_ms * 1e6 / n, "ns");
  Record("span_enabled_ns", enabled_ms * 1e6 / n, "ns");
}

// ---------------------------------------------------------------------------
// 3. PROFILE overhead + reconciliation on both backends.

int BenchProfile(bool smoke) {
  PrintHeader("PROFILE overhead and wall-time reconciliation");
  workloads::BikeSharingConfig config;
  config.stations = smoke ? 20 : 80;
  config.districts = 4;
  config.days = smoke ? 2 : 7;
  config.sample_interval = 5 * kMinute;
  config.seed = 1234;
  auto dataset = workloads::GenerateBikeSharing(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  storage::AllInGraphStore all_in_graph;
  storage::PolyglotStore polyglot;
  if (!workloads::LoadIntoBackend(*dataset, &all_in_graph).ok()) return 1;
  if (!workloads::LoadIntoBackend(*dataset, &polyglot).ok()) return 1;

  // The Q4 shape: full-graph per-station aggregate + top-k.
  const std::string query =
      "MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, " +
      std::to_string(dataset->start()) + ", " +
      std::to_string(dataset->end()) + ") AS a ORDER BY a DESC, n LIMIT 10";
  const size_t repetitions = smoke ? 3 : 7;

  struct BackendRef {
    const char* label;
    const query::QueryBackend* backend;
  };
  for (const BackendRef ref : {BackendRef{"all-in-graph", &all_in_graph},
                               BackendRef{"polyglot", &polyglot}}) {
    const RunningStats normal = Repeat(repetitions, [&] {
      if (!query::Execute(*ref.backend, query).ok()) std::exit(1);
    });
    RunningStats coverage;
    const RunningStats profiled = Repeat(repetitions, [&] {
      auto p = query::Profile(*ref.backend, query);
      if (!p.ok()) std::exit(1);
      coverage.Add(100.0 * static_cast<double>(p->trace.SumSelfNanos()) /
                   static_cast<double>(p->wall_nanos));
    });
    const double overhead =
        normal.mean() > 0
            ? 100.0 * (profiled.mean() - normal.mean()) / normal.mean()
            : 0.0;
    std::printf("%-13s normal %8.3f ms | profiled %8.3f ms | overhead "
                "%+5.1f%% | tree covers %5.1f%% of wall\n",
                ref.label, normal.mean(), profiled.mean(), overhead,
                coverage.mean());
    const std::string prefix = std::string("profile_") + ref.label;
    Record(prefix + "_overhead_pct", overhead, "%");
    Record(prefix + "_wall_coverage_pct", coverage.mean(), "%");
    if (coverage.mean() < 90.0) {
      std::fprintf(stderr,
                   "%s: operator tree accounts for only %.1f%% of wall time "
                   "(acceptance: within 10%%)\n",
                   ref.label, coverage.mean());
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// 4. Export cost on an engine-sized registry.

void BenchExport(size_t iters) {
  PrintHeader("Snapshot + export cost");
  obs::MetricsRegistry registry;
  // Roughly the instrument population a loaded engine carries.
  for (int i = 0; i < 24; ++i) {
    registry.counter("c." + std::to_string(i))->Add(i * 1000);
  }
  for (int i = 0; i < 8; ++i) {
    registry.gauge("g." + std::to_string(i))->Set(i * 1.5);
  }
  for (int i = 0; i < 4; ++i) {
    obs::Histogram* h = registry.histogram("h." + std::to_string(i));
    for (uint64_t v = 1; v < 2000; v += 7) h->Record(v * (i + 1));
  }

  size_t sink = 0;
  const double snapshot_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) {
      sink += registry.Snapshot().counters.size();
    }
  });
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const double prom_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) sink += snap.ToPrometheusText().size();
  });
  const double json_ms = TimeMs([&] {
    for (size_t i = 0; i < iters; ++i) sink += snap.ToJson().size();
  });
  if (sink == 0) std::exit(1);

  const double n = static_cast<double>(iters);
  std::printf("snapshot:   %8.2f us\n", snapshot_ms * 1e3 / n);
  std::printf("prometheus: %8.2f us (%zu bytes)\n", prom_ms * 1e3 / n,
              snap.ToPrometheusText().size());
  std::printf("json:       %8.2f us (%zu bytes)\n", json_ms * 1e3 / n,
              snap.ToJson().size());
  Record("snapshot_us", snapshot_ms * 1e3 / n, "us");
  Record("export_prometheus_us", prom_ms * 1e3 / n, "us");
  Record("export_json_us", json_ms * 1e3 / n, "us");
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t iters = smoke ? 200000 : 5000000;
  hygraph::bench::BenchInstruments(iters);
  hygraph::bench::BenchSpans(smoke ? 50000 : 1000000);
  if (const int rc = hygraph::bench::BenchProfile(smoke); rc != 0) return rc;
  hygraph::bench::BenchExport(smoke ? 200 : 2000);
  hygraph::bench::WriteJson("obs");
  return 0;
}
