// Section 6 roadmap features beyond the core reproduction, exercised
// end-to-end with timings:
//   * time-respecting reachability on TPGs (Wu et al. [87], Figure 3 op)
//   * hybrid link prediction (the GC-LSTM [24] task with classical scorers)
//   * HyGraph-RAG retrieval (vector similarity + neighborhood context)
//   * symbolic (SAX) pattern mining on station series
//   * streaming ingestion with staleness eviction (requirement R3)

#include <cmath>
#include <cstdio>

#include "analytics/link_prediction.h"
#include "analytics/rag.h"
#include "bench_util.h"
#include "core/stream.h"
#include "graph/traversal.h"
#include "temporal/temporal_reachability.h"
#include "ts/sax.h"
#include "workloads/bike_sharing.h"
#include "workloads/financial.h"

int main() {
  using namespace hygraph;

  bench::PrintHeader("Roadmap: temporal reachability (financial TPG)");
  {
    workloads::FinancialConfig config;
    config.companies = 60;
    config.acquisition_probability = 0.5;
    auto hg = workloads::GenerateFinancialHyGraph(config);
    if (!hg.ok()) return 1;
    const auto companies = hg->structure().VerticesWithLabel("Company");
    size_t static_reach = 0;
    size_t temporal_reach = 0;
    const double ms = bench::TimeMs([&] {
      for (graph::VertexId c : companies) {
        auto arrivals = temporal::EarliestArrivalTimes(hg->tpg(), c);
        if (arrivals.ok()) temporal_reach += arrivals->size() - 1;
      }
    });
    for (graph::VertexId c : companies) {
      auto visits = graph::Bfs(hg->structure(), c);
      if (visits.ok()) static_reach += visits->size() - 1;
    }
    std::printf("  %zu sources: static reachable pairs %zu, "
                "time-respecting %zu (%.1f ms total)\n",
                companies.size(), static_reach, temporal_reach, ms);
    std::printf("  time-respecting <= static: %s\n",
                temporal_reach <= static_reach ? "holds" : "VIOLATED");
  }

  bench::PrintHeader("Roadmap: hybrid link prediction (bike network)");
  {
    workloads::BikeSharingConfig config;
    config.stations = 50;
    config.districts = 5;
    config.days = 5;
    config.sample_interval = kHour;
    auto dataset = workloads::GenerateBikeSharing(config);
    // Build a PG-edge view of the trip network (link prediction holds out
    // PG edges; the default HyGraph view models trips as TS edges).
    Result<core::HyGraph> hg = [&]() -> Result<core::HyGraph> {
      core::HyGraph out;
      std::vector<graph::VertexId> ids;
      for (const auto& station : dataset->stations) {
        auto v = out.AddPgVertex(
            {"Station"}, {{"district", Value(station.district)}});
        if (!v.ok()) return v.status();
        ts::MultiSeries ms(station.name, {"bikes"});
        for (const ts::Sample& s : station.bikes.samples()) {
          HYGRAPH_RETURN_IF_ERROR(ms.AppendRow(s.t, {s.value}));
        }
        auto sid = out.SetVertexSeriesProperty(*v, "history", std::move(ms));
        if (!sid.ok()) return sid.status();
        ids.push_back(*v);
      }
      for (const auto& trip : dataset->trips) {
        auto e = out.AddPgEdge(ids[trip.src], ids[trip.dst], "TRIP", {});
        if (!e.ok()) return e.status();
      }
      return out;
    }();
    if (!hg.ok()) return 1;
    analytics::LinkPredictionOptions options;
    options.top_k = 20;
    double hybrid_hits = 0;
    double structural_hits = 0;
    size_t held_out = 0;
    const double ms = bench::TimeMs([&] {
      auto eval = analytics::EvaluateLinkPrediction(*hg, 0.15, 11, options);
      if (eval.ok()) {
        hybrid_hits = static_cast<double>(eval->hybrid_hits);
        structural_hits = static_cast<double>(eval->structural_hits);
        held_out = eval->held_out;
      }
    });
    std::printf("  held out %zu edges; recovered: hybrid %g, "
                "structural-only %g (%.1f ms)\n",
                held_out, hybrid_hits, structural_hits, ms);
  }

  bench::PrintHeader("Roadmap: HyGraph-RAG retrieval (bike network)");
  {
    workloads::BikeSharingConfig config;
    config.stations = 80;
    config.districts = 8;
    config.days = 5;
    config.sample_interval = 30 * kMinute;
    auto dataset = workloads::GenerateBikeSharing(config);
    auto hg = workloads::ToHyGraph(*dataset);
    if (!hg.ok()) return 1;
    analytics::RagOptions options;
    options.top_k = 5;
    double build_ms = 0;
    auto retriever = [&] {
      Result<analytics::HyGraphRetriever> r =
          Status::Internal("unset");
      build_ms = bench::TimeMs(
          [&] { r = analytics::HyGraphRetriever::Build(&*hg, options); });
      return r;
    }();
    if (!retriever.ok()) return 1;
    // Statistical feature embeddings are phase-blind, so "similar" means
    // similar level/volatility — which the generator ties to capacity.
    // Retrieval quality: retrieved anchors should be far closer in
    // capacity to the probe than a random station would be.
    const graph::VertexId probe =
        hg->structure().VerticesWithLabel("Station")[0];
    const double probe_capacity =
        static_cast<double>(hg->GetVertexProperty(probe, "capacity")
                                ->AsInt());
    double retrieved_gap = 0.0;
    const double query_ms = bench::Repeat(20, [&] {
      auto contexts = retriever->RetrieveSimilarTo(probe);
      if (contexts.ok()) {
        retrieved_gap = 0.0;
        for (const auto& context : *contexts) {
          retrieved_gap += std::abs(
              static_cast<double>(
                  hg->GetVertexProperty(context.anchor, "capacity")
                      ->AsInt()) -
              probe_capacity);
        }
        retrieved_gap /= static_cast<double>(contexts->size());
      }
    }).mean();
    double population_gap = 0.0;
    const auto all_stations = hg->structure().VerticesWithLabel("Station");
    for (graph::VertexId v : all_stations) {
      population_gap += std::abs(
          static_cast<double>(
              hg->GetVertexProperty(v, "capacity")->AsInt()) -
          probe_capacity);
    }
    population_gap /= static_cast<double>(all_stations.size());
    std::printf("  index build %.1f ms over %zu vertices; top-5 retrieval "
                "%.2f ms/query;\n  mean |capacity gap| of retrieved %.1f vs "
                "population %.1f (smaller = behaviourally closer)\n",
                build_ms, retriever->index().size(), query_ms,
                retrieved_gap, population_gap);
  }

  bench::PrintHeader("Roadmap: symbolic (SAX) pattern mining");
  {
    workloads::BikeSharingConfig config;
    config.stations = 1;
    config.days = 30;
    config.sample_interval = 5 * kMinute;
    auto dataset = workloads::GenerateBikeSharing(config);
    const ts::Series& series = dataset->stations[0].bikes;
    ts::SaxOptions options;
    options.segments = 8;
    options.alphabet = 4;
    Result<std::vector<ts::SaxPattern>> bag =
        Status::Internal("unset");
    const double ms = bench::TimeMs([&] {
      bag = ts::SaxBagOfPatterns(series, 288, 72, options);
    });
    if (!bag.ok()) return 1;
    std::printf("  %zu samples -> %zu distinct words (%.1f ms); top:",
                series.size(), bag->size(), ms);
    for (size_t i = 0; i < std::min<size_t>(3, bag->size()); ++i) {
      std::printf(" %s x%zu", (*bag)[i].word.c_str(), (*bag)[i].count);
    }
    std::printf("\n");
  }

  bench::PrintHeader("Roadmap/R3: streaming ingestion with eviction");
  {
    core::HyGraph hg;
    core::StreamOptions options;
    options.retention = 6 * kHour;
    options.eviction_period = kHour;
    core::StreamProcessor stream(&hg, options);
    constexpr size_t kSensors = 50;
    for (size_t s = 0; s < kSensors; ++s) {
      (void)stream.Apply(core::UpdateEvent::AddTsVertex(
          0, std::string("s").append(std::to_string(s)), {"Sensor"}, {"v"}));
    }
    constexpr size_t kTicks = 2000;
    const double ms = bench::TimeMs([&] {
      for (size_t t = 1; t <= kTicks; ++t) {
        for (size_t s = 0; s < kSensors; ++s) {
          (void)stream.Apply(core::UpdateEvent::Sample(
              static_cast<Timestamp>(t) * kMinute,
              std::string("s").append(std::to_string(s)),
              {static_cast<double>(t)}));
        }
      }
    });
    const auto& stats = stream.stats();
    std::printf("  %zu samples ingested in %.0f ms (%.0f samples/s), "
                "%zu evicted, instance %s\n",
                stats.samples_appended, ms,
                stats.samples_appended / (ms / 1000.0),
                stats.samples_evicted,
                hg.Validate().ok() ? "consistent" : "CORRUPT");
  }
  return 0;
}
