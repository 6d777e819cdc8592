#include "core/convert.h"

#include <cmath>

#include <gtest/gtest.h>

namespace hygraph::core {
namespace {

graph::PropertyGraph SmallLpg() {
  graph::PropertyGraph g;
  const graph::VertexId a =
      g.AddVertex({"User"}, {{"name", Value("a")}, {"age", Value(30)}});
  const graph::VertexId b = g.AddVertex({"Merchant"}, {{"name", Value("b")}});
  EXPECT_TRUE(g.AddEdge(a, b, "BUYS", {{"amount", Value(12.5)}}).ok());
  return g;
}

TEST(ConvertTest, LpgRoundTripIsLossless) {
  graph::PropertyGraph original = SmallLpg();
  auto hg = FromPropertyGraph(original);
  ASSERT_TRUE(hg.ok());
  EXPECT_TRUE(hg->Validate().ok());
  EXPECT_EQ(hg->VertexCount(), 2u);
  auto back = ToPropertyGraph(*hg, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->VertexCount(), original.VertexCount());
  EXPECT_EQ(back->EdgeCount(), original.EdgeCount());
  // Labels and properties survive (R1 expressiveness).
  const auto users = back->VerticesWithLabel("User");
  ASSERT_EQ(users.size(), 1u);
  EXPECT_EQ(*back->GetVertexProperty(users[0], "name"), Value("a"));
  EXPECT_EQ(*back->GetVertexProperty(users[0], "age"), Value(30));
  const auto edges = back->EdgeIds();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(*back->GetEdgeProperty(edges[0], "amount"), Value(12.5));
}

TEST(ConvertTest, TpgRoundTripPreservesValidity) {
  temporal::TemporalPropertyGraph tpg;
  const graph::VertexId a = *tpg.AddVertex({"C"}, {}, Interval{10, 100});
  const graph::VertexId b = *tpg.AddVertex({"C"}, {}, Interval{20, 200});
  ASSERT_TRUE(tpg.AddEdge(a, b, "E", {}, Interval{30, 90}).ok());
  auto hg = FromTemporalGraph(tpg);
  ASSERT_TRUE(hg.ok());
  EXPECT_TRUE(hg->Validate().ok());
  auto back = ToTemporalGraph(*hg);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->VertexCount(), 2u);
  const auto ids = back->graph().VertexIds();
  EXPECT_EQ(*back->VertexValidity(ids[0]), (Interval{10, 100}));
  const auto edges = back->graph().EdgeIds();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(*back->EdgeValidity(edges[0]), (Interval{30, 90}));
}

TEST(ConvertTest, SnapshotExtractionFiltersByTime) {
  temporal::TemporalPropertyGraph tpg;
  ASSERT_TRUE(tpg.AddVertex({"X"}, {}, Interval{0, 50}).ok());
  ASSERT_TRUE(tpg.AddVertex({"Y"}, {}, Interval{40, 100}).ok());
  auto hg = FromTemporalGraph(tpg);
  ASSERT_TRUE(hg.ok());
  auto early = ToPropertyGraph(*hg, 10);
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->VertexCount(), 1u);
  auto both = ToPropertyGraph(*hg, 45);
  EXPECT_EQ(both->VertexCount(), 2u);
}

TEST(ConvertTest, SeriesCollectionRoundTrip) {
  std::vector<ts::MultiSeries> collection;
  for (int i = 0; i < 3; ++i) {
    ts::MultiSeries ms(std::string("m").append(std::to_string(i)), {"v"});
    for (int j = 0; j < 5; ++j) {
      ASSERT_TRUE(ms.AppendRow(j * kMinute, {i * 10.0 + j}).ok());
    }
    collection.push_back(std::move(ms));
  }
  auto hg = FromSeriesCollection(collection, "Sensor");
  ASSERT_TRUE(hg.ok());
  EXPECT_EQ(hg->TsVertices().size(), 3u);
  EXPECT_EQ(hg->structure().VerticesWithLabel("Sensor").size(), 3u);
  const auto back = ToSeriesCollection(*hg);
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i], collection[i]);
  }
}

TEST(ConvertTest, IdMapReturned) {
  auto hg = FromPropertyGraph(SmallLpg());
  ASSERT_TRUE(hg.ok());
  std::unordered_map<graph::VertexId, graph::VertexId> id_map;
  auto back = ToPropertyGraph(*hg, 0, &id_map);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(id_map.size(), 2u);
}

std::vector<ts::Series> PhaseFamily() {
  // a and b in phase, c in anti-phase.
  std::vector<ts::Series> out;
  for (int k = 0; k < 3; ++k) {
    ts::Series s(std::string("s").append(std::to_string(k)));
    for (int i = 0; i < 100; ++i) {
      const double phase = (k == 2) ? 3.14159265 : 0.02 * k;
      EXPECT_TRUE(
          s.Append(i * kMinute, std::sin(i * 0.2 + phase)).ok());
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(SimilarityGraphTest, ConnectsSimilarSeries) {
  SimilarityGraphOptions options;
  options.threshold = 0.95;
  auto hg = SeriesSimilarityGraph(PhaseFamily(), options);
  ASSERT_TRUE(hg.ok());
  EXPECT_EQ(hg->TsVertices().size(), 3u);
  // |corr(a,b)| ~ 1, |corr(a,c)| ~ 1 (anti-phase counts via abs),
  // |corr(b,c)| ~ 1 -> complete graph on 3 vertices.
  EXPECT_EQ(hg->EdgeCount(), 3u);
  // Static edges carry a correlation property.
  for (graph::EdgeId e : hg->PgEdges()) {
    auto corr = hg->GetEdgeProperty(e, "correlation");
    ASSERT_TRUE(corr.ok());
    EXPECT_GT(std::abs(corr->AsDouble()), 0.95);
  }
}

TEST(SimilarityGraphTest, SlidingWindowMakesTsEdges) {
  SimilarityGraphOptions options;
  options.threshold = 0.9;
  options.sliding_window = 20 * kMinute;
  auto hg = SeriesSimilarityGraph(PhaseFamily(), options);
  ASSERT_TRUE(hg.ok());
  EXPECT_GE(hg->TsEdges().size(), 1u);
  for (graph::EdgeId e : hg->TsEdges()) {
    auto series = hg->EdgeSeries(e);
    ASSERT_TRUE(series.ok());
    EXPECT_GT((*series)->size(), 0u);
    EXPECT_EQ((*series)->variables(),
              (std::vector<std::string>{"correlation"}));
  }
}

TEST(SimilarityGraphTest, HighThresholdPrunesEdges) {
  // Raise threshold beyond attainable correlation of the noisy pair.
  std::vector<ts::Series> series = PhaseFamily();
  SimilarityGraphOptions options;
  options.threshold = 1.0;  // only perfect correlation qualifies
  auto hg = SeriesSimilarityGraph(series, options);
  ASSERT_TRUE(hg.ok());
  EXPECT_LE(hg->EdgeCount(), 1u);
}

TEST(SimilarityGraphTest, Validation) {
  SimilarityGraphOptions options;
  options.threshold = 2.0;
  EXPECT_FALSE(SeriesSimilarityGraph(PhaseFamily(), options).ok());
}

}  // namespace
}  // namespace hygraph::core
