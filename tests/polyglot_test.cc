#include "storage/polyglot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hygraph::storage {
namespace {

TEST(PolyglotTest, SeriesLiveInHypertableNotProperties) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AppendSample({query::EntityRef::Vertex(v), "bikes",
                                    i * kMinute, 1.0 * i}).ok());
  }
  // Topology properties stay clean — the green path's whole point.
  EXPECT_TRUE((*store.topology().GetVertex(v))->properties.empty());
  EXPECT_EQ(store.series_store().series_count(), 1u);
  auto series = store.SeriesRange(query::EntityRef::Vertex(v), "bikes",
                                  Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 10u);
}

TEST(PolyglotTest, NativeAggregateUsesChunks) {
  ts::HypertableOptions ts_options;
  ts_options.chunk_duration = kHour;
  PolyglotStore store(ts_options);
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store.AppendSample({query::EntityRef::Vertex(v), "bikes",
                                    i * kMinute, 1.0}).ok());
  }
  store.mutable_series_store()->ResetStats();
  auto sum = store.SeriesAggregate(query::EntityRef::Vertex(v), "bikes",
                                   Interval{0, 600 * kMinute},
                                   ts::AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 600.0);
  // Fully-covered chunks answered from the cache, zero samples touched.
  EXPECT_EQ(store.series_store().stats().chunks_from_cache, 10u);
  EXPECT_EQ(store.series_store().stats().samples_scanned, 0u);
}

TEST(PolyglotTest, PerKeySeriesSeparation) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  ASSERT_TRUE(
      store.AppendSample({query::EntityRef::Vertex(v), "a", 1, 1.0}).ok());
  ASSERT_TRUE(
      store.AppendSample({query::EntityRef::Vertex(v), "b", 1, 2.0}).ok());
  EXPECT_EQ(store.series_store().series_count(), 2u);
  auto a = store.SeriesRange(query::EntityRef::Vertex(v), "a", Interval::All());
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->at(0).value, 1.0);
}

TEST(PolyglotTest, EdgeSeries) {
  PolyglotStore store;
  graph::PropertyGraph* g = store.mutable_topology();
  const graph::VertexId a = g->AddVertex({}, {});
  const graph::VertexId b = g->AddVertex({}, {});
  const graph::EdgeId e = *g->AddEdge(a, b, "TRIP", {});
  ASSERT_TRUE(
      store.AppendSample({query::EntityRef::Edge(e), "trips", 10, 3.0}).ok());
  auto agg =
      store.SeriesAggregate(query::EntityRef::Edge(e), "trips",
                            Interval::All(), ts::AggKind::kSum);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(*agg, 3.0);
}

TEST(PolyglotTest, MissingSeriesBehavesLikeEmpty) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  auto series = store.SeriesRange(query::EntityRef::Vertex(v), "nothing",
                                  Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_TRUE(series->empty());
  auto count = store.SeriesAggregate(query::EntityRef::Vertex(v), "nothing",
                                     Interval::All(), ts::AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 0.0);
  EXPECT_FALSE(store.SeriesAggregate(query::EntityRef::Vertex(v), "nothing",
                                     Interval::All(), ts::AggKind::kAvg).ok());
}

TEST(PolyglotTest, UnknownEntityFails) {
  PolyglotStore store;
  EXPECT_FALSE(
      store.AppendSample({query::EntityRef::Vertex(5), "x", 1, 1.0}).ok());
  EXPECT_FALSE(
      store.AppendSample({query::EntityRef::Edge(5), "x", 1, 1.0}).ok());
}

TEST(PolyglotTest, OutOfOrderIngestion) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  ASSERT_TRUE(
      store.AppendSample({query::EntityRef::Vertex(v), "x", 300, 3.0}).ok());
  ASSERT_TRUE(
      store.AppendSample({query::EntityRef::Vertex(v), "x", 100, 1.0}).ok());
  auto series = store.SeriesRange(query::EntityRef::Vertex(v), "x",
                                  Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->at(0).t, 100);
  EXPECT_EQ(series->at(1).t, 300);
}

uint64_t CounterOf(const PolyglotStore& store, const std::string& name) {
  const auto snap = store.metrics()->Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(PolyglotTest, OutOfOrderBatchUnsealsItsColdChunkOnce) {
  ts::HypertableOptions ts_options;
  ts_options.chunk_duration = kHour;
  PolyglotStore store(ts_options);
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  const query::EntityRef entity = query::EntityRef::Vertex(v);
  // Two hours on a minute grid: the first hour's chunk is sealed.
  std::vector<query::SampleWrite> load;
  for (int i = 0; i < 120; ++i) {
    load.push_back({entity, "x", i * kMinute, 1.0 * i});
  }
  ASSERT_TRUE(store.AppendSamples(load).ok());
  const uint64_t unsealed = CounterOf(store, "hypertable.chunks_unsealed");
  const uint64_t sealed = CounterOf(store, "hypertable.chunks_sealed");

  // k late samples between the sealed chunk's samples, in one batch.
  constexpr int kLate = 25;
  std::vector<query::SampleWrite> late;
  for (int i = kLate - 1; i >= 0; --i) {
    late.push_back({entity, "x", i * 2 * kMinute + 30 * kSecond, -1.0 * i});
  }
  ASSERT_TRUE(store.AppendSamples(late).ok());
  EXPECT_EQ(CounterOf(store, "hypertable.chunks_unsealed"), unsealed + 1);
  EXPECT_EQ(CounterOf(store, "hypertable.chunks_sealed"), sealed + 1);

  auto series = store.SeriesRange(entity, "x", Interval::All());
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 120u + kLate);
  for (size_t i = 1; i < series->size(); ++i) {
    EXPECT_LT(series->at(i - 1).t, series->at(i).t);
  }
  EXPECT_EQ(series->at(1).t, 30 * kSecond);
  EXPECT_EQ(series->at(1).value, 0.0);
}

TEST(PolyglotTest, BatchAppliesRunsInOrderUpToTheFirstFailure) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  const query::EntityRef entity = query::EntityRef::Vertex(v);
  const std::vector<query::SampleWrite> batch = {
      {entity, "x", 1, 1.0},
      {entity, "y", 1, 2.0},
      {entity, "x", 2, 3.0},
      {query::EntityRef::Vertex(v + 1), "x", 3, 4.0},
      {entity, "x", 4, 5.0}};
  EXPECT_EQ(store.AppendSamples(batch).code(), StatusCode::kNotFound);
  auto x = store.SeriesRange(entity, "x", Interval::All());
  auto y = store.SeriesRange(entity, "y", Interval::All());
  ASSERT_TRUE(x.ok() && y.ok());
  EXPECT_EQ(x->size(), 2u);
  EXPECT_EQ(y->size(), 1u);
}

TEST(PolyglotTest, NameReflectsArchitecture) {
  PolyglotStore polyglot;
  EXPECT_EQ(polyglot.name(), "polyglot");
}

}  // namespace
}  // namespace hygraph::storage
