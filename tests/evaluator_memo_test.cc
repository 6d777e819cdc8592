#include <string>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "storage/polyglot.h"

namespace hygraph {
namespace {

// Wraps a PolyglotStore and counts range materializations, making the
// evaluator's per-query SeriesRangeArg memo observable: repeated ts_*
// calls on the same (entity, key, range) within one query must hit the
// backend only once.
class CountingBackend final : public query::QueryBackend {
 public:
  std::string name() const override { return "counting"; }
  const graph::PropertyGraph& topology() const override {
    return inner_.topology();
  }
  graph::PropertyGraph* mutable_topology() override {
    return inner_.mutable_topology();
  }
  Status AppendSamples(std::span<const query::SampleWrite> samples) override {
    return inner_.AppendSamples(samples);
  }
  Result<ts::Series> SeriesRange(query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval) const override {
    ++(entity.is_edge() ? edge_range_calls : vertex_range_calls);
    return inner_.SeriesRange(entity, key, interval);
  }

  mutable size_t vertex_range_calls = 0;
  mutable size_t edge_range_calls = 0;

 private:
  storage::PolyglotStore inner_;
};

class EvaluatorMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::PropertyGraph* g = backend_.mutable_topology();
    for (int s = 0; s < 6; ++s) {
      const graph::VertexId v = g->AddVertex(
          {"Station"},
          {{"name", Value(std::string("S").append(std::to_string(s)))}});
      for (int i = 0; i < 48; ++i) {
        ASSERT_TRUE(backend_
                        .AppendSample({query::EntityRef::Vertex(v), "bikes",
                                       i * kHour, 10.0 + s + (i % 5)})
                        .ok());
      }
    }
  }

  CountingBackend backend_;
};

TEST_F(EvaluatorMemoTest, RepeatedRangeInOneRowMaterializesOnce) {
  backend_.vertex_range_calls = 0;
  // Two textually identical range reads in one RETURN: the memo collapses
  // them to a single backend materialization per row.
  auto table = query::Execute(
      backend_,
      "MATCH (s:Station {name: 'S0'}) RETURN ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS a, ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS b");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->row_count(), 1u);
  EXPECT_EQ(backend_.vertex_range_calls, 1u);
  EXPECT_EQ(table->rows[0][0], table->rows[0][1]);
}

TEST_F(EvaluatorMemoTest, PinnedEntityAcrossRowsMaterializesOnce) {
  backend_.vertex_range_calls = 0;
  // Correlation against a pinned station: a.bikes repeats on every row and
  // must be fetched once. Pattern matching is injective (b never rebinds
  // S0), so the 5 rows cost 1 + 5 = 6 distinct materializations.
  auto table = query::Execute(
      backend_,
      "MATCH (a:Station {name: 'S0'}), (b:Station) "
      "RETURN b.name AS n, ts_corr(a.bikes, b.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS c ORDER BY n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->row_count(), 5u);
  EXPECT_EQ(backend_.vertex_range_calls, 6u);
}

TEST_F(EvaluatorMemoTest, DistinctRangesAreNotConflated) {
  backend_.vertex_range_calls = 0;
  // Same entity and key but different intervals: two real fetches, and the
  // answers must differ (the memo key includes the interval).
  auto table = query::Execute(
      backend_,
      "MATCH (s:Station {name: 'S1'}) RETURN ts_slope(s.bikes, 0, " +
          std::to_string(24 * kHour) + ") AS a, ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS b");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(backend_.vertex_range_calls, 2u);
}

}  // namespace
}  // namespace hygraph
