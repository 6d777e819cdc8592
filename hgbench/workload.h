// Inputs of the served-workload benchmark: the seeded bike-sharing
// dataset, the Table 1 query pool, and the generated appends.
#ifndef HGBENCH_WORKLOAD_H_
#define HGBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/executor.h"
#include "server/wire.h"
#include "workloads/bike_sharing.h"

namespace hgbench {

/// Latency classes of the Table 1 mix.
enum class QueryClass { kPoint, kFanout, kCorr };
inline constexpr int kQueryClasses = 3;
const char* ClassName(QueryClass c);

/// One distinct query text of the pool and its checked answer.
struct PooledQuery {
  int table1_id = 0;  ///< 1..8 (Q1..Q8)
  QueryClass cls = QueryClass::kPoint;
  std::string text;
  /// The served engine's answer, cross-checked against the all-in-graph
  /// oracle before timing; every timed response must equal it exactly.
  hygraph::query::QueryResult expected;
};

/// The pool grouped by Table 1 query: by_query[q - 1] lists indices into
/// `queries` for Qq.
struct QueryPool {
  std::vector<PooledQuery> queries;
  std::vector<std::vector<size_t>> by_query;
};

/// BikeSharingConfig{stations=150, districts=8, days=14, 5-min sampling}
/// with the workload seed.
hygraph::workloads::BikeSharingConfig DatasetConfig(uint64_t seed);

/// Table 1's Q1-Q8 shapes (bench/bench_table1.cc) with the station,
/// district and window start drawn from `seed`. Single-station windows
/// start at 5-minute offsets, so their edge chunks decode. Answers are
/// left empty.
QueryPool BuildQueryPool(const hygraph::workloads::BikeSharingDataset& d,
                         uint64_t seed);

/// Stations each writer owns and samples per append batch.
inline constexpr size_t kBatchStations = 75;

/// The value writer-batch `batch` appends for `station`: a pure function,
/// so acknowledged samples can be re-derived when checking recovery.
double AppendedValue(uint64_t seed, size_t station, uint64_t batch);

/// One append batch: for stations [first_station, first_station + 75),
/// the sample at dataset end + batch * sample interval.
std::vector<hygraph::server::SampleUpdate> AppendBatch(
    const hygraph::workloads::BikeSharingDataset& d,
    const std::vector<hygraph::graph::VertexId>& stations, uint64_t seed,
    size_t first_station, uint64_t batch);

}  // namespace hgbench

#endif  // HGBENCH_WORKLOAD_H_
