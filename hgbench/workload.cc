#include "workload.h"

#include <set>

#include "common/rng.h"

namespace hgbench {

using hygraph::Rng;
using hygraph::Timestamp;

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPoint:
      return "point";
    case QueryClass::kFanout:
      return "fanout";
    case QueryClass::kCorr:
      return "corr";
  }
  return "?";
}

hygraph::workloads::BikeSharingConfig DatasetConfig(uint64_t seed) {
  hygraph::workloads::BikeSharingConfig config;
  config.stations = 150;
  config.districts = 8;
  config.days = 14;
  config.sample_interval = 5 * hygraph::kMinute;
  config.seed = seed;
  return config;
}

namespace {

// Distinct texts drawn per parameterized query. Q6 is the one the oracle
// answers slowly (the all-in-graph engine parses every sample of every
// station), so it gets fewer variants.
constexpr size_t kVariants = 12;
constexpr size_t kCorrVariants = 4;

std::string Station(Rng& rng, size_t stations) {
  std::string name = "S";
  name += std::to_string(rng.NextBounded(stations));
  return name;
}

/// A window start at a random 5-minute offset leaving `span` before the
/// dataset end.
Timestamp WindowStart(Rng& rng, const hygraph::workloads::BikeSharingDataset& d,
                      hygraph::Duration span) {
  const auto step = d.config.sample_interval;
  const auto slots = (d.end() - span - d.start()) / step;
  return d.start() + static_cast<Timestamp>(rng.NextBounded(slots + 1)) * step;
}

}  // namespace

QueryPool BuildQueryPool(const hygraph::workloads::BikeSharingDataset& d,
                         uint64_t seed) {
  using hygraph::kDay;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7461626c6531ULL);
  const size_t n = d.config.stations;
  const std::string t0 = std::to_string(d.start());
  const std::string t3d = std::to_string(d.start() + 3 * kDay);
  const std::string t_end = std::to_string(d.end());
  const std::string day_ms = std::to_string(kDay);

  QueryPool pool;
  pool.by_query.resize(8);
  std::set<std::string> seen;
  auto add = [&](int q, QueryClass cls, std::string text) {
    if (!seen.insert(text).second) return;
    pool.by_query[q - 1].push_back(pool.queries.size());
    pool.queries.push_back({q, cls, std::move(text), {}});
  };

  for (size_t i = 0; i < kVariants; ++i) {
    const Timestamp w = WindowStart(rng, d, kDay);
    add(1, QueryClass::kPoint,
        "MATCH (s:Station {name: '" + Station(rng, n) +
            "'}) RETURN ts_count(s.bikes, " + std::to_string(w) + ", " +
            std::to_string(w + kDay) + ")");
  }
  for (size_t i = 0; i < kVariants; ++i) {
    const Timestamp w = WindowStart(rng, d, 3 * kDay);
    add(2, QueryClass::kPoint,
        "MATCH (s:Station {name: '" + Station(rng, n) +
            "'}) RETURN ts_avg(s.bikes, " + std::to_string(w) + ", " +
            std::to_string(w + 3 * kDay) + ")");
  }
  for (size_t i = 0; i < kVariants; ++i) {
    add(3, QueryClass::kFanout,
        "MATCH (s:Station) WHERE s.district = " +
            std::to_string(rng.NextBounded(d.config.districts)) +
            " RETURN s.name, ts_avg(s.bikes, " + t0 + ", " + t3d + ")");
  }
  add(4, QueryClass::kFanout,
      "MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, " + t0 + ", " +
          t_end + ") AS a ORDER BY a DESC, n LIMIT 10");
  add(5, QueryClass::kFanout,
      "MATCH (s:Station) RETURN s.name, ts_window_agg(s.bikes, " + t0 + ", " +
          t_end + ", " + day_ms + ", 'avg', 'max')");
  for (size_t i = 0; i < kCorrVariants; ++i) {
    const std::string s = Station(rng, n);
    add(6, QueryClass::kCorr,
        "MATCH (a:Station {name: '" + s + "'}), (b:Station) WHERE b.name <> '" +
            s + "' RETURN b.name AS n, ts_corr(a.bikes, b.bikes, " + t0 +
            ", " + t_end + ") AS c ORDER BY c DESC, n LIMIT 5");
  }
  for (size_t i = 0; i < kVariants; ++i) {
    add(7, QueryClass::kPoint,
        "MATCH (a:Station {name: '" + Station(rng, n) +
            "'})-[:TRIP]->(b:Station) RETURN b.name, ts_avg(b.bikes, " + t0 +
            ", " + t_end + ")");
  }
  for (size_t i = 0; i < kVariants; ++i) {
    add(8, QueryClass::kFanout,
        "MATCH (a:Station)-[:TRIP]->(b:Station) WHERE a.district = " +
            std::to_string(rng.NextBounded(d.config.districts)) +
            " AND ts_avg(a.bikes, " + t0 + ", " + t_end +
            ") > ts_avg(b.bikes, " + t0 + ", " + t_end +
            ") RETURN a.name AS x, b.name AS y ORDER BY x, y LIMIT 25");
  }
  return pool;
}

double AppendedValue(uint64_t seed, size_t station, uint64_t batch) {
  Rng rng(seed ^ (static_cast<uint64_t>(station) << 40) ^ (batch * 0x2545f491));
  // A whole number of tenths, like a bike count reading with one decimal.
  return static_cast<double>(rng.NextBounded(600)) / 10.0;
}

std::vector<hygraph::server::SampleUpdate> AppendBatch(
    const hygraph::workloads::BikeSharingDataset& d,
    const std::vector<hygraph::graph::VertexId>& stations, uint64_t seed,
    size_t first_station, uint64_t batch) {
  std::vector<hygraph::server::SampleUpdate> out;
  out.reserve(kBatchStations);
  const Timestamp t =
      d.end() + static_cast<Timestamp>(batch) * d.config.sample_interval;
  for (size_t s = first_station; s < first_station + kBatchStations; ++s) {
    hygraph::server::SampleUpdate u;
    u.kind = hygraph::server::SampleUpdate::kVertex;
    u.id = stations[s];
    u.timestamp = t;
    u.value = AppendedValue(seed, s, batch);
    u.key = "bikes";
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace hgbench
