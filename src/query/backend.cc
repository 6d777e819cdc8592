#include "query/backend.h"

#include "ts/hypertable.h"

namespace hygraph::query {

QueryBackend::~QueryBackend() = default;

std::string SeriesSlotName(EntityRef entity, const std::string& key) {
  std::string out = entity.is_edge() ? "e" : "v";
  out += std::to_string(entity.id);
  out += '.';
  out += key;
  return out;
}

bool ParseSeriesSlotName(const std::string& name, EntityRef* entity,
                         std::string* key) {
  if (name.size() < 3 || (name[0] != 'v' && name[0] != 'e')) return false;
  const size_t dot = name.find('.');
  if (dot == std::string::npos || dot < 2 || dot + 1 >= name.size()) {
    return false;
  }
  uint64_t id = 0;
  for (size_t i = 1; i < dot; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (id > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  *entity = {name[0] == 'v' ? EntityRef::kVertex : EntityRef::kEdge, id};
  *key = name.substr(dot + 1);
  return true;
}

Result<SeriesId> QueryBackend::EnsureSeries(EntityRef /*entity*/,
                                            const std::string& /*key*/) {
  return Status::Unimplemented(name() + " does not bind catalogued series");
}

Status QueryBackend::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  graph::PropertyGraph* g = mutable_topology();
  if (g == nullptr) {
    return Status::FailedPrecondition("backend topology is read-only");
  }
  return fn(g);
}

Result<double> QueryBackend::SeriesAggregate(EntityRef entity,
                                             const std::string& key,
                                             const Interval& interval,
                                             ts::AggKind kind) const {
  auto series = SeriesRange(entity, key, interval);
  if (!series.ok()) return series.status();
  return ts::Aggregate(*series, Interval::All(), kind);
}

std::vector<Result<double>> QueryBackend::SeriesAggregateBatch(
    EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
    const std::string& key, const Interval& interval, ts::AggKind kind) const {
  std::vector<Result<double>> out;
  out.reserve(ids.size());
  for (uint64_t id : ids) {
    out.push_back(SeriesAggregate({entity_kind, id}, key, interval, kind));
  }
  return out;
}

Result<ts::Series> QueryBackend::SeriesWindowAggregate(
    EntityRef entity, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto series = SeriesRange(entity, key, interval);
  if (!series.ok()) return series.status();
  return ts::WindowAggregate(*series, interval.Intersect(series->TimeSpan()),
                             width, kind);
}

Result<size_t> QueryBackend::SeriesCountInRange(EntityRef entity,
                                                const std::string& key,
                                                const Interval& interval,
                                                double min_value,
                                                double max_value) const {
  auto series = SeriesRange(entity, key, interval);
  if (!series.ok()) return series.status();
  // Shares ScanPredicate's comparison semantics so every engine counts the
  // same samples (bounded predicates never select NaN).
  const ts::ScanPredicate predicate{min_value, max_value};
  size_t n = 0;
  for (const ts::Sample& s : series->samples()) {
    if (predicate.Matches(s.value)) ++n;
  }
  return n;
}

std::vector<std::string> QueryBackend::SeriesKeys(EntityRef /*entity*/) const {
  return {};
}

}  // namespace hygraph::query
