#include "storage/all_in_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>

#include "common/context.h"

namespace hygraph::storage {

namespace {
constexpr char kPrefix[] = "__ts__";
// The sign-offset value spans the full uint64 range, whose decimal form
// needs up to 20 digits.
constexpr size_t kTimestampDigits = 20;

// The generic-property-store access path: enumerate every property of the
// entity, match the prefix textually, parse the timestamp, filter. No
// index, no ordering assumption — this is what Table 1 measures. Free
// function so the live store and pinned snapshots share one definition;
// work attributes to whichever counters the caller resolves.
Result<ts::Series> ScanSampleProperties(const graph::PropertyMap& props,
                                        const std::string& key,
                                        const Interval& interval,
                                        obs::Counter* properties_scanned,
                                        obs::Counter* samples_parsed) {
  std::vector<ts::Sample> samples;
  properties_scanned->Add(props.size());
  // Governance checkpoint: the property sweep is this architecture's scan
  // loop, so a deadline/cancel cuts here (mirrors the hypertable decode
  // loop on the polyglot side).
  if (QueryContext* ctx = QueryContext::Current()) {
    HYGRAPH_RETURN_IF_ERROR(ctx->Charge(props.size()));
  }
  for (const auto& [property_key, value] : props) {
    Timestamp t = 0;
    if (!AllInGraphStore::DecodeSampleKey(property_key, key, &t)) continue;
    if (!interval.Contains(t)) continue;
    auto d = value.ToDouble();
    if (!d.ok()) {
      return Status::Corruption("sample property '" + property_key +
                                "' is not numeric");
    }
    samples.push_back(ts::Sample{t, *d});
  }
  samples_parsed->Add(samples.size());
  std::sort(samples.begin(), samples.end(),
            [](const ts::Sample& a, const ts::Sample& b) { return a.t < b.t; });
  ts::Series out(key);
  for (const ts::Sample& s : samples) {
    HYGRAPH_RETURN_IF_ERROR(out.Append(s.t, s.value));
  }
  return out;
}

// Extracts the distinct series keys embedded in sample property names:
// "__ts__<key>__<20 digits>" → <key>. Keys containing "__<digit>" can make
// different keys' samples interleave in the sorted map, so dedup goes
// through a set rather than relying on adjacency.
std::vector<std::string> ScanSeriesKeys(const graph::PropertyMap& props) {
  std::set<std::string> keys;
  const size_t prefix_len = sizeof(kPrefix) - 1;
  for (const auto& [property_key, value] : props) {
    (void)value;
    if (property_key.size() < prefix_len + 2 + kTimestampDigits) continue;
    if (property_key.compare(0, prefix_len, kPrefix) != 0) continue;
    const size_t key_end = property_key.size() - kTimestampDigits - 2;
    if (property_key.compare(key_end, 2, "__") != 0) continue;
    std::string key = property_key.substr(prefix_len, key_end - prefix_len);
    Timestamp t = 0;
    if (!AllInGraphStore::DecodeSampleKey(property_key, key, &t)) continue;
    keys.insert(std::move(key));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

Result<const graph::PropertyMap*> PropertiesOf(const graph::PropertyGraph& g,
                                               query::EntityRef entity) {
  if (entity.is_edge()) {
    auto edge = g.GetEdge(entity.id);
    if (!edge.ok()) return edge.status();
    return &(*edge)->properties;
  }
  auto vertex = g.GetVertex(entity.id);
  if (!vertex.ok()) return vertex.status();
  return &(*vertex)->properties;
}

// The two reads the live store (under its shared guard) and a pinned
// snapshot share.
Result<ts::Series> SeriesRangeIn(const graph::PropertyGraph& g,
                                 query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval,
                                 obs::Counter* properties_scanned,
                                 obs::Counter* samples_parsed) {
  auto props = PropertiesOf(g, entity);
  if (!props.ok()) return props.status();
  return ScanSampleProperties(**props, key, interval, properties_scanned,
                              samples_parsed);
}

std::vector<std::string> SeriesKeysIn(const graph::PropertyGraph& g,
                                      query::EntityRef entity) {
  auto props = PropertiesOf(g, entity);
  if (!props.ok()) return {};
  return ScanSeriesKeys(**props);
}

/// A pinned read view: holds the graph alive by pin and answers every read
/// from it, byte-identical no matter what the origin store does
/// concurrently. Work still attributes to the origin's registry so
/// PROFILE's before/after differencing keeps working across a snapshot.
class AllInGraphSnapshot final : public query::QueryBackend {
 public:
  AllInGraphSnapshot(std::shared_ptr<const graph::PropertyGraph> graph,
                     obs::MetricsRegistry* metrics,
                     obs::Counter* properties_scanned,
                     obs::Counter* samples_parsed)
      : graph_(std::move(graph)),
        metrics_(metrics),
        properties_scanned_(properties_scanned),
        samples_parsed_(samples_parsed) {}

  std::string name() const override { return "all-in-graph"; }
  const graph::PropertyGraph& topology() const override { return *graph_; }
  graph::PropertyGraph* mutable_topology() override { return nullptr; }

  obs::MetricsRegistry* metrics() const override { return metrics_; }
  query::BackendWork Work() const override {
    query::BackendWork w;
    w.properties_scanned = properties_scanned_->value();
    w.series_points_scanned = samples_parsed_->value();
    return w;
  }

  Status AppendSamples(std::span<const query::SampleWrite>) override {
    return Status::FailedPrecondition("snapshot is read-only");
  }

  Result<ts::Series> SeriesRange(query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval) const override {
    return SeriesRangeIn(*graph_, entity, key, interval, properties_scanned_,
                         samples_parsed_);
  }
  std::vector<std::string> SeriesKeys(query::EntityRef entity) const override {
    return SeriesKeysIn(*graph_, entity);
  }

  bool SeriesEmbeddedInTopology() const override { return true; }

 private:
  std::shared_ptr<const graph::PropertyGraph> graph_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* properties_scanned_;
  obs::Counter* samples_parsed_;
};

}  // namespace

AllInGraphStore::AllInGraphStore()
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      topology_(metrics_.get()),
      properties_scanned_(metrics_->counter("allingraph.properties_scanned")),
      samples_parsed_(metrics_->counter("allingraph.samples_parsed")),
      snapshot_pins_(metrics_->counter("concurrency.snapshot_pins")),
      sync_(SyncInstruments::ForRegistry(metrics_.get())),
      topo_mu_(std::make_unique<SharedMutex>(LockRank::kStoreCoarse, sync_)) {}

query::BackendWork AllInGraphStore::Work() const {
  query::BackendWork w;
  w.properties_scanned = properties_scanned_->value();
  w.series_points_scanned = samples_parsed_->value();
  return w;
}

const graph::PropertyGraph& AllInGraphStore::topology() const {
  SharedLock lock(*topo_mu_);
  return topology_.get();  // reference outlives the guard; see header
}

graph::PropertyGraph* AllInGraphStore::mutable_topology() {
  ExclusiveLock lock(*topo_mu_);
  return topology_.Mutable();
}

Status AllInGraphStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  ExclusiveLock lock(*topo_mu_);
  return fn(topology_.Mutable());
}

std::shared_ptr<const query::QueryBackend> AllInGraphStore::BeginSnapshot()
    const {
  SharedLock lock(*topo_mu_);
  snapshot_pins_->Increment();
  return std::make_shared<AllInGraphSnapshot>(topology_.Pin(), metrics_.get(),
                                              properties_scanned_,
                                              samples_parsed_);
}

std::string AllInGraphStore::EncodeSampleKey(const std::string& key,
                                             Timestamp t) {
  char digits[kTimestampDigits + 1];
  // Negative timestamps are offset so the textual form stays fixed-width;
  // generators use the Unix epoch onwards, so this is a corner-case guard.
  unsigned long long shifted =
      static_cast<unsigned long long>(t) + (1ULL << 63);
  std::snprintf(digits, sizeof(digits), "%020llu", shifted);
  return std::string(kPrefix) + key + "__" + digits;
}

bool AllInGraphStore::DecodeSampleKey(const std::string& property_key,
                                      const std::string& key, Timestamp* t) {
  const std::string expected = std::string(kPrefix) + key + "__";
  if (property_key.size() != expected.size() + kTimestampDigits) return false;
  if (property_key.compare(0, expected.size(), expected) != 0) return false;
  const char* digits = property_key.c_str() + expected.size();
  char* end = nullptr;
  const unsigned long long shifted = std::strtoull(digits, &end, 10);
  if (end != digits + kTimestampDigits) return false;
  *t = static_cast<Timestamp>(shifted - (1ULL << 63));
  return true;
}

Status AllInGraphStore::AppendSamples(
    std::span<const query::SampleWrite> samples) {
  if (samples.empty()) return Status::OK();
  ExclusiveLock lock(*topo_mu_);
  graph::PropertyGraph* g = topology_.Mutable();
  for (const query::SampleWrite& s : samples) {
    const std::string property = EncodeSampleKey(s.key, s.t);
    HYGRAPH_RETURN_IF_ERROR(
        s.entity.is_edge()
            ? g->SetEdgeProperty(s.entity.id, property, Value(s.value))
            : g->SetVertexProperty(s.entity.id, property, Value(s.value)));
  }
  return Status::OK();
}

std::vector<std::string> AllInGraphStore::SeriesKeys(
    query::EntityRef entity) const {
  SharedLock lock(*topo_mu_);
  return SeriesKeysIn(topology_.get(), entity);
}

Result<ts::Series> AllInGraphStore::SeriesRange(
    query::EntityRef entity, const std::string& key,
    const Interval& interval) const {
  SharedLock lock(*topo_mu_);
  return SeriesRangeIn(topology_.get(), entity, key, interval,
                       properties_scanned_, samples_parsed_);
}

}  // namespace hygraph::storage
