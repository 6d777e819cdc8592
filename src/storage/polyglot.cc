#include "storage/polyglot.h"

#include <memory>
#include <utility>
#include <vector>

namespace hygraph::storage {

namespace {

using query::EntityRef;
using SeriesDirectory = PolyglotStore::SeriesDirectory;

ts::HypertableOptions WithDefaultMetrics(ts::HypertableOptions options,
                                         obs::MetricsRegistry* registry) {
  if (options.metrics == nullptr) options.metrics = registry;
  return options;
}

Result<SeriesId> ResolveIn(const SeriesDirectory& directory, EntityRef entity,
                           const std::string& key) {
  auto it = directory.find({entity, key});
  if (it == directory.end()) {
    return Status::NotFound("no series '" + key + "' on entity " +
                            std::to_string(entity.id));
  }
  return it->second;
}

std::vector<Result<SeriesId>> ResolveAllIn(const SeriesDirectory& directory,
                                           EntityRef::Kind entity_kind,
                                           const std::vector<uint64_t>& ids,
                                           const std::string& key) {
  std::vector<Result<SeriesId>> sids;
  sids.reserve(ids.size());
  for (uint64_t id : ids) {
    sids.push_back(ResolveIn(directory, {entity_kind, id}, key));
  }
  return sids;
}

std::vector<std::string> KeysOf(const SeriesDirectory& directory,
                                EntityRef entity) {
  std::vector<std::string> keys;
  for (auto it = directory.lower_bound({entity, std::string()});
       it != directory.end() && it->first.first == entity; ++it) {
    keys.push_back(it->first.second);
  }
  return keys;
}

Status CheckEntityExists(const graph::PropertyGraph& graph, EntityRef entity) {
  if (entity.is_edge() ? graph.HasEdge(entity.id)
                       : graph.HasVertex(entity.id)) {
    return Status::OK();
  }
  return Status::NotFound((entity.is_edge() ? "no edge with id "
                                            : "no vertex with id ") +
                          std::to_string(entity.id));
}

// Aggregates over nothing fold the same way as AggState::Finalize on an
// empty range.
Result<double> EmptyAggregate(ts::AggKind kind) {
  if (kind == ts::AggKind::kCount) return 0.0;
  return Status::NotFound("aggregate over empty range");
}

/// A pinned read view: the graph by pin, the series directory by copy, and
/// the hypertable by an O(series) fork whose chunk vectors are shared until
/// the origin writes. The fork shares the origin's registry, so
/// Work()/PROFILE attribution keeps working across a snapshot.
class PolyglotSnapshot final : public PolyglotReads {
 public:
  PolyglotSnapshot(std::shared_ptr<const graph::PropertyGraph> graph,
                   SeriesDirectory directory,
                   std::shared_ptr<const ts::HypertableStore> series)
      : graph_(std::move(graph)),
        directory_(std::move(directory)),
        series_(std::move(series)) {}

  const graph::PropertyGraph& topology() const override { return *graph_; }
  graph::PropertyGraph* mutable_topology() override { return nullptr; }
  Status AppendSamples(std::span<const query::SampleWrite>) override {
    return Status::FailedPrecondition("snapshot is read-only");
  }
  std::vector<std::string> SeriesKeys(EntityRef entity) const override {
    return KeysOf(directory_, entity);
  }

 private:
  const ts::HypertableStore& hypertable() const override { return *series_; }
  Result<SeriesId> Resolve(EntityRef entity,
                           const std::string& key) const override {
    return ResolveIn(directory_, entity, key);
  }
  std::vector<Result<SeriesId>> ResolveAll(
      EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
      const std::string& key) const override {
    return ResolveAllIn(directory_, entity_kind, ids, key);
  }

  std::shared_ptr<const graph::PropertyGraph> graph_;
  const SeriesDirectory directory_;
  std::shared_ptr<const ts::HypertableStore> series_;
};

}  // namespace

query::BackendWork PolyglotReads::Work() const {
  const ts::HypertableStats stats = hypertable().stats();
  query::BackendWork w;
  w.series_points_scanned = stats.samples_scanned;
  w.chunks_decoded = stats.chunks_decoded;
  w.chunks_cache_hits = stats.chunks_from_cache;
  w.chunks_zonemap_skipped = stats.chunks_zonemap_skipped;
  w.cold_chunks_loaded = stats.cold_pins;
  return w;
}

Result<ts::Series> PolyglotReads::SeriesRange(EntityRef entity,
                                              const std::string& key,
                                              const Interval& interval) const {
  auto sid = Resolve(entity, key);
  if (!sid.ok()) return ts::Series(key);
  return hypertable().Materialize(*sid, interval);
}

Result<double> PolyglotReads::SeriesAggregate(EntityRef entity,
                                              const std::string& key,
                                              const Interval& interval,
                                              ts::AggKind kind) const {
  auto sid = Resolve(entity, key);
  if (!sid.ok()) return EmptyAggregate(kind);
  return hypertable().Aggregate(*sid, interval, kind);
}

std::vector<Result<double>> PolyglotReads::SeriesAggregateBatch(
    EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
    const std::string& key, const Interval& interval, ts::AggKind kind) const {
  // Absent entities keep the EmptyAggregate placeholder (matching
  // SeriesAggregate); the present ones go through the hypertable's batch
  // aggregate and scatter back into their slots.
  const std::vector<Result<SeriesId>> sids = ResolveAll(entity_kind, ids, key);
  std::vector<Result<double>> out(ids.size(), EmptyAggregate(kind));
  std::vector<SeriesId> present;
  std::vector<size_t> slot;
  for (size_t i = 0; i < sids.size(); ++i) {
    if (!sids[i].ok()) continue;
    present.push_back(*sids[i]);
    slot.push_back(i);
  }
  if (present.empty()) return out;
  std::vector<Result<double>> results;
  const Status batch =
      hypertable().AggregateMany(present, interval, kind, &results);
  if (!batch.ok()) {
    // A batch-wide failure (cancellation, deadline, budget) overwrites
    // every slot; per-series errors come back inside the results.
    for (auto& r : out) r = batch;
    return out;
  }
  for (size_t i = 0; i < present.size(); ++i) {
    out[slot[i]] = std::move(results[i]);
  }
  return out;
}

Result<ts::Series> PolyglotReads::SeriesWindowAggregate(
    EntityRef entity, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto sid = Resolve(entity, key);
  if (!sid.ok()) return ts::Series(key);
  return hypertable().WindowAggregate(*sid, interval, width, kind);
}

Result<size_t> PolyglotReads::SeriesCountInRange(EntityRef entity,
                                                 const std::string& key,
                                                 const Interval& interval,
                                                 double min_value,
                                                 double max_value) const {
  auto sid = Resolve(entity, key);
  if (!sid.ok()) return size_t{0};
  return hypertable().CountMatching(*sid, interval,
                                    ts::ScanPredicate{min_value, max_value});
}

PolyglotStore::PolyglotStore(ts::HypertableOptions ts_options)
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      series_(WithDefaultMetrics(std::move(ts_options), metrics_.get())),
      topology_(series_.metrics()),
      sync_(SyncInstruments::ForRegistry(series_.metrics())),
      store_mu_(std::make_unique<SharedMutex>(LockRank::kStoreCoarse, sync_)) {
}

const graph::PropertyGraph& PolyglotStore::topology() const {
  SharedLock lock(*store_mu_);
  return topology_.get();  // reference outlives the guard; see header
}

graph::PropertyGraph* PolyglotStore::mutable_topology() {
  ExclusiveLock lock(*store_mu_);
  return topology_.Mutable();
}

Status PolyglotStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  ExclusiveLock lock(*store_mu_);
  return fn(topology_.Mutable());
}

std::shared_ptr<const query::QueryBackend> PolyglotStore::BeginSnapshot()
    const {
  // Series creation takes the exclusive guard, so under the shared guard
  // the directory and the hypertable's series set cannot drift apart; the
  // fork itself pins each series' chunk vector under that series' shard
  // lock.
  SharedLock lock(*store_mu_);
  return std::make_shared<PolyglotSnapshot>(topology_.Pin(), directory_,
                                            series_.Fork());
}

Result<SeriesId> PolyglotStore::Resolve(EntityRef entity,
                                        const std::string& key) const {
  SharedLock lock(*store_mu_);
  return ResolveIn(directory_, entity, key);
}

std::vector<Result<SeriesId>> PolyglotStore::ResolveAll(
    EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
    const std::string& key) const {
  // One brief shared hold for the whole batch instead of per-entity
  // locking; the aggregate itself runs unlocked against the per-series
  // shards.
  SharedLock lock(*store_mu_);
  return ResolveAllIn(directory_, entity_kind, ids, key);
}

SeriesId PolyglotStore::ResolveOrCreate(EntityRef entity,
                                        const std::string& key) {
  auto it = directory_.find({entity, key});
  if (it != directory_.end()) return it->second;
  // The slot-name contract (query::SeriesSlotName) is what lets the cold
  // tier's catalog map persisted series back to (entity, key) on recovery.
  const SeriesId sid = series_.Create(query::SeriesSlotName(entity, key));
  directory_.emplace(std::make_pair(entity, key), sid);
  return sid;
}

Result<SeriesId> PolyglotStore::EnsureSeries(EntityRef entity,
                                             const std::string& key) {
  ExclusiveLock lock(*store_mu_);
  return ResolveOrCreate(entity, key);
}

Result<SeriesId> PolyglotStore::ResolveForWrite(EntityRef entity,
                                                const std::string& key) {
  {
    // Fast path: existing series resolve under the shared guard, so
    // steady-state ingest on different series runs concurrently.
    SharedLock lock(*store_mu_);
    HYGRAPH_RETURN_IF_ERROR(CheckEntityExists(topology_.get(), entity));
    auto it = directory_.find({entity, key});
    if (it != directory_.end()) return it->second;
  }
  ExclusiveLock lock(*store_mu_);
  // Recheck: the guard was dropped.
  HYGRAPH_RETURN_IF_ERROR(CheckEntityExists(topology_.get(), entity));
  return ResolveOrCreate(entity, key);
}

Status PolyglotStore::AppendSamples(
    std::span<const query::SampleWrite> samples) {
  // One resolve and one hypertable insert (one series lock) per run of
  // consecutive samples sharing (entity, key); runs apply in order, and
  // InsertSamples applies its run in order, so the batch still stops at
  // the first failing sample.
  std::vector<ts::Sample> run;
  for (size_t i = 0; i < samples.size();) {
    const query::SampleWrite& head = samples[i];
    auto sid = ResolveForWrite(head.entity, head.key);
    if (!sid.ok()) return sid.status();
    run.clear();
    for (; i < samples.size() && samples[i].entity == head.entity &&
           samples[i].key == head.key;
         ++i) {
      run.push_back({samples[i].t, samples[i].value});
    }
    HYGRAPH_RETURN_IF_ERROR(series_.InsertSamples(*sid, run));
  }
  return Status::OK();
}

std::vector<std::string> PolyglotStore::SeriesKeys(EntityRef entity) const {
  SharedLock lock(*store_mu_);
  return KeysOf(directory_, entity);
}

}  // namespace hygraph::storage
