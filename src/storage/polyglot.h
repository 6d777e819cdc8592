#ifndef HYGRAPH_STORAGE_POLYGLOT_H_
#define HYGRAPH_STORAGE_POLYGLOT_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/sync.h"
#include "query/backend.h"
#include "storage/cow_topology.h"
#include "ts/hypertable.h"

namespace hygraph::storage {

/// The polyglot engine's series reads, written once for the live store and
/// its pinned snapshots (file-local in polyglot.cc). Every read resolves
/// (entity, key) to a hypertable series through a series directory, then
/// answers from the chunked hypertable. A subclass supplies the hypertable
/// and the directory lookups: the live store under its guard, a snapshot
/// from its private copy. An entity without a series under `key` reads like
/// one with an empty series, matching AllInGraphStore (whose generic
/// property scan cannot tell the two apart).
class PolyglotReads : public query::QueryBackend {
 public:
  /// The cross-store glue: (entity, key) → SeriesId for vertices and edges
  /// in one keyspace. Ordered by entity first, so one entity's keys are
  /// adjacent and come out sorted (SeriesKeys reads only that range).
  using SeriesDirectory =
      std::map<std::pair<query::EntityRef, std::string>, SeriesId>;

  std::string name() const final { return "polyglot"; }

  /// One registry for the whole backend; the embedded hypertable's
  /// "hypertable.*" instruments live in it too (unless the caller injected
  /// a registry of their own via HypertableOptions::metrics). Snapshots
  /// share the origin's registry through the hypertable fork.
  obs::MetricsRegistry* metrics() const final {
    return hypertable().metrics();
  }
  query::BackendWork Work() const final;

  Result<ts::Series> SeriesRange(query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval) const final;

  /// Native aggregation: answered by the hypertable's chunk-pruned,
  /// cache-assisted aggregate instead of materializing the range.
  Result<double> SeriesAggregate(query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval,
                                 ts::AggKind kind) const final;

  /// Batch aggregates run as one HypertableStore::AggregateMany call (the
  /// multi-entity Table 1 query shape: one aggregate per matched
  /// station/account).
  std::vector<Result<double>> SeriesAggregateBatch(
      query::EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
      const std::string& key, const Interval& interval,
      ts::AggKind kind) const final;

  /// Native tumbling windows: the hypertable's single-pass time_bucket,
  /// chunk-cache assisted when windows align with chunks.
  Result<ts::Series> SeriesWindowAggregate(query::EntityRef entity,
                                           const std::string& key,
                                           const Interval& interval,
                                           Duration width,
                                           ts::AggKind kind) const final;

  /// Pushed-down series predicate: answered by the hypertable's
  /// zone-map-assisted CountMatching, which skips (or counts) whole
  /// compressed chunks without decoding them.
  Result<size_t> SeriesCountInRange(query::EntityRef entity,
                                    const std::string& key,
                                    const Interval& interval,
                                    double min_value,
                                    double max_value) const final;

 protected:
  virtual const ts::HypertableStore& hypertable() const = 0;
  /// The series stored under (entity, key); NotFound when there is none.
  virtual Result<SeriesId> Resolve(query::EntityRef entity,
                                   const std::string& key) const = 0;
  /// Resolve for each of `ids` (entities of kind `entity_kind`), in one
  /// pass over the directory.
  virtual std::vector<Result<SeriesId>> ResolveAll(
      query::EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
      const std::string& key) const = 0;
};

/// The "Polyglot persistence" architecture of Figure 1 (the green path) —
/// a simulation of the paper's TimeTravelDB prototype (Neo4j +
/// TimescaleDB): topology, labels and static properties live in a property
/// graph; every series lives in a chunked hypertable, joined to its owning
/// vertex/edge by an internal (entity, key) → SeriesId mapping.
///
/// Series reads prune to the chunks overlapping the requested range, and
/// range aggregates combine cached per-chunk partials — which is why this
/// engine wins Table 1's aggregation-heavy queries by orders of magnitude.
/// The small per-query cost of resolving the cross-store mapping is the
/// polyglot glue overhead that makes TTDB slightly *slower* than Neo4j on
/// the trivial Q1.
///
/// Thread safety (DESIGN.md §10): the graph and the series directory sit
/// behind one coarse reader-writer guard, held only while touching them —
/// sample data is read and written through the hypertable's own per-series
/// locks, so ingest on one series never blocks scans of another. Series
/// creation requires the exclusive guard; BeginSnapshot() therefore pins a
/// consistent (graph, directory, hypertable fork) triple under the shared
/// guard. topology()/mutable_topology() hand out references that outlive
/// the guard — single-threaded use only; concurrent code goes through
/// BeginSnapshot()/MutateTopology().
class PolyglotStore final : public PolyglotReads {
 public:
  explicit PolyglotStore(ts::HypertableOptions ts_options = {});

  const graph::PropertyGraph& topology() const override;

  /// Single-threaded bulk-load escape hatch; see AllInGraphStore.
  graph::PropertyGraph* mutable_topology() override;

  /// Runs `fn` under the store's exclusive guard after a copy-on-write
  /// detach — the concurrency-safe mutation path.
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;

  /// Pins graph + series directory + an O(series) hypertable fork as one
  /// consistent immutable view.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override;

  Status AppendSamples(std::span<const query::SampleWrite> samples) override;

  /// Series keys come straight from the series directory — the polyglot
  /// glue knows its schema, unlike the all-in-graph layout.
  std::vector<std::string> SeriesKeys(query::EntityRef entity) const override;

  /// Sample-data footprint of the underlying hypertable (hot vectors vs
  /// sealed compressed bytes).
  ts::HypertableMemory SeriesMemoryUsage() const {
    return series_.MemoryUsage();
  }

  /// The underlying time-series store (work counters for tests/benches).
  const ts::HypertableStore& series_store() const { return series_; }
  ts::HypertableStore* mutable_series_store() { return &series_; }

  /// Storage tiering hooks (see query/backend.h): the durability layer
  /// spills this hypertable's sealed chunks cold at checkpoint and
  /// re-binds catalogued chunks through EnsureSeries on recovery.
  ts::HypertableStore* series_hypertable() override { return &series_; }
  Result<SeriesId> EnsureSeries(query::EntityRef entity,
                                const std::string& key) override;

 private:
  const ts::HypertableStore& hypertable() const override { return series_; }
  /// Directory lookups under a shared hold of the guard.
  Result<SeriesId> Resolve(query::EntityRef entity,
                           const std::string& key) const override;
  std::vector<Result<SeriesId>> ResolveAll(
      query::EntityRef::Kind entity_kind, const std::vector<uint64_t>& ids,
      const std::string& key) const override;
  /// Resolves the series a sample for (entity, key) goes to, creating it
  /// on first use; NotFound when the entity does not exist.
  Result<SeriesId> ResolveForWrite(query::EntityRef entity,
                                   const std::string& key);
  /// Creates the hypertable series on first use; call under the exclusive
  /// guard.
  SeriesId ResolveOrCreate(query::EntityRef entity, const std::string& key)
      HYGRAPH_REQUIRES(*store_mu_);

  // Declared before series_ so the hypertable can adopt it at
  // construction (when the caller did not inject a registry of their own).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  ts::HypertableStore series_;
  // "concurrency.snapshot_pins" is incremented by series_.Fork() on the
  // shared registry — one pin event per snapshot, not counted twice here.
  CowTopology topology_ HYGRAPH_GUARDED_BY(*store_mu_);
  SeriesDirectory directory_ HYGRAPH_GUARDED_BY(*store_mu_);
  SyncInstruments sync_;
  // Heap-held: SharedMutex is not movable, the store is. Rank kStoreCoarse.
  std::unique_ptr<SharedMutex> store_mu_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_POLYGLOT_H_
