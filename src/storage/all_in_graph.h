#ifndef HYGRAPH_STORAGE_ALL_IN_GRAPH_H_
#define HYGRAPH_STORAGE_ALL_IN_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "query/backend.h"
#include "storage/cow_topology.h"

namespace hygraph::storage {

/// The "All-in-graph Storage" architecture of Figure 1 (the red path) —
/// a simulation of the paper's Neo4j configuration, where "each timestamp
/// and its corresponding value are stored as separate properties" of the
/// owning vertex or edge.
///
/// A sample (key, t, v) becomes the property entry
///
///   "__ts__<key>__<zero-padded t>" -> v
///
/// in the entity's ordinary property map. Because the property map is a
/// generic key→value dictionary, every series read must enumerate the
/// entity's *entire* property map, string-match the prefix, and parse the
/// timestamp out of each key — exactly the access pattern that makes the
/// paper's Neo4j baseline collapse on aggregation-heavy queries (Table 1,
/// Q4–Q8) and that inflates write amplification (one property write per
/// sample into an ever-growing map).
///
/// The store intentionally does NOT exploit the lexicographic ordering of
/// the zero-padded encoding: a generic property store has no schema
/// knowledge that this key family encodes a time axis. This mirrors how the
/// paper's Neo4j queries had to "manually handle time series data stored as
/// properties".
///
/// Thread safety (DESIGN.md §10): the whole store sits behind one
/// reader-writer guard. Series reads and BeginSnapshot() take it shared;
/// AppendSamples and MutateTopology take it exclusive and copy-on-write
/// detach the graph when a snapshot has it pinned, so pinned views stay
/// immutable. topology() and mutable_topology() hand out references that
/// outlive the guard — they are safe only single-threaded or against a
/// pinned snapshot; concurrent code must use BeginSnapshot()/
/// MutateTopology().
class AllInGraphStore final : public query::QueryBackend {
 public:
  AllInGraphStore();

  std::string name() const override { return "all-in-graph"; }
  const graph::PropertyGraph& topology() const override;

  /// Single-threaded bulk-load escape hatch: detaches any pinned snapshot,
  /// then returns the live graph. The returned pointer is used outside the
  /// store's guard — do not call concurrently with anything else.
  graph::PropertyGraph* mutable_topology() override;

  /// Runs `fn` under the store's exclusive guard after a copy-on-write
  /// detach — the concurrency-safe mutation path.
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;

  /// Pins the current graph as an immutable read view (O(1): bumps a
  /// refcount). Mutators afterwards detach onto a fresh copy.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override;

  /// "allingraph.*" work counters: properties examined and samples parsed
  /// by the full-property-map scans — the cost Table 1 measures.
  obs::MetricsRegistry* metrics() const override { return metrics_.get(); }
  query::BackendWork Work() const override;

  /// One exclusive hold for the whole batch; each sample becomes one
  /// property write.
  Status AppendSamples(std::span<const query::SampleWrite> samples) override;

  Result<ts::Series> SeriesRange(query::EntityRef entity,
                                 const std::string& key,
                                 const Interval& interval) const override;

  /// Series keys reconstructed by scanning the property map for the sample
  /// prefix — the only way a generic property store can know them.
  std::vector<std::string> SeriesKeys(query::EntityRef entity) const override;

  /// Samples ARE properties here: persisting the topology persists them.
  bool SeriesEmbeddedInTopology() const override { return true; }

  /// Encodes / decodes the property-key representation of one sample
  /// (exposed for tests).
  static std::string EncodeSampleKey(const std::string& key, Timestamp t);
  static bool DecodeSampleKey(const std::string& property_key,
                              const std::string& key, Timestamp* t);

 private:
  // Heap-held so the cached counter pointers survive moves of the store.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  CowTopology topology_ HYGRAPH_GUARDED_BY(*topo_mu_);
  obs::Counter* properties_scanned_ = nullptr;
  obs::Counter* samples_parsed_ = nullptr;
  obs::Counter* snapshot_pins_ = nullptr;
  SyncInstruments sync_;
  // Heap-held: SharedMutex is not movable, the store is. Rank kStoreCoarse.
  std::unique_ptr<SharedMutex> topo_mu_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_ALL_IN_GRAPH_H_
