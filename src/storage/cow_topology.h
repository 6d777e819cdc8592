#ifndef HYGRAPH_STORAGE_COW_TOPOLOGY_H_
#define HYGRAPH_STORAGE_COW_TOPOLOGY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "graph/property_graph.h"
#include "obs/metrics.h"

namespace hygraph::storage {

/// A store's live topology graph, copy-on-write against pinned snapshots.
/// Both storage architectures keep their graph in one of these, behind the
/// store's coarse guard: Pin() runs under the shared guard, Mutable() under
/// the exclusive one, so a pin and a writer's detach decision never race.
///
/// Each incarnation of the graph carries a pin counter, the discipline
/// HypertableStore uses for chunk vectors (StoredSeries::pins). The
/// counter exists because shared_ptr::use_count() cannot decide "safe to
/// mutate in place": its load is relaxed, so a writer that sees 1 after a
/// snapshot died gets no happens-before edge over that reader's accesses.
/// Here a snapshot drops its pin with release order and the writer loads
/// it with acquire order, which orders every read the dead snapshot made
/// before the writer's in-place mutation.
class CowTopology {
 public:
  /// Detaches count into `registry` as "concurrency.topology_cow_copies".
  explicit CowTopology(obs::MetricsRegistry* registry)
      : current_(std::make_shared<Incarnation>()),
        cow_copies_(registry->counter("concurrency.topology_cow_copies")) {}

  /// The live graph, for reads under the store's guard.
  const graph::PropertyGraph& get() const { return current_->graph; }

  /// Pins the live incarnation for a snapshot. The pointer keeps the graph
  /// alive; destroying its last copy drops the pin.
  std::shared_ptr<const graph::PropertyGraph> Pin() const {
    current_->pins.fetch_add(1, std::memory_order_relaxed);
    return {&current_->graph, [incarnation = current_](const auto*) {
              incarnation->pins.fetch_sub(1, std::memory_order_release);
            }};
  }

  /// The live graph for mutation: while a snapshot pins it, it is first
  /// replaced with a private copy so the pinned view keeps the
  /// pre-mutation state. Call under the store's exclusive guard.
  graph::PropertyGraph* Mutable() {
    if (current_->pins.load(std::memory_order_acquire) > 0) {
      current_ = std::make_shared<Incarnation>(current_->graph);
      cow_copies_->Increment();
    }
    return &current_->graph;
  }

 private:
  struct Incarnation {
    explicit Incarnation(graph::PropertyGraph g = {}) : graph(std::move(g)) {}
    graph::PropertyGraph graph;
    std::atomic<uint64_t> pins{0};
  };

  std::shared_ptr<Incarnation> current_;
  obs::Counter* cow_copies_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_COW_TOPOLOGY_H_
