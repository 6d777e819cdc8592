// Snapshot isolation: BeginSnapshot() pins an immutable read view that
// answers every const method with the pinned state, no matter what the
// live store does afterwards — concurrently or not. State identity is
// asserted through storage::BuildSnapshotText, the canonical full-state
// serialization (topology + every series), so "identical" means the whole
// logical store, not a sampled subset.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/time.h"
#include "query/backend.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"
#include "workloads/bike_sharing.h"

namespace hygraph {
namespace {

using query::QueryBackend;
using storage::AllInGraphStore;
using storage::BuildSnapshotText;
using storage::PolyglotStore;
using ts::AggKind;

// Small but non-trivial dataset: 8 stations, 2 districts, 1 day of
// 30-minute samples, deterministic seed.
workloads::BikeSharingDataset Dataset() {
  workloads::BikeSharingConfig config;
  config.stations = 8;
  config.districts = 2;
  config.days = 1;
  config.sample_interval = 30 * kMinute;
  config.trips_per_station = 2;
  config.seed = 7;
  auto dataset = workloads::GenerateBikeSharing(config);
  EXPECT_TRUE(dataset.ok());
  return *dataset;
}

std::string Signature(const QueryBackend& backend) {
  auto text = BuildSnapshotText(backend);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.value_or("<error>");
}

// Appends fresh samples and a fresh vertex to the live store — enough
// mutation to change every layer a snapshot could leak from.
void MutateLive(QueryBackend* live, graph::VertexId station,
                Timestamp from) {
  ASSERT_TRUE(live->MutateTopology([](graph::PropertyGraph* g) {
                    g->AddVertex({"Depot"}, {});
                    return Status::OK();
                  })
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(live->AppendSample({query::EntityRef::Vertex(station), "bikes",
                                    from + static_cast<Timestamp>(i) * 60,
                                    static_cast<double>(i)}).ok());
  }
}

// The shared scenario, run against either architecture: pin, mutate,
// assert the pinned view never moves while the live store does.
void RunPinnedViewStaysFrozen(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok()) << stations.status().ToString();

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);
  ASSERT_EQ(Signature(*live), pinned);  // freshly pinned: views agree

  MutateLive(live, stations->front(), dataset.end());

  EXPECT_EQ(Signature(*snapshot), pinned) << "snapshot drifted";
  EXPECT_NE(Signature(*live), pinned) << "live store failed to move";

  // A second snapshot picks up the new state; the first stays pinned.
  std::shared_ptr<const QueryBackend> later = live->BeginSnapshot();
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(Signature(*later), Signature(*live));
  EXPECT_EQ(Signature(*snapshot), pinned);
}

TEST(SnapshotIsolationTest, AllInGraphPinnedViewStaysFrozen) {
  AllInGraphStore store;
  RunPinnedViewStaysFrozen(&store);
}

TEST(SnapshotIsolationTest, PolyglotPinnedViewStaysFrozen) {
  PolyglotStore store;
  RunPinnedViewStaysFrozen(&store);
}

// The same property while the mutation runs CONCURRENTLY with snapshot
// reads — the case copy-on-write exists for.
void RunPinnedViewFrozenUnderConcurrentMutation(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok());

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);
  const graph::VertexId station = stations->front();

  // Bounded mutation stream (a free-running mutator on the single-core
  // reference machine would grow the live graph without limit while the
  // signature loop runs, making the final live signature arbitrarily
  // expensive).
  constexpr int kMutations = 200;
  std::thread mutator([&] {
    Timestamp t = dataset.end();
    for (int i = 0; i < kMutations; ++i) {
      ASSERT_TRUE(live->MutateTopology([](graph::PropertyGraph* g) {
                        g->AddVertex({"Depot"}, {});
                        return Status::OK();
                      })
                      .ok());
      ASSERT_TRUE(
          live->AppendSample(
              {query::EntityRef::Vertex(station), "bikes", t, 1.0}).ok());
      t += 60;
    }
  });

  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(Signature(*snapshot), pinned)
        << "snapshot drifted at iteration " << i;
  }
  mutator.join();

  EXPECT_EQ(Signature(*snapshot), pinned);
  EXPECT_NE(Signature(*live), pinned);
}

TEST(SnapshotIsolationTest, AllInGraphFrozenUnderConcurrentMutation) {
  AllInGraphStore store;
  RunPinnedViewFrozenUnderConcurrentMutation(&store);
}

TEST(SnapshotIsolationTest, PolyglotFrozenUnderConcurrentMutation) {
  PolyglotStore store;
  RunPinnedViewFrozenUnderConcurrentMutation(&store);
}

// DurableStore forwards BeginSnapshot to the wrapped backend; the pinned
// view must ignore logged mutations too.
TEST(SnapshotIsolationTest, DurableForwardsPinnedView) {
  char tmpl[] = "/tmp/hygraph_snapshot_isolation_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  storage::DurableStore store(storage::Env::Default(), root + "/store",
                              std::make_unique<PolyglotStore>());
  ASSERT_TRUE(store.Open().ok());

  auto v = store.AddVertex({"Station"}, {{"name", Value("S0")}});
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .AppendSample({query::EntityRef::Vertex(*v), "bikes",
                                   static_cast<Timestamp>(i) * 60,
                                   static_cast<double>(i)})
                    .ok());
  }

  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);

  ASSERT_TRUE(store.AppendSample({query::EntityRef::Vertex(*v), "bikes", 6000,
                                  99.0}).ok());
  auto v2 = store.AddVertex({"Station"}, {{"name", Value("S1")}});
  ASSERT_TRUE(v2.ok());

  EXPECT_EQ(Signature(*snapshot), pinned);
  EXPECT_NE(Signature(store), pinned);
  std::system(("rm -rf " + root).c_str());
}

// Snapshots are read-only: their mutators fail FailedPrecondition and
// mutable_topology() yields nullptr (so even the default MutateTopology
// fails instead of handing out mutable state).
void RunSnapshotIsReadOnly(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok());

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  // The interface exposes snapshots as const; casting away constness is
  // exactly what a buggy caller could do, so the runtime guard must hold.
  auto* writable = const_cast<QueryBackend*>(snapshot.get());

  Status append = writable->AppendSample(
      {query::EntityRef::Vertex(stations->front()), "bikes", dataset.end(),
       1.0});
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition)
      << append.ToString();
  Status edge_append = writable->AppendSample(
      {query::EntityRef::Edge(0), "trips", 0, 1.0});
  EXPECT_EQ(edge_append.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writable->mutable_topology(), nullptr);
  Status mutate = writable->MutateTopology([](graph::PropertyGraph*) {
    ADD_FAILURE() << "MutateTopology ran on a snapshot";
    return Status::OK();
  });
  EXPECT_EQ(mutate.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotIsolationTest, AllInGraphSnapshotIsReadOnly) {
  AllInGraphStore store;
  RunSnapshotIsReadOnly(&store);
}

TEST(SnapshotIsolationTest, PolyglotSnapshotIsReadOnly) {
  PolyglotStore store;
  RunSnapshotIsReadOnly(&store);
}

// HGQL statements on the live store pin their own snapshot per execution:
// results computed mid-mutation are internally consistent, and executing
// against an explicitly pinned snapshot returns pre-mutation results.
TEST(SnapshotIsolationTest, ExecuteAgainstPinnedSnapshot) {
  PolyglotStore store;
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, &store);
  ASSERT_TRUE(stations.ok());

  const std::string q =
      "MATCH (s:Station) RETURN s.name AS n, "
      "ts_count(s.bikes, 0, 99999999999999) AS c ORDER BY n";
  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  auto before = query::Execute(*snapshot, q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  MutateLive(&store, stations->front(), dataset.end());

  auto pinned_after = query::Execute(*snapshot, q);
  ASSERT_TRUE(pinned_after.ok());
  EXPECT_EQ(pinned_after->ToString(100), before->ToString(100));

  auto live_after = query::Execute(store, q);
  ASSERT_TRUE(live_after.ok());
  EXPECT_NE(live_after->ToString(100), before->ToString(100));
}

// The hypertable's Fork() is the snapshot primitive underneath Polyglot
// snapshots: forked reads (scan + native aggregates) stay at the forked
// state across Insert and Retain on the origin.
TEST(SnapshotIsolationTest, HypertableForkIsolation) {
  ts::HypertableOptions options;
  options.chunk_duration = 100;
  ts::HypertableStore store(options);
  const SeriesId id = store.Create("forked");
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * 10, std::sqrt(1.0 + i))
            .ok());
  }

  std::shared_ptr<const ts::HypertableStore> fork = store.Fork();
  auto base_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(base_scan.ok());
  auto base_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(base_sum.ok());
  auto base_windows = fork->WindowAggregate(id, Interval{0, 2500}, 500,
                                            AggKind::kAvg);
  ASSERT_TRUE(base_windows.ok());

  // Mutate the origin every way a series can change.
  for (int i = 250; i < 400; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * 10, 0.5).ok());
  }
  ASSERT_TRUE(store.Insert(id, 55, -1.0).ok());  // out-of-order unseal
  ASSERT_TRUE(store.Retain(id, Interval{1000, kMaxTimestamp}).ok());

  auto fork_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(fork_scan.ok());
  EXPECT_EQ(*fork_scan, *base_scan);
  auto fork_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(fork_sum.ok());
  EXPECT_EQ(*fork_sum, *base_sum);
  auto fork_windows = fork->WindowAggregate(id, Interval{0, 2500}, 500,
                                            AggKind::kAvg);
  ASSERT_TRUE(fork_windows.ok());
  EXPECT_EQ(fork_windows->samples(), base_windows->samples());

  // And the origin really changed.
  auto origin_scan = store.Scan(id, Interval{});
  ASSERT_TRUE(origin_scan.ok());
  EXPECT_NE(*origin_scan, *base_scan);
}

}  // namespace
}  // namespace hygraph
