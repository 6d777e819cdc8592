#include "storage/durable.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "storage/all_in_graph.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "workloads/bike_sharing.h"

namespace hygraph::storage {
namespace {

using BackendFactory = std::function<std::unique_ptr<query::QueryBackend>()>;

struct Arch {
  const char* name;
  BackendFactory make;
};

class RecoveryTest : public ::testing::TestWithParam<Arch> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_recovery_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/store";
    env_ = Env::Default();
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }

  std::unique_ptr<DurableStore> MakeStore(DurableOptions options = {}) {
    return std::make_unique<DurableStore>(env_, dir_, GetParam().make(),
                                          options);
  }

  // Canonical logical-state signature (topology + all series).
  static std::string Signature(const query::QueryBackend& backend) {
    auto text = BuildSnapshotText(backend);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.value_or("<error>");
  }

  // A small mixed workload: 3 vertices, 2 edges, static properties, and
  // samples on both a vertex and an edge.
  static void Ingest(DurableStore* store) {
    auto v0 = store->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    auto v1 = store->AddVertex({"Station"}, {{"city", Value("munich")}});
    ASSERT_TRUE(v1.ok());
    auto v2 = store->AddVertex({"Sensor"}, {});
    ASSERT_TRUE(v2.ok());
    auto e0 = store->AddEdge(*v0, *v1, "route", {{"km", Value(int64_t{584})}});
    ASSERT_TRUE(e0.ok()) << e0.status().ToString();
    auto e1 = store->AddEdge(*v2, *v0, "observes", {});
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(store->SetVertexProperty(*v1, "open", Value(true)).ok());
    ASSERT_TRUE(store->SetEdgeProperty(*e0, "toll", Value(2.5)).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          store->AppendSample(
              {query::EntityRef::Vertex(*v0), "temp", 100 + i, 20.0 + i}).ok());
      ASSERT_TRUE(
          store->AppendSample(
              {query::EntityRef::Edge(*e0), "load", 200 + i, 0.5 * i}).ok());
    }
  }

  std::string root_;
  std::string dir_;
  Env* env_ = nullptr;
};

TEST_P(RecoveryTest, ReopenAfterCleanRunRestoresEverything) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_FALSE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_replayed, 27u);
  EXPECT_EQ(store->recovery().wal_replay_failures, 0u);
  EXPECT_FALSE(store->recovery().wal_torn_tail);
}

TEST_P(RecoveryTest, EmptyDirectoryOpensEmpty) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->topology().VertexCount(), 0u);
  EXPECT_FALSE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_salvaged, 0u);
  EXPECT_EQ(store->next_seq(), 1u);
}

TEST_P(RecoveryTest, CheckpointPlusTailReplay) {
  std::string before;
  uint64_t seq_before = 0;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint tail that only the WAL covers.
    ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp", 500,
                                     99.0}).ok());
    ASSERT_TRUE(store->SetVertexProperty(1, "open", Value(false)).ok());
    before = Signature(*store->inner());
    seq_before = store->next_seq();
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  EXPECT_EQ(store->recovery().wal_records_skipped, 0u);
  // Sequence numbers keep increasing across restarts.
  EXPECT_EQ(store->next_seq(), seq_before);
}

TEST_P(RecoveryTest, RepeatedCheckpointsKeepOnlyNewestSnapshot) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp", 500,
                                   1.0}).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp", 501,
                                   2.0}).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  size_t snapshots = 0;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);
}

TEST_P(RecoveryTest, RemovalsAreDurableThroughWalReplay) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->RemoveEdge(1).ok());
    // Removing vertex 1 (of 0..2) leaves a sparse id space and also drops
    // its incident edge 0.
    ASSERT_TRUE(store->RemoveVertex(1).ok());
    EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(store->topology().VertexCount(), 2u);
    EXPECT_EQ(store->topology().EdgeCount(), 0u);
  }
  // …but the WAL alone still recovers the post-removal state.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->topology().VertexCount(), 2u);
  EXPECT_EQ(store->topology().EdgeCount(), 0u);
  EXPECT_FALSE(store->topology().HasVertex(1));
  EXPECT_TRUE(store->topology().HasVertex(2));
  EXPECT_FALSE(store->topology().HasEdge(0));
}

TEST_P(RecoveryTest, AutoCheckpointTriggersAndDefersAfterRemovals) {
  DurableOptions options;
  options.checkpoint_every = 5;
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  EXPECT_TRUE(store->background_error().ok())
      << store->background_error().ToString();
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  bool has_snapshot = false;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) has_snapshot = true;
  }
  EXPECT_TRUE(has_snapshot);
  // Removals make ids sparse; subsequent auto-checkpoints defer silently.
  ASSERT_TRUE(store->RemoveVertex(1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp",
                                     1000 + i, 1.0}).ok());
  }
  EXPECT_TRUE(store->background_error().ok());
}

TEST_P(RecoveryTest, TornWalTailIsSalvagedOnOpen) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
  }
  // Chop bytes off the WAL mid-record: the last record is lost, every
  // intact one survives.
  auto size = env_->GetFileSize(dir_ + "/wal.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(dir_ + "/wal.log", *size - 3).ok());
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().wal_torn_tail);
  EXPECT_GT(store->recovery().wal_bytes_dropped, 0u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 26u);
  // The salvaged state is the full state minus exactly the last mutation
  // (an edge sample): replaying it reproduces the original state.
  ASSERT_TRUE(store->AppendSample({query::EntityRef::Edge(0), "load", 209,
                                   0.5 * 9}).ok());
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(RecoveryTest, CorruptSnapshotIsRejectedNotParsed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Flip one bit in the installed snapshot.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  std::string snapshot;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) snapshot = dir_ + "/" + child;
  }
  ASSERT_FALSE(snapshot.empty());
  std::string text;
  ASSERT_TRUE(env_->ReadFileToString(snapshot, &text).ok());
  // Flip a bit inside a string value: the file still parses record by
  // record, so only the checksum can catch the rot.
  const size_t pos = text.find("berlin");
  ASSERT_NE(pos, std::string::npos);
  text[pos] ^= 0x04;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(snapshot, &file).ok());
    ASSERT_TRUE(file->Append(text).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto store = MakeStore();
  EXPECT_EQ(store->Open().code(), StatusCode::kCorruption);
}

TEST_P(RecoveryTest, SnapshotTextRoundTripsBackendState) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto restored = GetParam().make();
  ASSERT_TRUE(RestoreFromSnapshotText(*text, restored.get()).ok());
  EXPECT_EQ(Signature(*restored), *text);
  // Series round-trip specifically.
  auto range = restored->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                     Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->samples().size(), 10u);
  EXPECT_DOUBLE_EQ(range->samples()[3].value, 23.0);
}

TEST_P(RecoveryTest, RestoreRequiresChecksumTrailer) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_TRUE(text.ok());
  // Drop the trailer line entirely — a parseable but truncated snapshot.
  const size_t pos = text->rfind("CHECKSUM ");
  ASSERT_NE(pos, std::string::npos);
  std::string truncated = text->substr(0, pos);
  auto restored = GetParam().make();
  EXPECT_EQ(RestoreFromSnapshotText(truncated, restored.get()).code(),
            StatusCode::kCorruption);
}

// -- batched sample appends (one "CB" WAL record per AppendSamples call) ----

std::vector<query::SampleWrite> Batch(
    std::initializer_list<query::SampleWrite> samples) {
  return std::vector<query::SampleWrite>(samples);
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t CounterOf(const DurableStore& store, const std::string& name) {
  const auto snap = store.metrics()->Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST_P(RecoveryTest, MixedBatchSurvivesReopenBitIdentically) {
  using query::EntityRef;
  const double values[] = {-0.0,
                           0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min() * 3,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           23.4,
                           1.0 / 3.0,
                           std::numeric_limits<double>::max(),
                           -1e-300};
  constexpr size_t kValues = sizeof(values) / sizeof(values[0]);
  // Interleaved vertex/edge runs over several keys, so the record holds
  // more runs than series.
  std::vector<query::SampleWrite> batch;
  for (size_t i = 0; i < kValues; ++i) {
    const Timestamp t = 1000 + static_cast<Timestamp>(i);
    batch.push_back({{EntityRef::kVertex, 0}, "temp", t, values[i]});
    batch.push_back({{EntityRef::kEdge, 0}, "load", t, values[i]});
    batch.push_back({{EntityRef::kVertex, 1}, "odd key", t, values[i]});
  }

  const auto check = [&](const DurableStore& store) {
    auto temp = store.SeriesRange(query::EntityRef::Vertex(0), "temp",
                                  Interval::All());
    auto load = store.SeriesRange(query::EntityRef::Edge(0), "load",
                                  Interval::All());
    auto odd = store.SeriesRange(query::EntityRef::Vertex(1), "odd key",
                                 Interval::All());
    ASSERT_TRUE(temp.ok() && load.ok() && odd.ok());
    ASSERT_EQ(temp->size(), kValues);
    ASSERT_EQ(load->size(), kValues);
    ASSERT_EQ(odd->size(), kValues);
    for (size_t i = 0; i < kValues; ++i) {
      EXPECT_EQ(Bits(temp->samples()[i].value), Bits(values[i])) << i;
      EXPECT_EQ(Bits(load->samples()[i].value), Bits(values[i])) << i;
      EXPECT_EQ(Bits(odd->samples()[i].value), Bits(values[i])) << i;
    }
  };

  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    auto v0 = store->AddVertex({"Station"}, {});
    auto v1 = store->AddVertex({"Station"}, {});
    ASSERT_TRUE(v0.ok() && v1.ok());
    ASSERT_TRUE(store->AddEdge(*v0, *v1, "route", {}).ok());
    const uint64_t records = CounterOf(*store, "durable.records_logged");
    ASSERT_TRUE(store->AppendSamples(batch).ok());
    EXPECT_EQ(CounterOf(*store, "durable.records_logged"), records + 1);
    EXPECT_EQ(CounterOf(*store, "durable.samples_logged"), batch.size());
    check(*store);
    before = Signature(*store->inner());
  }
  {
    auto store = MakeStore();  // WAL replay
    ASSERT_TRUE(store->Open().ok());
    EXPECT_EQ(store->recovery().wal_records_replayed, 4u);
    check(*store);
    EXPECT_EQ(Signature(*store->inner()), before);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = MakeStore();  // snapshot load
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  check(*store);
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(RecoveryTest, BatchStopsAtUnknownIdAndReplaysTheSamePrefix) {
  using query::EntityRef;
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    ASSERT_TRUE(store->AddVertex({"Station"}, {}).ok());
    const Status s = store->AppendSamples(
        Batch({{{EntityRef::kVertex, 0}, "temp", 1, 1.0},
               {{EntityRef::kVertex, 0}, "temp", 2, 2.0},
               {{EntityRef::kVertex, 99}, "temp", 3, 3.0},
               {{EntityRef::kVertex, 0}, "temp", 4, 4.0}}));
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
    auto series = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                     Interval::All());
    ASSERT_TRUE(series.ok());
    ASSERT_EQ(series->size(), 2u);
    EXPECT_EQ(series->samples()[1].t, 2);
    before = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().wal_replay_failures, 1u);
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(RecoveryTest, TornFinalBatchIsDroppedWhole) {
  using query::EntityRef;
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    ASSERT_TRUE(store->AddVertex({"Station"}, {}).ok());
    ASSERT_TRUE(
        store
            ->AppendSamples(Batch({{{EntityRef::kVertex, 0}, "temp", 1, 1.0},
                                   {{EntityRef::kVertex, 0}, "temp", 2, 2.0}}))
            .ok());
    before = Signature(*store->inner());
    ASSERT_TRUE(
        store
            ->AppendSamples(Batch({{{EntityRef::kVertex, 0}, "temp", 3, 3.0},
                                   {{EntityRef::kVertex, 0}, "hum", 3, 0.5},
                                   {{EntityRef::kVertex, 0}, "temp", 4, 4.0}}))
            .ok());
  }
  // Chop into the middle of the final record: the whole batch goes, never
  // a prefix of it.
  auto size = env_->GetFileSize(dir_ + "/wal.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(dir_ + "/wal.log", *size - 12).ok());
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().wal_torn_tail);
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  EXPECT_TRUE(store->SeriesKeys(query::EntityRef::Vertex(0)) ==
              std::vector<std::string>{"temp"});
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(RecoveryTest, BatchCrossingCheckpointEveryCheckpointsOnce) {
  using query::EntityRef;
  DurableOptions options;
  options.checkpoint_every = 10;  // samples, not records
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  ASSERT_TRUE(store->AddVertex({"Station"}, {}).ok());
  const auto batch_of = [](size_t n, Timestamp first) {
    std::vector<query::SampleWrite> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back({{EntityRef::kVertex, 0}, "temp",
                       first + static_cast<Timestamp>(i), 1.0});
    }
    return batch;
  };
  ASSERT_TRUE(store->AppendSamples(batch_of(4, 0)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 0u);
  // 1 + 4 + 25 crosses 10 (and 20, and 30) once: one checkpoint.
  ASSERT_TRUE(store->AppendSamples(batch_of(25, 100)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 1u);
  EXPECT_TRUE(store->background_error().ok());
  // 30 is a whole multiple, so the cadence restarts from zero...
  ASSERT_TRUE(store->AppendSamples(batch_of(9, 200)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 1u);
  ASSERT_TRUE(store->AppendSamples(batch_of(1, 300)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 2u);
  // ...while a batch overshooting a multiple keeps its remainder (3), so
  // the next checkpoint still falls at the next multiple of 10.
  ASSERT_TRUE(store->AppendSamples(batch_of(13, 400)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 3u);
  ASSERT_TRUE(store->AppendSamples(batch_of(6, 500)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 3u);
  ASSERT_TRUE(store->AppendSamples(batch_of(1, 600)).ok());
  EXPECT_EQ(CounterOf(*store, "durable.checkpoints"), 4u);
}

TEST_P(RecoveryTest, PerSampleRecordsFromEarlierBuildsStillReplay) {
  // Logs written before sample batching hold one "AV"/"AE" record per
  // sample, with doubles in 17-significant-digit form.
  ASSERT_TRUE(env_->CreateDirIfMissing(dir_).ok());
  {
    auto wal = WalWriter::Create(env_, dir_ + "/wal.log");
    ASSERT_TRUE(wal.ok());
    for (const char* record :
         {"1 NV 0 L 0 P 0", "2 NV 1 L 0 P 0", "3 NE 0 0 1 route P 0",
          "4 AV 0 temp 100 23.399999999999999", "5 AE 0 load 100 0.5"}) {
      ASSERT_TRUE((*wal)->Append(record, /*sync=*/true).ok());
    }
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().wal_records_replayed, 5u);
  auto temp = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                 Interval::All());
  auto load = store->SeriesRange(query::EntityRef::Edge(0), "load",
                                 Interval::All());
  ASSERT_TRUE(temp.ok() && load.ok());
  ASSERT_EQ(temp->size(), 1u);
  EXPECT_EQ(temp->samples()[0].value, 23.4);
  ASSERT_EQ(load->size(), 1u);
  EXPECT_EQ(load->samples()[0].value, 0.5);
}

TEST_P(RecoveryTest, TextDirectoryFromEarlierBuildsOpensIdentically) {
  // Earlier builds installed BuildSnapshotText output ("HYGRAPH 1" text)
  // as the snapshot and logged samples as text "AB"/"AV"/"AE" records.
  auto reference = GetParam().make();
  graph::PropertyGraph* topo = reference->mutable_topology();
  topo->AddVertex({"Station"}, {{"city", Value("berlin")}});
  topo->AddVertex({"Station"}, {{"city", Value("munich")}});
  ASSERT_TRUE(topo->AddEdge(0, 1, "route", {{"km", Value(int64_t{584})}}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reference
                    ->AppendSample({query::EntityRef::Vertex(0), "temp",
                                    100 + i, 20.0 + i})
                    .ok());
  }
  ASSERT_TRUE(
      reference->AppendSample({query::EntityRef::Edge(0), "load", 200, 0.5})
          .ok());
  auto snapshot = BuildSnapshotText(*reference);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->rfind("HYGRAPH 1\n", 0), 0u);
  ASSERT_TRUE(env_->CreateDirIfMissing(dir_).ok());
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(dir_ + "/snapshot-3.hyg", &file).ok());
    ASSERT_TRUE(file->Append(*snapshot).ok());
    ASSERT_TRUE(file->Close().ok());
    auto wal = WalWriter::Create(env_, dir_ + "/wal.log");
    ASSERT_TRUE(wal.ok());
    for (const char* record :
         {"3 AV 0 temp 104 24",
          "4 AB 2 V 0 temp 2 300 1.5 301 -0.25 E 0 load 1 300 0.75",
          "5 AV 1 temp 400 7", "6 AE 0 load 301 1e-300"}) {
      ASSERT_TRUE((*wal)->Append(record, /*sync=*/true).ok());
    }
  }
  // What those records did, applied to the reference directly.
  using query::EntityRef;
  ASSERT_TRUE(reference
                  ->AppendSamples(std::vector<query::SampleWrite>{
                      {EntityRef::Vertex(0), "temp", 300, 1.5},
                      {EntityRef::Vertex(0), "temp", 301, -0.25},
                      {EntityRef::Edge(0), "load", 300, 0.75},
                      {EntityRef::Vertex(1), "temp", 400, 7.0},
                      {EntityRef::Edge(0), "load", 301, 1e-300}})
                  .ok());
  const std::string expected = Signature(*reference);
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    EXPECT_TRUE(store->recovery().snapshot_loaded);
    EXPECT_EQ(store->recovery().wal_records_skipped, 1u);
    EXPECT_EQ(store->recovery().wal_records_replayed, 3u);
    EXPECT_EQ(store->recovery().wal_replay_failures, 0u);
    EXPECT_EQ(Signature(*store->inner()), expected);
    // The next checkpoint rewrites the directory in the current layout: a
    // snapshot image where series live beside the graph, text where they
    // are embedded in it.
    ASSERT_TRUE(store->Checkpoint().ok());
    std::string installed;
    ASSERT_TRUE(
        env_->ReadFileToString(dir_ + "/snapshot-6.hyg", &installed).ok());
    EXPECT_EQ(installed.rfind("HYGRAPH SNAPSHOT 2\n", 0) == 0,
              !store->SeriesEmbeddedInTopology());
    EXPECT_EQ(installed.rfind("HYGRAPH 1\n", 0) == 0,
              store->SeriesEmbeddedInTopology());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  EXPECT_EQ(Signature(*store->inner()), expected);
}

TEST_P(RecoveryTest, CheckpointRecordsSnapshotBytes) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  uint64_t size = 0;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) != 0) continue;
    auto bytes = env_->GetFileSize(dir_ + "/" + child);
    ASSERT_TRUE(bytes.ok());
    size = *bytes;
  }
  const auto snap = store->metrics()->Snapshot();
  const auto it = snap.histograms.find("durable.snapshot_bytes");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_EQ(it->second.sum, size);
}

// A tiered checkpoint records the size of the cold catalog it wrote
// beside the snapshot's; a store with no hypertable writes no catalog.
TEST_P(RecoveryTest, CheckpointRecordsCatalogBytes) {
  DurableOptions options;
  options.tiering.enabled = true;
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  std::vector<std::string> children;
  uint64_t size = 0;
  size_t catalogs = 0;
  if (env_->GetChildren(dir_ + "/cold", &children).ok()) {
    for (const std::string& child : children) {
      if (child.rfind("catalog-", 0) != 0) continue;
      auto bytes = env_->GetFileSize(dir_ + "/cold/" + child);
      ASSERT_TRUE(bytes.ok());
      size = *bytes;
      ++catalogs;
    }
  }
  const bool tiered = store->inner()->series_hypertable() != nullptr;
  ASSERT_EQ(catalogs, tiered ? 1u : 0u);
  const auto snap = store->metrics()->Snapshot();
  const auto it = snap.histograms.find("durable.catalog_bytes");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, tiered ? 1u : 0u);
  EXPECT_EQ(it->second.sum, size);
  if (tiered) {
    EXPECT_GT(size, 0u);
  }
}

TEST_P(RecoveryTest, MutationsBeforeOpenAreRejected) {
  auto store = MakeStore();
  EXPECT_EQ(store->AddVertex({}, {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      store->AppendSample({query::EntityRef::Vertex(0), "k", 1, 1.0}).code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST(DurableSnapshotImageTest, BitFlipInHotTailFrameFailsOpen) {
  char tmpl[] = "/tmp/hygraph_snapshot_image_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  const std::string dir = root + "/store";
  Env* env = Env::Default();
  const auto make = [&] {
    return std::make_unique<DurableStore>(env, dir,
                                          std::make_unique<PolyglotStore>());
  };
  {
    auto store = make();
    ASSERT_TRUE(store->Open().ok());
    ASSERT_TRUE(store->AddVertex({"Station"}, {}).ok());
    std::vector<query::SampleWrite> batch;
    for (int i = 0; i < 24; ++i) {
      batch.push_back({query::EntityRef::Vertex(0), "bikes", 300'000 * i,
                       static_cast<double>(i % 7) + 0.5});
    }
    ASSERT_TRUE(store->AppendSamples(batch).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir, &children).ok());
  std::string path;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) path = dir + "/" + child;
  }
  ASSERT_FALSE(path.empty());
  std::string bytes;
  ASSERT_TRUE(env->ReadFileToString(path, &bytes).ok());
  ASSERT_EQ(bytes.rfind("HYGRAPH SNAPSHOT 2\n", 0), 0u);
  // The run's key, then its frame-length varint, then the frame; flip a
  // bit in the middle of the value column.
  const size_t key = bytes.find("bikes");
  ASSERT_NE(key, std::string::npos);
  const size_t frame_len = static_cast<uint8_t>(bytes[key + 5]);
  ASSERT_LT(frame_len, 0x80u);
  ASSERT_LE(key + 6 + frame_len + 4, bytes.size());
  bytes[key + 6 + frame_len / 2] ^= 0x08;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    ASSERT_TRUE(file->Append(bytes).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto store = make();
  EXPECT_EQ(store->Open().code(), StatusCode::kCorruption);
  std::system(("rm -rf " + root).c_str());
}

// Runs `read` against the durable store and against the store it wraps and
// expects the same answer for the same storage work. The inner store is
// read once first, so both measured calls find the same warm caches.
template <typename Read>
query::BackendWork ExpectForwarded(const DurableStore& durable,
                                   const char* what, Read read) {
  const query::QueryBackend& inner = *durable.inner();
  (void)read(inner);
  const query::BackendWork durable_before = durable.Work();
  const auto via_durable = read(durable);
  const query::BackendWork via_durable_work =
      durable.Work().Delta(durable_before);
  const query::BackendWork inner_before = inner.Work();
  const auto via_inner = read(inner);
  const query::BackendWork via_inner_work = inner.Work().Delta(inner_before);
  EXPECT_EQ(via_durable, via_inner) << what;
  EXPECT_EQ(via_durable_work.chunks_zonemap_skipped,
            via_inner_work.chunks_zonemap_skipped)
      << what;
  EXPECT_EQ(via_durable_work.chunks_cache_hits,
            via_inner_work.chunks_cache_hits)
      << what;
  EXPECT_EQ(via_durable_work.series_points_scanned,
            via_inner_work.series_points_scanned)
      << what;
  return via_inner_work;
}

// A read DurableStore does not forward falls back to QueryBackend's generic
// default (materialize, then fold or count) and skips the hypertable's
// batch, cache and zone-map paths; the work counters expose that even where
// the answer happens to match.
TEST(DurableForwardingTest, EveryFoldedReadTakesTheInnerStorePath) {
  char tmpl[] = "/tmp/hygraph_forwarding_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  {
    DurableOptions options;
    options.sync_wal = false;
    DurableStore store(Env::Default(), root + "/store",
                       std::make_unique<PolyglotStore>(), options);
    ASSERT_TRUE(store.Open().ok());
    workloads::BikeSharingConfig config;
    config.stations = 6;
    config.days = 4;
    config.trips_per_station = 2;
    auto dataset = workloads::GenerateBikeSharing(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    auto stations = workloads::LoadIntoBackend(*dataset, &store);
    ASSERT_TRUE(stations.ok()) << stations.status().ToString();

    using query::EntityRef;
    const EntityRef station = EntityRef::Vertex(stations->front());
    const EntityRef trip = EntityRef::Edge(0);
    const Interval span{dataset->start(), dataset->end()};
    using Backend = query::QueryBackend;
    ExpectForwarded(store, "SeriesRange(vertex)", [&](const Backend& b) {
      return b.SeriesRange(station, "bikes", span).value_or(ts::Series());
    });
    ExpectForwarded(store, "SeriesRange(edge)", [&](const Backend& b) {
      return b.SeriesRange(trip, "trips", span).value_or(ts::Series());
    });
    ExpectForwarded(store, "SeriesAggregate", [&](const Backend& b) {
      return b.SeriesAggregate(station, "bikes", span, ts::AggKind::kAvg)
          .value_or(-1.0);
    });
    ExpectForwarded(store, "SeriesAggregateBatch", [&](const Backend& b) {
      std::vector<double> out;
      for (const auto& r : b.SeriesAggregateBatch(
               EntityRef::kVertex, *stations, "bikes", span,
               ts::AggKind::kMax)) {
        out.push_back(r.value_or(-1.0));
      }
      return out;
    });
    ExpectForwarded(store, "SeriesWindowAggregate", [&](const Backend& b) {
      return b.SeriesWindowAggregate(station, "bikes", span, kDay,
                                     ts::AggKind::kAvg)
          .value_or(ts::Series());
    });
    // No station ever reports a negative bike count, so every sealed chunk
    // is ruled out by its zone map without a decode.
    const query::BackendWork count_work = ExpectForwarded(
        store, "SeriesCountInRange", [&](const Backend& b) {
          return b.SeriesCountInRange(station, "bikes", span, -1000.0, -1.0)
              .value_or(size_t{999});
        });
    EXPECT_GT(count_work.chunks_zonemap_skipped, 0u);
    ExpectForwarded(store, "SeriesKeys", [&](const Backend& b) {
      return b.SeriesKeys(station);
    });
  }
  std::system(("rm -rf " + root).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, RecoveryTest,
    ::testing::Values(
        Arch{"all_in_graph",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<AllInGraphStore>());
             }},
        Arch{"polyglot",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<PolyglotStore>());
             }}),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hygraph::storage
