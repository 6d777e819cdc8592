#include "storage/durable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/serialize.h"
#include "storage/all_in_graph.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "storage/polyglot.h"
#include "storage/wal.h"
#include "ts/hypertable.h"

namespace hygraph::storage {
namespace {

using BackendFactory = std::function<std::unique_ptr<query::QueryBackend>()>;

struct Arch {
  const char* name;
  BackendFactory make;
};

// Narrow chunks so a short ingest produces many sealed chunks for the
// tier to swallow: 4 samples per chunk at the stride used by Ingest().
ts::HypertableOptions NarrowChunks() {
  ts::HypertableOptions o;
  o.chunk_duration = 16;
  return o;
}

/// Crash-matrix and recovery tests for the cold tier (DESIGN.md §15).
/// Every store runs on a FaultInjectionEnv so individual tests can crash
/// the "machine" at arbitrary mutating-operation boundaries and model
/// what a real filesystem presents after power loss.
class TieringRecoveryTest : public ::testing::TestWithParam<Arch> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_tiering_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/store";
    env_ = std::make_unique<FaultInjectionEnv>(Env::Default());
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }

  static DurableOptions Tiered(size_t cache_budget = 1u << 20) {
    DurableOptions options;
    options.tiering.enabled = true;
    options.tiering.cache_budget_bytes = cache_budget;
    return options;
  }

  std::unique_ptr<DurableStore> MakeStore(DurableOptions options = Tiered()) {
    return std::make_unique<DurableStore>(env_.get(), dir_, GetParam().make(),
                                          options);
  }

  // Canonical logical-state signature (topology + all series). On a tiered
  // store this pins every cold chunk's bytes, so signature equality means
  // the recovered samples are bit-identical, cold data included.
  static std::string Signature(const query::QueryBackend& backend) {
    auto text = BuildSnapshotText(backend);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.value_or("<error>");
  }

  // Mixed workload whose series span many chunks: 48 samples at stride 4
  // against chunk_duration 16 is 12 chunks per series, 11 of them sealed
  // (and spillable) the moment the newest chunk opens.
  static void Ingest(DurableStore* store) {
    auto v0 = store->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    auto v1 = store->AddVertex({"Station"}, {{"city", Value("munich")}});
    ASSERT_TRUE(v1.ok());
    auto e0 = store->AddEdge(*v0, *v1, "route", {{"km", Value(int64_t{584})}});
    ASSERT_TRUE(e0.ok()) << e0.status().ToString();
    ASSERT_TRUE(store->SetVertexProperty(*v1, "open", Value(true)).ok());
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(
          store->AppendSample({query::EntityRef::Vertex(*v0), "temp", i * 4,
                               20.0 + 0.25 * i}).ok());
      ASSERT_TRUE(
          store->AppendSample(
              {query::EntityRef::Edge(*e0), "load", i * 4, 0.5 * i}).ok());
    }
  }
  // The trip-edge shape in miniature: many small series, each with two
  // sealed chunks (12 samples at stride 4 against chunk_duration 16), so
  // one checkpoint spills kManySeries x 2 chunks from kManySeries series.
  static constexpr int kManySeries = 60;
  static void IngestManySeries(DurableStore* store) {
    for (int v = 0; v < kManySeries; ++v) {
      ASSERT_TRUE(store->AddVertex({"Dock"}, {}).ok());
    }
    AppendManySeries(store, /*t0=*/0);
  }
  // Appends the same 12-sample run to every series, shifted by `t0`.
  static void AppendManySeries(DurableStore* store, Timestamp t0) {
    for (int v = 0; v < kManySeries; ++v) {
      std::vector<query::SampleWrite> batch;
      for (int i = 0; i < 12; ++i) {
        batch.push_back({query::EntityRef::Vertex(static_cast<uint64_t>(v)),
                         "bikes", t0 + i * 4, v + 0.125 * i});
      }
      ASSERT_TRUE(store->AppendSamples(batch).ok());
    }
  }
  static uint64_t Counter(const DurableStore& store, const std::string& name) {
    const auto snap = store.metrics()->Snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
  // Models power loss after the store acknowledged everything: un-synced
  // bytes vanish (fsync barriers honored), then the process restarts.
  void PowerLoss(std::unique_ptr<DurableStore>* store) {
    env_->Crash();
    store->reset();
    ASSERT_TRUE(
        env_->DropUnsyncedData(FaultInjectionEnv::UnsyncedLoss::kDropAll)
            .ok());
    env_->Revive();
  }

  // All eight aggregate kinds over the full axis for v0."temp" — the
  // bit-identical cold-vs-resident comparison vector.
  static std::vector<double> AggVector(const DurableStore& store) {
    std::vector<double> out;
    for (int k = 0; k <= static_cast<int>(ts::AggKind::kLast); ++k) {
      auto r = store.SeriesAggregate(query::EntityRef::Vertex(0), "temp",
                                     Interval::All(),
                                     static_cast<ts::AggKind>(k));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.value_or(-1.0));
    }
    return out;
  }

  // The embedded hypertable, or null for architectures without one
  // (all-in-graph), where tiering is documented to no-op.
  static ts::HypertableStore* Hypertable(DurableStore* store) {
    return store->inner()->series_hypertable();
  }

  std::vector<std::string> ColdFiles(const std::string& substr) {
    std::vector<std::string> children;
    if (!env_->GetChildren(dir_ + "/cold", &children).ok()) return {};
    std::vector<std::string> out;
    for (const auto& name : children) {
      if (name.find(substr) != std::string::npos) out.push_back(name);
    }
    return out;
  }

  std::string root_;
  std::string dir_;
  std::unique_ptr<FaultInjectionEnv> env_;
};

// -- spill mechanics ---------------------------------------------------------

TEST_P(TieringRecoveryTest, CheckpointSpillsSealedChunksCold) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  const std::string before = Signature(*store->inner());
  const auto aggs = AggVector(*store);
  ASSERT_TRUE(store->Checkpoint().ok());

  if (ts::HypertableStore* ht = Hypertable(store.get())) {
    ASSERT_NE(store->cold_tier(), nullptr);
    const auto stats = ht->stats();
    EXPECT_GE(stats.cold_chunks_spilled, 22u);  // 11 sealed chunks x 2 series
    EXPECT_GT(stats.cold_bytes_spilled, 0u);
    const auto mem = ht->MemoryUsage();
    EXPECT_EQ(mem.sealed_samples, 0u);  // every sealed chunk went cold
    EXPECT_GT(mem.cold_samples, 0u);
    EXPECT_GT(mem.hot_samples, 0u);  // the newest chunk stays hot
  } else {
    EXPECT_EQ(store->cold_tier(), nullptr);  // tiering no-ops gracefully
  }

  // Spilling is physically invasive but logically invisible: scans and
  // aggregates read back bit-identical through the tier.
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
}

TEST_P(TieringRecoveryTest, ReopenAdoptsColdChunksWithoutReplayingThem) {
  std::string before;
  std::vector<double> aggs;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    before = Signature(*store->inner());
    aggs = AggVector(*store);
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  // Recovery is O(hot data): the WAL was truncated at the checkpoint, so
  // nothing replays — cold chunks re-attach as catalog metadata only.
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  if (Hypertable(store.get()) != nullptr) {
    EXPECT_GE(store->recovery().cold_chunks_adopted, 22u);
    EXPECT_EQ(Hypertable(store.get())->stats().cold_chunks_adopted,
              store->recovery().cold_chunks_adopted);
  } else {
    EXPECT_EQ(store->recovery().cold_chunks_adopted, 0u);
  }
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
}

TEST_P(TieringRecoveryTest, WalTailReplaysOntoAdoptedChunks) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint tail: an in-order append plus an out-of-order write
    // that lands inside a chunk the checkpoint just spilled cold — replay
    // must pin + unseal the adopted chunk to merge it.
    ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp",
                                     48 * 4, 99.0}).ok());
    ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp", 2,
                                     -7.5}).ok());
    before = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  if (Hypertable(store.get()) != nullptr) {
    EXPECT_GT(store->recovery().cold_chunks_adopted, 0u);
    // The out-of-order replay unsealed exactly one adopted chunk.
    EXPECT_GE(Hypertable(store.get())->stats().chunks_unsealed, 1u);
  }
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(TieringRecoveryTest, RepeatedCheckpointsKeepOneCatalog) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  const std::string before = Signature(*store->inner());
  // A checkpoint with nothing new to spill is a cheap no-op re-snapshot.
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp", 48 * 4,
                                   99.0}).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  if (Hypertable(store.get()) != nullptr) {
    // Catalog GC keeps exactly the one paired with the live snapshot.
    EXPECT_EQ(ColdFiles(".cold").size(), 1u);
    EXPECT_EQ(ColdFiles(".tmp").size(), 0u);
  }
  auto reopened = MakeStore();
  ASSERT_TRUE(reopened->Open().ok());
  auto range = reopened->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                     Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->samples().size(), 49u);
  // The pre-tail signature is a strict prefix of the recovered state's
  // sample set; re-derive the full signature for the equality check.
  EXPECT_NE(Signature(*reopened->inner()), before);
}

// -- cache behavior ----------------------------------------------------------

TEST_P(TieringRecoveryTest, TinyCacheBudgetThrashesButStaysBitIdentical) {
  std::string before;
  std::vector<double> aggs;
  {
    auto store = MakeStore(Tiered(/*cache_budget=*/1));
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
    aggs = AggVector(*store);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = MakeStore(Tiered(/*cache_budget=*/1));
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
  if (Hypertable(store.get()) != nullptr) {
    const auto cache = store->cold_tier()->cache_stats();
    // A 1-byte budget can never hold a chunk: every pin is a miss and the
    // inserted entry is evicted immediately.
    EXPECT_GT(cache.misses, 0u);
    EXPECT_GT(cache.evictions, 0u);
    EXPECT_EQ(cache.cached_bytes, 0u);
  }
}

TEST_P(TieringRecoveryTest, WarmCacheServesRepeatScansFromRam) {
  {
    auto store = MakeStore(Tiered(/*cache_budget=*/64u << 20));
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Reopen so the tier's cache starts empty — in the writing process the
  // write-through Put path leaves every spilled chunk already resident.
  auto store = MakeStore(Tiered(/*cache_budget=*/64u << 20));
  ASSERT_TRUE(store->Open().ok());
  if (Hypertable(store.get()) == nullptr) return;  // no tier to exercise
  // Range scans (unlike whole-chunk aggregates, which are answered from
  // cached AggStates without touching the tier) pin every cold chunk.
  auto first = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                  Interval::All());
  ASSERT_TRUE(first.ok());
  const auto after_first = store->cold_tier()->cache_stats();
  EXPECT_GT(after_first.misses, 0u);
  auto second = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                   Interval::All());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->samples().size(), first->samples().size());
  const auto after_second = store->cold_tier()->cache_stats();
  // The second sweep re-pins the same chunks; with an ample budget they
  // are all resident, so misses stay flat while hits advance.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
}

// -- crash matrix ------------------------------------------------------------

// Crashes a tiered checkpoint after every single mutating filesystem
// operation in its protocol (segment appends, syncs, catalog write,
// renames, WAL rotation, GC removes), models power loss, recovers, and
// requires the recovered state to be bit-identical to the acknowledged
// state. Runs the whole sweep twice: once with fsync barriers honored
// (kDropAll) and once with deterministic torn tails (kKeepPrefix).
TEST_P(TieringRecoveryTest, CrashMatrixAcrossCheckpoint) {
  for (const auto loss : {FaultInjectionEnv::UnsyncedLoss::kDropAll,
                          FaultInjectionEnv::UnsyncedLoss::kKeepPrefix}) {
    SCOPED_TRACE(loss == FaultInjectionEnv::UnsyncedLoss::kDropAll
                     ? "drop_all"
                     : "keep_prefix");
    dir_ = root_ + (loss == FaultInjectionEnv::UnsyncedLoss::kDropAll
                        ? "/drop_all"
                        : "/keep_prefix");
    std::string acked;
    {
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok());
      Ingest(store.get());
      acked = Signature(*store->inner());
    }
    bool completed = false;
    for (uint64_t k = 0; k < 500 && !completed; ++k) {
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok()) << "crash point " << k;
      ASSERT_EQ(Signature(*store->inner()), acked) << "crash point " << k;
      env_->SetCrashAfter(k);
      const Status s = store->Checkpoint();
      if (env_->crashed()) {
        // The "machine" died mid-checkpoint. Tear the process down, roll
        // un-synced bytes back, restart — the outer loop re-verifies.
        store.reset();
        ASSERT_TRUE(env_->DropUnsyncedData(loss).ok());
        env_->Revive();
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        // Disarm the leftover crash budget — the sweep is done, and an
        // armed env would fire mid-verify (or in the next loss mode).
        env_->Revive();
        completed = true;
      }
    }
    ASSERT_TRUE(completed) << "checkpoint never outran the crash point";
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    EXPECT_EQ(Signature(*store->inner()), acked);
    EXPECT_TRUE(store->recovery().snapshot_loaded);
    if (Hypertable(store.get()) != nullptr) {
      EXPECT_GT(store->recovery().cold_chunks_adopted, 0u);
    }
  }
}

TEST_P(TieringRecoveryTest, CrashMidIngestRecoversAcknowledgedPrefix) {
  std::vector<std::pair<Timestamp, double>> oracle;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    auto v0 = store->AddVertex({"Station"}, {});
    ASSERT_TRUE(v0.ok());
    // Crash somewhere in the middle of the append stream; with sync_wal on,
    // every OK append is a durability promise the recovery must keep.
    env_->SetCrashAfter(37);
    for (int i = 0; i < 64; ++i) {
      const Status s = store->AppendSample(
          {query::EntityRef::Vertex(*v0), "temp", i * 4, 1.5 * i});
      if (!s.ok()) break;
      oracle.emplace_back(i * 4, 1.5 * i);
    }
    ASSERT_TRUE(env_->crashed());  // 64 appends comfortably pass op 37
    ASSERT_FALSE(oracle.empty());
  }
  // kDropAll honors the fsync barrier exactly, so the recovered state is
  // precisely the acknowledged prefix — a record whose WAL append landed
  // but whose fsync did not was never acknowledged and must vanish.
  ASSERT_TRUE(
      env_->DropUnsyncedData(FaultInjectionEnv::UnsyncedLoss::kDropAll)
          .ok());
  env_->Revive();
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto range = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                  Interval::All());
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->samples().size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(range->samples()[i].t, oracle[i].first);
    EXPECT_EQ(range->samples()[i].value, oracle[i].second);
  }
}

// -- deliberate media corruption ---------------------------------------------

TEST_P(TieringRecoveryTest, BitFlippedSegmentIsDetectedNotServed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;  // no segments exist
  }
  const auto segments = ColdFiles(".seg");
  ASSERT_FALSE(segments.empty());
  const std::string path = dir_ + "/cold/" + segments.front();
  std::string bytes;
  ASSERT_TRUE(env_->ReadFileToString(path, &bytes).ok());
  ASSERT_FALSE(bytes.empty());
  bytes.back() ^= 0x40;  // flip one payload bit in the last record
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env_->NewWritableFile(path, &f).ok());
    ASSERT_TRUE(f->Append(bytes).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  // Adoption is metadata-only, so the store opens fine; the first scan
  // that pins the poisoned chunk must surface kCorruption, never data.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kCorruption)
      << text.status().ToString();
}

TEST_P(TieringRecoveryTest, TruncatedSegmentTailIsDetectedNotServed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;
  }
  const auto segments = ColdFiles(".seg");
  ASSERT_FALSE(segments.empty());
  const std::string path = dir_ + "/cold/" + segments.front();
  auto size = env_->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(path, *size - 3).ok());
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_FALSE(text.ok());
  EXPECT_TRUE(text.status().code() == StatusCode::kCorruption ||
              text.status().code() == StatusCode::kOutOfRange)
      << text.status().ToString();
}

TEST_P(TieringRecoveryTest, MissingCatalogOpensAsPreTieringCheckpoint) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;
  }
  for (const auto& name : ColdFiles(".cold")) {
    ASSERT_TRUE(env_->RemoveFile(dir_ + "/cold/" + name).ok());
  }
  // A snapshot with no catalog is indistinguishable from one written
  // before tiering existed: the store opens with an empty cold tier
  // instead of refusing service.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().cold_chunks_adopted, 0u);
  auto range = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                  Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_GT(range->samples().size(), 0u);  // the hot tail is still there
}

// -- segment I/O faults -------------------------------------------------------

// One segment file per epoch means one fsync covers every series a
// checkpoint spilled — and so does one failed fsync. Under fsyncgate the
// kernel drops the dirty pages and a second fsync of the same handle
// reports OK, so the retry must rewrite the records into a fresh file
// rather than re-sync. Run with an ample cache (rewrite from RAM) and a
// 1-byte one (rewrite re-reads the retired file and checks each CRC).
TEST_P(TieringRecoveryTest, FsyncgateOnSegmentSyncLosesNoAcknowledgedSample) {
  for (const size_t budget : {size_t{1} << 20, size_t{1}}) {
    SCOPED_TRACE("cache budget " + std::to_string(budget));
    dir_ = root_ + "/fsyncgate-" + std::to_string(budget);
    DurableOptions options = Tiered(budget);
    options.retry_sleep = [](Duration) {};
    auto store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    IngestManySeries(store.get());
    const std::string acked = Signature(*store->inner());
    if (Hypertable(store.get()) == nullptr) return;
    // The checkpoint's first Sync is the segment fsync (the WAL synced
    // every batch already).
    const uint64_t faults_before = env_->transient_faults();
    env_->SetFsyncgateAfter(0);
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(env_->transient_faults(), faults_before + 1);
    EXPECT_EQ(Counter(*store, "coldtier.segment_files_created"), 2u);
    EXPECT_EQ(Counter(*store, "coldtier.records_rewritten"),
              2u * kManySeries);
    EXPECT_EQ(Signature(*store->inner()), acked);

    PowerLoss(&store);
    store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    // The WAL rotated at the checkpoint, so the spilled samples can only
    // come back from the segment files the catalog names.
    EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
    EXPECT_EQ(store->recovery().cold_chunks_adopted, 2u * kManySeries);
    EXPECT_EQ(Signature(*store->inner()), acked);
  }
}

// A failed append leaves a torn frame at the end of the active file; every
// later frame appended there would sit at the wrong offset. The file is
// retired instead, and its records since the last sync move to a new one.
TEST_P(TieringRecoveryTest, TornSegmentAppendRetiresTheFile) {
  for (const size_t budget : {size_t{1} << 20, size_t{1}}) {
    SCOPED_TRACE("cache budget " + std::to_string(budget));
    dir_ = root_ + "/torn-" + std::to_string(budget);
    DurableOptions options = Tiered(budget);
    options.retry_sleep = [](Duration) {};
    auto store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    IngestManySeries(store.get());
    const std::string acked = Signature(*store->inner());
    if (Hypertable(store.get()) == nullptr) return;
    // Ten chunks spill cleanly, the eleventh frame tears; the spill
    // retry resumes with the chunks still resident.
    const uint64_t faults_before = env_->transient_faults();
    env_->SetTornAppendAfter(10);
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(env_->transient_faults(), faults_before + 1);
    EXPECT_EQ(Counter(*store, "coldtier.segment_files_created"), 2u);
    EXPECT_EQ(Counter(*store, "coldtier.records_rewritten"), 10u);
    EXPECT_EQ(Signature(*store->inner()), acked);

    PowerLoss(&store);
    store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
    EXPECT_EQ(Signature(*store->inner()), acked);
  }
}

// Spilling from many series costs one segment fsync per checkpoint, and
// the per-stage histograms account for the checkpoint's time.
TEST_P(TieringRecoveryTest, CheckpointStagesTileCheckpointTime) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  IngestManySeries(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  AppendManySeries(store.get(), /*t0=*/1008);
  const uint64_t syncs_before = Counter(*store, "coldtier.segment_syncs");
  ASSERT_TRUE(store->Checkpoint().ok());
  const auto snap = store->metrics()->Snapshot();
  uint64_t stage_sum = 0;
  for (const char* stage : {"spill", "segment_sync", "snapshot_build",
                            "catalog", "install", "gc", "wal_rotate"}) {
    auto it = snap.histograms.find(
        std::string("durable.checkpoint_stage_nanos.") + stage);
    ASSERT_NE(it, snap.histograms.end()) << stage;
    stage_sum += it->second.sum;
  }
  const uint64_t total = snap.histograms.at("durable.checkpoint_nanos").sum;
  EXPECT_GE(stage_sum, total * 9 / 10);
  EXPECT_LE(stage_sum, total);
  if (Hypertable(store.get()) == nullptr) return;
  EXPECT_GE(Hypertable(store.get())->stats().cold_chunks_spilled,
            4u * kManySeries);
  // The second checkpoint spilled from all 60 series into the epoch's one
  // file: exactly one more segment fsync, and no new file.
  EXPECT_EQ(Counter(*store, "coldtier.segment_syncs"), syncs_before + 1);
  EXPECT_EQ(Counter(*store, "coldtier.segment_files_created"), 1u);
}

// Each process epoch appends to its own segment file; a store whose
// catalog spans two of them reopens and serves every sample.
TEST_P(TieringRecoveryTest, TwoEpochSegmentFilesReopenIntact) {
  std::string acked;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    IngestManySeries(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    AppendManySeries(store.get(), /*t0=*/1008);
    ASSERT_TRUE(store->Checkpoint().ok());
    acked = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), acked);
  for (int v = 0; v < kManySeries; ++v) {
    auto range = store->SeriesRange(
        query::EntityRef::Vertex(static_cast<uint64_t>(v)), "bikes",
        Interval::All());
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(range->samples().size(), 24u);
  }
  if (Hypertable(store.get()) == nullptr) return;
  EXPECT_EQ(ColdFiles(".seg").size(), 2u);
  EXPECT_GE(store->recovery().cold_chunks_adopted, 4u * kManySeries);
}

// -- probabilistic transient faults ------------------------------------------

TEST_P(TieringRecoveryTest, SurvivesProbabilisticTransientFaults) {
  DurableOptions options = Tiered();
  options.retry.max_attempts = 8;
  options.retry_sleep = [](Duration) {};  // spin, don't stall the test
  std::string before;
  {
    auto store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    // A deterministic two-fault burst on the append path: the plain
    // append fails, the first WAL-rebuild attempt fails, the second
    // rebuild heals — all invisible to the caller.
    env_->SetTransientFailNext(2);
    ASSERT_TRUE(store->AppendSample({query::EntityRef::Vertex(0), "temp",
                                     48 * 4, 99.0}).ok());
    EXPECT_GE(env_->transient_faults(), 2u);
    // A low-rate probabilistic stream across the whole tiered checkpoint
    // (segment spill, segment fsync, catalog install, snapshot, GC, WAL
    // rotation): every stage retries as an idempotent unit, so scattered
    // hiccups must be absorbed. The rate stays low because a WAL-append
    // retry replays the entire epoch — per-op faults compound across it.
    env_->SetTransientProbability(0.03, /*seed=*/0xC01DCAFE);
    ASSERT_TRUE(store->Checkpoint().ok());
    env_->ClearTransientFaults();
    before = Signature(*store->inner());
  }
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
}

// -- catalog encoding -------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every field of an entry with doubles as bit patterns, so EXPECT_EQ on
// these compares bit for bit (NaN payloads and -0.0 included) and prints
// a readable diff.
std::string EntryBits(const ColdCatalogEntry& e) {
  const ts::ColdChunkMeta& m = e.meta;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      " %lld %llu %u | %zu %lld %lld %016llx %016llx %d %zu | %zu %016llx "
      "%016llx %016llx %016llx %lld %016llx %lld %016llx",
      static_cast<long long>(e.chunk_start),
      static_cast<unsigned long long>(e.offset), e.length, m.count,
      static_cast<long long>(m.min_t), static_cast<long long>(m.max_t),
      static_cast<unsigned long long>(Bits(m.min_v)),
      static_cast<unsigned long long>(Bits(m.max_v)), m.all_finite ? 1 : 0,
      m.encoded_size, m.agg.count,
      static_cast<unsigned long long>(Bits(m.agg.sum)),
      static_cast<unsigned long long>(Bits(m.agg.sum_sq)),
      static_cast<unsigned long long>(Bits(m.agg.min)),
      static_cast<unsigned long long>(Bits(m.agg.max)),
      static_cast<long long>(m.agg.first.t),
      static_cast<unsigned long long>(Bits(m.agg.first.value)),
      static_cast<long long>(m.agg.last.t),
      static_cast<unsigned long long>(Bits(m.agg.last.value)));
  return e.series + " @ " + e.file + buf;
}

std::vector<std::string> AllBits(const std::vector<ColdCatalogEntry>& entries) {
  std::vector<std::string> out;
  for (const ColdCatalogEntry& e : entries) out.push_back(EntryBits(e));
  return out;
}

// The order EncodeColdCatalog writes and ParseColdCatalog returns: series
// by name, then chunk_start, ties in input order.
std::vector<ColdCatalogEntry> Canonical(std::vector<ColdCatalogEntry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ColdCatalogEntry& a, const ColdCatalogEntry& b) {
                     return std::tie(a.series, a.chunk_start) <
                            std::tie(b.series, b.chunk_start);
                   });
  return entries;
}

// The v1 text catalog earlier builds wrote, kept here to make fixtures:
// one "chunk" line per entry, %-encoded names, doubles as 16 hex digits,
// and a CRC-32 trailer line. The golden test below pins it to the bytes
// the v1 writer produced.
std::string EncodeTextCatalog(const std::vector<ColdCatalogEntry>& entries) {
  const auto bits = [](double v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), " %016llx",
                  static_cast<unsigned long long>(Bits(v)));
    return std::string(buf);
  };
  const auto num = [](auto v) { return " " + std::to_string(v); };
  std::string out = "hygraph-coldcat v1\nchunks" + num(entries.size()) + "\n";
  for (const ColdCatalogEntry& e : entries) {
    const ts::ColdChunkMeta& m = e.meta;
    out += "chunk ";
    core::AppendEncodedField(&out, e.series);
    out += num(e.chunk_start) + " ";
    core::AppendEncodedField(&out, e.file);
    out += num(e.offset) + num(e.length) + num(m.count) + num(m.min_t) +
           num(m.max_t) + bits(m.min_v) + bits(m.max_v) +
           (m.all_finite ? " 1" : " 0") + num(m.agg.count) + bits(m.agg.sum) +
           bits(m.agg.sum_sq) + bits(m.agg.min) + bits(m.agg.max) +
           num(m.agg.first.t) + bits(m.agg.first.value) +
           num(m.agg.last.t) + bits(m.agg.last.value) + "\n";
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "crc %08x\n", Crc32(out));
  return out + crc;
}

// A directory written by a build whose catalogs were v1 text still opens
// with the same state, and the next checkpoint rewrites its catalog as v2.
TEST_P(TieringRecoveryTest, TextCatalogFromEarlierBuildsOpensAndIsRewritten) {
  std::string before;
  uint64_t adopted = 0;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    before = Signature(*store->inner());
  }
  const bool tiered = !ColdFiles(".cold").empty();
  if (tiered) {
    ASSERT_EQ(ColdFiles(".cold").size(), 1u);
    const std::string path = dir_ + "/cold/" + ColdFiles(".cold")[0];
    std::string bytes;
    ASSERT_TRUE(env_->ReadFileToString(path, &bytes).ok());
    ASSERT_EQ(bytes.rfind("HYGRAPH COLDCAT 2\n", 0), 0u);
    auto entries = ParseColdCatalog(bytes);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    ASSERT_GE(entries->size(), 22u);
    adopted = entries->size();
    // Earlier builds listed entries in record-map order, not grouped.
    std::reverse(entries->begin(), entries->end());
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(path, &file).ok());
    ASSERT_TRUE(file->Append(EncodeTextCatalog(*entries)).ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    EXPECT_EQ(store->recovery().cold_chunks_adopted, adopted);
    EXPECT_EQ(Signature(*store->inner()), before);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  if (tiered) {
    ASSERT_EQ(ColdFiles(".cold").size(), 1u);
    std::string bytes;
    ASSERT_TRUE(env_->ReadFileToString(
                        dir_ + "/cold/" + ColdFiles(".cold")[0], &bytes)
                    .ok());
    EXPECT_EQ(bytes.rfind("HYGRAPH COLDCAT 2\n", 0), 0u);
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().cold_chunks_adopted, adopted);
  EXPECT_EQ(Signature(*store->inner()), before);
}

// Three hostile entries: negative and extreme timestamps, NaN, ±inf,
// -0.0, subnormals, names that need %-encoding in v1 and both all_finite
// values. The catalog is an on-disk format, so the encoder must reproduce
// the v2 golden bytes exactly, and the v1 text an earlier build wrote for
// the same entries must still decode to them bit for bit.
TEST(ColdCatalogTest, EncoderMatchesGoldenBytes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<ColdCatalogEntry> entries(3);
  ColdCatalogEntry& a = entries[0];
  a.series = "v12.temp";
  a.chunk_start = -86400000;
  a.file = "seg-0.seg";
  a.offset = 8;
  a.length = 42;
  a.meta.count = 3;
  a.meta.min_t = -86400000;
  a.meta.max_t = -86399000;
  a.meta.min_v = -0.0;
  a.meta.max_v = 1.5;
  a.meta.all_finite = true;
  a.meta.encoded_size = 42;
  a.meta.agg.count = 3;
  a.meta.agg.sum = 2.25;
  a.meta.agg.sum_sq = 3.0625;
  a.meta.agg.min = -0.0;
  a.meta.agg.max = 1.5;
  a.meta.agg.first = {-86400000, -0.0};
  a.meta.agg.last = {-86399000, 1.5};
  ColdCatalogEntry& b = entries[1];
  b.series = "e 7%.trip\n";
  b.chunk_start = lo;
  b.file = "seg-12.seg";
  b.offset = 123456789012ull;
  b.length = 65535;
  b.meta.count = 14;
  b.meta.min_t = lo;
  b.meta.max_t = hi;
  b.meta.min_v = nan;
  b.meta.max_v = inf;
  b.meta.all_finite = false;
  b.meta.encoded_size = 65535;
  b.meta.agg.count = 14;
  b.meta.agg.sum = -inf;
  b.meta.agg.sum_sq = nan;
  b.meta.agg.min = -inf;
  b.meta.agg.max = inf;
  b.meta.agg.first = {lo, -inf};
  b.meta.agg.last = {hi, nan};
  ColdCatalogEntry& c = entries[2];
  c.series = "v\x01\x7f%y";
  c.chunk_start = 0;
  c.file = "seg%41.seg";
  c.offset = std::numeric_limits<uint64_t>::max();
  c.length = 0;
  c.meta.count = 0;
  c.meta.min_t = 0;
  c.meta.max_t = -1;
  c.meta.min_v = 1e-310;
  c.meta.max_v = -1e300;
  c.meta.all_finite = true;
  c.meta.encoded_size = 0;
  c.meta.agg.count = 0;
  c.meta.agg.sum = 0.1;
  c.meta.agg.sum_sq = 5e-324;
  c.meta.agg.min = std::numeric_limits<double>::max();
  c.meta.agg.max = -std::numeric_limits<double>::max();
  c.meta.agg.first = {1, 0.0};
  c.meta.agg.last = {-1, -nan};

  // The v2 layout of segment_store.h: magic, the file table in order of
  // first use, then one group per series in name order ("e…" < "v\x01…" <
  // "v12…"). Doubles are little-endian bit patterns.
  const char kGolden[] =
      "HYGRAPH COLDCAT 2\n"
      "\x03" "\x0a" "seg-12.seg" "\x0a" "seg%41.seg" "\x09" "seg-0.seg"
      "\x03"
      // "e 7%.trip\n", one entry in file 0. chunk_start INT64_MIN is the
      // 10-byte varint; max_t − min_t wraps to −1. Flags 0x1a elide
      // agg.count, agg.max and the end times; seven doubles follow.
      "\x0a" "e 7%.trip\n" "\x01"
      "\x00" "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"
      "\xa8\xe8\xc8\xe9\x97\x07" "\xfe\xff\x07" "\x1c" "\x00" "\x01" "\x1a"
      "\x00\x00\x00\x00\x00\x00\xf8\x7f"   // min_v NaN
      "\x00\x00\x00\x00\x00\x00\xf0\x7f"   // max_v +inf
      "\x00\x00\x00\x00\x00\x00\xf0\xff"   // agg.min -inf
      "\x00\x00\x00\x00\x00\x00\xf0\xff"   // sum -inf
      "\x00\x00\x00\x00\x00\x00\xf8\x7f"   // sum_sq NaN
      "\x00\x00\x00\x00\x00\x00\xf0\xff"   // first.value -inf
      "\x00\x00\x00\x00\x00\x00\xf8\x7f"   // last.value NaN
      // "v\x01\x7f%y", one entry in file 1: offset UINT64_MAX is a delta
      // of −1; count 0. Flags 0x03 (all_finite, agg.count): every other
      // field is explicit, the end times as deltas +1 and 0.
      "\x05" "v\x01\x7f%y" "\x01"
      "\x01" "\x00" "\x01" "\x00" "\x00" "\x00" "\x01" "\x03"
      "\x2b\xe6\x70\x8b\x68\x12\x00\x00"   // min_v 1e-310
      "\x9c\x75\x00\x88\x3c\xe4\x37\xfe"   // max_v -1e300
      "\xff\xff\xff\xff\xff\xff\xef\x7f"   // agg.min DBL_MAX
      "\xff\xff\xff\xff\xff\xff\xef\xff"   // agg.max -DBL_MAX
      "\x02" "\x00"                        // first.t, last.t
      "\x9a\x99\x99\x99\x99\x99\xb9\x3f"   // sum 0.1
      "\x01\x00\x00\x00\x00\x00\x00\x00"   // sum_sq 5e-324
      "\x00\x00\x00\x00\x00\x00\x00\x00"   // first.value 0.0
      "\x00\x00\x00\x00\x00\x00\xf8\xff"   // last.value -NaN
      // "v12.temp", one entry in file 2. Flags 0x1f elide agg.count,
      // agg.min, agg.max and the end times.
      "\x08" "v12.temp" "\x01"
      "\x02" "\xff\xef\xb2\x52" "\x10" "\x54" "\x06" "\x00" "\xd0\x0f" "\x1f"
      "\x00\x00\x00\x00\x00\x00\x00\x80"   // min_v -0.0
      "\x00\x00\x00\x00\x00\x00\xf8\x3f"   // max_v 1.5
      "\x00\x00\x00\x00\x00\x00\x02\x40"   // sum 2.25
      "\x00\x00\x00\x00\x00\x80\x08\x40"   // sum_sq 3.0625
      "\x00\x00\x00\x00\x00\x00\x00\x80"   // first.value -0.0
      "\x00\x00\x00\x00\x00\x00\xf8\x3f"   // last.value 1.5
      "\xa4\x02\x17\x87";                  // CRC-32
  const std::string golden(kGolden, sizeof(kGolden) - 1);
  EXPECT_EQ(EncodeColdCatalog(entries), golden);
  EXPECT_EQ(EncodeColdCatalog({}),
            std::string("HYGRAPH COLDCAT 2\n\x00\x00\x21\xc6\xd6\x6c", 24));
  // The golden bytes are a valid catalog, decode bit-exactly in canonical
  // order, and are a fixed point of parse+encode.
  auto parsed = ParseColdCatalog(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(AllBits(*parsed), AllBits(Canonical(entries)));
  EXPECT_EQ(EncodeColdCatalog(*parsed), golden);

  // The v1 text the previous encoder wrote for the same entries: a decode
  // fixture now, since the writer emits only v2.
  const std::string text_golden =
      "hygraph-coldcat v1\n"
      "chunks 3\n"
      "chunk v12.temp -86400000 seg-0.seg 8 42 3 -86400000 -86399000 "
      "8000000000000000 3ff8000000000000 1 3 4002000000000000 "
      "4008800000000000 8000000000000000 3ff8000000000000 -86400000 "
      "8000000000000000 -86399000 3ff8000000000000\n"
      "chunk e%207%25.trip%0A -9223372036854775808 seg-12.seg 123456789012 "
      "65535 14 -9223372036854775808 9223372036854775807 7ff8000000000000 "
      "7ff0000000000000 0 14 fff0000000000000 7ff8000000000000 "
      "fff0000000000000 7ff0000000000000 -9223372036854775808 "
      "fff0000000000000 9223372036854775807 7ff8000000000000\n"
      "chunk v%01%7F%25y 0 seg%2541.seg 18446744073709551615 0 0 0 -1 "
      "000012688b70e62b fe37e43c8800759c 1 0 3fb999999999999a "
      "0000000000000001 7fefffffffffffff ffefffffffffffff 1 "
      "0000000000000000 -1 fff8000000000000\n"
      "crc 09641573\n";
  EXPECT_EQ(EncodeTextCatalog(entries), text_golden);
  auto from_text = ParseColdCatalog(text_golden);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(AllBits(*from_text), AllBits(entries));
  EXPECT_EQ(EncodeColdCatalog(*from_text), golden);
}

// A small v2 catalog shaped like the bike-sharing store: one one-sample
// trip entry ("e5.trips", first group) and two 288-sample station days.
std::vector<ColdCatalogEntry> TripAndStationEntries() {
  constexpr Timestamp kDay = 86'400'000;
  std::vector<ColdCatalogEntry> entries(3);
  for (int i = 0; i < 3; ++i) {
    ColdCatalogEntry& e = entries[i];
    const bool trip = i == 0;
    e.series = trip ? "e5.trips" : "v0.bikes";
    e.chunk_start = (trip ? 3 : i) * kDay;
    e.file = "seg-0.seg";
    e.offset = 8 + 400 * i;
    e.length = trip ? 19 : 330;
    ts::ColdChunkMeta& m = e.meta;
    m.count = trip ? 1 : 288;
    m.min_t = e.chunk_start + (trip ? 3'600'000 : 0);
    m.max_t = trip ? m.min_t : e.chunk_start + kDay - 300'000;
    m.min_v = trip ? 1.0 : 3.0;
    m.max_v = trip ? 1.0 : 17.0;
    m.all_finite = true;
    m.encoded_size = e.length;
    m.agg.count = m.count;
    m.agg.sum = trip ? 1.0 : 2880.0 + i;
    m.agg.sum_sq = trip ? 1.0 : 31000.0 + i;
    m.agg.min = m.min_v;
    m.agg.max = m.max_v;
    m.agg.first = {m.min_t, trip ? 1.0 : 9.0};
    m.agg.last = {m.max_t, trip ? 1.0 : 11.0};
  }
  return entries;
}

// Replaces the CRC trailer of `bytes` with the CRC of its new body, so a
// mutation reaches the decoder's structural checks instead of the CRC.
std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - 4);
  const uint32_t crc = Crc32(bytes);
  for (int i = 0; i < 4; ++i) bytes.push_back(char((crc >> (8 * i)) & 0xff));
  return bytes;
}

// Each hostile v2 catalog (fuzz/corpus/segment_load holds the same shapes
// as seeds) is kCorruption for the reason its check names.
TEST(ColdCatalogTest, HostileBinaryCatalogsAreCorruption) {
  const std::string valid = EncodeColdCatalog(TripAndStationEntries());
  ASSERT_TRUE(ParseColdCatalog(valid).ok());
  // magic (18) | file count | 9 "seg-0.seg" | series count | 8 "e5.trips"
  // entry count | first entry: file index, then the chunk_start varint.
  constexpr size_t kFileCount = 18;
  constexpr size_t kSeriesCount = kFileCount + 1 + 1 + 9;
  constexpr size_t kEntry = kSeriesCount + 1 + 1 + 8 + 1;
  ASSERT_EQ(valid.substr(kSeriesCount + 2, 8), "e5.trips");
  // The trip entry's varints: file index, chunk_start (5 bytes), offset,
  // length, count, min_t − chunk_start (4 bytes), max_t − min_t; then flags.
  constexpr size_t kOffset = kEntry + 1 + 5;
  constexpr size_t kFlags = kOffset + 1 + 1 + 1 + 4 + 1;
  ASSERT_EQ(static_cast<uint8_t>(valid[kFlags]), 0x7fu);  // all derived

  const auto with = [&](size_t pos, size_t len, std::string_view bytes) {
    std::string out = valid;
    out.replace(pos, len, bytes);
    return Reseal(out);
  };
  const auto expect = [](const std::string& bytes, const std::string& why) {
    auto parsed = ParseColdCatalog(bytes);
    ASSERT_FALSE(parsed.ok()) << why;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    EXPECT_NE(parsed.status().message().find(why), std::string::npos)
        << parsed.status().ToString();
  };
  expect(Reseal(valid.substr(0, valid.size() - 24)), "truncated");
  std::string bad_crc = valid;
  bad_crc.back() ^= 0x01;
  expect(bad_crc, "CRC mismatch");
  expect(with(kSeriesCount, 1, "\x80\x80\x80\x80\x80\x80\x80\x80\x01"),
         "implausible series count");
  expect(with(kFileCount, 1, std::string("\x81\x80\x80\x80\x80\x80\x80\x80"
                                         "\x80\x80\x00", 11)),
         "varint overflows 64 bits");
  expect(with(kEntry, 1, "\x01"), "file index 1 outside");
  expect(with(kOffset, 1, "\x08"), "offset inside frame header");  // 4
  expect(with(kFlags, 1, "\xff"), "unknown flag bits");
}

// One random double: mostly raw bit patterns (NaN payloads, subnormals and
// signed zeros included), sometimes an edge value.
double RandomDouble(Rng* rng) {
  static constexpr double kEdges[] = {
      0.0, -0.0, 1.0, -1.5, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max()};
  if (rng->NextBounded(4) == 0) {
    return kEdges[rng->NextBounded(std::size(kEdges))];
  }
  return std::bit_cast<double>(rng->Next());
}

// Any value whose bits differ from `v`'s.
double OtherThan(double v, Rng* rng) {
  const double other = RandomDouble(rng);
  return Bits(other) != Bits(v) ? other
                                : std::bit_cast<double>(Bits(v) ^ 1u);
}

int64_t RandomTime(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0: return std::numeric_limits<int64_t>::min();
    case 1: return std::numeric_limits<int64_t>::max();
    case 2: return rng->NextInRange(-1'000'000, 1'000'000);
    default: return static_cast<int64_t>(rng->Next());
  }
}

// The derivations the v2 encoder may elide, one bit each in `derive`.
enum Derivation : unsigned {
  kAggCount = 1u << 0,    // agg.count == count
  kAggMin = 1u << 1,      // agg.min == min_v
  kAggMax = 1u << 2,      // agg.max == max_v
  kEnds = 1u << 3,        // agg.first.t == min_t, agg.last.t == max_t
  kFlatValue = 1u << 4,   // max_v == min_v
  kOneSample = 1u << 5,   // sum/first/last == min_v, sum_sq == min_v^2
  kAllDerivations = (1u << 6) - 1,
};

// A random entry in which exactly the derivations in `derive` hold.
ColdCatalogEntry RandomEntry(Rng* rng, unsigned derive) {
  static const char* const kSeries[] = {"v0.bikes", "v1.bikes", "e7.trips",
                                        "e 8%.x/y", "v\xff.k"};
  static const char* const kFiles[] = {"seg-0.seg", "seg-1.seg", "s%2F"};
  ColdCatalogEntry e;
  e.series = kSeries[rng->NextBounded(std::size(kSeries))];
  e.file = kFiles[rng->NextBounded(std::size(kFiles))];
  e.chunk_start = RandomTime(rng);
  e.offset = 8 + rng->NextBounded(rng->NextBounded(2) ? 1u << 20 : ~0ull - 8);
  e.length = static_cast<uint32_t>(rng->NextBounded(kWalMaxRecordSize + 1));
  ts::ColdChunkMeta& m = e.meta;
  m.encoded_size = e.length;
  m.count = rng->NextBounded(3) == 0 ? rng->Next() : rng->NextBounded(300);
  m.min_t = RandomTime(rng);
  m.max_t = RandomTime(rng);
  m.all_finite = rng->NextBounded(2) == 0;
  m.min_v = RandomDouble(rng);
  if ((derive & kOneSample) && std::isnan(m.min_v)) m.min_v = -0.0;
  m.max_v = (derive & kFlatValue) ? m.min_v : OtherThan(m.min_v, rng);
  m.agg.count = (derive & kAggCount) ? m.count : m.count + 1 + rng->Next() % 9;
  m.agg.min = (derive & kAggMin) ? m.min_v : OtherThan(m.min_v, rng);
  m.agg.max = (derive & kAggMax) ? m.max_v : OtherThan(m.max_v, rng);
  m.agg.first.t = m.min_t;
  m.agg.last.t = m.max_t;
  if (!(derive & kEnds)) {
    if (rng->NextBounded(2) == 0) {
      m.agg.first.t = static_cast<int64_t>(static_cast<uint64_t>(m.min_t) +
                                           1 + rng->NextBounded(9));
    } else {
      m.agg.last.t = static_cast<int64_t>(static_cast<uint64_t>(m.max_t) -
                                          1 - rng->NextBounded(9));
    }
  }
  m.agg.sum = m.agg.first.value = m.agg.last.value = m.min_v;
  m.agg.sum_sq = m.min_v * m.min_v;
  if (!(derive & kOneSample)) {
    // Break the form in one of its four parts, or in all of them.
    switch (rng->NextBounded(5)) {
      case 0: m.agg.sum = OtherThan(m.agg.sum, rng); break;
      case 1: m.agg.sum_sq = OtherThan(m.agg.sum_sq, rng); break;
      case 2: m.agg.first.value = OtherThan(m.min_v, rng); break;
      case 3: m.agg.last.value = OtherThan(m.min_v, rng); break;
      default:
        m.agg.sum = RandomDouble(rng);
        m.agg.sum_sq = RandomDouble(rng);
        m.agg.first.value = RandomDouble(rng);
        m.agg.last.value = RandomDouble(rng);
    }
  }
  return e;
}

// Random metas over every combination of the elision flags round-trip bit
// for bit, and the v2 bytes are a fixed point of parse+encode.
TEST(ColdCatalogTest, RandomMetasRoundTripBitExact) {
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<ColdCatalogEntry> entries;
    for (unsigned derive = 0; derive <= kAllDerivations; ++derive) {
      for (int k = 0; k < 4; ++k) entries.push_back(RandomEntry(&rng, derive));
    }
    const std::string encoded = EncodeColdCatalog(entries);
    auto parsed = ParseColdCatalog(encoded);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(AllBits(*parsed), AllBits(Canonical(entries)));
    ASSERT_EQ(EncodeColdCatalog(*parsed), encoded);
  }
}

// Each derivation, when it holds, really shrinks the entry: one entry with
// only that derivation encodes smaller than the same entry with none.
TEST(ColdCatalogTest, EachDerivationElidesItsField) {
  const std::vector<unsigned> derivations = {kAggCount, kAggMin, kAggMax,
                                             kEnds, kFlatValue, kOneSample};
  for (const unsigned d : derivations) {
    SCOPED_TRACE("derivation " + std::to_string(d));
    Rng rng(d);
    const ColdCatalogEntry none = RandomEntry(&rng, 0);
    ColdCatalogEntry only = none;
    ts::ColdChunkMeta& m = only.meta;
    if (std::isnan(m.min_v)) m.min_v = 2.5;
    switch (d) {
      case kAggCount: m.agg.count = m.count; break;
      case kAggMin: m.agg.min = m.min_v; break;
      case kAggMax: m.agg.max = m.max_v; break;
      case kEnds:
        m.agg.first.t = m.min_t;
        m.agg.last.t = m.max_t;
        break;
      case kFlatValue: m.max_v = m.min_v; break;
      case kOneSample:
        m.agg.sum = m.agg.first.value = m.agg.last.value = m.min_v;
        m.agg.sum_sq = m.min_v * m.min_v;
        break;
    }
    const std::string with = EncodeColdCatalog({only});
    EXPECT_LT(with.size(), EncodeColdCatalog({none}).size());
    auto parsed = ParseColdCatalog(with);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(AllBits(*parsed), AllBits({only}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, TieringRecoveryTest,
    ::testing::Values(
        Arch{"all_in_graph",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<AllInGraphStore>());
             }},
        Arch{"polyglot",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<PolyglotStore>(NarrowChunks()));
             }}),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hygraph::storage
