// Cold-tier benchmarks (DESIGN.md §15):
//   * full-series scan latency over spilled chunks as a function of the
//     chunk-cache budget (all-resident, partial, thrash), cold vs warm
//   * checkpoint spill throughput (sealed samples moved to segment files)
//   * recovery (Open) time as a function of the cold fraction — the
//     tentpole claim is that recovery cost tracks HOT data, not history
//   * a many-series checkpoint shaped like the bike-sharing trip edges
//     (600 series of 14 one-sample daily chunks): checkpoint time, segment
//     files created and fsyncs per checkpoint. Exits 1 when a checkpoint
//     issues more than one segment fsync — a structural gate (the tier
//     keeps one segment file per epoch), not a timing one, so it also
//     holds under --smoke
//   * durable bytes per sample on a regular 5-minute grid (16 stations x
//     4 days, one batch per station): WAL bytes per logged sample,
//     installed-snapshot bytes per hot sample and cold-catalog bytes per
//     catalog entry. Exits 1 when either of the first two exceeds 4 B
//     (sample runs travel as chunk-codec frames in the WAL and in the
//     snapshot, ~2 B/sample) or the catalog exceeds 96 B per entry (the
//     binary catalog elides derived fields, ~65 B per 288-sample entry
//     against ~250 B as text) — byte-count gates, so they also hold under
//     --smoke
//
// Results go to stdout and to BENCH_tiering.json in the working directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "storage/segment/segment_store.h"
#include "ts/hypertable.h"

namespace hygraph::bench {
namespace {

/// Prints one result line and records it for BENCH_tiering.json.
void Report(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-48s %12.2f %s\n", name.c_str(), value, unit.c_str());
  Record(name, value, unit);
}

using storage::DurableOptions;
using storage::DurableStore;
using storage::Env;

// --smoke shrinks the workload so CI just proves the paths run.
int kSamples = 40000;

std::string FreshDir() {
  char tmpl[] = "/tmp/hygraph_bench_tiering_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return tmpl;
}

DurableOptions Tiered(size_t cache_budget) {
  DurableOptions options;
  options.sync_wal = false;
  options.tiering.enabled = true;
  options.tiering.cache_budget_bytes = cache_budget;
  return options;
}

std::unique_ptr<storage::PolyglotStore> Backend() {
  // ~256 samples per chunk: kSamples yields ~156 chunks, enough that the
  // cache-budget sweep has real residency ratios to vary.
  ts::HypertableOptions o;
  o.chunk_duration = 256;
  return std::make_unique<storage::PolyglotStore>(o);
}

std::unique_ptr<DurableStore> OpenStore(const std::string& dir,
                                        size_t cache_budget) {
  auto store = std::make_unique<DurableStore>(Env::Default(), dir, Backend(),
                                              Tiered(cache_budget));
  if (!store->Open().ok()) std::exit(1);
  return store;
}

/// Ingests kSamples appends; `cold_fraction` of them are checkpointed into
/// the cold tier, the rest stay hot (snapshot + WAL tail).
void Ingest(const std::string& dir, double cold_fraction) {
  auto store = OpenStore(dir, 64u << 20);
  auto v = store->AddVertex({"Sensor"}, {});
  if (!v.ok()) std::exit(1);
  const int boundary = static_cast<int>(kSamples * cold_fraction);
  for (int i = 0; i < boundary; ++i) {
    (void)store->AppendSample({query::EntityRef::Vertex(*v), "temp", i,
                               0.25 * i});
  }
  if (boundary > 0 && !store->Checkpoint().ok()) std::exit(1);
  for (int i = boundary; i < kSamples; ++i) {
    (void)store->AppendSample({query::EntityRef::Vertex(*v), "temp", i,
                               0.25 * i});
  }
  (void)store->SyncWal();
}

double SweepMs(DurableStore* store) {
  return TimeMs([&] {
    auto range = store->SeriesRange(query::EntityRef::Vertex(0), "temp",
                                    Interval::All());
    if (!range.ok() || range->samples().size() < size_t(kSamples) / 2) {
      std::fprintf(stderr, "scan lost samples\n");
      std::exit(1);
    }
  });
}

void BenchScanVsCacheBudget() {
  PrintHeader("Cold scan latency vs chunk-cache budget");
  const std::string dir = FreshDir();
  Ingest(dir + "/store", /*cold_fraction=*/1.0);
  struct Point {
    const char* label;
    size_t budget;
  };
  // All-resident, roughly half the encoded cold bytes, and a budget
  // smaller than one chunk (every pin is a miss).
  for (const Point p : {Point{"resident", 64u << 20},
                        Point{"partial", 24u << 10}, Point{"thrash", 64}}) {
    auto store = OpenStore(dir + "/store", p.budget);
    const double cold_ms = SweepMs(store.get());
    const double warm_ms = SweepMs(store.get());
    const auto stats = store->cold_tier()->cache_stats();
    Report(std::string("scan_cold_") + p.label, cold_ms, "ms");
    Report(std::string("scan_warm_") + p.label, warm_ms, "ms");
    Report(std::string("cache_miss_rate_") + p.label,
           stats.hits + stats.misses == 0
               ? 0.0
               : 100.0 * double(stats.misses) /
                     double(stats.hits + stats.misses),
           "%");
  }
  std::system(("rm -rf " + dir).c_str());
}

void BenchSpillThroughput() {
  PrintHeader("Checkpoint spill throughput");
  const std::string dir = FreshDir();
  auto store = OpenStore(dir + "/store", 64u << 20);
  auto v = store->AddVertex({"Sensor"}, {});
  if (!v.ok()) std::exit(1);
  for (int i = 0; i < kSamples; ++i) {
    (void)store->AppendSample({query::EntityRef::Vertex(*v), "temp", i,
                               0.25 * i});
  }
  const size_t sealed =
      store->inner()->series_hypertable()->MemoryUsage().sealed_samples;
  const double ms = TimeMs([&] {
    if (!store->Checkpoint().ok()) std::exit(1);
  });
  Report("checkpoint_spill_sealed_samples", double(sealed), "samples");
  Report("checkpoint_spill_throughput", sealed / (ms / 1000.0), "samples/s");
  const auto hs = store->inner()->series_hypertable()->stats();
  Report("checkpoint_cold_bytes", double(hs.cold_bytes_spilled), "bytes");
  std::system(("rm -rf " + dir).c_str());
}

void BenchRecoveryVsColdFraction() {
  PrintHeader("Recovery time vs cold fraction (same total history)");
  for (const double fraction : {0.0, 0.5, 1.0}) {
    const std::string dir = FreshDir();
    Ingest(dir + "/store", fraction);
    auto store = std::make_unique<DurableStore>(Env::Default(), dir + "/store",
                                                Backend(), Tiered(64u << 20));
    const double ms = TimeMs([&] {
      if (!store->Open().ok()) std::exit(1);
    });
    const uint64_t adopted = store->recovery().cold_chunks_adopted;
    Report("recover_cold_fraction_" + std::to_string(int(fraction * 100)), ms,
           "ms");
    Report("recover_adopted_chunks_" + std::to_string(int(fraction * 100)),
           double(adopted), "chunks");
    std::system(("rm -rf " + dir).c_str());
  }
}

uint64_t CounterValue(const DurableStore& store, const std::string& name) {
  const auto snap = store.metrics()->Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Returns false when the checkpoint fsynced more than one segment file.
bool BenchManySeriesCheckpoint() {
  PrintHeader("Many-series checkpoint (600 series x 14 daily chunks)");
  constexpr int kSeries = 600;
  constexpr int kDays = 15;  // the 15th day's chunk stays hot
  constexpr Timestamp kDay = 86'400'000;
  const std::string dir = FreshDir();
  ts::HypertableOptions o;
  o.chunk_duration = kDay;
  auto store = std::make_unique<DurableStore>(
      Env::Default(), dir + "/store",
      std::make_unique<storage::PolyglotStore>(o), Tiered(64u << 20));
  if (!store->Open().ok()) std::exit(1);
  for (int s = 0; s < kSeries; ++s) {
    if (!store->AddVertex({"Dock"}, {}).ok()) std::exit(1);
    std::vector<query::SampleWrite> batch;
    for (int d = 0; d < kDays; ++d) {
      batch.push_back({query::EntityRef::Vertex(static_cast<uint64_t>(s)),
                       "trips", d * kDay + s, double(d + s)});
    }
    if (!store->AppendSamples(batch).ok()) std::exit(1);
  }
  const uint64_t files_before =
      CounterValue(*store, "coldtier.segment_files_created");
  const uint64_t syncs_before = CounterValue(*store, "coldtier.segment_syncs");
  const double ms = TimeMs([&] {
    if (!store->Checkpoint().ok()) std::exit(1);
  });
  const uint64_t spilled =
      store->inner()->series_hypertable()->stats().cold_chunks_spilled;
  const uint64_t files =
      CounterValue(*store, "coldtier.segment_files_created") - files_before;
  const uint64_t syncs =
      CounterValue(*store, "coldtier.segment_syncs") - syncs_before;
  Report("many_series_checkpoint", ms, "ms");
  Report("many_series_chunks_spilled", double(spilled), "chunks");
  Report("many_series_segment_files_created", double(files), "files");
  Report("many_series_fsyncs_per_checkpoint", double(syncs), "fsyncs");
  store.reset();
  std::system(("rm -rf " + dir).c_str());
  if (syncs > 1) {
    std::fprintf(stderr,
                 "many-series checkpoint issued %llu segment fsyncs; the "
                 "cold tier must sync one file per checkpoint\n",
                 static_cast<unsigned long long>(syncs));
    return false;
  }
  return true;
}

/// Returns false when the WAL logs more than 4 B per sample, the
/// installed snapshot holds more than 4 B per hot sample, or the cold
/// catalog takes more than 96 B per entry.
bool BenchDurableBytesPerSample() {
  PrintHeader("Durable bytes per sample (16 stations x 4 days, 5-min grid)");
  constexpr int kStations = 16;
  constexpr int kSamplesPerStation = 4 * 288;  // the fourth day stays hot
  constexpr Timestamp kStep = 300'000;
  constexpr double kMaxBytesPerSample = 4.0;
  constexpr double kMaxCatalogBytesPerEntry = 96.0;
  const std::string dir = FreshDir();
  auto store = std::make_unique<DurableStore>(
      Env::Default(), dir + "/store",
      std::make_unique<storage::PolyglotStore>(), Tiered(64u << 20));
  if (!store->Open().ok()) std::exit(1);
  for (int s = 0; s < kStations; ++s) {
    if (!store->AddVertex({"Station"}, {}).ok()) std::exit(1);
  }
  // Bike counts: a bounded random walk per station, like the bike-sharing
  // generator's.
  uint64_t rng = 42;
  const uint64_t wal_before = CounterValue(*store, "wal.bytes_appended");
  for (int s = 0; s < kStations; ++s) {
    std::vector<query::SampleWrite> batch;
    double bikes = 10;
    for (int i = 0; i < kSamplesPerStation; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      constexpr double kSteps[4] = {-1.0, 0.0, 0.0, 1.0};
      bikes = std::clamp(bikes + kSteps[rng >> 62], 0.0, 20.0);
      batch.push_back({query::EntityRef::Vertex(static_cast<uint64_t>(s)),
                       "bikes", i * kStep, bikes});
    }
    if (!store->AppendSamples(batch).ok()) std::exit(1);
  }
  const double samples = double(kStations) * kSamplesPerStation;
  const double wal_per_sample =
      double(CounterValue(*store, "wal.bytes_appended") - wal_before) /
      samples;
  if (!store->Checkpoint().ok()) std::exit(1);
  double snapshot_bytes = 0;
  std::vector<std::string> children;
  if (!Env::Default()->GetChildren(dir + "/store", &children).ok()) {
    std::exit(1);
  }
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) != 0) continue;
    auto size = Env::Default()->GetFileSize(dir + "/store/" + child);
    if (!size.ok()) std::exit(1);
    snapshot_bytes += double(*size);
  }
  // The three spilled days of every station: one catalog entry each.
  double catalog_bytes = 0;
  double catalog_entries = 0;
  children.clear();
  if (!Env::Default()->GetChildren(dir + "/store/cold", &children).ok()) {
    std::exit(1);
  }
  for (const std::string& child : children) {
    if (child.rfind("catalog-", 0) != 0) continue;
    std::string bytes;
    if (!Env::Default()
             ->ReadFileToString(dir + "/store/cold/" + child, &bytes)
             .ok()) {
      std::exit(1);
    }
    auto entries = storage::ParseColdCatalog(bytes);
    if (!entries.ok()) std::exit(1);
    catalog_bytes += double(bytes.size());
    catalog_entries += double(entries->size());
  }
  const double catalog_per_entry =
      catalog_entries == 0 ? 0.0 : catalog_bytes / catalog_entries;
  const ts::HypertableMemory mem =
      store->inner()->series_hypertable()->MemoryUsage();
  const double hot = double(mem.hot_samples + mem.sealed_samples);
  const double snapshot_per_sample = hot == 0 ? 0.0 : snapshot_bytes / hot;
  Report("durable_wal_bytes_per_sample", wal_per_sample, "B");
  Report("durable_snapshot_bytes", snapshot_bytes, "B");
  Report("durable_snapshot_hot_samples", hot, "samples");
  Report("durable_snapshot_bytes_per_hot_sample", snapshot_per_sample, "B");
  Report("durable_catalog_bytes", catalog_bytes, "B");
  Report("durable_catalog_entries", catalog_entries, "entries");
  Report("durable_catalog_bytes_per_entry", catalog_per_entry, "B");
  store.reset();
  std::system(("rm -rf " + dir).c_str());
  bool ok = true;
  if (wal_per_sample > kMaxBytesPerSample) {
    std::fprintf(stderr,
                 "the WAL logged %.2f B per sample; sample runs must travel "
                 "as chunk-codec frames (<= %.0f B/sample)\n",
                 wal_per_sample, kMaxBytesPerSample);
    ok = false;
  }
  if (hot == 0 || snapshot_per_sample > kMaxBytesPerSample) {
    std::fprintf(stderr,
                 "the snapshot holds %.2f B per hot sample (%.0f hot "
                 "samples); hot tails must travel as chunk-codec frames "
                 "(<= %.0f B/sample)\n",
                 snapshot_per_sample, hot, kMaxBytesPerSample);
    ok = false;
  }
  if (catalog_entries == 0 || catalog_per_entry > kMaxCatalogBytesPerEntry) {
    std::fprintf(stderr,
                 "the cold catalog takes %.2f B per entry (%.0f entries); "
                 "catalog entries must be binary with derived fields elided "
                 "(<= %.0f B/entry)\n",
                 catalog_per_entry, catalog_entries, kMaxCatalogBytesPerEntry);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") hygraph::bench::kSamples = 4000;
  }
  hygraph::bench::BenchScanVsCacheBudget();
  hygraph::bench::BenchSpillThroughput();
  hygraph::bench::BenchRecoveryVsColdFraction();
  const bool one_sync = hygraph::bench::BenchManySeriesCheckpoint();
  const bool compact = hygraph::bench::BenchDurableBytesPerSample();
  hygraph::bench::WriteJson("tiering");
  return one_sync && compact ? 0 : 1;
}
