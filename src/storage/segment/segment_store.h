#ifndef HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_
#define HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "ts/cold_tier.h"

namespace hygraph::storage {

/// One catalog line: where a spilled chunk lives and everything the
/// hypertable needs to adopt it without touching the bytes.
struct ColdCatalogEntry {
  std::string series;           ///< hypertable series name ("v12.temp")
  Timestamp chunk_start = 0;    ///< chunk slot (ChunkStartFor of its data)
  std::string file;             ///< segment file name, relative to the dir
  uint64_t offset = 0;          ///< payload offset inside the file
  uint32_t length = 0;          ///< payload length (== meta.encoded_size)
  ts::ColdChunkMeta meta;       ///< resident zone map + aggregate
  ts::ColdChunkId id = ts::kInvalidColdChunk;  ///< set by LoadCatalog
};

/// Serializes entries as a v2 cold catalog, grouped by series (series in
/// name order, each group's entries in chunk_start order):
///
///   catalog := "HYGRAPH COLDCAT 2\n"
///              varint(file_count) (varint(len) file_name)×file_count
///              varint(series_count) group×series_count
///              crc:u32le  -- CRC-32 of every preceding byte
///   group   := varint(len) series_name  varint(entry_count) entry×count
///   entry   := varint(file_index)
///              zz(chunk_start − prev.chunk_start)  zz(offset − prev.offset)
///              zz(length − prev.length)  zz(count − prev.count)
///              zz(min_t − chunk_start)  zz(max_t − min_t)  flags:u8
///              min_v:f64le  [max_v]  [varint agg.count]  [agg.min]
///              [agg.max]  [zz(first.t − min_t) zz(last.t − max_t)]
///              [sum sum_sq first.value last.value]
///
/// `prev` is the group's previous entry (zero for its first); zz is the
/// zigzag varint of a wrapping uint64 difference; doubles travel as their
/// raw 8-byte bit patterns. Flag bit 0 is all_finite; bits 1–6 each elide
/// a bracketed field that is bitwise equal to what it derives from
/// (agg.count == count, agg.min == min_v, agg.max == max_v, both agg.first.t
/// == min_t and agg.last.t == max_t, max_v == min_v, and the one-sample form
/// sum == first.value == last.value == min_v with sum_sq == min_v * min_v
/// for a non-NaN min_v). Bit 7 is reserved. Every input round-trips bit for
/// bit: NaN payloads, -0.0, ±inf, INT64_MIN/MAX and count 0 included.
std::string EncodeColdCatalog(const std::vector<ColdCatalogEntry>& entries);

/// Total decoder for untrusted catalog bytes (fuzzed): any malformed
/// header, field, count or trailer is kCorruption, never a crash or an
/// unbounded allocation. Reads the v2 layout above and, read-only, the v1
/// text catalog of earlier builds (one "chunk" line per entry, doubles as
/// u64 hex, "crc" trailer line). v2 checks every count against the bytes
/// left, file indexes against the file table, offsets against the frame
/// header, lengths against kWalMaxRecordSize, names for emptiness (and file
/// names for '/'), and rejects unknown flag bits. Entry `id`s are left unset.
Result<std::vector<ColdCatalogEntry>> ParseColdCatalog(std::string_view bytes);

struct SegmentStoreOptions {
  Env* env = nullptr;                ///< null -> Env::Default()
  std::string dir;                   ///< segment directory (created if missing)
  size_t cache_budget_bytes = 64u << 20;  ///< chunk cache budget
  obs::MetricsRegistry* metrics = nullptr;  ///< null -> process-global
};

/// The cold tier: sealed Gorilla chunks appended to one segment file per
/// process epoch through the checksummed Env layer, fronted by a
/// fixed-budget LRU cache of decoded-frame payloads.
///
/// On-disk layout inside `dir`:
///   seg-<n>.seg        append-only chunk records, WAL framing
///                      ([u32 len][u32 crc][payload]); every series spilled
///                      in a process epoch shares one file, so a checkpoint
///                      fsyncs one file however many series it spilled.
///                      A file is never rewritten; an I/O error retires it
///                      and the next Put or SyncSegments opens seg-<n+1>
///   catalog-<seq>.cold the live-record catalog paired with snapshot
///                      <seq> (EncodeColdCatalog: binary, one group per
///                      series, derived fields elided), written
///                      tmp+sync+rename; v1 text catalogs still load
///
/// Durability protocol (DurableStore::Checkpoint, DESIGN.md §15): segment
/// appends happen at spill time, SyncSegments() makes them durable, then
/// WriteCatalog(seq) publishes exactly the live set — so any catalog on
/// disk only ever references synced bytes. A failed append or fsync
/// retires the active file: the bytes after its last good sync may be torn
/// or (fsyncgate) silently dropped, so the records appended since then are
/// re-read, CRC-checked and rewritten into a fresh file under the same
/// ColdChunkIds before SyncSegments can succeed. A handle whose fsync
/// failed is never fsynced again. Records dropped by Forget stay on disk
/// as unreferenced garbage until the file itself is obsolete (no segment
/// GC in v1; EXPERIMENTS.md quantifies the overhead).
///
/// Locking: one internal mutex at LockRank::kColdTier — acquirable under
/// a series shard lock (spill, lazy pins) and under durable.append_mu_
/// (checkpoint); only the env leaf sits below. Pin drops the lock for the
/// disk read, so cache hits never wait on a miss's I/O.
class SegmentStore final : public ts::ColdTier {
 public:
  /// Opens (or creates) the segment directory and scans it so fresh
  /// segment files never collide with a previous epoch's.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const SegmentStoreOptions& options);

  ~SegmentStore() override;

  // --- ColdTier ---------------------------------------------------------
  Result<ts::ColdChunkId> Put(const std::string& series_name,
                              Timestamp chunk_start,
                              const ts::ColdChunkMeta& meta,
                              const std::string& encoded) override;
  Result<std::shared_ptr<const std::string>> Pin(
      ts::ColdChunkId id) const override;
  void Forget(ts::ColdChunkId id) override;

  // --- checkpoint integration ------------------------------------------
  /// Makes every record appended since the last successful call durable:
  /// rewrites records stranded in a retired file into the active one, then
  /// fsyncs the active file (one fsync, or none when nothing is pending).
  /// On failure the active file is retired and the pending records stay
  /// pending, so a retry rewrites them instead of re-syncing the handle.
  Status SyncSegments();
  /// Writes catalog-<seq>.cold listing every live record (tmp+sync+rename,
  /// so a crash never leaves a half-written catalog under the final name)
  /// and returns its size in bytes.
  Result<uint64_t> WriteCatalog(uint64_t seq);
  /// Reads catalog-<seq>.cold, registers each record as live and pinnable,
  /// and returns the entries with their assigned ids. A missing catalog is
  /// an empty tier (snapshots from before tiering), not an error.
  Result<std::vector<ColdCatalogEntry>> LoadCatalog(uint64_t seq);
  /// Removes every catalog except `keep_seq`'s, plus abandoned .tmp files.
  Status GcCatalogs(uint64_t keep_seq);

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t cached_bytes = 0;
    size_t live_records = 0;
  };
  CacheStats cache_stats() const;

  const std::string& dir() const { return options_.dir; }

 private:
  struct Record {
    std::string file;         // relative segment file name
    uint64_t offset = 0;      // payload offset (frame header skipped)
    uint32_t length = 0;
    bool live = true;         // false after Forget: still pinnable,
                              // omitted from the next catalog
    std::string series;
    Timestamp chunk_start = 0;
    ts::ColdChunkMeta meta;   // re-published by WriteCatalog
  };
  /// The one file Put appends to. Null before the epoch's first Put and
  /// after an I/O error retired the previous one.
  struct ActiveFile {
    std::string name;         // relative file name
    std::unique_ptr<WritableFile> file;
    uint64_t written = 0;     // bytes appended so far
  };
  struct CacheEntry {
    std::shared_ptr<const std::string> bytes;
    std::list<ts::ColdChunkId>::iterator lru_pos;
  };

  explicit SegmentStore(const SegmentStoreOptions& options);

  std::string PathFor(const std::string& file) const;
  /// Frames `payload` onto the active file (opening a fresh one if none is
  /// active) and returns the payload's offset. A failed append retires
  /// the file: its tail is torn, so no later frame may follow it.
  Result<uint64_t> AppendFrame(const std::string& payload)
      HYGRAPH_REQUIRES(mu_);
  /// Closes and drops the active file; later appends open a fresh one.
  void RetireActive() HYGRAPH_REQUIRES(mu_);
  /// Copies a record stranded in a retired file into the active file:
  /// payload from the cache, else re-read from disk and CRC-checked.
  Status Rewrite(ts::ColdChunkId id, Record& rec) HYGRAPH_REQUIRES(mu_);
  /// Reads one record's frame from disk and verifies length and CRC.
  Result<std::string> ReadPayload(ts::ColdChunkId id, const std::string& path,
                                  uint64_t offset, uint32_t length) const;
  /// Inserts into the cache and evicts LRU tails past the budget. The
  /// evicted entries only drop the cache's reference — readers holding the
  /// shared_ptr keep the bytes.
  void CacheInsert(ts::ColdChunkId id,
                   std::shared_ptr<const std::string> bytes) const
      HYGRAPH_REQUIRES(mu_);
  void CacheTouch(ts::ColdChunkId id) const HYGRAPH_REQUIRES(mu_);

  SegmentStoreOptions options_;
  Env* env_;

  struct Instruments {
    obs::Counter* put_records;
    obs::Counter* put_bytes;
    obs::Counter* files_created;
    obs::Counter* segment_syncs;
    obs::Counter* records_rewritten;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* cache_evictions;
    obs::Gauge* cache_bytes;
  };
  Instruments m_{};

  mutable Mutex mu_{LockRank::kColdTier};
  uint64_t next_id_ HYGRAPH_GUARDED_BY(mu_) = 1;
  uint64_t next_file_index_ HYGRAPH_GUARDED_BY(mu_) = 0;
  std::unordered_map<ts::ColdChunkId, Record> records_ HYGRAPH_GUARDED_BY(mu_);
  std::unique_ptr<ActiveFile> active_ HYGRAPH_GUARDED_BY(mu_);
  // Records appended since the last successful SyncSegments, in append
  // order: exactly the records a failed append or fsync can strand.
  std::vector<ts::ColdChunkId> unsynced_ HYGRAPH_GUARDED_BY(mu_);
  // LRU cache of payload bytes, most-recent at the front.
  mutable std::unordered_map<ts::ColdChunkId, CacheEntry> cache_
      HYGRAPH_GUARDED_BY(mu_);
  mutable std::list<ts::ColdChunkId> lru_ HYGRAPH_GUARDED_BY(mu_);
  mutable size_t cache_bytes_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t hits_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t evictions_ HYGRAPH_GUARDED_BY(mu_) = 0;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_
