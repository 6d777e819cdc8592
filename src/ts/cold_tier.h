#ifndef HYGRAPH_TS_COLD_TIER_H_
#define HYGRAPH_TS_COLD_TIER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "ts/aggregate.h"

namespace hygraph::ts {

/// Process-unique handle to one chunk spilled to the cold tier. 0 is never
/// a valid handle (a Chunk with cold == kInvalidColdChunk is resident).
using ColdChunkId = uint64_t;
inline constexpr ColdChunkId kInvalidColdChunk = 0;

/// Everything the hypertable keeps in RAM about a spilled chunk: the zone
/// map (exact time bounds + value bounds) and the whole-chunk aggregate,
/// exactly the fields a SealedChunk carries minus the encoded bytes. With
/// this, zone-map pruning, covered-aggregate answers and CountMatching's
/// whole-chunk fast path never touch the disk — only a scan that must
/// decode the samples pins the bytes through ColdTier::Pin.
struct ColdChunkMeta {
  size_t count = 0;          ///< samples inside the encoded payload
  Timestamp min_t = 0;       ///< exact first sample time
  Timestamp max_t = 0;       ///< exact last sample time
  double min_v = 0.0;        ///< value zone map (see SealedChunk)
  double max_v = 0.0;
  bool all_finite = false;   ///< no NaN/±inf: [min_v, max_v] covers all
  size_t encoded_size = 0;   ///< payload bytes on disk (MemoryUsage)
  AggState agg;              ///< whole-chunk aggregate from seal time
};

/// The storage interface the hypertable spills sealed chunks through. The
/// ts layer cannot depend on the storage layer (layering: ts -> sync/obs/
/// common only), so the disk-backed implementation (storage::SegmentStore)
/// is injected via HypertableStore::AttachColdTier — dependency inversion,
/// same shape as Env underneath the durability layer.
///
/// Contract:
///   * Put durably appends an encoded (Gorilla) chunk and returns its
///     handle. Bytes are guaranteed on disk only after the owner's sync
///     point (checkpoint protocol, DESIGN.md §15) — the caller keeps the
///     chunk recoverable from snapshot + WAL until then.
///   * Pin returns the encoded bytes, via the implementation's fixed-budget
///     chunk cache: a hit is RAM-speed, a miss loads from disk and verifies
///     the record's CRC frame. The returned shared_ptr keeps the bytes
///     alive regardless of cache eviction — eviction only drops the
///     cache's own reference, so in-flight scans are never invalidated
///     (refcount-safe, mirroring SealedChunk pinning).
///   * Forget removes the handle from the live set (the next catalog write
///     omits it) but the record stays pinnable for the process lifetime:
///     readers holding a PinnedChunk over an unsealed-or-retained cold
///     chunk keep their snapshot semantics.
///
/// Thread safety: all three methods are safe to call concurrently; Pin is
/// called by readers on any connection's thread. Implementations rank their internal
/// lock at LockRank::kColdTier (above the series shard lock, below the env
/// leaf).
class ColdTier {
 public:
  virtual ~ColdTier();

  virtual Result<ColdChunkId> Put(const std::string& series_name,
                                  Timestamp chunk_start,
                                  const ColdChunkMeta& meta,
                                  const std::string& encoded) = 0;

  virtual Result<std::shared_ptr<const std::string>> Pin(
      ColdChunkId id) const = 0;

  virtual void Forget(ColdChunkId id) = 0;
};

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_COLD_TIER_H_
