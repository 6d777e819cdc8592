#ifndef HYGRAPH_TS_HYPERTABLE_H_
#define HYGRAPH_TS_HYPERTABLE_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/time.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "ts/aggregate.h"
#include "ts/chunk_codec.h"
#include "ts/cold_tier.h"
#include "ts/series.h"

namespace hygraph::ts {

/// Configuration for HypertableStore.
struct HypertableOptions {
  /// Width of one time partition (chunk). TimescaleDB's default hypertable
  /// chunking is time-based; one day of 5-minute samples is 288 points.
  Duration chunk_duration = kDay;
  /// When true, each closed chunk keeps a decomposable aggregate (AggState)
  /// so range aggregates can skip scanning fully-covered chunks. This is the
  /// mechanism the ablation bench toggles.
  bool enable_chunk_cache = true;
  /// When true (default), only the newest chunk of each series stays hot
  /// (mutable `std::vector<Sample>`); every colder chunk is sealed into
  /// Gorilla-compressed bytes with a zone map (min/max time and value) and
  /// its cached aggregate. Out-of-order writes transparently unseal, merge
  /// and reseal. The compression ablation bench toggles this off.
  bool compress_sealed_chunks = true;
  /// Registry the store's "hypertable.*" work counters live in. When null
  /// (the default) the store creates and owns a private registry. A
  /// containing engine (PolyglotStore) passes its own registry so one
  /// snapshot covers the whole backend.
  obs::MetricsRegistry* metrics = nullptr;
  /// Cold tier sealed chunks spill to (null = everything stays in RAM).
  /// Not owned; set post-construction via AttachColdTier (single-threaded
  /// setup, before the store is shared). Lives in the options so Fork()
  /// snapshots keep reading the same tier.
  ColdTier* cold_tier = nullptr;
};

/// Counters describing the work a query did — used by tests and by the
/// scalability bench to show chunk pruning is effective. Assembled on
/// demand from the store's registry-backed "hypertable.*" counters (the
/// registry is the source of truth; this struct is its typed view).
struct HypertableStats {
  size_t chunks_total = 0;
  size_t chunks_scanned = 0;     ///< chunks whose samples were touched
  size_t chunks_from_cache = 0;  ///< chunks answered from their aggregate cache
  size_t samples_scanned = 0;
  /// Sealed chunks Gorilla-decoded on the read path (scans that could not
  /// be answered from zone maps or cached partials).
  size_t chunks_decoded = 0;
  // Compression lifecycle (cumulative since the last ResetStats()).
  size_t chunks_sealed = 0;    ///< seal operations performed
  size_t chunks_unsealed = 0;  ///< unseal operations (out-of-order writes)
  size_t bytes_raw = 0;         ///< raw sample bytes across those seals
  size_t bytes_compressed = 0;  ///< encoded bytes across those seals
  /// Sealed chunks skipped wholesale because their value zone map cannot
  /// intersect a pushed-down value predicate (the Q8 query shape).
  size_t chunks_zonemap_skipped = 0;
  // Cold tier (cumulative since ResetStats()).
  size_t cold_chunks_spilled = 0;  ///< sealed chunks written to the tier
  size_t cold_bytes_spilled = 0;   ///< encoded bytes across those spills
  size_t cold_chunks_adopted = 0;  ///< chunks re-attached at recovery
  size_t cold_pins = 0;            ///< scans that pinned cold bytes (hit or
                                   ///< miss — the tier counts those apart)
};

/// Current memory footprint of a HypertableStore's sample data, split by
/// chunk state. The compression acceptance metric is
/// sealed_bytes / sealed_samples.
struct HypertableMemory {
  size_t hot_samples = 0;
  size_t hot_bytes = 0;  ///< vector capacity, i.e. real footprint
  size_t sealed_samples = 0;
  size_t sealed_bytes = 0;  ///< encoded bytes resident in RAM
  size_t cold_samples = 0;  ///< samples whose bytes live only in the tier
  size_t cold_bytes = 0;    ///< their on-disk encoded size (not RAM)
  /// RAM footprint: cold bytes live in the tier's bounded cache, not here.
  size_t total_bytes() const { return hot_bytes + sealed_bytes; }
  double sealed_bytes_per_sample() const {
    return sealed_samples == 0
               ? 0.0
               : static_cast<double>(sealed_bytes) /
                     static_cast<double>(sealed_samples);
  }
};

/// A value predicate pushed down into a scan: keep samples with
/// min_value <= v <= max_value. Sealed chunks whose value zone map lies
/// entirely outside the bounds are skipped without decoding. The default
/// bounds are infinite, which matches every value (including NaN).
struct ScanPredicate {
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();

  bool unbounded() const {
    return min_value == -std::numeric_limits<double>::infinity() &&
           max_value == std::numeric_limits<double>::infinity();
  }
  /// NaN matches only an unbounded side, so bounded predicates never
  /// select NaN samples (SQL-style comparison semantics).
  bool Matches(double v) const {
    if (min_value != -std::numeric_limits<double>::infinity() &&
        !(v >= min_value)) {
      return false;
    }
    if (max_value != std::numeric_limits<double>::infinity() &&
        !(v <= max_value)) {
      return false;
    }
    return true;
  }
};

/// A time-partitioned store for univariate series, modelled on TimescaleDB's
/// hypertable: each series is split into fixed-width time chunks; within a
/// chunk, samples are kept sorted; every chunk carries min/max time bounds
/// and (optionally) a cached decomposable aggregate.
///
/// Storage follows the hot/sealed lifecycle of a real hypertable's
/// compressed columnar chunks: only the newest chunk of a series is a
/// mutable sample vector; colder chunks hold Gorilla-encoded bytes
/// (delta-of-delta timestamps + XOR values, see ts/chunk_codec.h) plus a
/// zone map and their cached aggregate. Reads stream through ScanVisit,
/// which decodes sealed chunks block-wise without materializing them;
/// range aggregates combine cached partials of fully-covered chunks with
/// streamed scans of the boundary chunks — which is why the polyglot
/// architecture wins Table 1's aggregation-heavy queries.
///
/// Concurrency (DESIGN.md §10): the store is safe for any mix of
/// concurrent readers and writers. The series map is guarded by one
/// reader-writer lock (exclusive only in Create); each series carries its
/// own shard lock, so ingest into one series never blocks scans of
/// another. Sealed chunks are immutable heap objects held by shared_ptr:
/// a reader pins the chunks it needs under a brief shared acquisition of
/// the shard lock (PinView), then decodes and streams entirely outside
/// any lock — unseal/merge/reseal swaps in a fresh object while pinned
/// readers keep the old one alive (epoch-by-refcount). Hot-chunk samples
/// overlapping the scan are copied out under the same shared hold.
/// Writers take the shard lock exclusively. Fork() snapshots the whole
/// store in O(series): it pins every series' chunk vector; the next write
/// to a pinned series detaches (copy-on-write).
class HypertableStore {
 public:
  explicit HypertableStore(HypertableOptions options = {});

  HypertableStore(const HypertableStore&) = delete;
  HypertableStore& operator=(const HypertableStore&) = delete;
  HypertableStore(HypertableStore&&) = default;
  HypertableStore& operator=(HypertableStore&&) = default;

  const HypertableOptions& options() const { return options_; }

  /// Registers a new series and returns its id.
  SeriesId Create(std::string name);

  /// True if the id refers to a registered series.
  bool Exists(SeriesId id) const;

  /// Inserts one sample; InsertSamples with a run of one.
  Status Insert(SeriesId id, Timestamp t, double value) {
    const Sample sample{t, value};
    return InsertSamples(id, {&sample, 1});
  }

  /// Inserts a run of samples into one series under one exclusive hold of
  /// its shard lock, applied in order up to the first failure. Out-of-order
  /// samples are accepted (sorted insert into the owning chunk, unsealing
  /// it first when necessary); a duplicate timestamp replaces the old
  /// value. Sealing is deferred to the end of the run, so k samples landing
  /// in one sealed chunk unseal and reseal it once, not k times.
  Status InsertSamples(SeriesId id, std::span<const Sample> samples);

  /// Deletes every sample of `id` outside `keep` — the paper's R3 staleness
  /// eviction. Whole chunks outside the interval are dropped O(1) per chunk
  /// (sealed ones without decoding); boundary chunks are unsealed, trimmed,
  /// and resealed. Readers pinned to dropped chunks keep scanning the data
  /// they pinned (snapshot semantics).
  Result<size_t> Retain(SeriesId id, const Interval& keep);

  /// Number of samples stored for `id`.
  Result<size_t> SampleCount(SeriesId id) const;

  /// Streams every sample of `id` inside `interval`, time-ordered, into
  /// `fn(const Sample&)` without materializing the range; sealed chunks are
  /// decoded block-wise. This is the zero-copy read path Scan/Materialize/
  /// Aggregate/WindowAggregate ride on. The shard lock is held shared only
  /// while pinning the overlapping chunks; decoding and visiting run
  /// without any lock.
  template <typename Fn>
  Status ScanVisit(SeriesId id, const Interval& interval, Fn&& fn) const {
    return ScanVisit(id, interval, ScanPredicate{}, std::forward<Fn>(fn));
  }

  /// ScanVisit with a pushed-down value predicate: only matching samples
  /// are visited, and sealed chunks whose value zone map cannot intersect
  /// the bounds are skipped without decoding (stats().chunks_zonemap_skipped).
  /// Callbacks run on the calling thread in time order; one that re-enters
  /// the store starts its own read call with its own decode buffer.
  template <typename Fn>
  Status ScanVisit(SeriesId id, const Interval& interval,
                   const ScanPredicate& predicate, Fn&& fn) const {
    auto view = PinView(id, interval, /*want_aggregates=*/false);
    if (!view.ok()) return view.status();
    m_.chunks_total->Add(view->chunk_count);
    QueryContext* ctx = QueryContext::Current();
    std::vector<Sample> scratch;
    for (const PinnedChunk& chunk : view->chunks) {
      HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
      if (ZoneMapExcludes(chunk, predicate)) {
        m_.chunks_zonemap_skipped->Increment();
        continue;
      }
      m_.chunks_scanned->Increment();
      HYGRAPH_RETURN_IF_ERROR(
          VisitPinned(chunk, interval, predicate, ctx, &scratch, fn));
    }
    return Status::OK();
  }

  /// Number of samples of `id` in `interval` matching `predicate` — the
  /// pushed-down series-predicate primitive (HGQL's ts_count_between).
  /// Zone-map assisted twice over: non-intersecting sealed chunks are
  /// skipped, and sealed chunks whose whole value range satisfies the
  /// predicate are counted without decoding.
  Result<size_t> CountMatching(SeriesId id, const Interval& interval,
                               const ScanPredicate& predicate) const;

  /// All samples of `id` inside `interval`, time-ordered.
  Result<std::vector<Sample>> Scan(SeriesId id, const Interval& interval) const;

  /// Materializes `id`'s samples inside `interval` as a Series.
  Result<Series> Materialize(SeriesId id, const Interval& interval) const;

  /// Range aggregate using chunk pruning + the per-chunk aggregate cache.
  /// Reduces one AggState partial per chunk in chunk order (boundary
  /// chunks fold their clipped samples into a chunk-local partial first),
  /// so the floating-point reduction order is fixed by the chunk layout.
  Result<double> Aggregate(SeriesId id, const Interval& interval,
                           AggKind kind) const;

  /// Batch form of Aggregate for multi-entity queries: one result slot per
  /// id, in input order (per-series failures — e.g. an unknown id — land
  /// in their slot without failing the batch). Each slot is bit-identical
  /// to what Aggregate(ids[i], ...) returns; the batch shares one decode
  /// buffer. Returns non-OK only for batch-wide governance violations
  /// (deadline, cancel, budget).
  Status AggregateMany(const std::vector<SeriesId>& ids,
                       const Interval& interval, AggKind kind,
                       std::vector<Result<double>>* out) const;

  /// Native tumbling-window aggregation (TimescaleDB's time_bucket): one
  /// output sample per non-empty window of `width` ms anchored at
  /// interval.start, stamped at the window start. Runs in a single pass
  /// over the overlapping chunks without materializing the range; when a
  /// window exactly covers one chunk, the chunk's cached partial answers
  /// it without touching its samples.
  Result<Series> WindowAggregate(SeriesId id, const Interval& interval,
                                 Duration width, AggKind kind) const;

  /// Name given at Create().
  Result<std::string> Name(SeriesId id) const;

  /// Ids of all registered series.
  std::vector<SeriesId> Ids() const;
  size_t series_count() const;

  /// Current sample-data footprint (hot vectors vs sealed encoded bytes).
  HypertableMemory MemoryUsage() const;

  /// An immutable snapshot of every series as of the call, sharing sealed
  /// chunk storage with this store by refcount (O(series), not O(samples):
  /// only hot vectors detach lazily on the origin's next write). The fork
  /// shares this store's metrics registry, so work done reading it still
  /// attributes to the origin; it must not outlive the origin.
  /// Analysis off inside: the fork is freshly constructed and not yet
  /// shared, so its map and shard locks are not taken (taking them would
  /// also trip the runtime rank checker: same rank as the origin's locks
  /// already held).
  std::shared_ptr<const HypertableStore> Fork() const
      HYGRAPH_NO_THREAD_SAFETY_ANALYSIS;

  /// Work counters accumulated since the last ResetStats(), assembled
  /// from the registry. Returned by value; binding to a const reference
  /// (lifetime extension) keeps old call sites source-compatible but the
  /// struct is a snapshot, not a live view.
  HypertableStats stats() const;
  void ResetStats();

  /// The registry holding this store's "hypertable.*" instruments (the
  /// injected one, or the privately owned default). Never null.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // -- cold tier (DESIGN.md §15) ---------------------------------------------

  /// Injects the cold tier sealed chunks spill to. Single-threaded setup:
  /// call before the store is shared (the pointer is read lock-free by
  /// every reader thereafter). Later Fork() snapshots see the same tier.
  void AttachColdTier(ColdTier* tier) { options_.cold_tier = tier; }

  /// Writes every RAM-resident sealed chunk to the attached tier and drops
  /// its encoded bytes (the zone map + aggregate stay resident, so pruning
  /// and covered aggregates never touch disk). Returns the number of
  /// chunks spilled. Holds each series' shard lock exclusively across that
  /// series' tier writes — acceptable because spilling happens at
  /// checkpoint frequency, not on the ingest path. No-op without a tier
  /// (or with compression off: nothing is ever sealed then).
  Result<size_t> SpillSealed();

  /// Re-attaches one spilled chunk at recovery: inserts a cold chunk with
  /// the given handle + metadata into `id`'s chunk list. Fails with
  /// kCorruption when a chunk with the same start already exists (the
  /// catalog and the snapshot disagree about who owns the range).
  Status AdoptColdChunk(SeriesId id, Timestamp chunk_start, ColdChunkId cold,
                        const ColdChunkMeta& meta);

  /// All samples of `id` that are NOT covered by a cold chunk (hot vectors
  /// plus RAM-resident sealed chunks), time-ordered. This is what a tiered
  /// checkpoint persists in the snapshot — cold chunks are persisted by
  /// the tier's segment files + catalog instead, which is what makes
  /// recovery O(hot data). Call after SpillSealed() for a minimal result.
  Result<std::vector<Sample>> MaterializeResident(SeriesId id) const;

 private:
  /// The immutable sealed form of a chunk. Published via shared_ptr and
  /// never mutated afterwards: readers that pinned it decode without locks
  /// while the owning series may have already unsealed, merged or dropped
  /// it (the pin keeps this object alive — the epoch is the refcount).
  struct SealedChunk {
    std::string encoded;  // chunk_codec bytes
    size_t count = 0;     // samples inside `encoded`
    // Zone map: exact first/last sample time and min/max finite value
    // (+inf/-inf when every value is NaN).
    Timestamp min_t = 0;
    Timestamp max_t = 0;
    double min_v = 0.0;
    double max_v = 0.0;
    bool all_finite = false;  // no NaN/±inf: [min_v, max_v] covers every value
    AggState agg;  // whole-chunk aggregate, computed at seal time
  };

  /// Lazily-filled whole-chunk aggregate of a hot chunk. Readers holding
  /// the shard lock *shared* may race to fill it, so the fill is
  /// double-checked under its own leaf mutex; `fresh` is the publication
  /// flag (release on fill, acquire on read). Per-chunk, so uninstrumented
  /// — but ranked: the fill may run while the shard lock is held.
  struct AggCache {
    Mutex mu{LockRank::kAggCache};
    std::atomic<bool> fresh{false};
    // Written under mu; read lock-free after observing `fresh` with acquire
    // order (readers doing so are NO_THREAD_SAFETY_ANALYSIS escapes).
    AggState agg HYGRAPH_GUARDED_BY(mu);
  };

  /// Chunk lifecycle: hot (mutable samples) -> sealed (immutable Gorilla
  /// bytes in RAM) -> cold (bytes only in the tier; RAM keeps the zone map
  /// + aggregate in cold_meta). Out-of-order writes walk the whole ladder
  /// back down: a cold chunk is pinned, decoded hot, and its tier record
  /// forgotten (the next checkpoint spills the merged result as a fresh
  /// record). Exactly one of {samples, sealed, cold} describes the data.
  struct Chunk {
    Timestamp start = 0;          // covers [start, start + chunk_duration)
    std::vector<Sample> samples;  // hot form; empty while sealed or cold
    std::shared_ptr<const SealedChunk> sealed;  // sealed form (resident)
    ColdChunkId cold = kInvalidColdChunk;       // cold form (spilled)
    std::shared_ptr<const ColdChunkMeta> cold_meta;  // set exactly when cold
    std::unique_ptr<AggCache> cache;  // present exactly while hot

    bool is_cold() const { return cold != kInvalidColdChunk; }
    bool is_sealed() const { return sealed != nullptr || is_cold(); }
    size_t size() const {
      if (sealed != nullptr) return sealed->count;
      if (is_cold()) return cold_meta->count;
      return samples.size();
    }
  };

  struct StoredSeries {
    StoredSeries(std::string series_name, const SyncInstruments& instruments)
        : name(std::move(series_name)),
          mu(LockRank::kSeriesShard, instruments),
          chunks(std::make_shared<std::vector<Chunk>>()),
          pins(std::make_shared<std::atomic<uint64_t>>(0)) {}
    ~StoredSeries() {
      // Release order pairs with the acquire load in MutableChunks: every
      // read this snapshot made of *chunks is ordered before the origin
      // writer sees the pin drop and reuses the buffers in place.
      if (holds_pin) pins->fetch_sub(1, std::memory_order_release);
    }

    const std::string name;  // immutable after Create — readable lock-free
    mutable SharedMutex mu;  // shard lock (rank kSeriesShard)
    // Sorted by start, non-overlapping. Held by shared_ptr so Fork() can
    // pin the whole vector in O(1); a writer finding it pinned
    // (pins > 0) detaches first (MutableChunks).
    std::shared_ptr<std::vector<Chunk>> chunks HYGRAPH_GUARDED_BY(mu);
    // Live Fork() snapshots sharing this `chunks` incarnation. The counter
    // travels with the incarnation: a detach gives the origin a fresh one,
    // so old snapshots keep pinning only the vector they hold. This exists
    // because shared_ptr::use_count() cannot decide "safe to mutate in
    // place": its load is relaxed, so a writer observing use_count()==1
    // after a snapshot died gets no happens-before edge over the dead
    // reader's accesses (the reason unique() was deprecated). Written under
    // mu except in the destructor, where exclusivity is structural.
    std::shared_ptr<std::atomic<uint64_t>> pins;
    bool holds_pin = false;  // fork copies drop one pin on destruction
  };

  /// One chunk as pinned by a reader: a refcounted reference to the
  /// immutable sealed object, a cold handle + metadata (the bytes are
  /// pinned lazily, only if the scan actually decodes — zone-map skips and
  /// covered-aggregate answers never touch the tier), or a copy of the hot
  /// samples overlapping the pin interval. Safe to read with no lock held.
  struct PinnedChunk {
    Timestamp start = 0;
    std::shared_ptr<const SealedChunk> sealed_ref;  // null unless sealed
    ColdChunkId cold_id = kInvalidColdChunk;        // non-zero when cold
    std::shared_ptr<const ColdChunkMeta> cold_meta; // set when cold
    const ColdTier* tier = nullptr;                 // for the lazy pin
    std::vector<Sample> hot;  // hot samples inside the pin interval
    size_t size = 0;          // total samples in the chunk
    Timestamp first_t = 0;    // true first/last sample time of the chunk
    Timestamp last_t = 0;
    // Value zone map, unified across sealed and cold (has_zone false for
    // hot chunks, whose samples are already materialized anyway).
    double min_v = 0.0;
    double max_v = 0.0;
    bool all_finite = false;
    bool has_zone = false;
    AggState agg;             // whole-chunk aggregate (when requested)
    bool agg_valid = false;

    bool sealed() const {
      return sealed_ref != nullptr || cold_id != kInvalidColdChunk;
    }
  };

  /// A consistent view of one series' chunks overlapping an interval,
  /// assembled under a shared hold of the shard lock and consumed with no
  /// lock at all.
  struct SeriesReadView {
    std::string name;
    size_t chunk_count = 0;  // all chunks in the series (for chunks_total)
    std::vector<PinnedChunk> chunks;  // overlapping, time-ordered
    size_t overlap_estimate = 0;      // sum of pinned chunk sizes
  };

  static Status NoSuchSeries(SeriesId id);

  /// Looks the series up under a shared hold of the map lock. The pointer
  /// stays valid for the store's lifetime (series are never destroyed, and
  /// the map stores stable heap nodes).
  StoredSeries* FindSeries(SeriesId id) const;

  /// Pins the chunks of `id` overlapping `interval` (see class comment).
  /// With `want_aggregates`, each pinned chunk also carries its whole-chunk
  /// AggState (sealed: precomputed at seal; hot: via the chunk's AggCache).
  Result<SeriesReadView> PinView(SeriesId id, const Interval& interval,
                                 bool want_aggregates) const;

  /// The series' chunk vector for mutation; requires the shard lock held
  /// exclusively. Detaches (copies) first when a Fork() pinned it.
  /// Analysis off inside: the detach copy reads the origin's AggCache::agg
  /// through the lock-free `fresh` acquire and seeds the fresh copy's
  /// cache before it is shared.
  std::vector<Chunk>& MutableChunks(StoredSeries& s) const
      HYGRAPH_REQUIRES(s.mu) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS;

  Interval ChunkSpan(const Chunk& chunk) const {
    return Interval{chunk.start, chunk.start + options_.chunk_duration};
  }
  Timestamp ChunkStartFor(Timestamp t) const;
  /// Index of the chunk owning `t`, inserting a fresh one if needed.
  size_t ChunkIndexFor(std::vector<Chunk>& chunks, Timestamp t) const;
  /// Sorted insert of one sample into an (unsealed) chunk.
  static void InsertIntoChunk(Chunk& chunk, Timestamp t, double value);

  /// Encodes a hot chunk into a fresh immutable SealedChunk (aggregate +
  /// zone map + Gorilla bytes) and drops the hot buffer.
  void Seal(Chunk& chunk) const;
  /// Decodes a sealed chunk back into its hot form. The old SealedChunk is
  /// released, not mutated — readers pinned to it are unaffected.
  Status Unseal(Chunk& chunk) const;
  /// Seals every chunk except the newest (when compression is on).
  void SealColdChunks(std::vector<Chunk>& chunks) const;

  /// Whole-chunk aggregate of a hot chunk via its AggCache; safe under a
  /// shared hold of the shard lock (double-checked fill). Analysis off:
  /// the fast path reads AggCache::agg lock-free after the `fresh`
  /// acquire-load (the fill itself runs under the cache mutex).
  static const AggState& HotAggregate(const Chunk& chunk)
      HYGRAPH_NO_THREAD_SAFETY_ANALYSIS;

  /// Aggregate's engine: pins the view, reduces one partial per chunk
  /// (cached or a clipped scan into a chunk-local AggState), merges them
  /// in chunk order and finalizes. `scratch` is the calling read's decode
  /// buffer, so AggregateMany reuses one across its batch.
  Result<double> AggregateWith(SeriesId id, const Interval& interval,
                               AggKind kind, QueryContext* ctx,
                               std::vector<Sample>* scratch) const;

  /// True when `chunk`'s value zone map proves no sample can match.
  static bool ZoneMapExcludes(const PinnedChunk& chunk,
                              const ScanPredicate& predicate) {
    return chunk.has_zone && !predicate.unbounded() &&
           !(chunk.min_v <= predicate.max_value &&
             chunk.max_v >= predicate.min_value);
  }

  /// Governance probe taken before each pinned chunk of a read (cancel,
  /// points budget, deadline), so a cut read stops at chunk granularity
  /// even when its chunks cost no decode work (cached partials, zone-map
  /// answers).
  static Status CheckChunk(QueryContext* ctx) {
    return ctx == nullptr ? Status::OK() : ctx->CheckNow();
  }

  /// The per-chunk visit primitive every read path rides on: decodes a
  /// sealed chunk through the wide columnar decoder (DecodeChunkWide) into
  /// `*scratch`, the calling read's decode buffer — or takes the hot
  /// samples as-is — clips to `interval` by binary search, and evaluates
  /// `predicate` over the decoded column in one branch-light loop, calling
  /// `fn` per match. The chunk's work (decoded samples) is then charged to
  /// `ctx`, so a scan cut by a deadline, Cancel(), or the points budget
  /// unwinds with the context's status at chunk granularity.
  template <typename Fn>
  Status VisitPinned(const PinnedChunk& chunk, const Interval& interval,
                     const ScanPredicate& predicate, QueryContext* ctx,
                     std::vector<Sample>* scratch, Fn&& fn) const {
    const std::vector<Sample>* samples = &chunk.hot;
    if (chunk.sealed()) {
      // Cold chunks pin their bytes here — at decode time, not at PinView
      // time — so chunks answered from zone maps or cached aggregates
      // never touch the tier. Eviction only drops the tier cache's own
      // reference, so the shared_ptr below stays valid.
      std::shared_ptr<const std::string> cold_bytes;
      const std::string* encoded = nullptr;
      if (chunk.sealed_ref != nullptr) {
        encoded = &chunk.sealed_ref->encoded;
      } else {
        m_.cold_pins->Increment();
        auto pinned = chunk.tier->Pin(chunk.cold_id);
        if (!pinned.ok()) {
          // Propagate unwrapped: the tier's status carries the chunk id
          // and the failure class (kCorruption for CRC/frame damage).
          return pinned.status();
        }
        cold_bytes = std::move(*pinned);
        encoded = cold_bytes.get();
      }
      m_.chunks_decoded->Increment();
      Status decode = DecodeChunkWide(*encoded, scratch);
      if (!decode.ok()) {
        return Status::Internal("sealed chunk failed to decode: " +
                                decode.message());
      }
      samples = scratch;
    }
    // Hot samples were already clipped to the pin interval; `interval` is
    // the same or narrower (WindowAggregate passes the clamped span).
    auto lo = std::lower_bound(
        samples->begin(), samples->end(), interval.start,
        [](const Sample& s, Timestamp t) { return s.t < t; });
    auto hi = std::lower_bound(
        lo, samples->end(), interval.end,
        [](const Sample& s, Timestamp t) { return s.t < t; });
    m_.samples_scanned->Add(static_cast<size_t>(hi - lo));
    for (auto s = lo; s != hi; ++s) {
      if (predicate.Matches(s->value)) fn(*s);
    }
    // A decoded chunk costs every sample it held; a hot one only the
    // samples inside the clip.
    const uint64_t work = chunk.sealed() ? samples->size()
                                         : static_cast<uint64_t>(hi - lo);
    if (ctx != nullptr && work > 0) return ctx->Charge(work);
    return Status::OK();
  }

  /// Registry-backed work instruments, resolved once at construction and
  /// cached as raw pointers so the hot scan templates above pay only a
  /// relaxed atomic add per increment. All point into `*metrics_`.
  struct Instruments {
    obs::Counter* chunks_total = nullptr;
    obs::Counter* chunks_scanned = nullptr;
    obs::Counter* chunks_from_cache = nullptr;
    obs::Counter* samples_scanned = nullptr;
    obs::Counter* chunks_decoded = nullptr;
    obs::Counter* chunks_sealed = nullptr;
    obs::Counter* chunks_unsealed = nullptr;
    obs::Counter* bytes_raw = nullptr;
    obs::Counter* bytes_compressed = nullptr;
    obs::Counter* chunks_zonemap_skipped = nullptr;
    // Concurrency layer (shared "concurrency.*" namespace with the lock
    // wrappers' SyncInstruments).
    obs::Counter* chunk_pins = nullptr;         ///< sealed chunks pinned by reads
    obs::Counter* snapshot_pins = nullptr;      ///< Fork() calls
    obs::Counter* unseal_conflicts = nullptr;   ///< unseals while readers pinned
    obs::Counter* series_cow_copies = nullptr;  ///< writer detaches after Fork
    // Cold tier.
    obs::Counter* cold_chunks_spilled = nullptr;  ///< chunks written to tier
    obs::Counter* cold_bytes_spilled = nullptr;   ///< encoded bytes spilled
    obs::Counter* cold_chunks_adopted = nullptr;  ///< recovery re-attachments
    obs::Counter* cold_pins = nullptr;            ///< lazy pins on scan paths
  };

  HypertableOptions options_;
  // Guards series_ and next_id_; exclusive only in Create(). Heap-held so
  // the store stays movable (single-threaded construction pattern; moving
  // a store with live readers is undefined, like any std container).
  // Rank kSeriesMap.
  std::unique_ptr<SharedMutex> map_mu_;
  // Heap nodes so StoredSeries (non-movable: owns a mutex) has a stable
  // address readers can hold across the map lock release.
  std::unordered_map<SeriesId, std::unique_ptr<StoredSeries>> series_
      HYGRAPH_GUARDED_BY(*map_mu_);
  SeriesId next_id_ HYGRAPH_GUARDED_BY(*map_mu_) = 0;
  // Owned when options.metrics was null; metrics_ and the cached
  // instrument pointers stay valid across moves because the registry is
  // heap-allocated.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments m_;
  SyncInstruments sync_;  // shared by every lock this store creates
};

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_HYPERTABLE_H_
