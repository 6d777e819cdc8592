#include "ts/hypertable.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace hygraph::ts {

Status HypertableStore::NoSuchSeries(SeriesId id) {
  return Status::NotFound("no series with id " + std::to_string(id));
}

HypertableStore::HypertableStore(HypertableOptions options)
    : options_(options), map_mu_(nullptr) {
  if (options_.chunk_duration <= 0) options_.chunk_duration = kDay;
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.chunks_total = metrics_->counter("hypertable.chunks_total");
  m_.chunks_scanned = metrics_->counter("hypertable.chunks_scanned");
  m_.chunks_from_cache = metrics_->counter("hypertable.chunks_from_cache");
  m_.samples_scanned = metrics_->counter("hypertable.samples_scanned");
  m_.chunks_decoded = metrics_->counter("hypertable.chunks_decoded");
  m_.chunks_sealed = metrics_->counter("hypertable.chunks_sealed");
  m_.chunks_unsealed = metrics_->counter("hypertable.chunks_unsealed");
  m_.bytes_raw = metrics_->counter("hypertable.bytes_raw");
  m_.bytes_compressed = metrics_->counter("hypertable.bytes_compressed");
  m_.chunks_zonemap_skipped =
      metrics_->counter("hypertable.chunks_zonemap_skipped");
  m_.chunk_pins = metrics_->counter("concurrency.chunk_pins");
  m_.snapshot_pins = metrics_->counter("concurrency.snapshot_pins");
  m_.unseal_conflicts = metrics_->counter("concurrency.chunk_unseal_conflicts");
  m_.series_cow_copies = metrics_->counter("concurrency.series_cow_copies");
  m_.cold_chunks_spilled = metrics_->counter("hypertable.cold_chunks_spilled");
  m_.cold_bytes_spilled = metrics_->counter("hypertable.cold_bytes_spilled");
  m_.cold_chunks_adopted = metrics_->counter("hypertable.cold_chunks_adopted");
  m_.cold_pins = metrics_->counter("hypertable.cold_pins");
  sync_ = SyncInstruments::ForRegistry(metrics_);
  map_mu_ = std::make_unique<SharedMutex>(LockRank::kSeriesMap, sync_);
}

SeriesId HypertableStore::Create(std::string name) {
  ExclusiveLock lock(*map_mu_);
  const SeriesId id = next_id_++;
  series_.emplace(id,
                  std::make_unique<StoredSeries>(std::move(name), sync_));
  return id;
}

HypertableStore::StoredSeries* HypertableStore::FindSeries(SeriesId id) const {
  SharedLock lock(*map_mu_);
  auto it = series_.find(id);
  return it == series_.end() ? nullptr : it->second.get();
}

bool HypertableStore::Exists(SeriesId id) const {
  return FindSeries(id) != nullptr;
}

size_t HypertableStore::series_count() const {
  SharedLock lock(*map_mu_);
  return series_.size();
}

Timestamp HypertableStore::ChunkStartFor(Timestamp t) const {
  const Duration d = options_.chunk_duration;
  Timestamp q = t / d;
  if (t < 0 && t % d != 0) --q;  // floor division for negative times
  return q * d;
}

std::vector<HypertableStore::Chunk>& HypertableStore::MutableChunks(
    StoredSeries& s) const {
  if (s.pins->load(std::memory_order_acquire) > 0) {
    // A live Fork() pinned this vector: detach. Sealed chunks share their
    // immutable payload by refcount; only hot vectors actually copy. The
    // old vector (and its caches) stays alive for the snapshot, which may
    // still be filling a cache concurrently — hence the fresh-flag
    // acquire before trusting a copied aggregate. Zero pins means every
    // snapshot of this incarnation is destroyed, and the acquire pairs
    // with the release decrement in ~StoredSeries, ordering all of a dead
    // snapshot's reads before this writer mutates the buffers in place.
    auto fresh = std::make_shared<std::vector<Chunk>>();
    fresh->reserve(s.chunks->size());
    for (const Chunk& chunk : *s.chunks) {
      Chunk copy;
      copy.start = chunk.start;
      copy.samples = chunk.samples;
      copy.sealed = chunk.sealed;
      copy.cold = chunk.cold;
      copy.cold_meta = chunk.cold_meta;
      if (chunk.cache != nullptr) {
        copy.cache = std::make_unique<AggCache>();
        if (chunk.cache->fresh.load(std::memory_order_acquire)) {
          copy.cache->agg = chunk.cache->agg;
          copy.cache->fresh.store(true, std::memory_order_release);
        }
      }
      fresh->push_back(std::move(copy));
    }
    s.chunks = std::move(fresh);
    s.pins = std::make_shared<std::atomic<uint64_t>>(0);
    m_.series_cow_copies->Increment();
  }
  return *s.chunks;
}

size_t HypertableStore::ChunkIndexFor(std::vector<Chunk>& chunks,
                                      Timestamp t) const {
  const Timestamp start = ChunkStartFor(t);
  auto it = std::lower_bound(
      chunks.begin(), chunks.end(), start,
      [](const Chunk& c, Timestamp st) { return c.start < st; });
  if (it == chunks.end() || it->start != start) {
    it = chunks.insert(it, Chunk{});
    it->start = start;
    it->cache = std::make_unique<AggCache>();
  }
  return static_cast<size_t>(it - chunks.begin());
}

void HypertableStore::InsertIntoChunk(Chunk& chunk, Timestamp t,
                                      double value) {
  if (chunk.samples.empty() || chunk.samples.back().t < t) {
    chunk.samples.push_back(Sample{t, value});  // the in-order append
  } else {
    auto pos = std::lower_bound(
        chunk.samples.begin(), chunk.samples.end(), t,
        [](const Sample& s, Timestamp ts) { return s.t < ts; });
    if (pos != chunk.samples.end() && pos->t == t) {
      pos->value = value;
    } else {
      chunk.samples.insert(pos, Sample{t, value});
    }
  }
  // Relaxed is enough: the writer holds the shard lock exclusively, so no
  // reader can observe the flag until the lock is released (which orders).
  chunk.cache->fresh.store(false, std::memory_order_relaxed);
}

void HypertableStore::Seal(Chunk& chunk) const {
  if (chunk.is_sealed() || chunk.samples.empty()) return;
  // One pass computes the aggregate and builds the zone map, so a sealed
  // chunk always answers covered aggregates without decoding. The sealed
  // form is a fresh immutable object: readers pinned to a previous
  // incarnation keep decoding the bytes they pinned.
  auto sealed = std::make_shared<SealedChunk>();
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  bool all_finite = true;
  for (const Sample& s : chunk.samples) {
    sealed->agg.Add(s);
    if (std::isfinite(s.value)) {
      min_v = std::min(min_v, s.value);
      max_v = std::max(max_v, s.value);
    } else {
      all_finite = false;
      if (!std::isnan(s.value)) {  // ±inf participates in value ordering
        min_v = std::min(min_v, s.value);
        max_v = std::max(max_v, s.value);
      }
    }
  }
  sealed->min_t = chunk.samples.front().t;
  sealed->max_t = chunk.samples.back().t;
  sealed->min_v = min_v;
  sealed->max_v = max_v;
  sealed->all_finite = all_finite;
  sealed->encoded = EncodeChunk(chunk.samples);
  sealed->encoded.shrink_to_fit();
  sealed->count = chunk.samples.size();
  m_.chunks_sealed->Increment();
  m_.bytes_raw->Add(chunk.samples.size() * sizeof(Sample));
  m_.bytes_compressed->Add(sealed->encoded.size());
  chunk.sealed = std::move(sealed);
  chunk.samples = std::vector<Sample>{};  // release the hot buffer
  chunk.cache.reset();  // sealed chunks answer from sealed->agg
}

Status HypertableStore::Unseal(Chunk& chunk) const {
  if (!chunk.is_sealed()) return Status::OK();
  AggState sealed_agg;
  std::vector<Sample> samples;
  if (chunk.sealed != nullptr) {
    if (chunk.sealed.use_count() > 1) {
      // Readers are pinned to this sealed object; they keep the old bytes
      // (and see the pre-write state) while this series moves on.
      m_.unseal_conflicts->Increment();
    }
    const Status decode = DecodeChunkWide(chunk.sealed->encoded, &samples);
    if (!decode.ok()) {
      return Status::Internal("sealed chunk failed to decode: " +
                              decode.message());
    }
    sealed_agg = chunk.sealed->agg;
  } else {
    // Cold chunk: pin the bytes back out of the tier, decode, and forget
    // the record — it drops out of the next catalog, but stays pinnable so
    // readers holding it keep their snapshot. The on-disk record also
    // keeps a crash before the next checkpoint consistent: recovery
    // re-adopts it and replays the triggering write from the WAL.
    if (options_.cold_tier == nullptr) {
      return Status::Internal("cold chunk without an attached cold tier");
    }
    m_.cold_pins->Increment();
    auto pinned = options_.cold_tier->Pin(chunk.cold);
    if (!pinned.ok()) {
      // The tier's status already carries the chunk id and failure class
      // (kCorruption for CRC/frame damage) — propagate it unwrapped so
      // callers can tell media corruption from logic errors.
      return pinned.status();
    }
    const Status decode = DecodeChunkWide(**pinned, &samples);
    if (!decode.ok()) {
      return Status::Internal("cold chunk failed to decode: " +
                              decode.message());
    }
    sealed_agg = chunk.cold_meta->agg;
    options_.cold_tier->Forget(chunk.cold);
    chunk.cold = kInvalidColdChunk;
    chunk.cold_meta.reset();
  }
  chunk.samples = std::move(samples);
  chunk.cache = std::make_unique<AggCache>();
  {
    // The sealed aggregate covered exactly these samples; seed the hot
    // cache with it (the caller's insert will invalidate as needed). The
    // cache is brand new, so the fill lock is uncontended by construction.
    MutexLock fill_lock(chunk.cache->mu);
    chunk.cache->agg = sealed_agg;
  }
  chunk.cache->fresh.store(true, std::memory_order_release);
  chunk.sealed = nullptr;
  m_.chunks_unsealed->Increment();
  m_.chunks_decoded->Increment();
  return Status::OK();
}

void HypertableStore::SealColdChunks(std::vector<Chunk>& chunks) const {
  if (!options_.compress_sealed_chunks || chunks.empty()) return;
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    Seal(chunks[i]);
  }
}

const AggState& HypertableStore::HotAggregate(const Chunk& chunk) {
  AggCache& cache = *chunk.cache;
  if (!cache.fresh.load(std::memory_order_acquire)) {
    MutexLock fill_lock(cache.mu);
    if (!cache.fresh.load(std::memory_order_relaxed)) {
      AggState agg;
      for (const Sample& s : chunk.samples) agg.Add(s);
      cache.agg = agg;
      cache.fresh.store(true, std::memory_order_release);
    }
  }
  return cache.agg;
}

Result<HypertableStore::SeriesReadView> HypertableStore::PinView(
    SeriesId id, const Interval& interval, bool want_aggregates) const {
  const StoredSeries* s = FindSeries(id);
  if (s == nullptr) return Status(NoSuchSeries(id));
  SeriesReadView view;
  view.name = s->name;
  SharedLock lock(s->mu);
  const std::vector<Chunk>& chunks = *s->chunks;
  view.chunk_count = chunks.size();
  for (const Chunk& chunk : chunks) {
    if (chunk.start >= interval.end) break;  // chunks sorted by start
    if (!ChunkSpan(chunk).Overlaps(interval) || chunk.size() == 0) continue;
    if (chunk.sealed != nullptr &&
        (chunk.sealed->max_t < interval.start ||
         chunk.sealed->min_t >= interval.end)) {
      continue;  // exact data bounds beat the nominal chunk span
    }
    if (chunk.is_cold() &&
        (chunk.cold_meta->max_t < interval.start ||
         chunk.cold_meta->min_t >= interval.end)) {
      continue;  // cold zone map, same pruning without touching the tier
    }
    PinnedChunk p;
    p.start = chunk.start;
    p.size = chunk.size();
    if (chunk.sealed != nullptr) {
      p.sealed_ref = chunk.sealed;  // refcount pin; decoded outside the lock
      p.first_t = chunk.sealed->min_t;
      p.last_t = chunk.sealed->max_t;
      p.min_v = chunk.sealed->min_v;
      p.max_v = chunk.sealed->max_v;
      p.all_finite = chunk.sealed->all_finite;
      p.has_zone = true;
      if (want_aggregates) {
        p.agg = chunk.sealed->agg;
        p.agg_valid = true;
      }
      m_.chunk_pins->Increment();
    } else if (chunk.is_cold()) {
      // Only the handle + metadata are pinned here; the bytes are pinned
      // lazily by ForEachChunkSample, so zone-map-skipped and
      // aggregate-covered cold chunks never touch the tier.
      p.cold_id = chunk.cold;
      p.cold_meta = chunk.cold_meta;
      p.tier = options_.cold_tier;
      p.first_t = chunk.cold_meta->min_t;
      p.last_t = chunk.cold_meta->max_t;
      p.min_v = chunk.cold_meta->min_v;
      p.max_v = chunk.cold_meta->max_v;
      p.all_finite = chunk.cold_meta->all_finite;
      p.has_zone = true;
      if (want_aggregates) {
        p.agg = chunk.cold_meta->agg;
        p.agg_valid = true;
      }
      m_.chunk_pins->Increment();
    } else {
      p.first_t = chunk.samples.front().t;
      p.last_t = chunk.samples.back().t;
      auto lo = std::lower_bound(
          chunk.samples.begin(), chunk.samples.end(), interval.start,
          [](const Sample& sample, Timestamp t) { return sample.t < t; });
      auto hi = std::lower_bound(
          lo, chunk.samples.end(), interval.end,
          [](const Sample& sample, Timestamp t) { return sample.t < t; });
      p.hot.assign(lo, hi);
      if (want_aggregates) {
        p.agg = HotAggregate(chunk);
        p.agg_valid = true;
      }
    }
    view.overlap_estimate += p.size;
    view.chunks.push_back(std::move(p));
  }
  return view;
}

Status HypertableStore::InsertSamples(SeriesId id,
                                      std::span<const Sample> samples) {
  StoredSeries* s = FindSeries(id);
  if (s == nullptr) return NoSuchSeries(id);
  if (samples.empty()) return Status::OK();
  ExclusiveLock lock(s->mu);
  std::vector<Chunk>& chunks = MutableChunks(*s);
  Status status = Status::OK();
  // Set when a sample lands behind the newest chunk or opens a new one:
  // only then can a chunk other than the newest be hot at the end.
  bool touched_cold = false;
  size_t idx = chunks.size();  // no chunk resolved yet
  for (const Sample& sample : samples) {
    // Consecutive samples mostly share a chunk: only re-resolve when `t`
    // falls outside the last one.
    if (idx == chunks.size() || chunks[idx].start != ChunkStartFor(sample.t)) {
      const size_t before = chunks.size();
      idx = ChunkIndexFor(chunks, sample.t);
      touched_cold |= chunks.size() > before || idx + 1 < chunks.size();
    }
    Chunk& chunk = chunks[idx];
    if (chunk.is_sealed()) {
      status = Unseal(chunk);
      if (!status.ok()) break;
    }
    InsertIntoChunk(chunk, sample.t, sample.value);
  }
  // Keep the invariant "only the newest chunk is hot", also after a partial
  // run: every chunk the run unsealed or opened behind the newest is sealed
  // once, here.
  if (touched_cold) SealColdChunks(chunks);
  return status;
}

Result<size_t> HypertableStore::Retain(SeriesId id, const Interval& keep) {
  StoredSeries* stored = FindSeries(id);
  if (stored == nullptr) return Status(NoSuchSeries(id));
  ExclusiveLock lock(stored->mu);
  std::vector<Chunk>& chunks = MutableChunks(*stored);
  size_t removed = 0;
  std::vector<Chunk> kept;
  kept.reserve(chunks.size());
  // A cold chunk dropped wholesale releases its tier record (the next
  // catalog omits it); pinned readers keep the bytes they pinned.
  auto drop_cold_record = [this](Chunk& chunk) {
    if (chunk.is_cold() && options_.cold_tier != nullptr) {
      options_.cold_tier->Forget(chunk.cold);
    }
  };
  for (Chunk& chunk : chunks) {
    const Interval chunk_span = ChunkSpan(chunk);
    if (!chunk_span.Overlaps(keep)) {
      removed += chunk.size();  // drop the whole chunk, sealed or hot
      drop_cold_record(chunk);
      continue;
    }
    if (keep.ContainsInterval(chunk_span)) {
      kept.push_back(std::move(chunk));
      continue;  // fully inside, untouched
    }
    if (chunk.is_sealed()) {
      // The zone map resolves boundary chunks without decoding (cold
      // chunks included — their zone map is resident): all data inside
      // `keep` keeps the chunk intact, all data outside drops it.
      const Timestamp data_min =
          chunk.sealed != nullptr ? chunk.sealed->min_t : chunk.cold_meta->min_t;
      const Timestamp data_max =
          chunk.sealed != nullptr ? chunk.sealed->max_t : chunk.cold_meta->max_t;
      if (data_min >= keep.start && data_max < keep.end) {
        kept.push_back(std::move(chunk));
        continue;
      }
      if (data_max < keep.start || data_min >= keep.end) {
        removed += chunk.size();
        drop_cold_record(chunk);
        continue;
      }
      HYGRAPH_RETURN_IF_ERROR(Unseal(chunk));
    }
    const size_t before = chunk.samples.size();
    std::erase_if(chunk.samples,
                  [&keep](const Sample& s) { return !keep.Contains(s.t); });
    removed += before - chunk.samples.size();
    chunk.cache->fresh.store(false, std::memory_order_relaxed);
    if (!chunk.samples.empty()) kept.push_back(std::move(chunk));
  }
  chunks = std::move(kept);
  SealColdChunks(chunks);
  return removed;
}

Result<size_t> HypertableStore::SpillSealed() {
  if (options_.cold_tier == nullptr) return size_t{0};
  size_t spilled = 0;
  for (SeriesId id : Ids()) {
    StoredSeries* s = FindSeries(id);
    if (s == nullptr) continue;  // raced with nothing today, but stay safe
    ExclusiveLock lock(s->mu);
    std::vector<Chunk>& chunks = MutableChunks(*s);
    for (Chunk& chunk : chunks) {
      if (chunk.sealed == nullptr) continue;  // hot or already cold
      const SealedChunk& sealed = *chunk.sealed;
      auto meta = std::make_shared<ColdChunkMeta>();
      meta->count = sealed.count;
      meta->min_t = sealed.min_t;
      meta->max_t = sealed.max_t;
      meta->min_v = sealed.min_v;
      meta->max_v = sealed.max_v;
      meta->all_finite = sealed.all_finite;
      meta->encoded_size = sealed.encoded.size();
      meta->agg = sealed.agg;
      // Disk write under the exclusive shard lock: acceptable at
      // checkpoint frequency, and it keeps spill atomic against readers
      // (a PinView sees either the sealed ref or the cold handle, never
      // a gap).
      auto put = options_.cold_tier->Put(s->name, chunk.start, *meta,
                                         sealed.encoded);
      if (!put.ok()) return put.status();
      m_.cold_chunks_spilled->Increment();
      m_.cold_bytes_spilled->Add(meta->encoded_size);
      chunk.cold = *put;
      chunk.cold_meta = std::move(meta);
      chunk.sealed.reset();  // the RAM copy of the bytes drops here
      ++spilled;
    }
  }
  return spilled;
}

Status HypertableStore::AdoptColdChunk(SeriesId id, Timestamp chunk_start,
                                       ColdChunkId cold,
                                       const ColdChunkMeta& meta) {
  if (cold == kInvalidColdChunk) {
    return Status::InvalidArgument("adopting an invalid cold chunk handle");
  }
  StoredSeries* s = FindSeries(id);
  if (s == nullptr) return NoSuchSeries(id);
  ExclusiveLock lock(s->mu);
  std::vector<Chunk>& chunks = MutableChunks(*s);
  auto it = std::lower_bound(
      chunks.begin(), chunks.end(), chunk_start,
      [](const Chunk& c, Timestamp st) { return c.start < st; });
  if (it != chunks.end() && it->start == chunk_start) {
    // Recovery adopts the catalog before replaying the WAL, so the slot
    // must be empty; an occupied slot means the catalog and snapshot
    // disagree about who owns this chunk.
    return Status::Corruption("cold chunk overlaps a resident chunk");
  }
  Chunk chunk;
  chunk.start = chunk_start;
  chunk.cold = cold;
  chunk.cold_meta = std::make_shared<ColdChunkMeta>(meta);
  chunks.insert(it, std::move(chunk));
  m_.cold_chunks_adopted->Increment();
  return Status::OK();
}

Result<std::vector<Sample>> HypertableStore::MaterializeResident(
    SeriesId id) const {
  const StoredSeries* s = FindSeries(id);
  if (s == nullptr) return Status(NoSuchSeries(id));
  SharedLock lock(s->mu);
  std::vector<Sample> out;
  for (const Chunk& chunk : *s->chunks) {
    if (chunk.is_cold()) continue;  // durability owned by the cold tier
    if (chunk.sealed != nullptr) {
      std::vector<Sample> scratch;
      const Status decode = DecodeChunkWide(chunk.sealed->encoded, &scratch);
      if (!decode.ok()) {
        return Status::Internal("sealed chunk failed to decode: " +
                                decode.message());
      }
      out.insert(out.end(), scratch.begin(), scratch.end());
    } else {
      out.insert(out.end(), chunk.samples.begin(), chunk.samples.end());
    }
  }
  return out;  // chunk order == time order, so this is sorted
}

Result<size_t> HypertableStore::SampleCount(SeriesId id) const {
  const StoredSeries* s = FindSeries(id);
  if (s == nullptr) return Status(NoSuchSeries(id));
  SharedLock lock(s->mu);
  size_t n = 0;
  for (const Chunk& c : *s->chunks) n += c.size();
  return n;
}

Result<std::vector<Sample>> HypertableStore::Scan(
    SeriesId id, const Interval& interval) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // The result buffer is query-held memory: reserve it against the
  // installed context's governor before allocating (kResourceExhausted
  // instead of OOM). The context releases its reservations when the query
  // ends.
  QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr) {
    HYGRAPH_RETURN_IF_ERROR(
        ctx->ReserveMemory(view->overlap_estimate * sizeof(Sample)));
  }
  std::vector<Sample> out;
  out.reserve(view->overlap_estimate);
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(
        VisitPinned(chunk, interval, ScanPredicate{}, ctx, &scratch,
                    [&out](const Sample& s) { out.push_back(s); }));
  }
  return out;
}

Result<Series> HypertableStore::Materialize(SeriesId id,
                                            const Interval& interval) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // Same accounting as Scan: the materialized series belongs to the query.
  QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr) {
    HYGRAPH_RETURN_IF_ERROR(
        ctx->ReserveMemory(view->overlap_estimate * sizeof(Sample)));
  }
  Series out(view->name);
  out.Reserve(view->overlap_estimate);
  Status append = Status::OK();
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(VisitPinned(
        chunk, interval, ScanPredicate{}, ctx, &scratch, [&](const Sample& s) {
          if (append.ok()) append = out.Append(s.t, s.value);
        }));
  }
  HYGRAPH_RETURN_IF_ERROR(append);
  return out;
}

Result<size_t> HypertableStore::CountMatching(
    SeriesId id, const Interval& interval,
    const ScanPredicate& predicate) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  QueryContext* ctx = QueryContext::Current();
  std::vector<Sample> scratch;
  size_t n = 0;
  for (const PinnedChunk& chunk : view->chunks) {
    HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
    if (ZoneMapExcludes(chunk, predicate)) {
      m_.chunks_zonemap_skipped->Increment();
      continue;
    }
    // Whole-chunk match: every sample is inside the interval and the
    // zone's value range satisfies the predicate end to end. Works for
    // cold chunks too — the zone map is resident, so this path never pins
    // the bytes.
    if (chunk.has_zone && interval.Contains(chunk.first_t) &&
        interval.Contains(chunk.last_t) && chunk.all_finite &&
        predicate.Matches(chunk.min_v) && predicate.Matches(chunk.max_v)) {
      n += chunk.size;
      m_.chunks_from_cache->Increment();
      continue;
    }
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(VisitPinned(chunk, interval, predicate, ctx,
                                        &scratch,
                                        [&n](const Sample&) { ++n; }));
  }
  return n;
}

Result<double> HypertableStore::AggregateWith(
    SeriesId id, const Interval& interval, AggKind kind, QueryContext* ctx,
    std::vector<Sample>* scratch) const {
  auto view = PinView(id, interval, options_.enable_chunk_cache);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // One AggState partial per chunk, merged in chunk order, so the
  // floating-point reduction order is fixed by the chunk layout.
  AggState total;
  for (const PinnedChunk& chunk : view->chunks) {
    HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
    // Zone-map coverage: the cached partial answers the chunk whenever the
    // interval covers its actual data span, even if the nominal chunk span
    // pokes out of the interval.
    if (chunk.agg_valid && interval.Contains(chunk.first_t) &&
        interval.Contains(chunk.last_t)) {
      total.Merge(chunk.agg);
      m_.chunks_from_cache->Increment();
      continue;
    }
    m_.chunks_scanned->Increment();
    AggState partial;
    HYGRAPH_RETURN_IF_ERROR(VisitPinned(
        chunk, interval, ScanPredicate{}, ctx, scratch,
        [&partial](const Sample& s) { partial.Add(s); }));
    total.Merge(partial);
  }
  return total.Finalize(kind);
}

Result<double> HypertableStore::Aggregate(SeriesId id,
                                          const Interval& interval,
                                          AggKind kind) const {
  std::vector<Sample> scratch;
  return AggregateWith(id, interval, kind, QueryContext::Current(), &scratch);
}

Status HypertableStore::AggregateMany(const std::vector<SeriesId>& ids,
                                      const Interval& interval, AggKind kind,
                                      std::vector<Result<double>>* out) const {
  out->clear();
  QueryContext* ctx = QueryContext::Current();
  std::vector<Sample> scratch;
  std::vector<Result<double>> results;
  results.reserve(ids.size());
  for (const SeriesId id : ids) {
    auto result = AggregateWith(id, interval, kind, ctx, &scratch);
    // Per-series failures (unknown id, corrupt chunk) stay in their slot;
    // only governance violations abort the batch.
    if (!result.ok() && result.status().IsInterruption()) {
      return result.status();
    }
    results.push_back(std::move(result));
  }
  *out = std::move(results);
  return Status::OK();
}

Result<Series> HypertableStore::WindowAggregate(SeriesId id,
                                                const Interval& interval,
                                                Duration width,
                                                AggKind kind) const {
  if (width <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  auto view = PinView(id, interval, options_.enable_chunk_cache);
  if (!view.ok()) return view.status();
  Series out(view->name + "_" + AggKindName(kind));
  // Clamp the sweep to the data actually present. Only pinned (interval-
  // overlapping) chunks matter: data outside the interval cannot shift the
  // clamped span, and the grid anchor below falls back to span.start only
  // when the interval is unbounded — in which case every chunk is pinned.
  Timestamp data_start = kMaxTimestamp;
  Timestamp data_end = kMinTimestamp;
  for (const PinnedChunk& chunk : view->chunks) {
    data_start = std::min(data_start, chunk.first_t);
    data_end = std::max(data_end, chunk.last_t + 1);
  }
  const Interval span = interval.Intersect(Interval{data_start, data_end});
  if (span.empty()) return out;
  // Grid anchored at interval.start (matching ts::WindowAggregate).
  const Timestamp anchor =
      interval.start == kMinTimestamp ? span.start : interval.start;

  auto bucket_of = [&](Timestamp t) { return (t - anchor) / width; };

  m_.chunks_total->Add(view->chunk_count);
  QueryContext* ctx = QueryContext::Current();
  bool have_bucket = false;
  int64_t current_bucket = 0;
  AggState state;
  auto flush = [&]() -> Status {
    if (!have_bucket || state.count == 0) return Status::OK();
    auto value = state.Finalize(kind);
    if (!value.ok()) return value.status();
    return out.Append(anchor + current_bucket * width, *value);
  };
  // Each chunk reduces to an ordered run of (bucket, partial) pairs, which
  // is stitched onto the output in chunk order, merging a seam bucket that
  // spans a chunk boundary.
  using BucketPartial = std::pair<int64_t, AggState>;
  std::vector<BucketPartial> chunk_run;
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    HYGRAPH_RETURN_IF_ERROR(CheckChunk(ctx));
    if (chunk.start >= span.end) continue;
    chunk_run.clear();
    // Fast path: the chunk lies entirely within one bucket that also lies
    // inside the requested interval — its cached partial stands in for
    // all of its samples (classic continuous-aggregate reuse when width is
    // a multiple of the chunk duration and grids align).
    if (chunk.agg_valid && span.Contains(chunk.first_t) &&
        span.Contains(chunk.last_t) &&
        bucket_of(chunk.first_t) == bucket_of(chunk.last_t)) {
      chunk_run.emplace_back(bucket_of(chunk.first_t), chunk.agg);
      m_.chunks_from_cache->Increment();
    } else {
      m_.chunks_scanned->Increment();
      HYGRAPH_RETURN_IF_ERROR(VisitPinned(
          chunk, span, ScanPredicate{}, ctx, &scratch, [&](const Sample& s) {
            const int64_t bucket = bucket_of(s.t);
            if (chunk_run.empty() || chunk_run.back().first != bucket) {
              chunk_run.emplace_back(bucket, AggState{});
            }
            chunk_run.back().second.Add(s);
          }));
    }
    for (const BucketPartial& partial : chunk_run) {
      if (!have_bucket || partial.first != current_bucket) {
        HYGRAPH_RETURN_IF_ERROR(flush());
        current_bucket = partial.first;
        state = AggState{};
        have_bucket = true;
      }
      state.Merge(partial.second);
    }
  }
  HYGRAPH_RETURN_IF_ERROR(flush());
  return out;
}

Result<std::string> HypertableStore::Name(SeriesId id) const {
  const StoredSeries* s = FindSeries(id);
  if (s == nullptr) return Status(NoSuchSeries(id));
  return s->name;  // immutable after Create; no shard lock needed
}

std::vector<SeriesId> HypertableStore::Ids() const {
  SharedLock lock(*map_mu_);
  std::vector<SeriesId> ids;
  ids.reserve(series_.size());
  for (const auto& [id, _] : series_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

HypertableMemory HypertableStore::MemoryUsage() const {
  SharedLock map_lock(*map_mu_);
  HypertableMemory m;
  for (const auto& [id, stored] : series_) {
    (void)id;
    SharedLock lock(stored->mu);
    for (const Chunk& chunk : *stored->chunks) {
      if (chunk.sealed != nullptr) {
        m.sealed_samples += chunk.sealed->count;
        m.sealed_bytes += chunk.sealed->encoded.size();
      } else if (chunk.is_cold()) {
        // Bytes live in the cold tier, not this store's RAM.
        m.cold_samples += chunk.cold_meta->count;
        m.cold_bytes += chunk.cold_meta->encoded_size;
      } else {
        m.hot_samples += chunk.samples.size();
        m.hot_bytes += chunk.samples.capacity() * sizeof(Sample);
      }
    }
  }
  return m;
}

std::shared_ptr<const HypertableStore> HypertableStore::Fork() const {
  HypertableOptions options = options_;
  options.metrics = metrics_;  // share the registry: work attributes here
  auto fork = std::make_shared<HypertableStore>(std::move(options));
  SharedLock map_lock(*map_mu_);
  fork->next_id_ = next_id_;
  fork->series_.reserve(series_.size());
  for (const auto& [id, stored] : series_) {
    auto copy = std::make_unique<StoredSeries>(stored->name, sync_);
    SharedLock lock(stored->mu);
    copy->chunks = stored->chunks;  // O(1) pin; origin detaches on write
    copy->pins = stored->pins;
    // Relaxed is enough for the increment: the shared hold of stored->mu
    // orders it before any writer's pin check (the exclusive hold).
    copy->pins->fetch_add(1, std::memory_order_relaxed);
    copy->holds_pin = true;
    fork->series_.emplace(id, std::move(copy));
  }
  m_.snapshot_pins->Increment();
  return fork;
}

HypertableStats HypertableStore::stats() const {
  HypertableStats s;
  s.chunks_total = m_.chunks_total->value();
  s.chunks_scanned = m_.chunks_scanned->value();
  s.chunks_from_cache = m_.chunks_from_cache->value();
  s.samples_scanned = m_.samples_scanned->value();
  s.chunks_decoded = m_.chunks_decoded->value();
  s.chunks_sealed = m_.chunks_sealed->value();
  s.chunks_unsealed = m_.chunks_unsealed->value();
  s.bytes_raw = m_.bytes_raw->value();
  s.bytes_compressed = m_.bytes_compressed->value();
  s.chunks_zonemap_skipped = m_.chunks_zonemap_skipped->value();
  s.cold_chunks_spilled = m_.cold_chunks_spilled->value();
  s.cold_bytes_spilled = m_.cold_bytes_spilled->value();
  s.cold_chunks_adopted = m_.cold_chunks_adopted->value();
  s.cold_pins = m_.cold_pins->value();
  return s;
}

void HypertableStore::ResetStats() {
  // Resets only this store's instruments, not the whole registry, which
  // may be shared with the enclosing backend.
  m_.chunks_total->Reset();
  m_.chunks_scanned->Reset();
  m_.chunks_from_cache->Reset();
  m_.samples_scanned->Reset();
  m_.chunks_decoded->Reset();
  m_.chunks_sealed->Reset();
  m_.chunks_unsealed->Reset();
  m_.bytes_raw->Reset();
  m_.bytes_compressed->Reset();
  m_.chunks_zonemap_skipped->Reset();
  m_.cold_chunks_spilled->Reset();
  m_.cold_bytes_spilled->Reset();
  m_.cold_chunks_adopted->Reset();
  m_.cold_pins->Reset();
}

}  // namespace hygraph::ts
