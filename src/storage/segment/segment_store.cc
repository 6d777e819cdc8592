#include "storage/segment/segment_store.h"

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "core/serialize.h"
#include "storage/wal.h"

namespace hygraph::storage {

namespace {

constexpr size_t kFrameHeaderSize = 8;  // [u32 len][u32 crc]
constexpr char kCatalogMagic[] = "hygraph-coldcat v1";
/// Hard ceiling on catalog entries: far above any real store (it would
/// mean > kMaxCatalogEntries spilled chunks), low enough that a hostile
/// count field cannot drive a giant reserve().
constexpr uint64_t kMaxCatalogEntries = 1u << 22;

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t bits) { return std::bit_cast<double>(bits); }

/// Appends `v` as exactly `digits` lowercase hex digits, zero-padded (the
/// "%016" PRIx64 / "%08x" forms without a format-string round trip).
void AppendHex(std::string* out, uint64_t v, int digits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = digits - 1; i >= 0; --i) {
    buf[i] = kDigits[v & 0xfu];
    v >>= 4;
  }
  out->append(buf, static_cast<size_t>(digits));
}

/// Catalog field writers: a separating space, then the value — an
/// integer in decimal, or a double as its 16-hex-digit bit pattern.
template <typename Int>
void AppendIntField(std::string* out, Int v) {
  char buf[24];
  buf[0] = ' ';
  const auto [end, ec] = std::to_chars(buf + 1, buf + sizeof(buf), v);
  (void)ec;  // 23 chars hold any 64-bit integer
  out->append(buf, end);
}

void AppendBitsField(std::string* out, double v) {
  out->push_back(' ');
  AppendHex(out, DoubleBits(v), 16);
}

/// strtoull/strtoll wrappers that insist the whole token parses — partial
/// parses (e.g. "12x") are how corrupt fields sneak through.
bool ParseU64(const std::string& tok, int base, uint64_t* out) {
  if (tok.empty()) return false;
  if (tok[0] == '-' || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(tok.c_str(), &end, base);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

bool ParseI64(const std::string& tok, int64_t* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

bool ParseDoubleBits(const std::string& tok, double* out) {
  uint64_t bits = 0;
  if (!ParseU64(tok, 16, &bits)) return false;
  *out = BitsDouble(bits);
  return true;
}

}  // namespace

std::string EncodeColdCatalog(const std::vector<ColdCatalogEntry>& entries) {
  // One buffer for the whole catalog: a line's fixed fields take at most
  // 320 bytes (eight 20-digit integers, eight 16-digit hex words, spaces),
  // and percent-encoding at most triples a name.
  size_t reserve = 64;
  for (const ColdCatalogEntry& e : entries) {
    reserve += 320 + 3 * (e.series.size() + e.file.size());
  }
  std::string out;
  out.reserve(reserve);
  out += kCatalogMagic;
  out += "\nchunks";
  AppendIntField(&out, entries.size());
  out += '\n';
  for (const ColdCatalogEntry& e : entries) {
    const ts::ColdChunkMeta& m = e.meta;
    out += "chunk ";
    core::AppendEncodedField(&out, e.series);
    AppendIntField(&out, e.chunk_start);
    out += ' ';
    core::AppendEncodedField(&out, e.file);
    AppendIntField(&out, e.offset);
    AppendIntField(&out, e.length);
    AppendIntField(&out, m.count);
    AppendIntField(&out, m.min_t);
    AppendIntField(&out, m.max_t);
    AppendBitsField(&out, m.min_v);
    AppendBitsField(&out, m.max_v);
    out += m.all_finite ? " 1" : " 0";
    AppendIntField(&out, m.agg.count);
    AppendBitsField(&out, m.agg.sum);
    AppendBitsField(&out, m.agg.sum_sq);
    AppendBitsField(&out, m.agg.min);
    AppendBitsField(&out, m.agg.max);
    AppendIntField(&out, m.agg.first.t);
    AppendBitsField(&out, m.agg.first.value);
    AppendIntField(&out, m.agg.last.t);
    AppendBitsField(&out, m.agg.last.value);
    out += '\n';
  }
  const uint32_t crc = Crc32(out);  // covers everything above the trailer
  out += "crc ";
  AppendHex(&out, crc, 8);
  out += '\n';
  return out;
}

Result<std::vector<ColdCatalogEntry>> ParseColdCatalog(std::string_view text) {
  // Split off the CRC trailer first: the last non-empty line must be
  // "crc <8 hex>", and the CRC covers everything before that line.
  const size_t trailer_pos = text.rfind("crc ");
  if (trailer_pos == std::string_view::npos ||
      (trailer_pos != 0 && text[trailer_pos - 1] != '\n')) {
    return Status::Corruption("cold catalog: missing crc trailer");
  }
  std::string_view trailer = text.substr(trailer_pos);
  std::string_view body = text.substr(0, trailer_pos);
  {
    std::istringstream in{std::string(trailer)};
    std::string word, hex, extra;
    in >> word >> hex;
    if (word != "crc" || hex.size() != 8 || (in >> extra)) {
      return Status::Corruption("cold catalog: malformed crc trailer");
    }
    uint64_t want = 0;
    if (!ParseU64(hex, 16, &want)) {
      return Status::Corruption("cold catalog: malformed crc trailer");
    }
    if (static_cast<uint32_t>(want) != Crc32(body)) {
      return Status::Corruption("cold catalog: checksum mismatch");
    }
  }

  std::istringstream in{std::string(body)};
  std::string line;
  if (!std::getline(in, line) || line != kCatalogMagic) {
    return Status::Corruption("cold catalog: bad magic");
  }
  if (!std::getline(in, line)) {
    return Status::Corruption("cold catalog: missing chunk count");
  }
  uint64_t count = 0;
  {
    std::istringstream hdr{line};
    std::string word, tok, extra;
    hdr >> word >> tok;
    if (word != "chunks" || !ParseU64(tok, 10, &count) || (hdr >> extra)) {
      return Status::Corruption("cold catalog: malformed chunk count");
    }
  }
  if (count > kMaxCatalogEntries) {
    return Status::Corruption("cold catalog: implausible chunk count " +
                              std::to_string(count));
  }
  std::vector<ColdCatalogEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption("cold catalog: truncated at entry " +
                                std::to_string(i));
    }
    std::istringstream row{line};
    std::string word, series_tok, file_tok;
    std::string t[18];
    row >> word >> series_tok;
    ColdCatalogEntry e;
    int64_t i64 = 0;
    uint64_t u64 = 0;
    if (word != "chunk" || series_tok.empty()) {
      return Status::Corruption("cold catalog: malformed entry " +
                                std::to_string(i));
    }
    auto series = core::DecodeField(series_tok);
    if (!series.ok() || series->empty()) {
      return Status::Corruption("cold catalog: bad series in entry " +
                                std::to_string(i));
    }
    e.series = *series;
    row >> t[0] >> file_tok;
    for (int k = 1; k < 18; ++k) row >> t[k];
    std::string extra;
    if (row.fail() || (row >> extra)) {
      return Status::Corruption("cold catalog: malformed entry " +
                                std::to_string(i));
    }
    auto file = core::DecodeField(file_tok);
    if (!file.ok() || file->empty() ||
        file->find('/') != std::string::npos) {  // stays inside the dir
      return Status::Corruption("cold catalog: bad file in entry " +
                                std::to_string(i));
    }
    e.file = *file;
    const bool fields_ok =
        ParseI64(t[0], &i64) && (e.chunk_start = i64, true) &&
        ParseU64(t[1], 10, &u64) && (e.offset = u64, true) &&
        ParseU64(t[2], 10, &u64) && u64 <= kWalMaxRecordSize &&
        (e.length = static_cast<uint32_t>(u64), true) &&
        ParseU64(t[3], 10, &u64) && (e.meta.count = u64, true) &&
        ParseI64(t[4], &i64) && (e.meta.min_t = i64, true) &&
        ParseI64(t[5], &i64) && (e.meta.max_t = i64, true) &&
        ParseDoubleBits(t[6], &e.meta.min_v) &&
        ParseDoubleBits(t[7], &e.meta.max_v) &&
        (t[8] == "0" || t[8] == "1") && (e.meta.all_finite = t[8] == "1", true) &&
        ParseU64(t[9], 10, &u64) && (e.meta.agg.count = u64, true) &&
        ParseDoubleBits(t[10], &e.meta.agg.sum) &&
        ParseDoubleBits(t[11], &e.meta.agg.sum_sq) &&
        ParseDoubleBits(t[12], &e.meta.agg.min) &&
        ParseDoubleBits(t[13], &e.meta.agg.max) &&
        ParseI64(t[14], &i64) && (e.meta.agg.first.t = i64, true) &&
        ParseDoubleBits(t[15], &e.meta.agg.first.value) &&
        ParseI64(t[16], &i64) && (e.meta.agg.last.t = i64, true) &&
        ParseDoubleBits(t[17], &e.meta.agg.last.value);
    if (!fields_ok) {
      return Status::Corruption("cold catalog: malformed entry " +
                                std::to_string(i));
    }
    if (e.offset < kFrameHeaderSize) {
      return Status::Corruption("cold catalog: offset inside frame header");
    }
    e.meta.encoded_size = e.length;
    entries.push_back(std::move(e));
  }
  std::string leftover;
  if (in >> leftover) {
    return Status::Corruption("cold catalog: trailing data");
  }
  return entries;
}

SegmentStore::SegmentStore(const SegmentStoreOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  obs::MetricsRegistry& reg = options_.metrics != nullptr
                                  ? *options_.metrics
                                  : obs::MetricsRegistry::Global();
  m_.put_records = reg.counter("coldtier.put_records");
  m_.put_bytes = reg.counter("coldtier.put_bytes");
  m_.files_created = reg.counter("coldtier.segment_files_created");
  m_.segment_syncs = reg.counter("coldtier.segment_syncs");
  m_.records_rewritten = reg.counter("coldtier.records_rewritten");
  m_.cache_hits = reg.counter("coldtier.cache_hits");
  m_.cache_misses = reg.counter("coldtier.cache_misses");
  m_.cache_evictions = reg.counter("coldtier.cache_evictions");
  m_.cache_bytes = reg.gauge("coldtier.cache_bytes");
}

SegmentStore::~SegmentStore() {
  MutexLock lock(mu_);
  RetireActive();
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const SegmentStoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("segment store needs a directory");
  }
  auto store = std::unique_ptr<SegmentStore>(
      new SegmentStore(options));  // NOLINT(hygraph-naked-new): private ctor
  HYGRAPH_RETURN_IF_ERROR(store->env_->CreateDirIfMissing(options.dir));
  std::vector<std::string> children;
  HYGRAPH_RETURN_IF_ERROR(store->env_->GetChildren(options.dir, &children));
  uint64_t next = 0;
  for (const std::string& name : children) {
    uint64_t index = 0;
    if (std::sscanf(name.c_str(), "seg-%" PRIu64 ".seg", &index) == 1) {
      next = std::max(next, index + 1);
    }
  }
  MutexLock lock(store->mu_);
  store->next_file_index_ = next;
  return store;
}

std::string SegmentStore::PathFor(const std::string& file) const {
  return options_.dir + "/" + file;
}

Result<uint64_t> SegmentStore::AppendFrame(const std::string& payload) {
  if (active_ == nullptr) {
    // NewWritableFile truncates, so a fresh index (Open scanned past every
    // existing one) never clobbers an earlier epoch's or a retired file.
    auto fresh = std::make_unique<ActiveFile>();
    fresh->name = "seg-" + std::to_string(next_file_index_++) + ".seg";
    HYGRAPH_RETURN_IF_ERROR(
        env_->NewWritableFile(PathFor(fresh->name), &fresh->file));
    m_.files_created->Increment();
    active_ = std::move(fresh);
  }
  const std::string frame = EncodeWalFrame(payload);
  Status append = active_->file->Append(frame);
  if (!append.ok()) {
    // Part of the frame may have landed; offsets computed from `written`
    // would be wrong for every later frame in this file.
    RetireActive();
    return append;
  }
  const uint64_t payload_offset = active_->written + kFrameHeaderSize;
  active_->written += frame.size();
  m_.put_bytes->Add(frame.size());
  return payload_offset;
}

void SegmentStore::RetireActive() {
  if (active_ == nullptr) return;
  // Best effort: the records that matter are rewritten elsewhere, and the
  // file's synced prefix stays readable through its name.
  HYGRAPH_IGNORE_RESULT(active_->file->Close());
  active_.reset();
}

Result<ts::ColdChunkId> SegmentStore::Put(const std::string& series_name,
                                          Timestamp chunk_start,
                                          const ts::ColdChunkMeta& meta,
                                          const std::string& encoded) {
  if (encoded.size() > kWalMaxRecordSize) {
    return Status::InvalidArgument("cold chunk larger than a WAL frame");
  }
  MutexLock lock(mu_);
  auto offset = AppendFrame(encoded);
  if (!offset.ok()) return offset.status();

  const ts::ColdChunkId id = next_id_++;
  Record rec;
  rec.file = active_->name;
  rec.offset = *offset;
  rec.length = static_cast<uint32_t>(encoded.size());
  rec.series = series_name;
  rec.chunk_start = chunk_start;
  rec.meta = meta;
  rec.meta.encoded_size = encoded.size();
  records_.emplace(id, std::move(rec));
  unsynced_.push_back(id);
  m_.put_records->Increment();
  // Write-through: the chunk was just resident (the spiller held its
  // sealed bytes), so the near-term scan probability is high.
  CacheInsert(id, std::make_shared<const std::string>(encoded));
  return id;
}

Result<std::string> SegmentStore::ReadPayload(ts::ColdChunkId id,
                                              const std::string& path,
                                              uint64_t offset,
                                              uint32_t length) const {
  std::string frame;
  Status read = env_->ReadFileRange(path, offset - kFrameHeaderSize,
                                    static_cast<uint64_t>(length) +
                                        kFrameHeaderSize,
                                    &frame);
  if (!read.ok()) {
    return Status::Corruption("cold chunk " + std::to_string(id) +
                              " unreadable: " + read.ToString());
  }
  uint32_t stored_len = 0;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_len, frame.data(), sizeof(stored_len));
  std::memcpy(&stored_crc, frame.data() + 4, sizeof(stored_crc));
  std::string payload = frame.substr(kFrameHeaderSize);
  if (stored_len != length || Crc32(payload) != stored_crc) {
    return Status::Corruption("cold chunk " + std::to_string(id) +
                              " failed its frame check");
  }
  return payload;
}

Result<std::shared_ptr<const std::string>> SegmentStore::Pin(
    ts::ColdChunkId id) const {
  std::string path;
  uint64_t offset = 0;
  uint32_t length = 0;
  {
    MutexLock lock(mu_);
    auto rit = records_.find(id);
    if (rit == records_.end()) {
      return Status::NotFound("no cold chunk with id " + std::to_string(id));
    }
    auto cit = cache_.find(id);
    if (cit != cache_.end()) {
      ++hits_;
      m_.cache_hits->Increment();
      CacheTouch(id);
      return cit->second.bytes;
    }
    ++misses_;
    m_.cache_misses->Increment();
    path = PathFor(rit->second.file);
    offset = rit->second.offset;
    length = rit->second.length;
  }
  // Disk read outside the lock: a miss never blocks concurrent hits.
  auto payload = ReadPayload(id, path, offset, length);
  if (!payload.ok()) return payload.status();
  auto bytes = std::make_shared<const std::string>(std::move(*payload));
  MutexLock lock(mu_);
  auto cit = cache_.find(id);
  if (cit != cache_.end()) {
    // A racing miss populated the entry first; keep its bytes (they
    // verified against the same CRC) and just refresh recency.
    CacheTouch(id);
    return cit->second.bytes;
  }
  CacheInsert(id, bytes);
  return bytes;
}

void SegmentStore::Forget(ts::ColdChunkId id) {
  MutexLock lock(mu_);
  auto it = records_.find(id);
  if (it != records_.end()) it->second.live = false;
  // The record and its bytes stay pinnable: readers holding the handle
  // keep their snapshot, and recovery-before-next-checkpoint re-adopts
  // the on-disk record.
}

Status SegmentStore::Rewrite(ts::ColdChunkId id, Record& rec) {
  std::string payload;
  auto cit = cache_.find(id);
  if (cit != cache_.end()) {
    payload = *cit->second.bytes;
  } else {
    // The retired file still holds the frame in the OS unless the failure
    // dropped it; the CRC check tells the two apart.
    auto read = ReadPayload(id, PathFor(rec.file), rec.offset, rec.length);
    if (!read.ok()) return read.status();
    payload = std::move(*read);
  }
  auto offset = AppendFrame(payload);
  if (!offset.ok()) return offset.status();
  rec.file = active_->name;
  rec.offset = *offset;
  m_.records_rewritten->Increment();
  return Status::OK();
}

Status SegmentStore::SyncSegments() {
  MutexLock lock(mu_);
  if (unsynced_.empty()) return Status::OK();
  // Records stranded in a retired file move first, so the one fsync below
  // covers every pending record. Records rewritten by an earlier failed
  // attempt sit in a file that has since been retired too, and move again.
  for (const ts::ColdChunkId id : unsynced_) {
    Record& rec = records_.at(id);
    if (active_ != nullptr && rec.file == active_->name) continue;
    HYGRAPH_RETURN_IF_ERROR(Rewrite(id, rec));
  }
  m_.segment_syncs->Increment();
  Status sync = active_->file->Sync();
  if (!sync.ok()) {
    // fsyncgate: the kernel may have dropped the dirty pages and a second
    // fsync of this handle could report success without them. Retire it;
    // the retry rewrites the pending records into a fresh file.
    RetireActive();
    return sync;
  }
  unsynced_.clear();
  return Status::OK();
}

Status SegmentStore::WriteCatalog(uint64_t seq) {
  std::vector<ColdCatalogEntry> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(records_.size());
    for (const auto& [id, rec] : records_) {
      if (!rec.live) continue;
      ColdCatalogEntry e;
      e.series = rec.series;
      e.chunk_start = rec.chunk_start;
      e.file = rec.file;
      e.offset = rec.offset;
      e.length = rec.length;
      e.meta = rec.meta;
      e.id = id;
      entries.push_back(std::move(e));
    }
  }
  const std::string text = EncodeColdCatalog(entries);
  const std::string final_path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  const std::string tmp_path = final_path + ".tmp";
  std::unique_ptr<WritableFile> file;
  HYGRAPH_RETURN_IF_ERROR(env_->NewWritableFile(tmp_path, &file));
  HYGRAPH_RETURN_IF_ERROR(file->Append(text));
  HYGRAPH_RETURN_IF_ERROR(file->Sync());
  HYGRAPH_RETURN_IF_ERROR(file->Close());
  return env_->RenameFile(tmp_path, final_path);
}

Result<std::vector<ColdCatalogEntry>> SegmentStore::LoadCatalog(uint64_t seq) {
  const std::string path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  std::string text;
  Status read = env_->ReadFileToString(path, &text);
  if (read.code() == StatusCode::kNotFound) {
    return std::vector<ColdCatalogEntry>{};  // pre-tiering checkpoint
  }
  HYGRAPH_RETURN_IF_ERROR(read);
  auto entries = ParseColdCatalog(text);
  if (!entries.ok()) return entries.status();
  MutexLock lock(mu_);
  for (ColdCatalogEntry& e : *entries) {
    const ts::ColdChunkId id = next_id_++;
    Record rec;
    rec.file = e.file;
    rec.offset = e.offset;
    rec.length = e.length;
    rec.series = e.series;
    rec.chunk_start = e.chunk_start;
    rec.meta = e.meta;
    records_.emplace(id, std::move(rec));
    e.id = id;
  }
  return entries;
}

Status SegmentStore::GcCatalogs(uint64_t keep_seq) {
  std::vector<std::string> children;
  HYGRAPH_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
  const std::string keep = "catalog-" + std::to_string(keep_seq) + ".cold";
  for (const std::string& name : children) {
    const bool is_catalog =
        name.rfind("catalog-", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".cold") == 0;
    const bool is_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if ((is_catalog && name != keep) || is_tmp) {
      HYGRAPH_RETURN_IF_ERROR(env_->RemoveFile(options_.dir + "/" + name));
    }
  }
  return Status::OK();
}

SegmentStore::CacheStats SegmentStore::cache_stats() const {
  MutexLock lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.cached_bytes = cache_bytes_;
  for (const auto& [id, rec] : records_) {
    (void)id;
    if (rec.live) ++s.live_records;
  }
  return s;
}

void SegmentStore::CacheInsert(ts::ColdChunkId id,
                               std::shared_ptr<const std::string> bytes) const {
  cache_bytes_ += bytes->size();
  lru_.push_front(id);
  cache_.emplace(id, CacheEntry{std::move(bytes), lru_.begin()});
  while (cache_bytes_ > options_.cache_budget_bytes && !lru_.empty()) {
    const ts::ColdChunkId victim = lru_.back();
    auto it = cache_.find(victim);
    cache_bytes_ -= it->second.bytes->size();
    lru_.pop_back();
    cache_.erase(it);  // only the cache's ref drops; pinned readers keep theirs
    ++evictions_;
    m_.cache_evictions->Increment();
  }
  m_.cache_bytes->Set(static_cast<double>(cache_bytes_));
}

void SegmentStore::CacheTouch(ts::ColdChunkId id) const {
  auto it = cache_.find(id);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
}

}  // namespace hygraph::storage
