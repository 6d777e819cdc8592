#include "storage/segment/segment_store.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "core/serialize.h"
#include "storage/byte_io.h"
#include "storage/wal.h"

namespace hygraph::storage {

namespace {

constexpr size_t kFrameHeaderSize = 8;  // [u32 len][u32 crc]

// -- v2: the binary catalog, the only layout the writer emits ------------

constexpr std::string_view kCatalogMagic = "HYGRAPH COLDCAT 2\n";

/// Flag bits of a v2 entry. Bit 0 carries all_finite; each other bit says
/// a field is bitwise equal to the one it derives from and is not stored.
enum : uint8_t {
  kAllFinite = 1u << 0,
  kAggCountIsCount = 1u << 1,  // agg.count == count
  kAggMinIsMinV = 1u << 2,     // agg.min == min_v
  kAggMaxIsMaxV = 1u << 3,     // agg.max == max_v
  kEndsAreBounds = 1u << 4,    // agg.first.t == min_t, agg.last.t == max_t
  kMaxVIsMinV = 1u << 5,       // max_v == min_v
  kOneSample = 1u << 6,        // sum == first.value == last.value == min_v,
                               // sum_sq == min_v * min_v
  kKnownFlags = 0x7f,
};

// Smallest encodings, which bound every count against the bytes left: a
// file name is a length and one byte; an entry is seven one-byte varints,
// the flags and min_v; a series group is a length, one name byte, an entry
// count and one entry.
constexpr uint64_t kMinFileBytes = 2;
constexpr uint64_t kMinEntryBytes = 7 + 1 + 8;
constexpr uint64_t kMinGroupBytes = 3 + kMinEntryBytes;

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t bits) { return std::bit_cast<double>(bits); }

/// The one-sample form: what sealing a single finite-or-infinite sample
/// leaves behind. A NaN min_v never qualifies — the bits of NaN * NaN are
/// the platform's choice, so the decoder could not rebuild sum_sq exactly.
bool IsOneSampleForm(const ts::ColdChunkMeta& m) {
  const uint64_t min_bits = DoubleBits(m.min_v);
  return !std::isnan(m.min_v) && DoubleBits(m.agg.sum) == min_bits &&
         DoubleBits(m.agg.sum_sq) == DoubleBits(m.min_v * m.min_v) &&
         DoubleBits(m.agg.first.value) == min_bits &&
         DoubleBits(m.agg.last.value) == min_bits;
}

/// The fields each entry is a delta against: the previous entry of the
/// same series group, zero at the start of a group.
struct EntryBase {
  uint64_t chunk_start = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t count = 0;
};

// Ten varints, the flags byte and seven doubles at most.
constexpr size_t kMaxEntryBytes = 10 * kMaxVarintBytes + 1 + 7 * 8;

void AppendEntry(std::string* out, const ColdCatalogEntry& e,
                 uint64_t file_index, EntryBase* base) {
  const ts::ColdChunkMeta& m = e.meta;
  const uint64_t chunk_start = static_cast<uint64_t>(e.chunk_start);
  const uint64_t min_t = static_cast<uint64_t>(m.min_t);
  const uint64_t max_t = static_cast<uint64_t>(m.max_t);
  const uint64_t min_bits = DoubleBits(m.min_v);
  const uint64_t max_bits = DoubleBits(m.max_v);
  uint8_t flags = m.all_finite ? kAllFinite : 0;
  if (m.agg.count == m.count) flags |= kAggCountIsCount;
  if (DoubleBits(m.agg.min) == min_bits) flags |= kAggMinIsMinV;
  if (DoubleBits(m.agg.max) == max_bits) flags |= kAggMaxIsMaxV;
  if (m.agg.first.t == m.min_t && m.agg.last.t == m.max_t) {
    flags |= kEndsAreBounds;
  }
  if (max_bits == min_bits) flags |= kMaxVIsMinV;
  if (IsOneSampleForm(m)) flags |= kOneSample;

  char buf[kMaxEntryBytes];
  char* p = buf;
  p = EncodeVarint(p, file_index);
  p = EncodeVarint(p, ZigZag(chunk_start - base->chunk_start));
  p = EncodeVarint(p, ZigZag(e.offset - base->offset));
  p = EncodeVarint(p, ZigZag(e.length - base->length));
  p = EncodeVarint(p, ZigZag(m.count - base->count));
  p = EncodeVarint(p, ZigZag(min_t - chunk_start));
  p = EncodeVarint(p, ZigZag(max_t - min_t));
  *p++ = static_cast<char>(flags);
  p = EncodeFixed64(p, min_bits);
  if (!(flags & kMaxVIsMinV)) p = EncodeFixed64(p, max_bits);
  if (!(flags & kAggCountIsCount)) p = EncodeVarint(p, m.agg.count);
  if (!(flags & kAggMinIsMinV)) p = EncodeFixed64(p, DoubleBits(m.agg.min));
  if (!(flags & kAggMaxIsMaxV)) p = EncodeFixed64(p, DoubleBits(m.agg.max));
  if (!(flags & kEndsAreBounds)) {
    p = EncodeVarint(p,
                     ZigZag(static_cast<uint64_t>(m.agg.first.t) - min_t));
    p = EncodeVarint(p, ZigZag(static_cast<uint64_t>(m.agg.last.t) - max_t));
  }
  if (!(flags & kOneSample)) {
    p = EncodeFixed64(p, DoubleBits(m.agg.sum));
    p = EncodeFixed64(p, DoubleBits(m.agg.sum_sq));
    p = EncodeFixed64(p, DoubleBits(m.agg.first.value));
    p = EncodeFixed64(p, DoubleBits(m.agg.last.value));
  }
  out->append(buf, p);
  *base = {chunk_start, e.offset, e.length, m.count};
}

Status ReadDouble(ByteReader* in, const char* what, double* out) {
  uint64_t bits = 0;
  HYGRAPH_RETURN_IF_ERROR(in->Fixed64(what, &bits));
  *out = BitsDouble(bits);
  return Status::OK();
}

Status ReadDelta(ByteReader* in, const char* what, uint64_t base,
                 uint64_t* out) {
  uint64_t z = 0;
  HYGRAPH_RETURN_IF_ERROR(in->Varint(what, &z));
  *out = base + UnZigZag(z);
  return Status::OK();
}

Status ReadEntry(ByteReader* in, const std::vector<std::string>& files,
                 EntryBase* base, ColdCatalogEntry* e) {
  ts::ColdChunkMeta& m = e->meta;
  uint64_t file_index = 0;
  uint64_t chunk_start = 0;
  uint64_t length = 0;
  uint64_t count = 0;
  uint64_t min_t = 0;
  uint64_t max_t = 0;
  HYGRAPH_RETURN_IF_ERROR(in->Varint("file index", &file_index));
  if (file_index >= files.size()) {
    return in->Corruption("file index " + std::to_string(file_index) +
                          " outside the " + std::to_string(files.size()) +
                          "-name file table");
  }
  HYGRAPH_RETURN_IF_ERROR(
      ReadDelta(in, "chunk start", base->chunk_start, &chunk_start));
  HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "offset", base->offset, &e->offset));
  HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "length", base->length, &length));
  HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "count", base->count, &count));
  HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "min_t", chunk_start, &min_t));
  HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "max_t", min_t, &max_t));
  if (e->offset < kFrameHeaderSize) {
    return in->Corruption("offset inside frame header");
  }
  if (length > kWalMaxRecordSize) {
    return in->Corruption("length " + std::to_string(length) +
                          " exceeds a WAL frame");
  }
  uint8_t flags = 0;
  HYGRAPH_RETURN_IF_ERROR(in->Byte("flags", &flags));
  if (flags & ~kKnownFlags) {
    return in->Corruption("unknown flag bits " + std::to_string(flags));
  }
  e->file = files[file_index];
  e->chunk_start = static_cast<Timestamp>(chunk_start);
  e->length = static_cast<uint32_t>(length);
  m.count = count;
  m.min_t = static_cast<Timestamp>(min_t);
  m.max_t = static_cast<Timestamp>(max_t);
  m.all_finite = (flags & kAllFinite) != 0;
  m.encoded_size = e->length;
  HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "min_v", &m.min_v));
  m.max_v = m.min_v;
  if (!(flags & kMaxVIsMinV)) {
    HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "max_v", &m.max_v));
  }
  uint64_t agg_count = count;
  if (!(flags & kAggCountIsCount)) {
    HYGRAPH_RETURN_IF_ERROR(in->Varint("agg count", &agg_count));
  }
  m.agg.count = agg_count;
  m.agg.min = m.min_v;
  if (!(flags & kAggMinIsMinV)) {
    HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "agg min", &m.agg.min));
  }
  m.agg.max = m.max_v;
  if (!(flags & kAggMaxIsMaxV)) {
    HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "agg max", &m.agg.max));
  }
  uint64_t first_t = min_t;
  uint64_t last_t = max_t;
  if (!(flags & kEndsAreBounds)) {
    HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "first.t", min_t, &first_t));
    HYGRAPH_RETURN_IF_ERROR(ReadDelta(in, "last.t", max_t, &last_t));
  }
  m.agg.first.t = static_cast<Timestamp>(first_t);
  m.agg.last.t = static_cast<Timestamp>(last_t);
  if (flags & kOneSample) {
    if (std::isnan(m.min_v)) {
      return in->Corruption("one-sample form with a NaN min_v");
    }
    m.agg.sum = m.min_v;
    m.agg.sum_sq = m.min_v * m.min_v;
    m.agg.first.value = m.min_v;
    m.agg.last.value = m.min_v;
  } else {
    HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "agg sum", &m.agg.sum));
    HYGRAPH_RETURN_IF_ERROR(ReadDouble(in, "agg sum_sq", &m.agg.sum_sq));
    HYGRAPH_RETURN_IF_ERROR(
        ReadDouble(in, "agg first.value", &m.agg.first.value));
    HYGRAPH_RETURN_IF_ERROR(
        ReadDouble(in, "agg last.value", &m.agg.last.value));
  }
  *base = {chunk_start, e->offset, length, count};
  return Status::OK();
}

Result<std::vector<ColdCatalogEntry>> ParseBinaryCatalog(
    std::string_view bytes) {
  if (bytes.size() < kCatalogMagic.size() + 4) {
    return Status::Corruption("cold catalog: truncated before its CRC");
  }
  auto body = CheckCrc32Trailer(bytes, "cold catalog");
  if (!body.ok()) return body.status();
  ByteReader in("cold catalog", body->substr(kCatalogMagic.size()));

  uint64_t file_count = 0;
  HYGRAPH_RETURN_IF_ERROR(in.Varint("file count", &file_count));
  if (file_count > in.remaining() / kMinFileBytes) {
    return in.Corruption("implausible file count " +
                         std::to_string(file_count));
  }
  std::vector<std::string> files;
  files.reserve(file_count);
  for (uint64_t i = 0; i < file_count; ++i) {
    std::string_view name;
    HYGRAPH_RETURN_IF_ERROR(in.Bytes("file name", &name));
    if (name.empty() || name.find('/') != std::string_view::npos) {
      return in.Corruption("bad file name " + std::to_string(i));
    }
    files.emplace_back(name);
  }

  uint64_t series_count = 0;
  HYGRAPH_RETURN_IF_ERROR(in.Varint("series count", &series_count));
  if (series_count > in.remaining() / kMinGroupBytes) {
    return in.Corruption("implausible series count " +
                         std::to_string(series_count));
  }
  std::vector<ColdCatalogEntry> entries;
  for (uint64_t g = 0; g < series_count; ++g) {
    std::string_view series;
    HYGRAPH_RETURN_IF_ERROR(in.Bytes("series name", &series));
    if (series.empty()) return in.Corruption("empty series name");
    uint64_t count = 0;
    HYGRAPH_RETURN_IF_ERROR(in.Varint("entry count", &count));
    if (count == 0 || count > in.remaining() / kMinEntryBytes) {
      return in.Corruption("implausible entry count " + std::to_string(count) +
                           " for series " + std::to_string(g));
    }
    EntryBase base;
    for (uint64_t i = 0; i < count; ++i) {
      ColdCatalogEntry e;
      e.series.assign(series);
      HYGRAPH_RETURN_IF_ERROR(ReadEntry(&in, files, &base, &e));
      entries.push_back(std::move(e));
    }
  }
  if (in.remaining() != 0) {
    return in.Corruption(std::to_string(in.remaining()) +
                         " trailing bytes before the CRC");
  }
  return entries;
}

// -- v1: the text catalog of earlier builds, read-only --------------------

constexpr char kTextCatalogMagic[] = "hygraph-coldcat v1";
/// Hard ceiling on v1 catalog entries: far above any real store (it would
/// mean > kMaxTextCatalogEntries spilled chunks), low enough that a hostile
/// count field cannot drive a giant reserve().
constexpr uint64_t kMaxTextCatalogEntries = 1u << 22;

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

/// "hygraph-coldcat v1\nchunks <n>\n", one "chunk" line per entry with
/// %-encoded names, decimal integers and doubles as 16 hex digits, then
/// "crc <8 hex>\n" over everything above it.
Result<std::vector<ColdCatalogEntry>> ParseTextCatalog(std::string_view text) {
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
  if (!std::getline(in, line) || line != kTextCatalogMagic) {
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
  if (count > kMaxTextCatalogEntries) {
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

}  // namespace

std::string EncodeColdCatalog(const std::vector<ColdCatalogEntry>& entries) {
  // Canonical order: series by name, then chunk_start, then input
  // position — so full ties keep their input order and parse+encode is a
  // fixed point. Entries are bucketed by series through a hash map and
  // only the distinct names are sorted as strings, which is several times
  // cheaper than a comparison sort over every entry's name.
  std::unordered_map<std::string_view, size_t> group_of;
  std::vector<std::string_view> names;
  std::vector<size_t> group(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::string& series = entries[i].series;
    if (i > 0 && series == entries[i - 1].series) {
      group[i] = group[i - 1];
      continue;
    }
    auto [it, fresh] = group_of.emplace(series, names.size());
    if (fresh) names.push_back(series);
    group[i] = it->second;
  }
  std::vector<size_t> by_name(names.size());
  for (size_t g = 0; g < names.size(); ++g) by_name[g] = g;
  std::sort(by_name.begin(), by_name.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  std::vector<size_t> rank(names.size());
  for (size_t r = 0; r < by_name.size(); ++r) rank[by_name[r]] = r;
  // Counting sort into name order (stable), then each group by chunk_start.
  std::vector<size_t> begin(names.size() + 1, 0);
  for (const size_t g : group) ++begin[rank[g] + 1];
  for (size_t r = 0; r < names.size(); ++r) begin[r + 1] += begin[r];
  std::vector<const ColdCatalogEntry*> order(entries.size());
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    order[next[rank[group[i]]]++] = &entries[i];
  }
  for (size_t r = 0; r < names.size(); ++r) {
    std::stable_sort(order.begin() + begin[r], order.begin() + begin[r + 1],
                     [](const ColdCatalogEntry* a, const ColdCatalogEntry* b) {
                       return a->chunk_start < b->chunk_start;
                     });
  }
  // File table in order of first use; consecutive entries usually share a
  // file, so the map is consulted only when the name changes.
  std::unordered_map<std::string_view, uint64_t> file_index;
  std::vector<std::string_view> files;
  std::vector<uint64_t> entry_file(order.size());
  size_t name_bytes = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string& file = order[i]->file;
    if (i > 0 && file == order[i - 1]->file) {
      entry_file[i] = entry_file[i - 1];
      continue;
    }
    auto [it, fresh] = file_index.emplace(file, files.size());
    if (fresh) {
      files.push_back(file);
      name_bytes += file.size();
    }
    entry_file[i] = it->second;
  }
  for (const std::string_view name : names) name_bytes += name.size();

  std::string out;
  // 96 B per entry covers the common shapes (kMaxEntryBytes bounds all).
  out.reserve(64 + name_bytes + 2 * kMaxVarintBytes * (names.size() + 1) +
              files.size() * kMaxVarintBytes + 96 * order.size());
  out += kCatalogMagic;
  PutVarint(&out, files.size());
  for (const std::string_view name : files) {
    PutVarint(&out, name.size());
    out += name;
  }
  PutVarint(&out, names.size());
  for (size_t r = 0; r < names.size(); ++r) {
    const std::string_view name = names[by_name[r]];
    PutVarint(&out, name.size());
    out += name;
    PutVarint(&out, begin[r + 1] - begin[r]);
    EntryBase base;
    for (size_t i = begin[r]; i < begin[r + 1]; ++i) {
      AppendEntry(&out, *order[i], entry_file[i], &base);
    }
  }
  AppendCrc32Trailer(&out);
  return out;
}

Result<std::vector<ColdCatalogEntry>> ParseColdCatalog(std::string_view bytes) {
  if (bytes.substr(0, kCatalogMagic.size()) == kCatalogMagic) {
    return ParseBinaryCatalog(bytes);
  }
  return ParseTextCatalog(bytes);
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

Result<uint64_t> SegmentStore::WriteCatalog(uint64_t seq) {
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
  const std::string bytes = EncodeColdCatalog(entries);
  const std::string final_path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  const std::string tmp_path = final_path + ".tmp";
  std::unique_ptr<WritableFile> file;
  HYGRAPH_RETURN_IF_ERROR(env_->NewWritableFile(tmp_path, &file));
  HYGRAPH_RETURN_IF_ERROR(file->Append(bytes));
  HYGRAPH_RETURN_IF_ERROR(file->Sync());
  HYGRAPH_RETURN_IF_ERROR(file->Close());
  HYGRAPH_RETURN_IF_ERROR(env_->RenameFile(tmp_path, final_path));
  return static_cast<uint64_t>(bytes.size());
}

Result<std::vector<ColdCatalogEntry>> SegmentStore::LoadCatalog(uint64_t seq) {
  const std::string path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  std::string bytes;
  Status read = env_->ReadFileToString(path, &bytes);
  if (read.code() == StatusCode::kNotFound) {
    return std::vector<ColdCatalogEntry>{};  // pre-tiering checkpoint
  }
  HYGRAPH_RETURN_IF_ERROR(read);
  auto entries = ParseColdCatalog(bytes);
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
