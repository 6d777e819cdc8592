#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/mem_env.h"
#include "storage/segment/segment_store.h"
#include "ts/chunk_codec.h"

namespace hygraph::fuzz {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Every field equal, doubles compared by bit pattern.
bool SameEntry(const storage::ColdCatalogEntry& a,
               const storage::ColdCatalogEntry& b) {
  const ts::ColdChunkMeta& x = a.meta;
  const ts::ColdChunkMeta& y = b.meta;
  return a.series == b.series && a.chunk_start == b.chunk_start &&
         a.file == b.file && a.offset == b.offset && a.length == b.length &&
         x.count == y.count && x.min_t == y.min_t && x.max_t == y.max_t &&
         SameBits(x.min_v, y.min_v) && SameBits(x.max_v, y.max_v) &&
         x.all_finite == y.all_finite && x.encoded_size == y.encoded_size &&
         x.agg.count == y.agg.count && SameBits(x.agg.sum, y.agg.sum) &&
         SameBits(x.agg.sum_sq, y.agg.sum_sq) &&
         SameBits(x.agg.min, y.agg.min) && SameBits(x.agg.max, y.agg.max) &&
         x.agg.first.t == y.agg.first.t &&
         SameBits(x.agg.first.value, y.agg.first.value) &&
         x.agg.last.t == y.agg.last.t &&
         SameBits(x.agg.last.value, y.agg.last.value);
}

}  // namespace

/// Feeds arbitrary bytes to the cold-tier load path, the frontier a
/// recovering process crosses when it adopts spilled chunks from disk.
///
/// Three layers, each total over hostile input:
///   1. ParseColdCatalog, over both layouts (v2 binary, v1 text) — accept
///      or kCorruption, never a crash or an unbounded allocation. An
///      accepted catalog re-encodes (always as v2) to bytes that parse
///      back to the same entries bit for bit, in the encoder's canonical
///      order (series by name, then chunk_start), and re-encode to
///      themselves.
///   2. SegmentStore::LoadCatalog — the same bytes behind a MemEnv file;
///      registration must mirror the standalone parse verdict.
///   3. Pin + DecodeChunk over segment files that hold the SAME hostile
///      bytes — a catalog entry pointing into garbage must surface as a
///      clean error (CRC/short-read) or decode totally, never crash.
void FuzzSegmentLoad(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  // Layer 1: the standalone catalog codec.
  auto parsed = storage::ParseColdCatalog(bytes);
  if (parsed.ok()) {
    // Every entry spends input bytes (a v1 line, or at least 16 v2 bytes),
    // so a hostile header can never fabricate more entries than the input
    // could have spelled out.
    HYGRAPH_FUZZ_CHECK(parsed->size() <= size);
    const std::string encoded = storage::EncodeColdCatalog(*parsed);
    auto reparsed = storage::ParseColdCatalog(encoded);
    HYGRAPH_FUZZ_CHECK(reparsed.ok());
    std::vector<storage::ColdCatalogEntry> canonical = *parsed;
    std::stable_sort(
        canonical.begin(), canonical.end(),
        [](const storage::ColdCatalogEntry& a,
           const storage::ColdCatalogEntry& b) {
          return std::tie(a.series, a.chunk_start) <
                 std::tie(b.series, b.chunk_start);
        });
    HYGRAPH_FUZZ_CHECK(reparsed->size() == canonical.size());
    for (size_t i = 0; i < canonical.size(); ++i) {
      HYGRAPH_FUZZ_CHECK(SameEntry((*reparsed)[i], canonical[i]));
    }
    HYGRAPH_FUZZ_CHECK(storage::EncodeColdCatalog(*reparsed) == encoded);
  } else {
    HYGRAPH_FUZZ_CHECK(parsed.status().code() == StatusCode::kCorruption);
  }

  // Layers 2 + 3: the same bytes as an on-disk catalog, with every
  // segment file it references also holding the raw fuzzer input.
  MemEnv env;
  env.SetFile("cold/catalog-1.cold", bytes);
  if (parsed.ok()) {
    for (const storage::ColdCatalogEntry& e : *parsed) {
      env.SetFile("cold/" + e.file, bytes);
    }
  }

  storage::SegmentStoreOptions options;
  options.env = &env;
  options.dir = "cold";
  options.cache_budget_bytes = 1u << 16;
  auto store = storage::SegmentStore::Open(options);
  HYGRAPH_FUZZ_CHECK(store.ok());

  auto loaded = (*store)->LoadCatalog(1);
  HYGRAPH_FUZZ_CHECK(loaded.ok() == parsed.ok());
  if (!loaded.ok()) return;

  // Pin every adopted record (bounded: entry count is bounded by the
  // input size via the check above). The frame check must reject any
  // offset/length aimed at bytes that are not a CRC-intact record, and a
  // payload that does survive the CRC must decode totally.
  for (const storage::ColdCatalogEntry& e : *loaded) {
    auto pinned = (*store)->Pin(e.id);
    if (!pinned.ok()) {
      HYGRAPH_FUZZ_CHECK(pinned.status().code() == StatusCode::kCorruption);
      continue;
    }
    HYGRAPH_FUZZ_CHECK((*pinned)->size() == e.length);
    auto decoded = ts::DecodeChunk(**pinned);
    if (decoded.ok()) {
      HYGRAPH_FUZZ_CHECK(decoded->size() <= (*pinned)->size());
    }
  }
}

}  // namespace hygraph::fuzz
