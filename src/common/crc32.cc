#include "common/crc32.h"

namespace hygraph {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320, built at
// compile time. entries[0] is the classic byte-at-a-time table; entries[k]
// advances a byte that sits k positions before the end of an 8-byte block,
// so one block costs eight independent lookups instead of a serial chain of
// eight. Set-up checksums every WAL record, segment frame, snapshot and
// catalog it writes (tens of MB for the Table 1 load), so the byte loop's
// ~300 MB/s showed up in checkpoint time.
struct Crc32Tables {
  uint32_t entries[8][256];
  constexpr Crc32Tables() : entries{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xffu];
      }
    }
  }
};

constexpr Crc32Tables kTables;

/// Little-endian 32-bit load, whatever the host byte order (compilers fuse
/// it into one load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t state, const void* data, size_t size) {
  const auto& t = kTables.entries;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    const uint32_t lo = state ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    bytes += 8;
    size -= 8;
  }
  while (size-- > 0) {
    state = (state >> 8) ^ t[0][(state ^ *bytes++) & 0xffu];
  }
  return state;
}

}  // namespace hygraph
