#ifndef HYGRAPH_STORAGE_BYTE_IO_H_
#define HYGRAPH_STORAGE_BYTE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/status.h"

namespace hygraph::storage {

/// The primitives of the storage layer's binary layouts (the durable
/// formats of durable_format.h and the v2 cold catalog): LEB128 varints,
/// zigzag deltas, little-endian fixed-width words, a u32le CRC-32 trailer,
/// and a bounds-checked reader over untrusted bytes.

inline constexpr size_t kMaxVarintBytes = 10;

/// Writes `v` as a varint at `p` and returns the end. Hot encoders fill a
/// stack buffer with these and append it once, instead of paying a
/// capacity check per byte.
inline char* EncodeVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Writes `v` little-endian at `p` and returns the end.
inline char* EncodeFixed64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 8;
}

inline void PutVarint(std::string* out, uint64_t v) {
  char buf[kMaxVarintBytes];
  out->append(buf, EncodeVarint(buf, v));
}

/// Zigzag of a wrapping uint64 difference: small deltas of either sign
/// become small varints, and every 64-bit pattern round-trips.
inline uint64_t ZigZag(uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}
inline uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// Appends the CRC-32 of everything already in `out` as a u32le.
inline void AppendCrc32Trailer(std::string* out) {
  const uint32_t crc = Crc32(*out);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

/// Checks the u32le CRC-32 trailer of `bytes` and returns the body it
/// covers; a short input or a mismatch is kCorruption naming `context`.
inline Result<std::string_view> CheckCrc32Trailer(std::string_view bytes,
                                                  const char* context) {
  if (bytes.size() < 4) {
    return Status::Corruption(std::string(context) +
                              ": truncated before its CRC");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | static_cast<uint8_t>(bytes[body.size() + i]);
  }
  if (Crc32(body) != stored) {
    return Status::Corruption(std::string(context) + ": CRC mismatch");
  }
  return body;
}

/// Bounds-checked reader over untrusted bytes; every failure is
/// kCorruption naming the layout and what was being read.
class ByteReader {
 public:
  ByteReader(const char* context, std::string_view bytes)
      : context_(context), bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  /// At most 10 bytes, no bits beyond 64.
  Status Varint(const char* what, uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return Truncated(what);
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      if (shift == 63 && (byte & 0x7f) > 1) break;  // 65th+ bit set
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return Status::OK();
      }
    }
    return Corruption(std::string(what) + " varint overflows 64 bits");
  }

  /// A varint length followed by that many bytes.
  Status Bytes(const char* what, std::string_view* out) {
    uint64_t len = 0;
    HYGRAPH_RETURN_IF_ERROR(Varint(what, &len));
    if (len > remaining()) {
      return Corruption(std::string(what) + " length " + std::to_string(len) +
                        " exceeds the " + std::to_string(remaining()) +
                        " bytes left");
    }
    *out = bytes_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status Byte(const char* what, uint8_t* out) {
    if (pos_ >= bytes_.size()) return Truncated(what);
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  Status Fixed64(const char* what, uint64_t* out) {
    if (remaining() < 8) return Truncated(what);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(bytes_[pos_ + i]);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status Corruption(const std::string& message) const {
    return Status::Corruption(std::string(context_) + ": " + message);
  }

 private:
  Status Truncated(const char* what) const {
    return Corruption(std::string("truncated ") + what);
  }

  const char* context_;  // names the layout in every error
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_BYTE_IO_H_
