#ifndef HYGRAPH_TS_CHUNK_CODEC_H_
#define HYGRAPH_TS_CHUNK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "ts/series.h"

namespace hygraph::ts {

/// Gorilla-style codec for one sealed hypertable chunk (Facebook's in-memory
/// TSDB; the same scheme TimescaleDB uses for compressed columnar chunks).
/// Timestamps and values are encoded as two independent columns:
///
///   chunk  := varint(count)                      -- 0 terminates the layout
///             varint(ts_len)                     -- byte length of ts column
///             ts-column  (byte-aligned varints)
///             value-column (MSB-first bitstream)
///
///   ts-column     := zigzag(t[0])  zigzag(d[1])  zigzag(dod[2]) ...
///                    where d[i] = t[i]-t[i-1] and dod[i] = d[i]-d[i-1];
///                    regular sampling grids encode as one 0x00 byte/sample.
///   value-column  := 64 raw bits of v[0], then per sample the XOR with the
///                    previous value's bit pattern:
///                      '0'                         xor == 0
///                      '10' + reused-window bits   fits previous window
///                      '11' + 6b leading + 6b (sigbits-1) + sigbits
///
/// All arithmetic is on the 64-bit bit patterns (wrap-around uint64 for
/// timestamp deltas), so the round-trip is bit-exact for every double —
/// NaN payloads, ±inf, -0.0 — and every int64 timestamp.
///
/// Decoding is total over arbitrary bytes: any input is either accepted or
/// rejected with StatusCode::kCorruption, with allocations bounded by the
/// input size (a declared count can never exceed the ts-column's byte
/// length). This is the untrusted-bytes frontier fuzz_chunk_codec explores.

/// Encodes `samples` (need not be sorted; order is preserved exactly).
std::string EncodeChunk(const std::vector<Sample>& samples);

/// Streaming decoder: validates the header eagerly, then yields one sample
/// per Next() without materializing the chunk. Holds a view — the encoded
/// bytes must outlive the decoder.
class ChunkDecoder {
 public:
  explicit ChunkDecoder(std::string_view bytes);

  /// Declared sample count (0 if the header was rejected).
  size_t count() const { return count_; }

  /// Writes the next sample into `out`; returns false at the end of the
  /// chunk or on corruption (check status() to tell the two apart).
  bool Next(Sample* out);

  /// OK unless the input was rejected; set eagerly for header corruption
  /// and lazily for corruption discovered mid-stream.
  const Status& status() const { return status_; }

  /// True once all declared samples were produced and the trailing padding
  /// verified; never true on a rejected input.
  bool done() const { return status_.ok() && produced_ == count_; }

 private:
  bool Fail(const std::string& msg);
  bool ReadVarint(uint64_t* out);
  bool ReadBits(size_t n, uint64_t* out);
  uint64_t Peek64() const;
  bool DecodeValueToken();

  std::string_view bytes_;
  Status status_;
  size_t count_ = 0;
  size_t produced_ = 0;

  // Timestamp column cursor (byte-aligned varints).
  size_t ts_pos_ = 0;
  size_t ts_end_ = 0;
  uint64_t prev_t_ = 0;
  uint64_t prev_delta_ = 0;

  // Value column cursor (bit-aligned).
  size_t bit_pos_ = 0;  // absolute bit offset into bytes_
  uint64_t prev_value_bits_ = 0;
  int window_leading_ = -1;  // -1: no reusable window yet
  int window_sigbits_ = 0;
};

/// Decodes a whole chunk; rejects trailing garbage and non-zero padding.
Result<std::vector<Sample>> DecodeChunk(std::string_view bytes);

/// Wide fast-path decoder: bit-exactly the same accept/reject set and
/// output as DecodeChunk, at roughly twice the throughput. Instead of the
/// streaming decoder's per-sample cursor checks it runs two columnar
/// passes — byte-aligned timestamp varints first, then the value bitstream
/// through unchecked 64-bit unaligned loads while at least 16 bytes of
/// input remain (a worst-case token is 78 bits, so every load stays in
/// bounds), falling back to the fully-checked token path for the tail.
/// `out` is cleared first and its capacity reused (each hypertable read
/// decodes every chunk it touches into one call-owned buffer); on failure
/// `out` is left empty. Totality over untrusted bytes is preserved: any
/// input is either accepted or rejected with kCorruption, with
/// allocations bounded by the declared count (itself bounded by the input
/// size).
Status DecodeChunkWide(std::string_view bytes, std::vector<Sample>* out);

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_CHUNK_CODEC_H_
