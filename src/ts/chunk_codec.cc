#include "ts/chunk_codec.h"

#include <bit>
#include <cstring>

namespace hygraph::ts {

namespace {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Parses a LEB128 varint from bytes[*pos, end); false on truncation or a
// value that does not fit in 64 bits.
bool ParseVarint(std::string_view bytes, size_t* pos, size_t end,
                 uint64_t* out) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= end) return false;
    const uint8_t byte = static_cast<uint8_t>(bytes[(*pos)++]);
    if (shift == 63 && (byte & 0x7f) > 1) return false;  // 65th+ bit set
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;  // 10 continuation bytes without a terminator
}

// Zigzag maps the wrap-around difference (held in a uint64) to a small
// varint when the signed magnitude is small.
uint64_t ZigZag(uint64_t x) {
  const int64_t n = static_cast<int64_t>(x);
  return (static_cast<uint64_t>(n) << 1) ^ static_cast<uint64_t>(n >> 63);
}

uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

// MSB-first bit sink appending to a std::string. Bits collect from the
// top of a 64-bit accumulator, which is appended eight bytes at a time.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void WriteBit(uint64_t bit) { WriteBits(bit & 1, 1); }

  // Writes the low `n` bits of `value`, most significant first; n <= 64.
  void WriteBits(uint64_t value, size_t n) {
    if (n == 0) return;
    if (n < 64) value &= (uint64_t{1} << n) - 1;
    const size_t free = 64 - used_;
    if (n < free) {
      acc_ |= value << (free - n);
      used_ += n;
      return;
    }
    // Fill the accumulator, append it, and start the next with the rest.
    const size_t rest = n - free;
    acc_ |= value >> rest;
    const uint64_t big_endian = __builtin_bswap64(acc_);
    out_->append(reinterpret_cast<const char*>(&big_endian), 8);
    acc_ = rest == 0 ? 0 : value << (64 - rest);
    used_ = rest;
  }

  // Appends the pending bits, zero-padded to a whole byte.
  void Finish() {
    for (size_t i = 0; i < (used_ + 7) / 8; ++i) {
      out_->push_back(static_cast<char>(acc_ >> (56 - 8 * i)));
    }
    acc_ = 0;
    used_ = 0;
  }

 private:
  std::string* out_;
  uint64_t acc_ = 0;
  size_t used_ = 0;  // bits of acc_ in use, from the top; < 64 between calls
};

}  // namespace

std::string EncodeChunk(const std::vector<Sample>& samples) {
  std::string out;
  // Room for the headers, a timestamp byte per sample and ~2 value bytes
  // per sample (a regular grid of slowly moving values).
  out.reserve(24 + samples.size() * 3);
  PutVarint(&out, samples.size());
  if (samples.empty()) return out;

  // Timestamp column: delta-of-delta zigzag varints. Differences use
  // wrap-around uint64 arithmetic so extreme timestamps cannot overflow.
  std::string ts_column;
  uint64_t prev_t = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const uint64_t t = static_cast<uint64_t>(samples[i].t);
    if (i == 0) {
      PutVarint(&ts_column, ZigZag(t));
    } else {
      const uint64_t delta = t - prev_t;
      PutVarint(&ts_column, i == 1 ? ZigZag(delta)
                                   : ZigZag(delta - prev_delta));
      prev_delta = delta;
    }
    prev_t = t;
  }
  PutVarint(&out, ts_column.size());
  out += ts_column;

  // Value column: Gorilla XOR bitstream over the raw bit patterns.
  BitWriter bits(&out);
  uint64_t prev_bits = std::bit_cast<uint64_t>(samples[0].value);
  bits.WriteBits(prev_bits, 64);
  int window_lead = -1;
  int window_trail = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    const uint64_t value_bits = std::bit_cast<uint64_t>(samples[i].value);
    const uint64_t xor_bits = value_bits ^ prev_bits;
    prev_bits = value_bits;
    if (xor_bits == 0) {
      bits.WriteBit(0);
      continue;
    }
    const int lead = std::countl_zero(xor_bits);
    const int trail = std::countr_zero(xor_bits);
    if (window_lead >= 0 && lead >= window_lead && trail >= window_trail) {
      bits.WriteBits(0b10, 2);
      bits.WriteBits(xor_bits >> window_trail,
                     static_cast<size_t>(64 - window_lead - window_trail));
    } else {
      const int sig = 64 - lead - trail;
      bits.WriteBits(0b11, 2);
      bits.WriteBits(static_cast<uint64_t>(lead), 6);
      bits.WriteBits(static_cast<uint64_t>(sig - 1), 6);
      bits.WriteBits(xor_bits >> trail, static_cast<size_t>(sig));
      window_lead = lead;
      window_trail = trail;
    }
  }
  bits.Finish();
  return out;
}

ChunkDecoder::ChunkDecoder(std::string_view bytes) : bytes_(bytes) {
  size_t pos = 0;
  uint64_t count = 0;
  if (!ParseVarint(bytes_, &pos, bytes_.size(), &count)) {
    Fail("truncated sample count");
    return;
  }
  if (count == 0) {
    if (pos != bytes_.size()) Fail("trailing bytes after empty chunk");
    return;
  }
  uint64_t ts_len = 0;
  if (!ParseVarint(bytes_, &pos, bytes_.size(), &ts_len)) {
    Fail("truncated timestamp column length");
    return;
  }
  if (ts_len > bytes_.size() - pos) {
    Fail("timestamp column length exceeds input");
    return;
  }
  // Every sample costs at least one timestamp byte and (beyond the first's
  // raw 64 bits) at least one value bit, so a hostile count can never make
  // the decoder allocate more than the input's own size.
  if (count > ts_len) {
    Fail("sample count exceeds timestamp column capacity");
    return;
  }
  ts_pos_ = pos;
  ts_end_ = pos + static_cast<size_t>(ts_len);
  const size_t value_bits = (bytes_.size() - ts_end_) * 8;
  if (value_bits < 64 + (static_cast<size_t>(count) - 1)) {
    Fail("value column shorter than declared sample count");
    return;
  }
  bit_pos_ = ts_end_ * 8;
  count_ = static_cast<size_t>(count);
}

bool ChunkDecoder::Fail(const std::string& msg) {
  status_ = Status::Corruption("chunk codec: " + msg);
  count_ = 0;
  produced_ = 0;
  return false;
}

bool ChunkDecoder::ReadVarint(uint64_t* out) {
  return ParseVarint(bytes_, &ts_pos_, ts_end_, out);
}

bool ChunkDecoder::ReadBits(size_t n, uint64_t* out) {
  if (n > bytes_.size() * 8 - bit_pos_) return false;
  if (n == 0) {
    *out = 0;
    return true;
  }
  // Decode hot loop: one 64-bit big-endian window covers any read of up to
  // 57 bits (offset <= 7), extracted with two shifts.
  if (n <= 57) {
    const size_t first_byte = bit_pos_ >> 3;
    const size_t offset = bit_pos_ & 7;
    uint64_t window = 0;
    if (bytes_.size() - first_byte >= 8) {
      std::memcpy(&window, bytes_.data() + first_byte, 8);
      window = __builtin_bswap64(window);
    } else {
      for (size_t i = first_byte; i < bytes_.size(); ++i) {
        window |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[i]))
                  << (56 - 8 * (i - first_byte));
      }
    }
    bit_pos_ += n;
    *out = (window << offset) >> (64 - n);
    return true;
  }
  // 58..64 bits: split into two in-window reads.
  uint64_t hi = 0;
  uint64_t lo = 0;
  if (!ReadBits(n - 32, &hi) || !ReadBits(32, &lo)) return false;
  *out = (hi << 32) | lo;
  return true;
}

uint64_t ChunkDecoder::Peek64() const {
  // The next (up to) 64 - (bit_pos_ & 7) bits, left-aligned so the bit at
  // bit_pos_ is the MSB; zero-padded past the end of the input.
  const size_t first_byte = bit_pos_ >> 3;
  uint64_t window = 0;
  if (bytes_.size() - first_byte >= 8) {
    std::memcpy(&window, bytes_.data() + first_byte, 8);
    window = __builtin_bswap64(window);
  } else {
    for (size_t i = first_byte; i < bytes_.size(); ++i) {
      window |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[i]))
                << (56 - 8 * (i - first_byte));
    }
  }
  return window << (bit_pos_ & 7);
}

// One value token per call. A single Peek64 covers the control bits, the
// window header, and (except for payloads pushing past the 64-bit window)
// the payload itself, so the common case costs one unaligned load.
bool ChunkDecoder::DecodeValueToken() {
  const size_t avail = bytes_.size() * 8 - bit_pos_;
  if (avail < 1) return Fail("truncated value column");
  const uint64_t w = Peek64();
  if ((w >> 63) == 0) {  // '0': value identical to the previous one
    ++bit_pos_;
    return true;
  }
  if (avail < 2) return Fail("truncated value column");
  if (((w >> 62) & 1) != 0) {  // '11': explicit window
    if (avail < 14) return Fail("truncated value window header");
    const int lead = static_cast<int>((w >> 56) & 0x3f);
    const int sig = static_cast<int>((w >> 50) & 0x3f) + 1;
    if (lead + sig > 64) return Fail("value window wider than 64 bits");
    if (avail < 14 + static_cast<size_t>(sig)) {
      return Fail("truncated value column");
    }
    uint64_t payload = 0;
    // Peek64 only guarantees 57 valid bits (the sub-byte offset shift
    // zero-fills the rest), so larger payloads take the ReadBits path.
    if (14 + sig <= 57) {
      payload = (w << 14) >> (64 - sig);
      bit_pos_ += 14 + static_cast<size_t>(sig);
    } else {
      bit_pos_ += 14;
      if (!ReadBits(static_cast<size_t>(sig), &payload)) {
        return Fail("truncated value column");
      }
    }
    window_leading_ = lead;
    window_sigbits_ = sig;
    prev_value_bits_ ^= payload << (64 - lead - sig);
    return true;
  }
  // '10': reuse the previous window
  if (window_leading_ < 0) {
    return Fail("window reuse before a window was defined");
  }
  const size_t sig = static_cast<size_t>(window_sigbits_);
  if (avail < 2 + sig) return Fail("truncated value column");
  uint64_t payload = 0;
  if (2 + sig <= 57) {  // same 57-valid-bit bound as above
    payload = (w << 2) >> (64 - sig);
    bit_pos_ += 2 + sig;
  } else {
    bit_pos_ += 2;
    if (!ReadBits(sig, &payload)) return Fail("truncated value column");
  }
  prev_value_bits_ ^= payload << (64 - window_leading_ - window_sigbits_);
  return true;
}

bool ChunkDecoder::Next(Sample* out) {
  if (!status_.ok() || produced_ >= count_) return false;

  uint64_t z = 0;
  if (!ReadVarint(&z)) return Fail("truncated timestamp column");
  if (produced_ == 0) {
    prev_t_ = UnZigZag(z);
  } else if (produced_ == 1) {
    prev_delta_ = UnZigZag(z);
    prev_t_ += prev_delta_;
  } else {
    prev_delta_ += UnZigZag(z);
    prev_t_ += prev_delta_;
  }

  if (produced_ == 0) {
    if (!ReadBits(64, &prev_value_bits_)) {
      return Fail("truncated value column");
    }
  } else if (!DecodeValueToken()) {
    return false;  // Fail() already set the status
  }

  ++produced_;
  if (produced_ == count_) {
    // The columns must end exactly where the samples do: no leftover
    // timestamp bytes, no full padding byte, and only zero padding bits.
    if (ts_pos_ != ts_end_) return Fail("trailing timestamp bytes");
    const size_t total_bits = bytes_.size() * 8;
    if (total_bits - bit_pos_ >= 8) return Fail("trailing value bytes");
    uint64_t padding = 0;
    const size_t pad_bits = total_bits - bit_pos_;
    if (pad_bits > 0 && (!ReadBits(pad_bits, &padding) || padding != 0)) {
      return Fail("non-zero padding bits");
    }
  }
  out->t = static_cast<Timestamp>(prev_t_);
  out->value = std::bit_cast<double>(prev_value_bits_);
  return true;
}

Result<std::vector<Sample>> DecodeChunk(std::string_view bytes) {
  ChunkDecoder decoder(bytes);
  std::vector<Sample> samples;
  samples.reserve(decoder.count());
  Sample s;
  while (decoder.Next(&s)) samples.push_back(s);
  if (!decoder.status().ok()) return decoder.status();
  return samples;
}

namespace {

Status WideFail(std::vector<Sample>* out, const char* msg) {
  out->clear();
  return Status::Corruption(std::string("chunk codec: ") + msg);
}

}  // namespace

Status DecodeChunkWide(std::string_view bytes, std::vector<Sample>* out) {
  out->clear();
  size_t pos = 0;
  uint64_t count = 0;
  if (!ParseVarint(bytes, &pos, bytes.size(), &count)) {
    return WideFail(out, "truncated sample count");
  }
  if (count == 0) {
    if (pos != bytes.size()) {
      return WideFail(out, "trailing bytes after empty chunk");
    }
    return Status::OK();
  }
  uint64_t ts_len = 0;
  if (!ParseVarint(bytes, &pos, bytes.size(), &ts_len)) {
    return WideFail(out, "truncated timestamp column length");
  }
  if (ts_len > bytes.size() - pos) {
    return WideFail(out, "timestamp column length exceeds input");
  }
  // Same allocation bound as ChunkDecoder: one timestamp byte and (beyond
  // the first sample's raw 64 bits) one value bit per declared sample.
  if (count > ts_len) {
    return WideFail(out, "sample count exceeds timestamp column capacity");
  }
  const size_t ts_end = pos + static_cast<size_t>(ts_len);
  const size_t total_bits = bytes.size() * 8;
  if (total_bits - ts_end * 8 < 64 + (static_cast<size_t>(count) - 1)) {
    return WideFail(out, "value column shorter than declared sample count");
  }
  out->resize(static_cast<size_t>(count));
  Sample* samples = out->data();

  // Pass 1 — timestamp column: contiguous byte-aligned varints, decoded in
  // one tight loop (the 1-byte delta-of-delta of a regular grid is the
  // branch-predicted fast case).
  {
    size_t ts_pos = pos;
    uint64_t prev_t = 0;
    uint64_t prev_delta = 0;
    for (size_t i = 0; i < count; ++i) {
      uint64_t z;
      if (ts_pos < ts_end &&
          static_cast<uint8_t>(bytes[ts_pos]) < 0x80) {
        z = static_cast<uint8_t>(bytes[ts_pos++]);
      } else if (!ParseVarint(bytes, &ts_pos, ts_end, &z)) {
        return WideFail(out, "truncated timestamp column");
      }
      if (i == 0) {
        prev_t = UnZigZag(z);
      } else if (i == 1) {
        prev_delta = UnZigZag(z);
        prev_t += prev_delta;
      } else {
        prev_delta += UnZigZag(z);
        prev_t += prev_delta;
      }
      samples[i].t = static_cast<Timestamp>(prev_t);
    }
    if (ts_pos != ts_end) return WideFail(out, "trailing timestamp bytes");
  }

  // Pass 2 — value column: Gorilla XOR bitstream. While ≥18 bytes of input
  // remain past the cursor's byte, a worst-case token ('11' + 6b + 6b +
  // 64b payload = 78 bits) fits entirely inside two unaligned 64-bit loads
  // (the wide-payload load starts ≤2 bytes past the cursor's byte and
  // spans 16 more), so the hot loop runs with no per-token bounds checks;
  // the tail — and any input corrupt enough to escape the guard — falls
  // back to the fully-checked path below, which mirrors
  // ChunkDecoder::DecodeValueToken token for token.
  const char* data = bytes.data();
  const size_t size = bytes.size();
  // The next ≥57 bits at `bit`, MSB-first, left-aligned, with zeros
  // shifted in at the bottom. Caller guarantees (bit >> 3) + 8 <= size.
  auto load64 = [data](size_t bit) {
    uint64_t w;
    std::memcpy(&w, data + (bit >> 3), 8);
    return __builtin_bswap64(w) << (bit & 7);
  };
  // The n (<= 64) bits at `bit` via a two-load 128-bit window; used for
  // payloads too wide for load64's 57 guaranteed bits. Caller guarantees
  // (bit >> 3) + 16 <= size.
  auto load_bits = [data](size_t bit, int n) {
    const size_t byte = bit >> 3;
    const int off = static_cast<int>(bit & 7);
    uint64_t hi;
    uint64_t lo;
    std::memcpy(&hi, data + byte, 8);
    std::memcpy(&lo, data + byte + 8, 8);
    hi = __builtin_bswap64(hi);
    lo = __builtin_bswap64(lo);
    const uint64_t window = off == 0 ? hi : (hi << off) | (lo >> (64 - off));
    return window >> (64 - n);
  };
  // Zero-padded peek for the checked tail: like load64 but never reads
  // past the buffer, mirroring ChunkDecoder::Peek64.
  auto peek = [data, size](size_t bit) {
    const size_t first_byte = bit >> 3;
    uint64_t w = 0;
    if (size - first_byte >= 8) {
      std::memcpy(&w, data + first_byte, 8);
      w = __builtin_bswap64(w);
    } else {
      for (size_t b = first_byte; b < size; ++b) {
        w |= static_cast<uint64_t>(static_cast<uint8_t>(data[b]))
             << (56 - 8 * (b - first_byte));
      }
    }
    return w << (bit & 7);
  };
  // ChunkDecoder::ReadBits equivalent for the tail: n <= 64, availability
  // already verified by the caller.
  auto read_checked = [&peek](size_t bit, size_t n) -> uint64_t {
    if (n <= 57) return peek(bit) >> (64 - n);
    const uint64_t hi = peek(bit) >> (64 - (n - 32));
    const uint64_t lo = peek(bit + (n - 32)) >> 32;
    return (hi << 32) | lo;
  };

  // The value column starts byte-aligned at ts_end; the header check above
  // guarantees its first 64 bits (sample 0's raw bit pattern) exist.
  size_t bit_pos = ts_end * 8;
  uint64_t first_word;
  std::memcpy(&first_word, data + ts_end, 8);
  uint64_t prev_bits = __builtin_bswap64(first_word);
  bit_pos += 64;
  samples[0].value = std::bit_cast<double>(prev_bits);
  int window_lead = -1;
  int window_sig = 0;

  size_t i = 1;
  while (i < count && (bit_pos >> 3) + 18 <= size) {
    const uint64_t w = load64(bit_pos);
    if ((w >> 63) == 0) {  // '0': repeat previous value
      ++bit_pos;
    } else if (((w >> 62) & 1) != 0) {  // '11': explicit window
      const int lead = static_cast<int>((w >> 56) & 0x3f);
      const int sig = static_cast<int>((w >> 50) & 0x3f) + 1;
      if (lead + sig > 64) {
        return WideFail(out, "value window wider than 64 bits");
      }
      const uint64_t payload = 14 + sig <= 57
                                   ? (w << 14) >> (64 - sig)
                                   : load_bits(bit_pos + 14, sig);
      bit_pos += 14 + static_cast<size_t>(sig);
      window_lead = lead;
      window_sig = sig;
      prev_bits ^= payload << (64 - lead - sig);
    } else {  // '10': reuse the previous window
      if (window_lead < 0) {
        return WideFail(out, "window reuse before a window was defined");
      }
      const uint64_t payload = 2 + window_sig <= 57
                                   ? (w << 2) >> (64 - window_sig)
                                   : load_bits(bit_pos + 2, window_sig);
      bit_pos += 2 + static_cast<size_t>(window_sig);
      prev_bits ^= payload << (64 - window_lead - window_sig);
    }
    samples[i++].value = std::bit_cast<double>(prev_bits);
  }

  // Checked tail: the same grammar with ChunkDecoder::DecodeValueToken's
  // explicit availability checks against the true end of input.
  while (i < count) {
    const size_t avail = total_bits - bit_pos;
    if (avail < 1) return WideFail(out, "truncated value column");
    const uint64_t w = peek(bit_pos);
    if ((w >> 63) == 0) {
      ++bit_pos;
    } else {
      if (avail < 2) return WideFail(out, "truncated value column");
      if (((w >> 62) & 1) != 0) {
        if (avail < 14) return WideFail(out, "truncated value window header");
        const int lead = static_cast<int>((w >> 56) & 0x3f);
        const int sig = static_cast<int>((w >> 50) & 0x3f) + 1;
        if (lead + sig > 64) {
          return WideFail(out, "value window wider than 64 bits");
        }
        if (avail < 14 + static_cast<size_t>(sig)) {
          return WideFail(out, "truncated value column");
        }
        const uint64_t payload =
            read_checked(bit_pos + 14, static_cast<size_t>(sig));
        bit_pos += 14 + static_cast<size_t>(sig);
        window_lead = lead;
        window_sig = sig;
        prev_bits ^= payload << (64 - lead - sig);
      } else {
        if (window_lead < 0) {
          return WideFail(out, "window reuse before a window was defined");
        }
        if (avail < 2 + static_cast<size_t>(window_sig)) {
          return WideFail(out, "truncated value column");
        }
        const uint64_t payload =
            read_checked(bit_pos + 2, static_cast<size_t>(window_sig));
        bit_pos += 2 + static_cast<size_t>(window_sig);
        prev_bits ^= payload << (64 - window_lead - window_sig);
      }
    }
    samples[i++].value = std::bit_cast<double>(prev_bits);
  }

  // The value column must end exactly where the samples do (mirrors
  // ChunkDecoder::Next's final-sample verification).
  if (total_bits - bit_pos >= 8) return WideFail(out, "trailing value bytes");
  const size_t pad_bits = total_bits - bit_pos;
  if (pad_bits > 0 && (peek(bit_pos) >> (64 - pad_bits)) != 0) {
    return WideFail(out, "non-zero padding bits");
  }
  return Status::OK();
}

}  // namespace hygraph::ts
