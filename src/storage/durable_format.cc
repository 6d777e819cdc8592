#include "storage/durable_format.h"

#include <utility>

#include "common/crc32.h"
#include "ts/chunk_codec.h"

namespace hygraph::storage {

namespace {

constexpr std::string_view kSnapshotMagic = "HYGRAPH SNAPSHOT 2\n";

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Bounds-checked reader over untrusted bytes; every failure is
/// kCorruption naming what was being read.
class Reader {
 public:
  Reader(const char* context, std::string_view bytes)
      : context_(context), bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

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
    return Status::Corruption(std::string(context_) + ": " + what +
                              " varint overflows 64 bits");
  }

  /// A varint length followed by that many bytes.
  Status Bytes(const char* what, std::string_view* out) {
    uint64_t len = 0;
    HYGRAPH_RETURN_IF_ERROR(Varint(what, &len));
    if (len > remaining()) {
      return Status::Corruption(std::string(context_) + ": " + what +
                                " length " + std::to_string(len) +
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

 private:
  Status Truncated(const char* what) const {
    return Status::Corruption(std::string(context_) + ": truncated " + what);
  }

  const char* context_;  // names the layout in every error
  std::string_view bytes_;
  size_t pos_ = 0;
};

void AppendRun(std::string* out, const SampleRun& run) {
  out->push_back(run.entity.is_edge() ? 'E' : 'V');
  PutVarint(out, run.entity.id);
  PutVarint(out, run.key.size());
  out->append(run.key);
  const std::string frame = ts::EncodeChunk(run.samples);
  PutVarint(out, frame.size());
  out->append(frame);
}

void AppendRuns(std::string* out, const std::vector<SampleRun>& runs) {
  PutVarint(out, runs.size());
  for (const SampleRun& run : runs) AppendRun(out, run);
}

Status ReadRuns(Reader* in, std::vector<SampleRun>* runs) {
  uint64_t count = 0;
  HYGRAPH_RETURN_IF_ERROR(in->Varint("run count", &count));
  // No reservation from the declared count: each run consumes at least
  // four bytes, so a lying count fails on the bytes, not on an allocation.
  for (uint64_t r = 0; r < count; ++r) {
    uint8_t kind = 0;
    HYGRAPH_RETURN_IF_ERROR(in->Byte("entity kind", &kind));
    if (kind != 'V' && kind != 'E') {
      return Status::Corruption("sample runs: bad entity kind byte " +
                                std::to_string(kind));
    }
    SampleRun run;
    run.entity.kind =
        kind == 'V' ? query::EntityRef::kVertex : query::EntityRef::kEdge;
    HYGRAPH_RETURN_IF_ERROR(in->Varint("entity id", &run.entity.id));
    std::string_view key;
    HYGRAPH_RETURN_IF_ERROR(in->Bytes("key", &key));
    run.key.assign(key);
    std::string_view frame;
    HYGRAPH_RETURN_IF_ERROR(in->Bytes("frame", &frame));
    const Status decode = ts::DecodeChunkWide(frame, &run.samples);
    if (!decode.ok()) {
      return Status::Corruption("sample runs: run " + std::to_string(r) +
                                " frame: " + decode.message());
    }
    runs->push_back(std::move(run));
  }
  return Status::OK();
}

}  // namespace

std::vector<SampleRun> GroupSampleRuns(
    std::span<const query::SampleWrite> samples) {
  std::vector<SampleRun> runs;
  for (const query::SampleWrite& s : samples) {
    if (runs.empty() || !(runs.back().entity == s.entity) ||
        runs.back().key != s.key) {
      runs.push_back({s.entity, s.key, {}});
    }
    runs.back().samples.push_back({s.t, s.value});
  }
  return runs;
}

std::vector<query::SampleWrite> FlattenSampleRuns(
    const std::vector<SampleRun>& runs) {
  std::vector<query::SampleWrite> batch;
  for (const SampleRun& run : runs) {
    for (const ts::Sample& s : run.samples) {
      batch.push_back({run.entity, run.key, s.t, s.value});
    }
  }
  return batch;
}

std::string EncodeSampleRuns(const std::vector<SampleRun>& runs) {
  std::string out;
  AppendRuns(&out, runs);
  return out;
}

Result<std::vector<SampleRun>> DecodeSampleRuns(std::string_view bytes) {
  Reader in("sample runs", bytes);
  std::vector<SampleRun> runs;
  HYGRAPH_RETURN_IF_ERROR(ReadRuns(&in, &runs));
  if (in.remaining() != 0) {
    return Status::Corruption("sample runs: " +
                              std::to_string(in.remaining()) +
                              " trailing bytes after the last run");
  }
  return runs;
}

bool IsSnapshotImage(std::string_view bytes) {
  return bytes.substr(0, kSnapshotMagic.size()) == kSnapshotMagic;
}

std::string EncodeSnapshotImage(const SnapshotImage& image) {
  std::string out(kSnapshotMagic);
  PutVarint(&out, image.topology.size());
  out.append(image.topology);
  AppendRuns(&out, image.series);
  const uint32_t crc = Crc32(out);
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  return out;
}

Result<SnapshotImage> DecodeSnapshotImage(std::string_view bytes) {
  if (!IsSnapshotImage(bytes)) {
    return Status::Corruption("snapshot image: bad magic");
  }
  if (bytes.size() < kSnapshotMagic.size() + 4) {
    return Status::Corruption("snapshot image: truncated before its CRC");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | static_cast<uint8_t>(bytes[body.size() + i]);
  }
  if (Crc32(body) != stored) {
    return Status::Corruption("snapshot image: CRC mismatch");
  }
  Reader in("snapshot image", body.substr(kSnapshotMagic.size()));
  SnapshotImage image;
  std::string_view topology;
  HYGRAPH_RETURN_IF_ERROR(in.Bytes("topology", &topology));
  image.topology.assign(topology);
  HYGRAPH_RETURN_IF_ERROR(ReadRuns(&in, &image.series));
  if (in.remaining() != 0) {
    return Status::Corruption("snapshot image: " +
                              std::to_string(in.remaining()) +
                              " trailing bytes before the CRC");
  }
  return image;
}

}  // namespace hygraph::storage
