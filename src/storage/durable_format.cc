#include "storage/durable_format.h"

#include <utility>

#include "storage/byte_io.h"
#include "ts/chunk_codec.h"

namespace hygraph::storage {

namespace {

constexpr std::string_view kSnapshotMagic = "HYGRAPH SNAPSHOT 2\n";

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

Status ReadRuns(ByteReader* in, std::vector<SampleRun>* runs) {
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
  ByteReader in("sample runs", bytes);
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
  AppendCrc32Trailer(&out);
  return out;
}

Result<SnapshotImage> DecodeSnapshotImage(std::string_view bytes) {
  if (!IsSnapshotImage(bytes)) {
    return Status::Corruption("snapshot image: bad magic");
  }
  if (bytes.size() < kSnapshotMagic.size() + 4) {
    return Status::Corruption("snapshot image: truncated before its CRC");
  }
  auto body = CheckCrc32Trailer(bytes, "snapshot image");
  if (!body.ok()) return body.status();
  ByteReader in("snapshot image", body->substr(kSnapshotMagic.size()));
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
