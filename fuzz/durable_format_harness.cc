#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fuzz/harness.h"
#include "fuzz/mem_env.h"
#include "storage/durable.h"
#include "storage/durable_format.h"
#include "storage/polyglot.h"

namespace hygraph::fuzz {

namespace {

bool SameRuns(const std::vector<storage::SampleRun>& a,
              const std::vector<storage::SampleRun>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (!(a[r].entity == b[r].entity) || a[r].key != b[r].key ||
        a[r].samples.size() != b[r].samples.size()) {
      return false;
    }
    for (size_t i = 0; i < a[r].samples.size(); ++i) {
      if (a[r].samples[i].t != b[r].samples[i].t ||
          std::bit_cast<uint64_t>(a[r].samples[i].value) !=
              std::bit_cast<uint64_t>(b[r].samples[i].value)) {
        return false;
      }
    }
  }
  return true;
}

size_t SampleCount(const std::vector<storage::SampleRun>& runs) {
  size_t n = 0;
  for (const storage::SampleRun& run : runs) n += run.samples.size();
  return n;
}

/// Accepted runs reach an encode/decode fixed point: re-encoding gives
/// bytes that decode to the same runs bit-exactly and re-encode to
/// themselves. (The first re-encoding need not reproduce the input: the
/// decoders accept non-minimal varints and chunk-codec token choices the
/// encoder never emits.)
void CheckRunsFixedPoint(const std::vector<storage::SampleRun>& runs) {
  const std::string encoded = storage::EncodeSampleRuns(runs);
  auto again = storage::DecodeSampleRuns(encoded);
  HYGRAPH_FUZZ_CHECK(again.ok());
  HYGRAPH_FUZZ_CHECK(SameRuns(runs, *again));
  HYGRAPH_FUZZ_CHECK(storage::EncodeSampleRuns(*again) == encoded);
}

/// The snapshot-image layout check on one input: accept or kCorruption;
/// accepted images reach the same fixed point as runs do.
void CheckSnapshotImage(const std::string& bytes) {
  auto image = storage::DecodeSnapshotImage(bytes);
  if (!image.ok()) {
    HYGRAPH_FUZZ_CHECK(image.status().code() == StatusCode::kCorruption);
    return;
  }
  HYGRAPH_FUZZ_CHECK(SampleCount(image->series) <= bytes.size());
  CheckRunsFixedPoint(image->series);
  const std::string encoded = storage::EncodeSnapshotImage(*image);
  auto again = storage::DecodeSnapshotImage(encoded);
  HYGRAPH_FUZZ_CHECK(again.ok());
  HYGRAPH_FUZZ_CHECK(again->topology == image->topology);
  HYGRAPH_FUZZ_CHECK(SameRuns(image->series, again->series));
  HYGRAPH_FUZZ_CHECK(storage::EncodeSnapshotImage(*again) == encoded);
}

}  // namespace

/// Feeds arbitrary bytes to the sample-runs decoder as the body of a "CB"
/// WAL record. Standalone: accept or kCorruption, output bounded by the
/// input, and the fixed point above. Then as a logged record: a recovering
/// polyglot store replays it after three topology records (vertices 0 and
/// 1, edge 0) and must open; the record counts as a replay failure exactly
/// when its body is rejected or a non-empty run names another entity.
void FuzzSampleRuns(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  auto runs = storage::DecodeSampleRuns(bytes);
  bool replays = runs.ok();
  if (runs.ok()) {
    // A run costs at least four bytes and a sample at least one.
    HYGRAPH_FUZZ_CHECK(runs->size() <= size / 4);
    HYGRAPH_FUZZ_CHECK(SampleCount(*runs) <= size);
    CheckRunsFixedPoint(*runs);
    for (const storage::SampleRun& run : *runs) {
      const bool known = run.entity.is_edge() ? run.entity.id == 0
                                              : run.entity.id <= 1;
      if (!known && !run.samples.empty()) replays = false;
    }
  } else {
    HYGRAPH_FUZZ_CHECK(runs.status().code() == StatusCode::kCorruption);
  }

  MemEnv env;
  std::string wal;
  for (const std::string& record :
       {std::string("1 NV 0 L 0 P 0"), std::string("2 NV 1 L 0 P 0"),
        std::string("3 NE 0 0 1 r P 0"), "4 CB " + bytes}) {
    wal += storage::EncodeWalFrame(record);
  }
  env.SetFile("db/wal.log", wal);
  storage::DurableStore store(&env, "db",
                              std::make_unique<storage::PolyglotStore>());
  HYGRAPH_FUZZ_CHECK(store.Open().ok());
  HYGRAPH_FUZZ_CHECK(store.recovery().wal_records_salvaged == 4);
  HYGRAPH_FUZZ_CHECK(store.recovery().wal_replay_failures ==
                     (replays ? 0u : 1u));
}

/// Feeds arbitrary bytes to the snapshot-image decoder twice: as they are
/// (the CRC trailer rejects nearly everything) and with a valid CRC-32
/// appended, so the layout parser behind the trailer is explored too.
/// Accepted images are then installed as a snapshot and restored by
/// DurableStore::Open, which must return (OK or not) without crashing.
void FuzzSnapshotImage(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  CheckSnapshotImage(bytes);

  std::string framed = bytes;
  const uint32_t crc = Crc32(bytes);
  for (int shift = 0; shift < 32; shift += 8) {
    framed.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  CheckSnapshotImage(framed);

  const auto restore = [](const std::string& image) {
    if (!storage::DecodeSnapshotImage(image).ok()) return;
    MemEnv env;
    env.SetFile("db/snapshot-1.hyg", image);
    storage::DurableStore store(&env, "db",
                                std::make_unique<storage::PolyglotStore>());
    HYGRAPH_IGNORE_RESULT(store.Open());
  };
  restore(bytes);
  restore(framed);
}

}  // namespace hygraph::fuzz
