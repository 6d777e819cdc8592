#ifndef HYGRAPH_STORAGE_DURABLE_FORMAT_H_
#define HYGRAPH_STORAGE_DURABLE_FORMAT_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/backend.h"
#include "ts/series.h"

namespace hygraph::storage {

/// The binary layouts DurableStore writes sample data in (DESIGN.md §6).
/// Samples travel as runs, each run one ts::EncodeChunk frame, so the chunk
/// codec is the one on-disk encoding of sample runs in segment files, WAL
/// records and checkpoint snapshots:
///
///   runs  := varint(run_count) run×run_count
///   run   := kind:u8 ('V' | 'E')  varint(entity_id)
///            varint(key_len) key  varint(frame_len) frame
///   frame := ts::EncodeChunk(the run's samples, in write order)
///
/// Varints are LEB128 (at most 10 bytes, no bits beyond 64). Both decoders
/// are total over untrusted bytes: any input is either accepted or
/// rejected with kCorruption, and every length is checked against the
/// bytes that remain before anything is allocated for it.

/// The samples of one (entity, key) series, in the order they were written
/// (not necessarily sorted; duplicate timestamps kept).
struct SampleRun {
  query::EntityRef entity;
  std::string key;
  std::vector<ts::Sample> samples;
};

/// Splits `samples` into maximal runs of consecutive writes that share an
/// (entity, key); concatenating the runs gives `samples` back.
std::vector<SampleRun> GroupSampleRuns(
    std::span<const query::SampleWrite> samples);

/// The runs as one write batch, in run order.
std::vector<query::SampleWrite> FlattenSampleRuns(
    const std::vector<SampleRun>& runs);

std::string EncodeSampleRuns(const std::vector<SampleRun>& runs);

/// Decodes EncodeSampleRuns output; trailing bytes are corruption.
Result<std::vector<SampleRun>> DecodeSampleRuns(std::string_view bytes);

/// A polyglot checkpoint snapshot: the topology as core::Serialize text
/// (series-free, with its own CHECKSUM trailer) and each series' resident
/// samples as one run.
///
///   image := "HYGRAPH SNAPSHOT 2\n"
///            varint(topology_len) topology
///            runs
///            crc:u32le  -- CRC-32 of every preceding byte
struct SnapshotImage {
  std::string topology;
  std::vector<SampleRun> series;
};

/// True when `bytes` starts like a snapshot image (as opposed to the
/// "HYGRAPH 1" text snapshot of earlier builds and of all-in-graph stores).
bool IsSnapshotImage(std::string_view bytes);

std::string EncodeSnapshotImage(const SnapshotImage& image);

/// Verifies the CRC trailer, then decodes the layout; the topology text is
/// returned unparsed.
Result<SnapshotImage> DecodeSnapshotImage(std::string_view bytes);

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_DURABLE_FORMAT_H_
