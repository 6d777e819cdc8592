#ifndef HYGRAPH_CORE_SERIALIZE_H_
#define HYGRAPH_CORE_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/hygraph.h"

namespace hygraph::core {

/// Text serialization of a HyGraph instance — a line-oriented format so
/// instances survive process restarts, can be shipped between tools, and
/// diff cleanly in version control. One record per line:
///
///   HYGRAPH 1                      header + format version
///   V <id> PG <validity> <labels> <properties>
///   V <id> TS <labels> <properties> SERIES <multiseries>
///   E <id> PG <src> <dst> <label> <validity> <properties>
///   E <id> TS <src> <dst> <label> <properties> SERIES <multiseries>
///   P <series-id> <multiseries>    pooled series (series properties)
///   S <id> <validity> <labels> <properties>
///   M <subgraph-id> V|E <element-id> <interval>
///   CHECKSUM <crc32-hex>           trailer over every preceding byte
///
/// Serialize always ends the document with the CHECKSUM record (CRC-32 of
/// all preceding lines, each terminated by '\n'). Deserialize verifies it
/// when present — a mismatch, or any record after it, is kCorruption — so
/// truncation and single-bit rot are detected instead of silently parsed.
/// Checksum-less input (hand-written fixtures, pre-trailer files) still
/// loads.
///
/// Fields are space-separated; strings are percent-encoded so values may
/// contain spaces or newlines. Ids are preserved exactly, so references
/// (SeriesRef properties, subgraph members) remain valid after a round
/// trip and Serialize(Deserialize(x)) == x.
///
/// Not a paper artifact per se, but required for a usable system: the
/// paper's architecture assumes instances can be persisted and exchanged
/// between the storage layer and analysis tools.

/// Renders the instance to the textual format.
Result<std::string> Serialize(const HyGraph& hg);

/// Parses an instance from the textual format. Fails with a line-numbered
/// error on malformed input; validates the result before returning.
Result<HyGraph> Deserialize(const std::string& text);

/// File convenience wrappers. SaveToFile is atomic and durable: it writes
/// `path + ".tmp"`, fsyncs, then renames over `path`, reporting any write,
/// sync, close, or rename failure as kIOError (a crashed or full disk never
/// leaves a half-written `path` behind). LoadFromFile verifies the
/// CHECKSUM trailer via Deserialize.
Status SaveToFile(const HyGraph& hg, const std::string& path);
Result<HyGraph> LoadFromFile(const std::string& path);

/// Percent-encoding helpers (exposed for tests). AppendEncodedField is
/// EncodeField without the temporary: it appends the encoding to `*out`.
std::string EncodeField(const std::string& raw);
void AppendEncodedField(std::string* out, std::string_view raw);
Result<std::string> DecodeField(const std::string& encoded);

}  // namespace hygraph::core

#endif  // HYGRAPH_CORE_SERIALIZE_H_
