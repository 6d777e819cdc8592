// Compression ablation: the cost and payoff of Gorilla-sealing cold chunks
// (ISSUE 3). Five sections, all emitted to BENCH_compression.json:
//
//   1. Codec microbench — encode/decode throughput and bytes/sample on
//      integral random-walk chunks (the bike-sharing value shape).
//   2. Decode path — the streaming scalar decoder vs the wide columnar
//      decoder (DecodeChunkWide) on identical sealed payloads, reported
//      as GB/s of decoded sample data. Outputs are cross-checked
//      bit-for-bit, and the full (non-smoke) run exits non-zero if the
//      wide path loses its >=1.5x single-thread advantage.
//   3. Storage footprint — the bike-sharing workload (150 stations x 14
//      days @ 5 min) loaded into a PolyglotStore with sealing on vs off:
//      sealed bytes/sample, compression ratio vs the raw 16 B/sample
//      layout, and load time.
//   4. Table 1 query family — the eight polyglot timings with compression
//      on vs off, answers cross-checked. The acceptance bar is "within
//      noise": aggregates answer from per-chunk caches either way, and
//      scans decode at memory speed.
//   5. Zone-map pruning — a value-predicated count (the Q8 shape) showing
//      sealed chunks skipped without decoding.
//
// `--smoke` shrinks the workload and repetition count for CI.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "query/executor.h"
#include "storage/polyglot.h"
#include "ts/chunk_codec.h"
#include "ts/hypertable.h"
#include "workloads/bike_sharing.h"

namespace hygraph::bench {
namespace {

// ---------------------------------------------------------------------------
// 1. Codec throughput on integral random walks (the post-quantization
//    bike-count shape: small integer steps on a regular 5-minute grid).

void BenchCodec(size_t chunks) {
  PrintHeader("Chunk codec: encode/decode throughput (integral random walk)");
  constexpr size_t kSamplesPerChunk = 288;  // one day @ 5 min
  Rng rng(7);
  std::vector<std::vector<ts::Sample>> raw(chunks);
  double level = 20.0;
  for (size_t c = 0; c < chunks; ++c) {
    raw[c].reserve(kSamplesPerChunk);
    for (size_t i = 0; i < kSamplesPerChunk; ++i) {
      level = std::clamp(level + static_cast<double>(rng.NextInRange(-2, 2)),
                         0.0, 60.0);
      raw[c].push_back({static_cast<Timestamp>(
                            (c * kSamplesPerChunk + i) * 5 * kMinute),
                        level});
    }
  }
  const double raw_mb = static_cast<double>(chunks * kSamplesPerChunk *
                                            sizeof(ts::Sample)) /
                        (1024.0 * 1024.0);

  std::vector<std::string> encoded(chunks);
  const RunningStats enc = Repeat(5, [&] {
    for (size_t c = 0; c < chunks; ++c) encoded[c] = ts::EncodeChunk(raw[c]);
  });
  size_t encoded_bytes = 0;
  for (const std::string& e : encoded) encoded_bytes += e.size();
  const double bytes_per_sample =
      static_cast<double>(encoded_bytes) /
      static_cast<double>(chunks * kSamplesPerChunk);

  const RunningStats dec = Repeat(5, [&] {
    for (size_t c = 0; c < chunks; ++c) {
      auto decoded = ts::DecodeChunk(encoded[c]);
      if (!decoded.ok() || decoded->size() != kSamplesPerChunk) std::exit(1);
    }
  });

  const double enc_mbps = raw_mb / (enc.mean() / 1000.0);
  const double dec_mbps = raw_mb / (dec.mean() / 1000.0);
  std::printf("%zu chunks x %zu samples (%.1f MB raw)\n", chunks,
              kSamplesPerChunk, raw_mb);
  std::printf("encode: %8.1f MB/s   decode: %8.1f MB/s\n", enc_mbps, dec_mbps);
  std::printf("size:   %.2f bytes/sample (%.1fx vs raw %zu B)\n",
              bytes_per_sample, 16.0 / bytes_per_sample, sizeof(ts::Sample));
  Record("codec_encode_throughput", enc_mbps, "MB/s");
  Record("codec_decode_throughput", dec_mbps, "MB/s");
  Record("codec_bytes_per_sample", bytes_per_sample, "bytes");
  Record("codec_compression_ratio", 16.0 / bytes_per_sample, "x");
}

// ---------------------------------------------------------------------------
// 2. Decode path: the streaming scalar decoder vs the wide columnar decoder
//    on identical sealed payloads. The scalar path is the fuzz-hardened
//    reference; the wide path is what every hypertable read runs per
//    sealed chunk.

int BenchDecodePath(size_t chunks, bool smoke) {
  PrintHeader("Decode path: scalar streaming vs wide columnar");
  constexpr size_t kSamplesPerChunk = 3600;  // one sealed hour @ 1s cadence
  Rng rng(11);
  std::vector<std::string> encoded(chunks);
  double level = 20.0;
  {
    std::vector<ts::Sample> raw;
    raw.reserve(kSamplesPerChunk);
    for (size_t c = 0; c < chunks; ++c) {
      raw.clear();
      for (size_t i = 0; i < kSamplesPerChunk; ++i) {
        level = std::clamp(level + static_cast<double>(rng.NextInRange(-2, 2)),
                           0.0, 60.0);
        raw.push_back({static_cast<Timestamp>(
                           (c * kSamplesPerChunk + i) * 1000),
                       level});
      }
      encoded[c] = ts::EncodeChunk(raw);
    }
  }

  // Bit-identity cross-check: both decoders must produce the exact same
  // samples (timestamps and value bit patterns) from every payload.
  std::vector<ts::Sample> wide_out;
  for (size_t c = 0; c < chunks; ++c) {
    auto scalar = ts::DecodeChunk(encoded[c]);
    auto wide = ts::DecodeChunkWide(encoded[c], &wide_out);
    if (!scalar.ok() || !wide.ok() || scalar->size() != wide_out.size()) {
      std::fprintf(stderr, "FAIL: decoder disagreement on chunk %zu\n", c);
      return 1;
    }
    for (size_t i = 0; i < wide_out.size(); ++i) {
      if ((*scalar)[i].t != wide_out[i].t ||
          std::bit_cast<uint64_t>((*scalar)[i].value) !=
              std::bit_cast<uint64_t>(wide_out[i].value)) {
        std::fprintf(stderr, "FAIL: decoders differ at chunk %zu sample %zu\n",
                     c, i);
        return 1;
      }
    }
  }

  const double raw_gb =
      static_cast<double>(chunks * kSamplesPerChunk * sizeof(ts::Sample)) /
      1e9;
  const size_t repetitions = smoke ? 3 : 7;
  double sink = 0.0;  // consumed below so the decode loops cannot fold away

  const RunningStats scalar = Repeat(repetitions, [&] {
    for (size_t c = 0; c < chunks; ++c) {
      ts::ChunkDecoder decoder(encoded[c]);
      ts::Sample s;
      while (decoder.Next(&s)) sink += s.value;
      if (!decoder.done()) std::exit(1);
    }
  });
  const RunningStats wide = Repeat(repetitions, [&] {
    for (size_t c = 0; c < chunks; ++c) {
      if (!ts::DecodeChunkWide(encoded[c], &wide_out).ok()) std::exit(1);
      sink += wide_out.back().value;
    }
  });

  const double scalar_gbps = raw_gb / (scalar.mean() / 1e3);
  const double wide_gbps = raw_gb / (wide.mean() / 1e3);
  const double speedup = scalar.mean() / wide.mean();
  std::printf("%zu chunks x %zu samples (%.2f GB decoded/pass, sink %.1f)\n",
              chunks, kSamplesPerChunk, raw_gb, sink);
  std::printf("scalar: %6.2f GB/s   wide: %6.2f GB/s   speedup: %.2fx\n",
              scalar_gbps, wide_gbps, speedup);
  Record("decode_scalar_gbps", scalar_gbps, "GB/s");
  Record("decode_wide_gbps", wide_gbps, "GB/s");
  Record("decode_wide_speedup", speedup, "x");

  // Regression guard (full runs only; smoke timings are too short to be
  // stable, and sanitizer builds distort the ratio): the wide decoder must
  // keep its 1.5x single-thread advantage over the streaming decoder.
  if (!smoke && speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: wide decode speedup %.2fx below the 1.5x floor\n",
                 speedup);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// 3-5. Workload footprint + Table 1 on/off + zone-map pruning.

std::vector<std::string> BuildQueries(
    const workloads::BikeSharingDataset& d) {
  const std::string t0 = std::to_string(d.start());
  const std::string t_day = std::to_string(d.start() + kDay);
  const std::string t3d = std::to_string(d.start() + 3 * kDay);
  const std::string t_end = std::to_string(d.end());
  const std::string day_ms = std::to_string(kDay);
  // The Table 1 family from bench_table1.cc, polyglot engine only.
  return {
      "MATCH (s:Station {name: 'S1'}) RETURN ts_count(s.bikes, " + t0 + ", " +
          t_day + ")",
      "MATCH (s:Station {name: 'S1'}) RETURN ts_avg(s.bikes, " + t0 + ", " +
          t3d + ")",
      "MATCH (s:Station) WHERE s.district = 2 RETURN s.name, ts_avg(s.bikes, " +
          t0 + ", " + t3d + ")",
      "MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, " + t0 + ", " +
          t_end + ") AS a ORDER BY a DESC, n LIMIT 10",
      "MATCH (s:Station) RETURN s.name, ts_window_agg(s.bikes, " + t0 + ", " +
          t_end + ", " + day_ms + ", 'avg', 'max')",
      "MATCH (a:Station {name: 'S1'}), (b:Station) WHERE b.name <> 'S1' "
      "RETURN b.name AS n, ts_corr(a.bikes, b.bikes, " +
          t0 + ", " + t_end + ") AS c ORDER BY c DESC, n LIMIT 5",
      "MATCH (a:Station {name: 'S1'})-[:TRIP]->(b:Station) "
      "RETURN b.name, ts_avg(b.bikes, " +
          t0 + ", " + t_end + ")",
      "MATCH (a:Station)-[:TRIP]->(b:Station) WHERE a.district = 1 AND "
      "ts_avg(a.bikes, " +
          t0 + ", " + t_end + ") > ts_avg(b.bikes, " + t0 + ", " + t_end +
          ") RETURN a.name AS x, b.name AS y ORDER BY x, y LIMIT 25",
  };
}

bool SameAnswer(const query::QueryResult& x, const query::QueryResult& y) {
  if (x.row_count() != y.row_count() || x.columns.size() != y.columns.size())
    return false;
  for (size_t r = 0; r < x.row_count(); ++r) {
    for (size_t c = 0; c < x.columns.size(); ++c) {
      const Value& a = x.rows[r][c];
      const Value& b = y.rows[r][c];
      if (a.is_numeric() && b.is_numeric()) {
        const double da = a.ToDouble().value();
        const double db = b.ToDouble().value();
        if (std::abs(da - db) > 1e-9 * (1.0 + std::abs(da))) return false;
      } else if (!(a == b)) {
        return false;
      }
    }
  }
  return true;
}

int BenchWorkload(bool smoke) {
  workloads::BikeSharingConfig config;
  config.stations = smoke ? 20 : 150;
  config.districts = smoke ? 4 : 8;
  config.days = smoke ? 3 : 14;
  config.sample_interval = 5 * kMinute;
  config.seed = 1234;
  const size_t repetitions = smoke ? 3 : 7;

  auto dataset = workloads::GenerateBikeSharing(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  PrintHeader("Bike-sharing footprint: sealed vs all-hot hypertable");
  std::printf("workload: %zu stations, %zu days @ 5 min sampling\n",
              config.stations, config.days);

  ts::HypertableOptions on_opts;   // compress_sealed_chunks defaults to true
  ts::HypertableOptions off_opts;
  off_opts.compress_sealed_chunks = false;
  storage::PolyglotStore on(on_opts);
  storage::PolyglotStore off(off_opts);
  const double load_on = TimeMs([&] {
    if (!workloads::LoadIntoBackend(*dataset, &on).ok()) std::exit(1);
  });
  const double load_off = TimeMs([&] {
    if (!workloads::LoadIntoBackend(*dataset, &off).ok()) std::exit(1);
  });

  const ts::HypertableMemory mem_on = on.SeriesMemoryUsage();
  const ts::HypertableMemory mem_off = off.SeriesMemoryUsage();
  const double bps = mem_on.sealed_bytes_per_sample();
  std::printf("compression on:  %8.2f KB total (%zu sealed + %zu hot "
              "samples), %.2f bytes/sealed-sample, load %.0f ms\n",
              static_cast<double>(mem_on.total_bytes()) / 1024.0,
              mem_on.sealed_samples, mem_on.hot_samples, bps, load_on);
  std::printf("compression off: %8.2f KB total (all %zu samples hot), "
              "load %.0f ms\n",
              static_cast<double>(mem_off.total_bytes()) / 1024.0,
              mem_off.hot_samples, load_off);
  std::printf("ratio vs raw 16 B/sample: %.1fx\n", 16.0 / bps);
  Record("store_sealed_bytes_per_sample", bps, "bytes");
  Record("store_compression_ratio", 16.0 / bps, "x");
  Record("store_total_bytes_on",
         static_cast<double>(mem_on.total_bytes()), "bytes");
  Record("store_total_bytes_off",
         static_cast<double>(mem_off.total_bytes()), "bytes");
  Record("load_ms_on", load_on, "ms");
  Record("load_ms_off", load_off, "ms");

  PrintHeader("Table 1 queries: polyglot with compression on vs off");
  std::printf("%-4s | %12s | %12s | %7s\n", "", "on MRS", "off MRS", "delta");
  const auto queries = BuildQueries(*dataset);
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string id = std::string("Q").append(std::to_string(q + 1));
    auto check_on = query::Execute(on, queries[q]);
    auto check_off = query::Execute(off, queries[q]);
    if (!check_on.ok() || !check_off.ok() ||
        !SameAnswer(*check_on, *check_off)) {
      std::fprintf(stderr, "%s: compression on/off disagree!\n", id.c_str());
      return 1;
    }
    const RunningStats rs_on = Repeat(repetitions, [&] {
      (void)query::Execute(on, queries[q]);
    });
    const RunningStats rs_off = Repeat(repetitions, [&] {
      (void)query::Execute(off, queries[q]);
    });
    std::printf("%-4s | %9.2f ms | %9.2f ms | %+6.1f%%\n", id.c_str(),
                rs_on.mean(), rs_off.mean(),
                rs_off.mean() > 0
                    ? 100.0 * (rs_on.mean() - rs_off.mean()) / rs_off.mean()
                    : 0.0);
    Record("table1_" + id + "_compression_on", rs_on.mean(), "ms");
    Record("table1_" + id + "_compression_off", rs_off.mean(), "ms");
  }

  PrintHeader("Zone-map pruning: value-predicated count (Q8 shape)");
  // Bike counts never go negative, so a count of samples in [-100, -1]
  // must prune every sealed chunk from the zone map alone.
  const std::string prune_query =
      "MATCH (s:Station) RETURN s.name, ts_count_between(s.bikes, " +
      std::to_string(dataset->start()) + ", " +
      std::to_string(dataset->end()) + ", -100, -1)";
  on.mutable_series_store()->ResetStats();
  auto pruned = query::Execute(on, prune_query);
  if (!pruned.ok()) {
    std::fprintf(stderr, "prune query failed: %s\n",
                 pruned.status().ToString().c_str());
    return 1;
  }
  const ts::HypertableStats& st = on.series_store().stats();
  std::printf("chunks: %zu total, %zu zone-map skipped, %zu samples "
              "decoded\n",
              st.chunks_total, st.chunks_zonemap_skipped, st.samples_scanned);
  Record("zonemap_chunks_total", static_cast<double>(st.chunks_total),
         "chunks");
  Record("zonemap_chunks_skipped",
         static_cast<double>(st.chunks_zonemap_skipped), "chunks");
  return 0;
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  hygraph::bench::BenchCodec(smoke ? 50 : 500);
  if (const int rc = hygraph::bench::BenchDecodePath(smoke ? 40 : 400, smoke);
      rc != 0) {
    return rc;
  }
  if (const int rc = hygraph::bench::BenchWorkload(smoke); rc != 0) return rc;
  hygraph::bench::WriteJson("compression");
  return 0;
}
