#include "storage/durable_format.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hygraph::storage {
namespace {

using query::EntityRef;

bool SameRuns(const std::vector<SampleRun>& a,
              const std::vector<SampleRun>& b) {
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

std::vector<SampleRun> MixedRuns() {
  return {
      {EntityRef::Vertex(0),
       "bikes",
       {{300, -0.0},
        {0, std::numeric_limits<double>::quiet_NaN()},
        {0, 1.0},  // unsorted, duplicate timestamp: order is kept
        {std::numeric_limits<int64_t>::min(),
         std::numeric_limits<double>::infinity()}}},
      {EntityRef::Edge(7'000'000'000), "odd key\n", {{5, 1e-300}}},
      {EntityRef::Vertex(0), "", {}},
  };
}

TEST(DurableFormatTest, RunsRoundTripBitExactly) {
  const std::vector<SampleRun> runs = MixedRuns();
  const std::string bytes = EncodeSampleRuns(runs);
  auto decoded = DecodeSampleRuns(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameRuns(*decoded, runs));
  EXPECT_EQ(EncodeSampleRuns(*decoded), bytes);
}

TEST(DurableFormatTest, GroupingSplitsAtEveryChangeOfSeries) {
  const std::vector<query::SampleWrite> batch = {
      {EntityRef::Vertex(0), "a", 1, 1.0},
      {EntityRef::Vertex(0), "a", 2, 2.0},
      {EntityRef::Edge(0), "a", 1, 3.0},
      {EntityRef::Vertex(0), "a", 3, 4.0},
      {EntityRef::Vertex(0), "b", 3, 5.0}};
  const std::vector<SampleRun> runs = GroupSampleRuns(batch);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].samples.size(), 2u);
  const std::vector<query::SampleWrite> flat = FlattenSampleRuns(runs);
  ASSERT_EQ(flat.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(flat[i].entity == batch[i].entity);
    EXPECT_EQ(flat[i].key, batch[i].key);
    EXPECT_EQ(flat[i].t, batch[i].t);
    EXPECT_EQ(flat[i].value, batch[i].value);
  }
}

TEST(DurableFormatTest, RegularGridCostsAboutTwoBytesPerSample) {
  SampleRun run{EntityRef::Vertex(3), "bikes", {}};
  for (int i = 0; i < 4032; ++i) {
    run.samples.push_back({300'000LL * i, static_cast<double>(10 + i % 5)});
  }
  const std::string bytes = EncodeSampleRuns({run});
  EXPECT_LT(bytes.size(), 3 * run.samples.size());
}

TEST(DurableFormatTest, MalformedRunsAreCorruption) {
  const std::string valid = EncodeSampleRuns(MixedRuns());
  const auto rejects = [](const std::string& bytes) {
    return DecodeSampleRuns(bytes).status().code() == StatusCode::kCorruption;
  };
  EXPECT_TRUE(rejects(""));
  // Torn: every proper prefix.
  for (size_t n = 0; n < valid.size(); ++n) {
    EXPECT_TRUE(rejects(valid.substr(0, n))) << n;
  }
  // Run count larger, then smaller, than the runs present.
  std::string more = valid;
  more[0] = static_cast<char>(4);
  EXPECT_TRUE(rejects(more));
  std::string fewer = valid;
  fewer[0] = static_cast<char>(2);
  EXPECT_TRUE(rejects(fewer));
  // A key length far past the end of the input.
  EXPECT_TRUE(rejects(std::string("\x01V\x00\xff\xff\xff\xff\x0f", 8)));
  // A varint with bits beyond 64.
  EXPECT_TRUE(rejects(std::string(10, '\xff') + '\x01'));
  // An entity kind that is neither 'V' nor 'E'.
  std::string kind = valid;
  kind[1] = 'X';
  EXPECT_TRUE(rejects(kind));
}

TEST(DurableFormatTest, SnapshotImageRoundTripsAndChecksItsCrc) {
  SnapshotImage image;
  image.topology = "HYGRAPH 1\nCHECKSUM 00000000\n";
  image.series = MixedRuns();
  const std::string bytes = EncodeSnapshotImage(image);
  EXPECT_TRUE(IsSnapshotImage(bytes));
  EXPECT_FALSE(IsSnapshotImage(image.topology));
  auto decoded = DecodeSnapshotImage(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->topology, image.topology);
  EXPECT_TRUE(SameRuns(decoded->series, image.series));

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] ^= 0x20;
    EXPECT_EQ(DecodeSnapshotImage(flipped).status().code(),
              StatusCode::kCorruption)
        << pos;
  }
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_EQ(DecodeSnapshotImage(bytes.substr(0, n)).status().code(),
              StatusCode::kCorruption)
        << n;
  }
}

}  // namespace
}  // namespace hygraph::storage
