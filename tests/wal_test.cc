#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "storage/env.h"

namespace hygraph::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_wal_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    env_ = Env::Default();
  }
  void TearDown() override {
    std::system(("rm -rf " + dir_).c_str());
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  Env* env_ = nullptr;
};

TEST_F(WalTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST_F(WalTest, Crc32IncrementalMatchesOneShot) {
  const std::string data = "hello, write-ahead world";
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, data.data(), 5);
  state = Crc32Update(state, data.data() + 5, data.size() - 5);
  EXPECT_EQ(Crc32Finalize(state), Crc32(data));

  // Every two-way split of a 300-byte buffer, then a three-way split with
  // odd-sized pieces: the 8-byte block loop must resume at any phase.
  std::string long_data(300, '\0');
  for (size_t i = 0; i < long_data.size(); ++i) {
    long_data[i] = static_cast<char>(i * 131 + 7);
  }
  const uint32_t whole = Crc32(long_data);
  for (size_t cut = 0; cut <= long_data.size(); ++cut) {
    state = kCrc32Init;
    state = Crc32Update(state, long_data.data(), cut);
    state = Crc32Update(state, long_data.data() + cut, long_data.size() - cut);
    ASSERT_EQ(Crc32Finalize(state), whole) << "cut " << cut;
  }
  state = kCrc32Init;
  state = Crc32Update(state, long_data.data(), 3);
  state = Crc32Update(state, long_data.data() + 3, 13);
  state = Crc32Update(state, long_data.data() + 16, long_data.size() - 16);
  EXPECT_EQ(Crc32Finalize(state), whole);
}

// The plain byte-at-a-time CRC-32 (reflected 0xEDB88320), computed bit by
// bit: the oracle the table-driven kernel must match byte for byte.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST_F(WalTest, Crc32MatchesBytewiseAtEveryLengthAndAlignment) {
  // 300 + 8 pseudo-random bytes; every (alignment, length) slice crosses
  // the 8-byte block loop and its byte tail at a different phase.
  std::vector<unsigned char> buf(308);
  uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + align;
      const std::string_view view(reinterpret_cast<const char*>(p), len);
      ASSERT_EQ(Crc32(view), BytewiseCrc32(p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST_F(WalTest, RoundTripsRecords) {
  const std::vector<std::string> payloads = {
      "1 NV 0 L 0 P 0", "2 AV 0 temp 100 3.5", std::string(10000, 'x'), ""};
  {
    auto writer = WalWriter::Create(env_, Path("wal.log"));
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p, /*sync=*/false).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records, payloads);
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->dropped_bytes, 0u);
}

TEST_F(WalTest, MissingFileReadsAsEmptyLog) {
  auto read = ReadWal(env_, Path("absent.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->torn_tail);
}

std::string WriteFrames(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& p : payloads) out += EncodeWalFrame(p);
  return out;
}

void WriteRaw(Env* env, const std::string& path, const std::string& bytes) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST_F(WalTest, TornTailIsSalvagedNotFatal) {
  const std::vector<std::string> payloads = {"first", "second", "third"};
  std::string bytes = WriteFrames(payloads);
  const std::string full = bytes;
  // Every truncation point after the intact prefix must salvage exactly the
  // complete records and report the rest as a torn tail.
  const size_t two = WriteFrames({"first", "second"}).size();
  for (size_t cut = two + 1; cut < full.size(); ++cut) {
    WriteRaw(env_, Path("wal.log"), full.substr(0, cut));
    auto read = ReadWal(env_, Path("wal.log"));
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": " << read.status().ToString();
    EXPECT_EQ(read->records,
              (std::vector<std::string>{"first", "second"}))
        << "cut=" << cut;
    EXPECT_TRUE(read->torn_tail) << "cut=" << cut;
    EXPECT_EQ(read->valid_bytes, two) << "cut=" << cut;
    EXPECT_EQ(read->dropped_bytes, cut - two) << "cut=" << cut;
  }
}

TEST_F(WalTest, CorruptCrcStopsAtLastGoodRecord) {
  std::string bytes = WriteFrames({"first", "second"});
  bytes.back() ^= 0x01;  // flip a bit in the last record's payload
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"first"});
  EXPECT_TRUE(read->torn_tail);
}

TEST_F(WalTest, OversizedLengthFieldIsTreatedAsCorruption) {
  std::string bytes = WriteFrames({"ok"});
  // Append a frame header claiming a payload far beyond kWalMaxRecordSize.
  bytes += std::string("\xff\xff\xff\xff", 4) + std::string(8, 'z');
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"ok"});
  EXPECT_TRUE(read->torn_tail);
}

TEST_F(WalTest, AppendRejectsOversizedPayload) {
  auto writer = WalWriter::Create(env_, Path("wal.log"));
  ASSERT_TRUE(writer.ok());
  std::string huge(kWalMaxRecordSize + 1, 'x');
  EXPECT_EQ((*writer)->Append(huge, false).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WalTest, TruncateWalToValidPrefixDropsTornTail) {
  std::string bytes = WriteFrames({"first", "second"}) + "torn-garbage";
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->torn_tail);
  ASSERT_TRUE(TruncateWalToValidPrefix(env_, Path("wal.log"), *read).ok());
  auto size = env_->GetFileSize(Path("wal.log"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, read->valid_bytes);
  auto reread = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->records, read->records);
  EXPECT_FALSE(reread->torn_tail);
}

}  // namespace
}  // namespace hygraph::storage
