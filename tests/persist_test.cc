#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "largest_alloc.h"
#include "persist/snapshot.h"
#include "persist/world_codec.h"
#include "storage/file_device.h"
#include "temp_path.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

namespace fs = std::filesystem;

uint64_t Fixed64At(const std::string& bytes, size_t at) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

// ---------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 CRC32C check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

// --------------------------------------------------------- file device

TEST(FilePageDeviceTest, RoundTripThroughReopen) {
  const std::string path = TempPath("hdov_file_device_test.bin");
  PersistStats stats;
  {
    auto device = FilePageDevice::Create(path, DiskModel(), nullptr, &stats);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    PageId a = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(a, "page a contents").ok());
    PageId sparse = (*device)->AllocateUnmaterialized(3);
    PageId b = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(b, "page b contents").ok());
    (void)sparse;
    ASSERT_TRUE((*device)->Sync().ok());
  }
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.fsyncs, 0u);

  auto reopened = FilePageDevice::Open(path, DiskModel(), nullptr, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_count(), 5u);
  std::string data;
  ASSERT_TRUE((*reopened)->Read(0, &data).ok());
  EXPECT_EQ(data.substr(0, 15), "page a contents");
  ASSERT_TRUE((*reopened)->Read(1, &data).ok());  // Unmaterialized.
  EXPECT_EQ(data, std::string((*reopened)->page_size(), '\0'));
  ASSERT_TRUE((*reopened)->Read(4, &data).ok());
  EXPECT_EQ(data.substr(0, 15), "page b contents");
  EXPECT_GT(stats.checksum_verifications, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

// A run whose first + count wraps past 2^64 lies past the device end: it
// is refused before anything is billed or read.
TEST(FilePageDeviceTest, WrappingRunIsOutOfRange) {
  const std::string path = TempPath("hdov_file_device_wrap.bin");
  auto device = FilePageDevice::Create(path);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  ASSERT_TRUE((*device)->Write((*device)->Allocate(), "alpha").ok());
  ASSERT_TRUE((*device)->Write((*device)->Allocate(), "beta").ok());
  (*device)->ResetStats();
  const uint64_t kMax = ~uint64_t{0};
  std::vector<std::string> run;
  EXPECT_EQ((*device)->ReadRun(kMax - 1, 3, &run).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*device)->ReadRun(1, kMax, nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*device)->stats().page_reads, 0u);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, BillingMatchesMemoryDevice) {
  const std::string path = TempPath("hdov_file_device_billing.bin");
  auto file = FilePageDevice::Create(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  PageDevice memory;

  // Identical operation sequence against both backends.
  const auto drive = [](PageDevice* device) {
    PageId a = device->Allocate();
    EXPECT_TRUE(device->Write(a, "alpha").ok());
    PageId run = device->AllocateUnmaterialized(6);
    PageId b = device->Allocate();
    EXPECT_TRUE(device->Write(b, "beta").ok());
    std::string data;
    EXPECT_TRUE(device->Read(a, &data).ok());
    EXPECT_TRUE(device->ReadRun(run, 6, nullptr).ok());
    EXPECT_TRUE(device->Read(b, &data).ok());
    EXPECT_TRUE(device->Read(b, &data).ok());  // Repeat: back-seek.
  };
  drive(file->get());
  drive(&memory);

  const IoStats& f = (*file)->stats();
  const IoStats& m = memory.stats();
  EXPECT_EQ(f.page_reads, m.page_reads);
  EXPECT_EQ(f.page_writes, m.page_writes);
  EXPECT_EQ(f.seeks, m.seeks);
  EXPECT_EQ(f.bytes_read, m.bytes_read);
  EXPECT_EQ(f.bytes_written, m.bytes_written);
  EXPECT_DOUBLE_EQ((*file)->clock().NowMillis(), memory.clock().NowMillis());
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, ConcurrentRawReadsAreSafe) {
  // Regression for the shared scratch buffer: FetchPage staged every read
  // through one `mutable std::string`, so two threads on the const read
  // path scribbled over each other's pages. Reads now use per-call
  // buffers; run under TSan this must be race-free, and the content
  // checks below catch cross-thread corruption anywhere.
  const std::string path = TempPath("hdov_file_device_concurrent.bin");
  constexpr int kPages = 16;
  {
    auto device = FilePageDevice::Create(path);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    for (int i = 0; i < kPages; ++i) {
      PageId p = (*device)->Allocate();
      ASSERT_TRUE(
          (*device)->Write(p, "payload of page " + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*device)->Sync().ok());
  }
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string data;
      for (int i = 0; i < kIters; ++i) {
        const int page = (t * 5 + i * 3) % kPages;
        const std::string expected =
            "payload of page " + std::to_string(page);
        if (!(*device)->ReadRaw(page, &data).ok() ||
            data.substr(0, expected.size()) != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, CorruptedPageFailsChecksum) {
  const std::string path = TempPath("hdov_file_device_corrupt.bin");
  PersistStats stats;
  {
    auto device = FilePageDevice::Create(path, DiskModel(), nullptr, &stats);
    ASSERT_TRUE(device.ok());
    PageId p = (*device)->Allocate();
    ASSERT_TRUE((*device)->Write(p, "precious payload").ok());
    ASSERT_TRUE((*device)->Sync().ok());
  }
  {
    // Flip one byte inside the page's data slot (slot 0 lives one page
    // into the region).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 3);
    f.put('X');
  }
  auto device = FilePageDevice::Open(path, DiskModel(), nullptr, &stats);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  std::string data;
  Status read = (*device)->Read(0, &data);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_GT(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, InflatedPageTableIsCorruptionWithoutAllocating) {
  const std::string path = TempPath("hdov_file_device_table.bin");
  {
    auto device = FilePageDevice::Create(path);
    ASSERT_TRUE(device.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE((*device)->Write((*device)->Allocate(), "page").ok());
    }
    ASSERT_TRUE((*device)->Sync().ok());
  }
  const uint64_t size = fs::file_size(path);
  std::string file(size, '\0');
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.read(file.data(), file.size()).good());
  }
  // Header: magic, version, page size, reserved (16 bytes), page count,
  // materialized count, table offset and length (8 each), the table CRC,
  // then its own CRC over the 52 bytes before it. Both CRCs are recomputed
  // for every mutant, so that the bounds checks are what must reject it.
  const uint64_t table_offset = Fixed64At(file, 32);
  const uint64_t table_length = Fixed64At(file, 40);
  auto rewrite = [&](uint64_t count, uint64_t offset, uint64_t length) {
    std::string header = file.substr(0, 56);
    std::string fields;
    EncodeFixed64(&fields, count);
    header.replace(16, 8, fields);
    fields.clear();
    EncodeFixed64(&fields, offset);
    EncodeFixed64(&fields, length);
    header.replace(32, 16, fields);
    if (offset <= size && length <= size - offset) {
      std::string crc;
      EncodeFixed32(&crc,
                    Crc32c(std::string_view(file).substr(offset, length)));
      header.replace(48, 4, crc);
    }
    std::string crc;
    EncodeFixed32(&crc, Crc32c(std::string_view(header.data(), 52)));
    header.replace(52, 4, crc);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.write(header.data(), header.size()).good());
  };
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  struct Mutant {
    uint64_t count, offset, length;
  };
  for (const Mutant& m : std::vector<Mutant>{
           // 13 * count wraps to 10: a 10-byte table matched the count.
           {(kMax - 2) / 13 + 1, table_offset, 10},
           // Consistent, but a table far larger than the file.
           {uint64_t{1} << 40, table_offset, (uint64_t{1} << 40) * 13},
           // table offset + length wraps.
           {2, kMax - 3, table_length},
           // One byte past the end.
           {2, size - table_length + 1, table_length}}) {
    rewrite(m.count, m.offset, m.length);
    largest_new = 0;
    const Status status = FilePageDevice::Open(path).status();
    const size_t largest = largest_new;
    EXPECT_TRUE(status.IsCorruption())
        << m.count << " " << m.offset << " " << m.length << ": "
        << status.ToString();
    EXPECT_LT(largest, size_t{1} << 20) << m.count;
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------------- snapshot

TEST(SnapshotTest, BlobRoundTripAndAtomicCommit) {
  const std::string path = TempPath("hdov_snapshot_blobs.hdov");
  std::remove(path.c_str());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->AddBlob("alpha", "first blob").ok());
    ASSERT_TRUE((*writer)->AddBlob("beta", std::string(9000, 'b')).ok());
    // Nothing visible at the final path until Commit.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE((*writer)->Commit().ok());
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  auto loader = SnapshotLoader::Open(path);
  ASSERT_TRUE(loader.ok()) << loader.status().ToString();
  EXPECT_TRUE((*loader)->Contains("alpha"));
  EXPECT_FALSE((*loader)->Contains("gamma"));
  auto alpha = (*loader)->ReadBlob("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "first blob");
  auto beta = (*loader)->ReadBlob("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->size(), 9000u);
  EXPECT_TRUE((*loader)->ReadBlob("gamma").status().IsNotFound());
  std::remove(path.c_str());
}

TEST(SnapshotTest, UncommittedWriterLeavesNothingBehind) {
  const std::string path = TempPath("hdov_snapshot_abandoned.hdov");
  std::remove(path.c_str());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", "doomed").ok());
    // Destroyed without Commit.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotTest, CorruptedBlobDetected) {
  const std::string path = TempPath("hdov_snapshot_corrupt.hdov");
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", std::string(100, 'a')).ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  {
    // The first section starts one page in; damage a byte of it.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(DiskModel().page_size + 7);
    f.put('!');
  }
  PersistStats stats;
  auto loader = SnapshotLoader::Open(path, &stats);
  ASSERT_TRUE(loader.ok()) << loader.status().ToString();
  Status read = (*loader)->ReadBlob("alpha").status();
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_GT(stats.checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CatalogPastTheEndIsCorruption) {
  const std::string path = TempPath("hdov_snapshot_catalog.hdov");
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", "payload").ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  // Superblock: magic, version, page size, section count, reserved (24
  // bytes), catalog offset and length (8 each), catalog CRC, then its own
  // CRC over the 44 bytes before it.
  auto rewrite = [&](uint64_t offset, uint64_t length) {
    std::string superblock(48, '\0');
    {
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.read(superblock.data(), superblock.size()).good());
    }
    std::string fields;
    EncodeFixed64(&fields, offset);
    EncodeFixed64(&fields, length);
    superblock.replace(24, 16, fields);
    std::string crc;
    EncodeFixed32(&crc, Crc32c(std::string_view(superblock.data(), 44)));
    superblock.replace(44, 4, crc);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.write(superblock.data(), superblock.size()).good());
  };
  const uint64_t size = fs::file_size(path);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const auto& [offset, length] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {4096, kMax / 2},     // Would allocate ~2^63 bytes.
           {kMax - 3, 16},       // offset + length wraps.
           {size - 8, 9},        // One byte past the end.
           {size + 1, 0}}) {
    rewrite(offset, length);
    const Status status = SnapshotLoader::Open(path).status();
    EXPECT_TRUE(status.IsCorruption())
        << offset << " + " << length << ": " << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SectionPastTheEndIsCorruption) {
  const std::string path = TempPath("hdov_snapshot_section.hdov");
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddBlob("alpha", "payload").ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  std::string superblock(48, '\0');
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.read(superblock.data(), superblock.size()).good());
  }
  // The catalog: section count, then per section the name length and
  // name, the kind byte, offset and length (8 each) and the section CRC.
  // The catalog CRC (superblock byte 40) and the superblock CRC (byte 44)
  // are recomputed for every mutant.
  const uint64_t catalog_offset = Fixed64At(superblock, 24);
  const uint64_t catalog_length = Fixed64At(superblock, 32);
  std::string catalog(catalog_length, '\0');
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(catalog_offset));
    ASSERT_TRUE(in.read(catalog.data(), catalog.size()).good());
  }
  constexpr size_t kEntryExtent = 4 + 4 + 5 + 1;  // "alpha" + kind byte.
  auto rewrite = [&](uint64_t offset, uint64_t length) {
    std::string fields;
    EncodeFixed64(&fields, offset);
    EncodeFixed64(&fields, length);
    std::string mutated = catalog;
    mutated.replace(kEntryExtent, 16, fields);
    std::string sb = superblock;
    std::string crc;
    EncodeFixed32(&crc, Crc32c(mutated));
    sb.replace(40, 4, crc);
    crc.clear();
    EncodeFixed32(&crc, Crc32c(std::string_view(sb.data(), 44)));
    sb.replace(44, 4, crc);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.write(sb.data(), sb.size()).good());
    f.seekp(static_cast<std::streamoff>(catalog_offset));
    ASSERT_TRUE(f.write(mutated.data(), mutated.size()).good());
  };
  const uint64_t size = fs::file_size(path);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const auto& [offset, length] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {4096, uint64_t{1} << 62},  // ReadBlob would allocate 2^62 bytes.
           {kMax - 3, 16},             // offset + length wraps.
           {4096, size - 4096 + 1}}) { // One byte past the end.
    rewrite(offset, length);
    const Status status = SnapshotLoader::Open(path).status();
    EXPECT_TRUE(status.IsCorruption())
        << offset << " + " << length << ": " << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, DeviceSectionRoundTrip) {
  const std::string path = TempPath("hdov_snapshot_device.hdov");
  PageDevice source;
  PageId a = source.Allocate();
  ASSERT_TRUE(source.Write(a, "device payload").ok());
  source.AllocateUnmaterialized(5);
  PageId b = source.Allocate();
  ASSERT_TRUE(source.Write(b, "tail page").ok());
  {
    auto writer = SnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddDevice("dev", source).ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  auto loader = SnapshotLoader::Open(path);
  ASSERT_TRUE(loader.ok());

  PageDevice restored;
  ASSERT_TRUE((*loader)->RestoreDevice("dev", &restored).ok());
  ASSERT_EQ(restored.page_count(), source.page_count());
  std::string expect, got;
  for (PageId p = 0; p < source.page_count(); ++p) {
    EXPECT_EQ(source.IsMaterialized(p), restored.IsMaterialized(p));
    ASSERT_TRUE(source.ReadRaw(p, &expect).ok());
    ASSERT_TRUE(restored.ReadRaw(p, &got).ok());
    EXPECT_EQ(expect, got) << "page " << p;
  }

  auto opened = (*loader)->OpenDevice("dev", DiskModel(), nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ((*opened)->page_count(), source.page_count());
  for (PageId p = 0; p < source.page_count(); ++p) {
    ASSERT_TRUE(source.ReadRaw(p, &expect).ok());
    ASSERT_TRUE((*opened)->ReadRaw(p, &got).ok());
    EXPECT_EQ(expect, got) << "page " << p;
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------------- world codec

TEST(WorldCodecTest, SceneRoundTripsBitExactly) {
  TestbedOptions topt;
  topt.blocks = 3;
  topt.cells = 3;
  auto bed = BuildTestbed(topt);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  std::string bytes;
  EncodeScene(bed->scene, &bytes);
  auto scene = DecodeScene(bytes);
  ASSERT_TRUE(scene.ok()) << scene.status().ToString();
  ASSERT_EQ(scene->size(), bed->scene.size());
  for (ObjectId id = 0; id < scene->size(); ++id) {
    const Object& in = bed->scene.object(id);
    const Object& out = scene->object(id);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_TRUE(out.mbr == in.mbr);
    ASSERT_EQ(out.lods.num_levels(), in.lods.num_levels());
    for (size_t l = 0; l < in.lods.num_levels(); ++l) {
      EXPECT_EQ(out.lods.level(l).triangle_count,
                in.lods.level(l).triangle_count);
      EXPECT_EQ(out.lods.level(l).byte_size, in.lods.level(l).byte_size);
    }
  }
  EXPECT_TRUE(scene->bounds() == bed->scene.bounds());

  std::string table_bytes;
  EncodeVisibilityTable(bed->table, &table_bytes);
  auto table = DecodeVisibilityTable(table_bytes);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_cells(), bed->table.num_cells());
  for (CellId c = 0; c < table->num_cells(); ++c) {
    EXPECT_EQ(table->cell(c).ids, bed->table.cell(c).ids);
    EXPECT_EQ(table->cell(c).dov, bed->table.cell(c).dov);
  }
}

// A visibility table of one cell holding `ids` with `dovs`, encoded by
// hand so the test can write what the encoder never would.
std::string OneCellTable(const std::vector<uint32_t>& ids,
                         const std::vector<float>& dovs) {
  std::string bytes;
  EncodeFixed32(&bytes, 1);
  EncodeFixed32(&bytes, static_cast<uint32_t>(ids.size()));
  for (uint32_t id : ids) {
    EncodeFixed32(&bytes, id);
  }
  for (float dov : dovs) {
    EncodeFloat(&bytes, dov);
  }
  return bytes;
}

void ExpectCorruption(const Status& status) {
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(WorldCodecTest, VisibilityTableRejectsInflatedCounts) {
  ASSERT_TRUE(DecodeVisibilityTable(OneCellTable({1, 2}, {0.1f, 0.2f})).ok());

  std::string cells;  // 4G cells in an 8-byte section.
  EncodeFixed32(&cells, 0xffffffffu);
  EncodeFixed32(&cells, 0);
  ExpectCorruption(DecodeVisibilityTable(cells).status());

  std::string entries = OneCellTable({1, 2}, {0.1f, 0.2f});
  entries[4] = '\x03';  // Three entries, bytes for two.
  ExpectCorruption(DecodeVisibilityTable(entries).status());
  entries[7] = '\x7f';  // ~2G entries.
  ExpectCorruption(DecodeVisibilityTable(entries).status());
}

TEST(WorldCodecTest, VisibilityTableRejectsUnsortedIds) {
  ExpectCorruption(
      DecodeVisibilityTable(OneCellTable({1, 1}, {0.1f, 0.2f})).status());
  ExpectCorruption(
      DecodeVisibilityTable(OneCellTable({5, 2}, {0.1f, 0.2f})).status());
}

TEST(WorldCodecTest, VisibilityTableRejectsBadDov) {
  for (float bad : {0.0f, -0.0f, -0.25f,
                    std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    ExpectCorruption(
        DecodeVisibilityTable(OneCellTable({1, 2}, {0.1f, bad})).status());
  }
}

TEST(WorldCodecTest, SceneRejectsInflatedLodAndMeshCounts) {
  // One object: kind, MBR, then a LoD chain with one level whose mesh has
  // `vertices` vertices and no triangles (coordinates supplied for
  // `stored` of them).
  auto scene_bytes = [](uint32_t levels, uint64_t vertices, int stored,
                        uint64_t triangles) {
    std::string bytes;
    EncodeFixed32(&bytes, 1);
    bytes.push_back(static_cast<char>(ObjectKind::kBuilding));
    for (int i = 0; i < 6; ++i) {
      EncodeDouble(&bytes, i < 3 ? 0.0 : 1.0);
    }
    EncodeFixed32(&bytes, levels);
    EncodeFixed32(&bytes, 0);  // triangle_count
    EncodeFixed64(&bytes, 0);  // byte_size
    EncodeFixed64(&bytes, vertices);
    for (int i = 0; i < 3 * stored; ++i) {
      EncodeDouble(&bytes, 0.5);
    }
    EncodeFixed64(&bytes, triangles);
    return bytes;
  };
  ASSERT_TRUE(DecodeScene(scene_bytes(1, 2, 2, 0)).ok());
  ExpectCorruption(DecodeScene(scene_bytes(0xffffffffu, 2, 2, 0)).status());
  ExpectCorruption(DecodeScene(scene_bytes(1, 3, 2, 0)).status());
  ExpectCorruption(
      DecodeScene(scene_bytes(1, uint64_t{1} << 60, 2, 0)).status());
  ExpectCorruption(DecodeScene(scene_bytes(1, 2, 2, 1)).status());
  ExpectCorruption(
      DecodeScene(scene_bytes(1, 2, 2, ~uint64_t{0})).status());
}

// ------------------------------------------------- world round trip

class WorldRoundTripTest : public ::testing::Test {
 protected:
  static constexpr const char* kPath = "hdov_world_roundtrip.hdov";

  void SetUp() override {
    path_ = TempPath(kPath);
    TestbedOptions topt;
    topt.blocks = 4;
    topt.cells = 4;
    auto bed = BuildTestbed(topt);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    bed_ = std::make_unique<Testbed>(std::move(*bed));

    auto writer = SnapshotWriter::Create(path_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        WriteWorldSnapshot(writer->get(), *bed_, DefaultVisualOptions())
            .ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Runs the fig7-style query workload and returns per-query results plus
  // the I/O counter and simulated-clock deltas through the out-params.
  static void Drive(VisualSystem* system, const Aabb& bounds,
                    std::vector<std::vector<RetrievedLod>>* results,
                    IoStats* io, double* millis) {
    system->ResetRuntime();
    system->ResetIoStats();
    std::vector<Vec3> viewpoints;
    for (int i = 0; i < 8; ++i) {
      const double t = (i + 0.5) / 8.0;
      viewpoints.emplace_back(
          bounds.min.x + t * (bounds.max.x - bounds.min.x),
          bounds.min.y + (1.0 - t) * (bounds.max.y - bounds.min.y), 1.7);
    }
    const double t0 = system->clock().NowMillis();
    for (double eta : {0.0, 0.001, 0.004}) {
      system->set_eta(eta);
      for (const Vec3& p : viewpoints) {
        std::vector<RetrievedLod> result;
        ASSERT_TRUE(
            system->Query(p, /*fetch_models=*/true, &result, nullptr).ok());
        results->push_back(std::move(result));
      }
    }
    *io = system->TotalIoStats();
    *millis = system->clock().NowMillis() - t0;
  }

  static void ExpectIdentical(VisualSystem* built, VisualSystem* loaded,
                              const Aabb& bounds) {
    std::vector<std::vector<RetrievedLod>> built_results, loaded_results;
    IoStats built_io, loaded_io;
    double built_ms = 0.0, loaded_ms = 0.0;
    Drive(built, bounds, &built_results, &built_io, &built_ms);
    Drive(loaded, bounds, &loaded_results, &loaded_io, &loaded_ms);

    // Bit-identical result sets...
    ASSERT_EQ(built_results.size(), loaded_results.size());
    for (size_t q = 0; q < built_results.size(); ++q) {
      ASSERT_EQ(built_results[q].size(), loaded_results[q].size())
          << "query " << q;
      for (size_t i = 0; i < built_results[q].size(); ++i) {
        const RetrievedLod& a = built_results[q][i];
        const RetrievedLod& b = loaded_results[q][i];
        EXPECT_EQ(a.owner, b.owner);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.model, b.model);
        EXPECT_EQ(a.lod_level, b.lod_level);
        EXPECT_EQ(a.byte_size, b.byte_size);
        EXPECT_EQ(a.triangle_count, b.triangle_count);
      }
    }
    // ...and identical simulated counters.
    EXPECT_EQ(built_io.page_reads, loaded_io.page_reads);
    EXPECT_EQ(built_io.seeks, loaded_io.seeks);
    EXPECT_EQ(built_io.bytes_read, loaded_io.bytes_read);
    EXPECT_DOUBLE_EQ(built_ms, loaded_ms);
  }

  std::string path_;
  std::unique_ptr<Testbed> bed_;
};

TEST_F(WorldRoundTripTest, LoadedWorldMatchesTestbed) {
  auto loader = SnapshotLoader::Open(path_);
  ASSERT_TRUE(loader.ok());
  auto loaded = LoadWorldSections(**loader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->scene.size(), bed_->scene.size());
  EXPECT_EQ(loaded->grid.num_cells(), bed_->grid.num_cells());
  EXPECT_EQ(loaded->table.num_cells(), bed_->table.num_cells());
}

TEST_F(WorldRoundTripTest, EverySchemeMatchesInBothLoadModes) {
  PersistStats stats;
  auto loader = SnapshotLoader::Open(path_, &stats);
  ASSERT_TRUE(loader.ok());
  auto loaded_bed = LoadWorldSections(**loader);
  ASSERT_TRUE(loaded_bed.ok());

  for (StorageScheme scheme :
       {StorageScheme::kHorizontal, StorageScheme::kVertical,
        StorageScheme::kIndexedVertical, StorageScheme::kBitmapVertical}) {
    SCOPED_TRACE(StorageSchemeName(scheme));
    VisualOptions vopt = DefaultVisualOptions();
    vopt.scheme = scheme;
    auto built = VisualSystem::Create(&bed_->scene, &bed_->grid,
                                      &bed_->table, vopt);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    for (SnapshotLoadMode mode : {SnapshotLoadMode::kMemoryResident,
                                  SnapshotLoadMode::kFileBacked}) {
      auto loaded = VisualSystem::CreateFromSnapshot(
          **loader, &loaded_bed->scene, &loaded_bed->grid, vopt, mode);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectIdentical(built->get(), loaded->get(), bed_->scene.bounds());
    }
  }
  EXPECT_GT(stats.load_millis, 0.0);
  EXPECT_GT(stats.checksum_verifications, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

}  // namespace
}  // namespace hdov
