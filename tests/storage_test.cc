#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "storage/model_store.h"
#include "storage/page_device.h"
#include "storage/paged_file.h"
#include "storage/sharded_buffer_pool.h"

namespace hdov {
namespace {

TEST(PageDeviceTest, WriteReadRoundTrip) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "hello pages").ok());
  std::string data;
  ASSERT_TRUE(device.Read(p, &data).ok());
  EXPECT_EQ(data.size(), device.page_size());
  EXPECT_EQ(data.substr(0, 11), "hello pages");
  EXPECT_EQ(data[11], '\0');  // Zero padding.
}

TEST(PageDeviceTest, BoundsChecks) {
  PageDevice device;
  std::string data;
  EXPECT_TRUE(device.Read(0, &data).code() == StatusCode::kOutOfRange);
  PageId p = device.Allocate();
  EXPECT_TRUE(device.Write(p + 1, "x").code() == StatusCode::kOutOfRange);
  std::string too_big(device.page_size() + 1, 'x');
  EXPECT_TRUE(device.Write(p, too_big).IsInvalidArgument());
}

TEST(PageDeviceTest, SeekAccounting) {
  PageDevice device;
  PageId a = device.Allocate();
  PageId b = device.Allocate();
  PageId c = device.Allocate();
  device.ResetStats();

  std::string data;
  ASSERT_TRUE(device.Read(a, &data).ok());  // Seek.
  ASSERT_TRUE(device.Read(b, &data).ok());  // Sequential: no seek.
  ASSERT_TRUE(device.Read(c, &data).ok());  // Sequential: no seek.
  ASSERT_TRUE(device.Read(a, &data).ok());  // Back-seek.
  EXPECT_EQ(device.stats().page_reads, 4u);
  EXPECT_EQ(device.stats().seeks, 2u);
}

TEST(PageDeviceTest, ReadRunBilledAsOneSeek) {
  PageDevice device;
  PageId first = device.AllocateUnmaterialized(10);
  device.ResetStats();
  ASSERT_TRUE(device.ReadRun(first, 10, nullptr).ok());
  EXPECT_EQ(device.stats().page_reads, 10u);
  EXPECT_EQ(device.stats().seeks, 1u);
}

TEST(PageDeviceTest, ClockAdvancesWithCostModel) {
  DiskModel model;
  model.seek_ms = 10.0;
  model.transfer_ms_per_page = 1.0;
  PageDevice device(model);
  PageId first = device.AllocateUnmaterialized(5);
  device.ResetStats();
  const double t0 = device.clock().NowMillis();
  ASSERT_TRUE(device.ReadRun(first, 5, nullptr).ok());
  EXPECT_NEAR(device.clock().NowMillis() - t0, 10.0 + 5.0, 1e-9);
}

TEST(PageDeviceTest, SharedClockAccumulates) {
  SimClock clock;
  DiskModel model;
  model.seek_ms = 1.0;
  model.transfer_ms_per_page = 0.0;
  PageDevice a(model, &clock);
  PageDevice b(model, &clock);
  PageId pa = a.Allocate();
  PageId pb = b.Allocate();
  clock.Reset();
  std::string data;
  ASSERT_TRUE(a.Read(pa, &data).ok());
  ASSERT_TRUE(b.Read(pb, &data).ok());
  EXPECT_NEAR(clock.NowMillis(), 2.0, 1e-9);
}

TEST(PageDeviceTest, UnmaterializedPagesReadAsZeros) {
  PageDevice device;
  PageId p = device.AllocateUnmaterialized(1);
  std::string data;
  ASSERT_TRUE(device.Read(p, &data).ok());
  EXPECT_EQ(data, std::string(device.page_size(), '\0'));
}

TEST(PageDeviceTest, SizeBytesCountsAllPages) {
  PageDevice device;
  device.Allocate();
  device.AllocateUnmaterialized(9);
  EXPECT_EQ(device.SizeBytes(), 10u * device.page_size());
}

TEST(PagedFileTest, ExtentRoundTrip) {
  PageDevice device;
  PagedFile file(&device);
  std::string payload(10000, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  Result<Extent> extent = file.Append(payload);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->byte_length, payload.size());
  EXPECT_EQ(extent->page_count, 3u);  // 10000 bytes in 4 KiB pages.
  Result<std::string> back = file.ReadExtent(*extent);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(PagedFileTest, EmptyPayloadStillOccupiesOnePage) {
  PageDevice device;
  PagedFile file(&device);
  Result<Extent> extent = file.Append("");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->page_count, 1u);
  Result<std::string> back = file.ReadExtent(*extent);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(PagedFileTest, MultipleExtentsIndependent) {
  PageDevice device;
  PagedFile file(&device);
  Result<Extent> a = file.Append("first extent");
  Result<Extent> b = file.Append(std::string(5000, 'z'));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*file.ReadExtent(*a), "first extent");
  EXPECT_EQ(file.ReadExtent(*b)->size(), 5000u);
}

TEST(PagedFileTest, InvalidExtentRejected) {
  PageDevice device;
  PagedFile file(&device);
  EXPECT_FALSE(file.ReadExtent(Extent()).ok());
}

TEST(PagedFileTest, ReadRangeTouchesOnlyCoveringPages) {
  PageDevice device;
  PagedFile file(&device);
  std::string payload(20000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  Result<Extent> extent = file.Append(payload);
  ASSERT_TRUE(extent.ok());
  device.ResetStats();

  // A range inside the second page reads exactly one page.
  Result<std::string> one = file.ReadRange(*extent, 5000, 100);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, payload.substr(5000, 100));
  EXPECT_EQ(device.stats().page_reads, 1u);

  // A range spanning a page boundary reads two.
  device.ResetStats();
  Result<std::string> two = file.ReadRange(*extent, 4000, 200);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, payload.substr(4000, 200));
  EXPECT_EQ(device.stats().page_reads, 2u);
}

TEST(PagedFileTest, ReadRangeBoundsChecked) {
  PageDevice device;
  PagedFile file(&device);
  Result<Extent> extent = file.Append(std::string(100, 'x'));
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(file.ReadRange(*extent, 50, 51).status().code(),
            StatusCode::kOutOfRange);
  // An offset + length that wraps past 2^64 must not wrap back inside.
  const uint64_t kMax = ~uint64_t{0};
  EXPECT_EQ(file.ReadRange(*extent, kMax - 10, 20).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.ReadRange(*extent, 50, kMax - 10).status().code(),
            StatusCode::kOutOfRange);
  Result<std::string> empty = file.ReadRange(*extent, 100, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(PagedFileTest, ExtentOffTheDeviceIsOutOfRange) {
  PageDevice device;
  PagedFile file(&device);
  const uint64_t page = device.page_size();
  ASSERT_TRUE(file.Append(std::string(3 * page, 'x')).ok());
  // first_page + page_count wraps past 2^64 back onto pages 0 and 1.
  Extent wrapping;
  wrapping.first_page = ~uint64_t{0} - 1;
  wrapping.page_count = 3;
  wrapping.byte_length = 3 * page;
  EXPECT_EQ(file.ReadExtent(wrapping).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.ReadRange(wrapping, 2 * page, page).status().code(),
            StatusCode::kOutOfRange);
  // A byte length its pages cannot hold.
  Extent overlong;
  overlong.first_page = 0;
  overlong.page_count = 1;
  overlong.byte_length = page + 1;
  EXPECT_EQ(file.ReadExtent(overlong).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.ReadRange(overlong, page, 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(device.stats().page_reads, 0u);
}

TEST(ModelStoreTest, RegisterAndFetchBilling) {
  PageDevice device;
  ModelStore store(&device);
  ModelId small = store.Register(100);        // 1 page.
  ModelId large = store.Register(10000);      // 3 pages.
  EXPECT_EQ(store.SizeOf(small), 100u);
  EXPECT_EQ(store.PagesOf(large), 3u);
  EXPECT_EQ(store.total_bytes(), 10100u);
  device.ResetStats();
  ASSERT_TRUE(store.Fetch(large).ok());
  EXPECT_EQ(device.stats().page_reads, 3u);
  EXPECT_EQ(device.stats().seeks, 1u);
  EXPECT_TRUE(store.Fetch(999).code() == StatusCode::kOutOfRange);
}

TEST(ModelStoreTest, RestoreMetaRejectsInflatedCountsAndWrappedExtents) {
  PageDevice device;
  ModelStore store(&device);
  store.Register(100);
  store.Register(10000);
  std::string meta;
  store.EncodeMeta(&meta);
  ModelStore restored(&device);
  ASSERT_TRUE(restored.RestoreMeta(meta).ok());
  EXPECT_EQ(restored.total_bytes(), 10100u);

  // u64 count | per extent: u64 first_page, u64 page_count, u64 bytes |
  // u64 total.
  const auto with_u64 = [&meta](size_t at, uint64_t value) {
    std::string field;
    EncodeFixed64(&field, value);
    return std::string(meta).replace(at, field.size(), field);
  };
  // A count the remaining 56 bytes cannot hold is Corruption before any
  // container is sized from it.
  for (uint64_t count : {uint64_t{3}, uint64_t{1} << 40, ~uint64_t{0}}) {
    ModelStore target(&device);
    EXPECT_TRUE(target.RestoreMeta(with_u64(0, count)).IsCorruption())
        << count;
  }
  // An extent whose first_page + page_count wraps past 2^64 lies past the
  // device end all the same.
  ModelStore target(&device);
  const std::string wrapped = with_u64(8, ~uint64_t{0});
  EXPECT_TRUE(target.RestoreMeta(wrapped).IsCorruption());
}

TEST(PageDeviceTest, UnmaterializedExtentLastPageReadsAsZeros) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "materialized").ok());
  PageId first = device.AllocateUnmaterialized(3);
  const PageId last = first + 2;
  ASSERT_EQ(last, device.page_count() - 1);

  std::string data;
  ASSERT_TRUE(device.Read(last, &data).ok());
  EXPECT_EQ(data, std::string(device.page_size(), '\0'));

  // A run that ends exactly at the device boundary is legal; one page
  // further is not.
  std::vector<std::string> run;
  ASSERT_TRUE(device.ReadRun(first, 3, &run).ok());
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run.back(), std::string(device.page_size(), '\0'));
  EXPECT_TRUE(device.ReadRun(first, 4, &run).code() ==
              StatusCode::kOutOfRange);
}

TEST(PageDeviceTest, ReadRunNullOutBillsLikeMaterializedRead) {
  PageDevice device;
  PageId first = device.AllocateUnmaterialized(4);
  ASSERT_TRUE(device.Write(first + 1, "content").ok());
  device.ResetStats();
  const double t0 = device.clock().NowMillis();
  ASSERT_TRUE(device.ReadRun(first, 4, nullptr).ok());
  const IoStats null_out = device.stats();
  const double null_ms = device.clock().NowMillis() - t0;

  device.ResetStats();
  device.ResetAccessTracker();
  const double t1 = device.clock().NowMillis();
  std::vector<std::string> run;
  ASSERT_TRUE(device.ReadRun(first, 4, &run).ok());
  EXPECT_EQ(null_out.page_reads, device.stats().page_reads);
  EXPECT_EQ(null_out.seeks, device.stats().seeks);
  EXPECT_EQ(null_out.bytes_read, device.stats().bytes_read);
  EXPECT_DOUBLE_EQ(null_ms, device.clock().NowMillis() - t1);
}

TEST(PageDeviceTest, OutOfRangeAccessesLeaveCountersUntouched) {
  PageDevice device;
  PageId p = device.Allocate();
  device.ResetStats();
  std::string data;
  EXPECT_TRUE(device.Read(p + 1, &data).code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(device.ReadRun(p, 2, nullptr).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(device.ReadRun(p + 5, 1, nullptr).code() ==
              StatusCode::kOutOfRange);
  // Runs whose first + count wraps past 2^64 lie past the end too.
  const uint64_t kMax = ~uint64_t{0};
  std::vector<std::string> run;
  EXPECT_TRUE(device.ReadRun(kMax - 1, 3, &run).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(device.ReadRun(p + 1, kMax, nullptr).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(device.ReadRaw(p + 1, &data).code() ==
              StatusCode::kOutOfRange);
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.stats().seeks, 0u);
  EXPECT_DOUBLE_EQ(device.clock().NowMillis(), 0.0);
  // A zero-length run is a no-op, not an error, wherever it starts.
  EXPECT_TRUE(device.ReadRun(p + 5, 0, nullptr).ok());
}

// -------------------------------------------------- sharded buffer pool

TEST(ShardedBufferPoolTest, MissThenHitWithoutBilling) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "shard payload").ok());
  device.ResetStats();

  ShardedPoolOptions opt;
  opt.capacity_pages = 8;
  opt.shards = 4;
  ShardedBufferPool pool(&device, opt);
  auto first = pool.Get(p);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->substr(0, 13), "shard payload");
  auto second = pool.Get(p);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same cached object.

  BufferPoolStats stats = pool.TotalStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(pool.size(), 1u);
  // The pool reads through the UNBILLED path: no simulated I/O at all.
  EXPECT_EQ(device.stats().page_reads, 0u);
}

TEST(ShardedBufferPoolTest, EvictionKeepsShardsWithinCapacity) {
  PageDevice device;
  std::vector<PageId> pages;
  for (int i = 0; i < 16; ++i) {
    pages.push_back(device.Allocate());
    std::string payload = "p";
    payload.append(std::to_string(i));
    ASSERT_TRUE(device.Write(pages.back(), payload).ok());
  }
  ShardedPoolOptions opt;
  opt.capacity_pages = 4;
  opt.shards = 2;
  ShardedBufferPool pool(&device, opt);
  for (PageId p : pages) {
    ASSERT_TRUE(pool.Get(p).ok());
  }
  EXPECT_LE(pool.size(), opt.capacity_pages);
  BufferPoolStats stats = pool.TotalStats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_GE(stats.evictions, 12u);
}

TEST(ShardedBufferPoolTest, CapacityZeroReadsThrough) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "uncached").ok());
  ShardedPoolOptions opt;
  opt.capacity_pages = 0;
  ShardedBufferPool pool(&device, opt);
  auto a = pool.Get(p);
  auto b = pool.Get(p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->substr(0, 8), "uncached");
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.TotalStats().hits, 0u);
  EXPECT_EQ(pool.TotalStats().misses, 2u);
}

TEST(ShardedBufferPoolTest, EvictedPageStaysValidWhileHeld) {
  // The shared_ptr IS the pin: eviction drops the pool's reference only.
  PageDevice device;
  PageId held_page = device.Allocate();
  ASSERT_TRUE(device.Write(held_page, "held onto").ok());
  std::vector<PageId> others;
  for (int i = 0; i < 8; ++i) {
    others.push_back(device.Allocate());
  }
  ShardedPoolOptions opt;
  opt.capacity_pages = 1;
  opt.shards = 1;
  ShardedBufferPool pool(&device, opt);
  auto held = pool.Get(held_page);
  ASSERT_TRUE(held.ok());
  for (PageId p : others) {
    ASSERT_TRUE(pool.Get(p).ok());  // Each one evicts the previous.
  }
  EXPECT_EQ((*held)->substr(0, 9), "held onto");  // ASan-checked.
}

TEST(ShardedBufferPoolTest, ConcurrentGetsSeeConsistentPages) {
  // The server's actual access pattern: many threads hammering one pool.
  // Run under TSan; verifies contents and that no lookup is lost.
  PageDevice device;
  constexpr int kPages = 32;
  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) {
    pages.push_back(device.Allocate());
    ASSERT_TRUE(
        device.Write(pages.back(), "page-" + std::to_string(i)).ok());
  }
  ShardedPoolOptions opt;
  opt.capacity_pages = 8;  // Small: forces concurrent eviction too.
  opt.shards = 4;
  ShardedBufferPool pool(&device, opt);

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int idx = (t * 13 + i * 7) % kPages;
        auto page = pool.Get(pages[idx]);
        if (!page.ok() ||
            (*page)->substr(0, 5 + (idx >= 10 ? 2 : 1)) !=
                "page-" + std::to_string(idx)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  BufferPoolStats stats = pool.TotalStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(IoStatsTest, DeltaAndAccumulate) {
  IoStats a;
  a.page_reads = 10;
  a.seeks = 2;
  IoStats b = a;
  b.page_reads = 15;
  b.seeks = 3;
  IoStats d = b.Delta(a);
  EXPECT_EQ(d.page_reads, 5u);
  EXPECT_EQ(d.seeks, 1u);
  a += d;
  EXPECT_EQ(a.page_reads, 15u);
}

}  // namespace
}  // namespace hdov
