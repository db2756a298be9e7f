#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include <atomic>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/model_store.h"
#include "storage/page_device.h"
#include "storage/paged_file.h"
#include "storage/sharded_buffer_pool.h"
#include "telemetry/metrics.h"

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
  Result<std::string> empty = file.ReadRange(*extent, 100, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(PageDeviceTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hdov_device_image";
  PageDevice device;
  PageId a = device.Allocate();
  ASSERT_TRUE(device.Write(a, "persisted page").ok());
  PageId sparse = device.AllocateUnmaterialized(100);
  PageId b = device.Allocate();
  ASSERT_TRUE(device.Write(b, "another page").ok());
  ASSERT_TRUE(device.SaveToFile(path).ok());

  PageDevice restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.page_count(), device.page_count());
  std::string data;
  ASSERT_TRUE(restored.Read(a, &data).ok());
  EXPECT_EQ(data.substr(0, 14), "persisted page");
  ASSERT_TRUE(restored.Read(b, &data).ok());
  EXPECT_EQ(data.substr(0, 12), "another page");
  ASSERT_TRUE(restored.Read(sparse + 5, &data).ok());
  EXPECT_EQ(data, std::string(restored.page_size(), '\0'));
}

TEST(PageDeviceTest, SparseImageStaysSmall) {
  const std::string path = ::testing::TempDir() + "/hdov_sparse_image";
  PageDevice device;
  device.AllocateUnmaterialized(100000);  // 400 MB logical.
  ASSERT_TRUE(device.SaveToFile(path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  EXPECT_LT(in.tellg(), 200000);  // Flags only, not 400 MB.
}

TEST(PageDeviceTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/hdov_bad_image";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a device image";
  }
  PageDevice device;
  EXPECT_FALSE(device.LoadFromFile(path).ok());
  EXPECT_TRUE(device.LoadFromFile("/nonexistent/dir/img").IsIoError());
}

TEST(BufferPoolTest, HitsAvoidDeviceReads) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "cached").ok());
  device.ResetStats();
  BufferPool pool(&device, 4);
  ASSERT_TRUE(pool.Get(p).ok());
  ASSERT_TRUE(pool.Get(p).ok());
  ASSERT_TRUE(pool.Get(p).ok());
  EXPECT_EQ(device.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEviction) {
  PageDevice device;
  PageId pages[3] = {device.Allocate(), device.Allocate(), device.Allocate()};
  BufferPool pool(&device, 2);
  ASSERT_TRUE(pool.Get(pages[0]).ok());
  ASSERT_TRUE(pool.Get(pages[1]).ok());
  ASSERT_TRUE(pool.Get(pages[0]).ok());  // Touch 0: 1 is now LRU.
  ASSERT_TRUE(pool.Get(pages[2]).ok());  // Evicts 1.
  device.ResetStats();
  ASSERT_TRUE(pool.Get(pages[0]).ok());  // Hit.
  EXPECT_EQ(device.stats().page_reads, 0u);
  ASSERT_TRUE(pool.Get(pages[1]).ok());  // Miss: was evicted.
  EXPECT_EQ(device.stats().page_reads, 1u);
  // Two evictions so far: page 1 (at the page-2 miss) and then page 2
  // (bringing page 1 back into a full pool).
  EXPECT_EQ(pool.stats().evictions, 2u);
}

TEST(BufferPoolTest, ContentMatchesDevice) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "payload!").ok());
  BufferPool pool(&device, 2);
  Result<BufferPool::PageRef> ref = pool.Get(p);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(ref->valid());
  EXPECT_EQ(ref->data().substr(0, 8), "payload!");
  EXPECT_EQ((*ref)->substr(0, 8), "payload!");  // operator-> passthrough.
}

// Regression for the dangling-pointer bug the old API invited: the old
// Get returned a `const std::string*` that a later Get could evict and
// free. A live PageRef pins its page, so eviction pressure must not
// touch it (under ASan this test dies if the payload is freed).
TEST(BufferPoolTest, PinnedRefSurvivesEvictionPressure) {
  PageDevice device;
  PageId pinned = device.Allocate();
  ASSERT_TRUE(device.Write(pinned, "pinned page").ok());
  PageId others[3] = {device.Allocate(), device.Allocate(),
                      device.Allocate()};
  BufferPool pool(&device, 1);
  Result<BufferPool::PageRef> ref = pool.Get(pinned);
  ASSERT_TRUE(ref.ok());
  const std::string& bytes = ref->data();
  // Each of these would evict `pinned` under plain LRU at capacity 1.
  for (PageId p : others) {
    ASSERT_TRUE(pool.Get(p).ok());
  }
  EXPECT_EQ(bytes.substr(0, 11), "pinned page");
  // The pinned page rode above capacity (pin-through); the transient refs
  // released immediately, so only it and the newest unpinned page remain
  // at most: pinned + <=1 unpinned.
  EXPECT_LE(pool.size(), 2u);
  ref->Release();
  EXPECT_FALSE(ref->valid());
  // Releasing the pin while over capacity trims back down.
  EXPECT_LE(pool.size(), 1u);
}

TEST(BufferPoolTest, CapacityZeroIsPinThrough) {
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "transient").ok());
  BufferPool pool(&device, 0);
  {
    Result<BufferPool::PageRef> ref = pool.Get(p);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data().substr(0, 9), "transient");
    EXPECT_EQ(pool.size(), 1u);  // Alive only because of the pin.
  }
  EXPECT_EQ(pool.size(), 0u);  // Dropped at unpin: nothing is cached.
  ASSERT_TRUE(pool.Get(p).ok());
  EXPECT_EQ(pool.stats().hits, 0u);  // Every Get is a miss at capacity 0.
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPoolTest, GetNeverLeavesUnpinnedOverCapacity) {
  PageDevice device;
  PageId pages[8];
  for (PageId& p : pages) {
    p = device.Allocate();
  }
  BufferPool pool(&device, 3);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Get(pages[rng.NextUint64(8)]).ok());
    ASSERT_LE(pool.size(), pool.capacity());  // No refs held => hard cap.
  }
}

TEST(BufferPoolTest, ClearResetsStatsAndDropsUnpinned) {
  PageDevice device;
  PageId a = device.Allocate();
  PageId b = device.Allocate();
  ASSERT_TRUE(device.Write(a, "kept alive").ok());
  BufferPool pool(&device, 4);
  Result<BufferPool::PageRef> held = pool.Get(a);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(pool.Get(b).ok());
  ASSERT_TRUE(pool.Get(b).ok());  // One hit on b.
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 2u);

  pool.Clear();
  // Counters restart so post-Clear readers see per-session numbers...
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(pool.stats().evictions, 0u);
  // ...unpinned entries are gone, but the live ref kept its page intact.
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(held->data().substr(0, 10), "kept alive");
  device.ResetStats();
  ASSERT_TRUE(pool.Get(b).ok());
  EXPECT_EQ(device.stats().page_reads, 1u);  // b was really dropped.
  EXPECT_EQ(pool.stats().misses, 1u);
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
  EXPECT_TRUE(device.ReadRaw(p + 1, &data).code() ==
              StatusCode::kOutOfRange);
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.stats().seeks, 0u);
  EXPECT_DOUBLE_EQ(device.clock().NowMillis(), 0.0);
  // A zero-length run is a no-op, not an error, wherever it starts.
  EXPECT_TRUE(device.ReadRun(p + 5, 0, nullptr).ok());
}

// ----------------------- buffer-pool telemetry lifetime (regressions)

TEST(BufferPoolTest, DestructionDropsRegisteredViews) {
  // The views capture &stats_; before the destructor unregistered them, a
  // snapshot taken after the pool died read freed memory.
  telemetry::MetricsRegistry registry;
  PageDevice device;
  PageId p = device.Allocate();
  {
    BufferPool pool(&device, 4);
    ASSERT_TRUE(pool.Get(p).ok());
    pool.RegisterWith(&registry, "pool");
    EXPECT_TRUE(registry.Contains("pool.hits"));
    EXPECT_TRUE(registry.Contains("pool.hit_rate"));
  }
  EXPECT_FALSE(registry.Contains("pool.hits"));
  (void)registry.Snapshot();  // Under ASan: no freed stats left behind.
}

TEST(BufferPoolTest, ReRegisterMovesViews) {
  telemetry::MetricsRegistry first, second;
  PageDevice device;
  BufferPool pool(&device, 4);
  pool.RegisterWith(&first, "a");
  EXPECT_TRUE(first.Contains("a.hits"));
  pool.RegisterWith(&second, "b");
  EXPECT_FALSE(first.Contains("a.hits"));
  EXPECT_TRUE(second.Contains("b.hits"));
  // Explicit unregistration, for pools that outlive their registry.
  pool.UnregisterViews();
  pool.UnregisterViews();  // Idempotent.
  EXPECT_FALSE(second.Contains("b.hits"));
}

TEST(BufferPoolTest, FlightRetargetRacesWithGets) {
  // Regression for the plain-field data race: RegisterWith stores the
  // flight code while the Get path reads it for every hit/miss event.
  // Run under TSan; the code is atomic now, so this must be clean.
  PageDevice device;
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "raced").ok());
  BufferPool pool(&device, 4);
  telemetry::MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(pool.Get(p).ok());
    }
  });
  for (int i = 0; i < 200; ++i) {
    pool.RegisterWith(&registry, i % 2 == 0 ? "pool.even" : "pool.odd");
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  pool.UnregisterViews();
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
