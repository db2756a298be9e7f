// ShardedBufferPool: a thread-safe read-only page cache in front of a
// PageDevice, for serving many concurrent sessions from one file-backed
// world (src/server/). The page space is hash-partitioned into shards;
// each shard has its own mutex, LRU list and hit/miss/eviction counters,
// so hot pages in different shards never contend on one lock.
//
// This is the program's one page cache. The walkthrough server puts one
// in front of the tree device and one in front of the store device of its
// file-backed snapshot, and the prefetcher warms them. Its contract:
//   - Get returns shared_ptr<const string>: the shared_ptr IS the pin.
//     Eviction only drops the pool's reference; readers holding the page
//     keep it alive, so there is no unpin bookkeeping across threads.
//   - Reads go through PageDevice::ReadRaw, the UNBILLED const path.
//     The pool never touches a SimClock or IoStats: simulated billing is
//     per-session by design (each session's devices bill their own
//     counters), the shared pool only reduces *real* I/O.
//   - The device miss read runs outside the shard lock, so a slow pread
//     only blocks readers of the same page's shard, briefly, twice.
//
// Locking order: a shard mutex is a leaf lock — no other lock is ever
// taken while one is held, and ReadRaw is lock-free on the device side.

#ifndef HDOV_STORAGE_SHARDED_BUFFER_POOL_H_
#define HDOV_STORAGE_SHARDED_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/page_device.h"

namespace hdov {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

struct ShardedPoolOptions {
  // Total cached pages across all shards; 0 = pure read-through (every
  // Get is a miss and nothing is retained).
  size_t capacity_pages = 1024;
  size_t shards = 8;
  // Flight-recorder label for this pool's hit/miss events.
  std::string flight_name = "server.pool";
};

class ShardedBufferPool {
 public:
  // `base` must outlive the pool and its const read path (ReadRaw /
  // IsMaterialized / page_count) must be safe for concurrent callers —
  // FilePageDevice opened read-only qualifies.
  ShardedBufferPool(const PageDevice* base, const ShardedPoolOptions& options);

  ShardedBufferPool(const ShardedBufferPool&) = delete;
  ShardedBufferPool& operator=(const ShardedBufferPool&) = delete;

  // Returns the page contents (zeros when unmaterialized), reading
  // through the base device on a miss. Thread-safe. The returned pages
  // are immutable and stay valid for the life of the shared_ptr.
  Result<std::shared_ptr<const std::string>> Get(PageId page);

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

  // Cached entries right now (sums the shards; approximate under
  // concurrent traffic).
  size_t size() const;

  // Hit/miss/eviction totals across shards. A consistent snapshot per
  // shard; the cross-shard sum is approximate under concurrent traffic.
  BufferPoolStats TotalStats() const;

  const PageDevice* base() const { return base_; }

 private:
  struct Entry {
    std::shared_ptr<const std::string> data;
    std::list<PageId>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<PageId> lru;  // Front = most recently used.
    std::unordered_map<PageId, Entry> entries;
    BufferPoolStats stats;
  };

  Shard& ShardFor(PageId page) {
    return shards_[static_cast<size_t>(page) % shards_.size()];
  }

  const PageDevice* base_;
  size_t capacity_;
  size_t per_shard_capacity_;
  uint16_t flight_code_;
  std::vector<Shard> shards_;
};

}  // namespace hdov

#endif  // HDOV_STORAGE_SHARDED_BUFFER_POOL_H_
