#include "join/page_pool.h"

#include <algorithm>
#include <new>

#include "common/assert.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cj::join {

namespace {

#if defined(__linux__)
/// A fresh 2 MB-aligned mapping of `bytes` (a multiple of kHugePageBytes),
/// advised MADV_HUGEPAGE; null if the kernel refused. Over-maps by one huge
/// page and trims to the aligned range: an unaligned VMA may contain no
/// aligned 2 MB chunk at all, and THP can only back aligned chunks.
std::byte* map_aligned(std::size_t bytes) {
  constexpr std::size_t kAlign = PagePool::kHugePageBytes;
  const std::size_t total = bytes + kAlign;
  void* raw = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (base + kAlign - 1) & ~(kAlign - 1);
  if (aligned != base) ::munmap(raw, aligned - base);
  const std::size_t tail = total - (aligned - base) - bytes;
  if (tail != 0) ::munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  auto* p = reinterpret_cast<std::byte*>(aligned);
  ::madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}
#endif

}  // namespace

PagePool::~PagePool() {
  std::lock_guard<std::mutex> lk(mu_);
  CJ_CHECK_MSG(stats_.live_bytes == 0, "page pool destroyed with live blocks");
#if defined(__linux__)
  for (const Block& b : parked_) ::munmap(b.data, b.bytes);
#endif
}

PagePool& PagePool::process() {
  static PagePool* const pool = new PagePool;
  return *pool;
}

PagePool::Block PagePool::acquire(std::size_t bytes) {
  CJ_CHECK(bytes >= kHugePageBytes);
#if defined(__linux__)
  const std::size_t need = (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  std::vector<Block> evicted;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Best fit: the smallest parked block that holds the request.
    auto best = parked_.end();
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (it->bytes >= need && (best == parked_.end() || it->bytes < best->bytes)) {
        best = it;
      }
    }
    if (best != parked_.end()) {
      const Block block = *best;
      *best = parked_.back();
      parked_.pop_back();
      stats_.parked_bytes -= block.bytes;
      stats_.live_bytes += block.bytes;
      stats_.reused_bytes += block.bytes;
      return block;
    }
    // A fresh mapping: keep live + parked within the high-water mark it
    // sets, unmapping parked blocks (none fits) smallest first.
    const std::uint64_t live = stats_.live_bytes + need;
    const std::uint64_t limit = std::max(stats_.high_water_bytes, live);
    std::sort(parked_.begin(), parked_.end(),
              [](const Block& a, const Block& b) { return a.bytes > b.bytes; });
    while (!parked_.empty() && live + stats_.parked_bytes > limit) {
      evicted.push_back(parked_.back());
      stats_.parked_bytes -= parked_.back().bytes;
      parked_.pop_back();
    }
    // Reserve the bytes before dropping the lock, so concurrent fresh
    // mappings account against each other.
    stats_.live_bytes = live;
    stats_.high_water_bytes = limit;
    stats_.fresh_bytes += need;
  }
  for (const Block& b : evicted) ::munmap(b.data, b.bytes);
  std::byte* p = map_aligned(need);
  if (p == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.live_bytes -= need;
    stats_.fresh_bytes -= need;
    return {};
  }
  return Block{p, need};
#else
  (void)bytes;
  return {};
#endif
}

void PagePool::release(Block block) {
  if (block.data == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  CJ_CHECK(stats_.live_bytes >= block.bytes);
  stats_.live_bytes -= block.bytes;
  stats_.parked_bytes += block.bytes;
  parked_.push_back(block);
}

PagePool::Stats PagePool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

PoolBuffer::PoolBuffer(std::size_t bytes) : bytes_(bytes) {
  if (bytes_ == 0) return;
  if (bytes_ >= PagePool::kHugePageBytes) {
    const PagePool::Block block = PagePool::process().acquire(bytes_);
    if (block.data != nullptr) {
      p_ = block.data;
      mapped_ = block.bytes;
      return;
    }
  }
  // Plain new plus manual alignment, not the aligned operator new: glibc's
  // memalign carves its block out of a larger request, so the exact-size
  // chunk a released buffer leaves behind never serves the next buffer of
  // the same size. A loop that re-allocates one buffer then grows the heap
  // and first-touches fresh pages on every pass.
  constexpr std::size_t kAlign = 64;
  heap_ = static_cast<std::byte*>(::operator new(bytes_ + kAlign));
  p_ = heap_ + (-reinterpret_cast<std::uintptr_t>(heap_) & (kAlign - 1));
}

void PoolBuffer::reset() {
  if (p_ == nullptr) return;
  if (mapped_ != 0) {
    PagePool::process().release(PagePool::Block{p_, mapped_});
  } else {
    ::operator delete(heap_);
  }
  p_ = nullptr;
  heap_ = nullptr;
  bytes_ = 0;
  mapped_ = 0;
}

}  // namespace cj::join
