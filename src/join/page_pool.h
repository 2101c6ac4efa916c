// Backing storage for the join's large setup buffers.
//
// A cyclo-join run allocates a few large buffers per host and frees them at
// the end: the radix-clustered copy of each fragment and its hash side
// array, the group hash tables (32 B per stationary tuple at the build load
// factor), the wire-ready chunk slab, the sorted copies of sort-merge. Fresh
// anonymous memory is not free: the first touch of every 4 KB page is a
// minor fault plus a kernel page-zero, charged to whichever loop writes it
// first (~0.45 ns/B measured), and a table far larger than the TLB reach
// pays a 4 KB-TLB miss per random group access on the probe side. Repeated
// runs in one process (the serving layer, a plan's rounds, a benchmark
// loop) paid that on every run.
//
// PagePool hands out 2 MB-aligned anonymous mappings advised MADV_HUGEPAGE
// (under transparent-huge-page "madvise" policy, the common server default,
// the kernel backs them with 2 MB pages: ~500x fewer faults, one TLB entry
// per 2 MB) and parks them on release instead of unmapping them. The next
// request of any thread adopts the smallest parked block that is large
// enough, pages still resident, so a repeated run faults none of its large
// buffers. One pool serves the whole process, under one mutex: on rt a
// table is built on an executor worker that lives for one run and is freed
// on the caller's thread, so a per-thread cache never saw the same thread
// twice.
//
// Retained memory is bounded without a knob:
//
//     live bytes + parked bytes <= high-water mark of live bytes
//
// i.e. the pool never holds more mapped memory than the most its callers
// ever had in use at once. Releasing a block moves its bytes from live to
// parked; adopting one moves them back; neither changes the sum. Only a
// fresh mapping grows the sum, and when it would break the bound the pool
// first unmaps parked blocks (all smaller than the request, or it would
// have adopted one), smallest first.
//
// Adopted storage is NOT zeroed: every consumer writes a byte before it
// reads it. Requests below one huge page take a 64 B-aligned heap block
// instead — a lone small buffer cannot be backed by a huge page, and the
// heap recycles those cheaply. Off Linux, or if mmap fails, every
// request takes the heap path; correctness never depends on the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace cj::join {

class PagePool {
 public:
  /// Huge-page granularity: blocks start on it and their sizes round up to
  /// a multiple of it, so near-equal requests share one size class. It is
  /// also the smallest request the pool serves.
  static constexpr std::size_t kHugePageBytes = 2U << 20;

  struct Block {
    std::byte* data = nullptr;
    std::size_t bytes = 0;  ///< mapped size, a multiple of kHugePageBytes
  };

  /// Cumulative and current byte counts (tests and reporting).
  struct Stats {
    std::uint64_t fresh_bytes = 0;   ///< mapped fresh, ever
    std::uint64_t reused_bytes = 0;  ///< adopted from the parked set, ever
    std::uint64_t live_bytes = 0;    ///< handed out and not yet released
    std::uint64_t parked_bytes = 0;  ///< released and still mapped
    std::uint64_t high_water_bytes = 0;  ///< largest live_bytes seen
  };

  PagePool() = default;
  /// Unmaps the parked blocks. Every acquired block must be released first.
  ~PagePool();
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// The pool every PoolBuffer draws from. Never destroyed, so buffers in
  /// static storage may outlive any ordering of static destructors.
  static PagePool& process();

  /// A block of at least `bytes` (>= kHugePageBytes): a parked one when one
  /// is large enough, else a fresh mapping. Contents are unspecified.
  /// Returns an empty block only if the kernel refused the mapping.
  Block acquire(std::size_t bytes);
  /// Parks a block from acquire() for reuse by any thread.
  void release(Block block);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<Block> parked_;
  Stats stats_;
};

/// One contiguous, 64 B-aligned, uninitialized byte range: a PagePool block
/// when large, a heap block otherwise. Move-only; releases on destruction.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  explicit PoolBuffer(std::size_t bytes);
  ~PoolBuffer() { reset(); }

  PoolBuffer(PoolBuffer&& other) noexcept { swap(other); }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  std::byte* data() { return p_; }
  const std::byte* data() const { return p_; }
  /// The requested size (the block behind it may be larger).
  std::size_t bytes() const { return bytes_; }

  /// Returns the storage (to the pool or the heap) and becomes empty.
  void reset();

 private:
  void swap(PoolBuffer& other) noexcept {
    std::swap(p_, other.p_);
    std::swap(heap_, other.heap_);
    std::swap(bytes_, other.bytes_);
    std::swap(mapped_, other.mapped_);
  }

  std::byte* p_ = nullptr;
  std::byte* heap_ = nullptr;  ///< start of the heap block p_ lies in
  std::size_t bytes_ = 0;
  std::size_t mapped_ = 0;  ///< nonzero iff a PagePool block
};

/// A fixed-size array of trivially copyable T on a PoolBuffer. Elements
/// start uninitialized: write before reading.
template <typename T>
class PoolArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PoolArray() = default;
  explicit PoolArray(std::size_t n) : buf_(n * sizeof(T)), size_(n) {}
  /// A copy of `src`.
  explicit PoolArray(std::span<const T> src) : PoolArray(src.size()) {
    if (size_ != 0) std::memcpy(data(), src.data(), src.size_bytes());
  }
  PoolArray(PoolArray&& other) noexcept
      : buf_(std::move(other.buf_)), size_(std::exchange(other.size_, 0)) {}
  PoolArray& operator=(PoolArray&& other) noexcept {
    buf_ = std::move(other.buf_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  T* data() { return reinterpret_cast<T*>(buf_.data()); }
  const T* data() const { return reinterpret_cast<const T*>(buf_.data()); }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  PoolBuffer buf_;
  std::size_t size_ = 0;
};

}  // namespace cj::join
