// Machine-speed probe: a fixed piece of reference work, independent of the
// library, that the benchmark times between ops.
//
// The machines this benchmark runs on are shared, and their effective speed
// drifts by 10-30 % within seconds as neighbours come and go, far more than
// the run-to-run noise of the program itself. The probe exercises the same
// resources the join kernels and the DES lean on: DRAM latency (a random
// gather over 64 MiB), memory bandwidth (a sequential pass over it) and
// branchy in-cache compute (sorting 2^17 keys). It also pays the kernel
// costs the rt backend pays per op, which a virtual machine's neighbours
// move the most: first-touch page faults on fresh memory, and thread
// handoffs that block and wake (pairs of probe threads ping-pong). It runs
// on as many threads as the op keeps busy. The benchmark probes before and
// after every timed op and divides the op's times by the mean of the two
// probes relative to reference_seconds(). The probe is this directory's
// code, so no change to the library can move it.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace cj::perfbench {

class SpeedProbe {
 public:
  /// Probe time of the machine the bounds in BENCHMARK.json were derived on
  /// (4 vCPU Intel Xeon at 2.0 GHz), in an undisturbed moment: one probe
  /// thread for the single-threaded sim, four for a 2 x 1 rt ring (which
  /// adds the handoffs). Normalized times read as seconds on that machine.
  double reference_seconds() const { return threads_ == 1 ? 0.026 : 0.036; }

  explicit SpeedProbe(int threads)
      : threads_(threads), data_(kWords), gather_(kGathers), keys_(kSortKeys) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint64_t& w : data_) w = next();
    for (std::uint32_t& i : gather_) i = static_cast<std::uint32_t>(next() % kWords);
    for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(next());
  }

  /// Runs the reference work once on every probe thread; returns the wall
  /// time until the last thread finished, in seconds.
  double run() {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::atomic<std::uint32_t>> turns(static_cast<std::size_t>(threads_ / 2));
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads_; ++i) {
      helpers.emplace_back([this, i, &turns] { work(i, turns); });
    }
    work(0, turns);
    for (std::thread& h : helpers) h.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

 private:
  static constexpr std::size_t kWords = 8u << 20;  // 64 MiB of uint64, shared
  static constexpr std::size_t kGathers = 1u << 19;
  static constexpr std::size_t kSortKeys = 1u << 17;
  static constexpr std::size_t kFaultBytes = 8u << 20;
  static constexpr std::size_t kPageBytes = 4096;
  static constexpr std::uint32_t kHandoffs = 500;

  void work(int thread, std::vector<std::atomic<std::uint32_t>>& turns) {
    std::uint64_t sum = 0;
    for (const std::uint32_t i : gather_) sum += data_[i];
    for (const std::uint64_t w : data_) sum ^= w;
    std::vector<std::uint32_t> keys = keys_;
    std::sort(keys.begin(), keys.end());
    sum += keys[keys.size() / 2];
    void* fresh = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh != MAP_FAILED) {
      auto* bytes = static_cast<unsigned char*>(fresh);
      for (std::size_t off = 0; off < kFaultBytes; off += kPageBytes) bytes[off] = 1;
      sum += bytes[kFaultBytes / 2];
      munmap(fresh, kFaultBytes);
    }
    // Threads 2k and 2k+1 take turns: each waits (blocking) for its parity.
    const std::size_t pair = static_cast<std::size_t>(thread / 2);
    if (pair < turns.size()) {
      std::atomic<std::uint32_t>& turn = turns[pair];
      const std::uint32_t parity = static_cast<std::uint32_t>(thread % 2);
      for (std::uint32_t i = 0; i < kHandoffs; ++i) {
        std::uint32_t cur = turn.load();
        while (cur % 2 != parity) {
          turn.wait(cur);
          cur = turn.load();
        }
        turn.store(cur + 1);
        turn.notify_one();
      }
    }
    sink_.fetch_add(sum, std::memory_order_relaxed);  // keeps the work observable
  }

  int threads_;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint32_t> gather_;
  std::vector<std::uint32_t> keys_;
  std::atomic<std::uint64_t> sink_{0};
};

}  // namespace cj::perfbench
