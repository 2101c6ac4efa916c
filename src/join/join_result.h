// Join result accumulation.
//
// Benchmarks count and checksum matches (materializing hundreds of millions
// of output tuples would measure the allocator, not the join); examples and
// tests can request materialization. The checksum is order-independent so
// any join algorithm over any schedule must produce the identical value —
// this is how hash join, sort-merge join and the nested-loops reference
// validate each other on large inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rel/relation.h"

namespace cj::join {

/// A materialized output row: join key plus both payloads.
struct OutTuple {
  std::uint32_t key;
  std::uint64_t r_payload;
  std::uint64_t s_payload;

  friend bool operator==(const OutTuple&, const OutTuple&) = default;
};

class JoinResult {
 public:
  explicit JoinResult(bool materialize = false) : materialize_(materialize) {}

  void add_match(const rel::Tuple& r, const rel::Tuple& s) {
    ++matches_;
    checksum_ += pair_hash(r.payload, s.payload);
    if (materialize_) output_.push_back(OutTuple{r.key, r.payload, s.payload});
  }

  /// Conditional add_match whose counting path is branch-free: probe inner
  /// loops call it with a data-dependent `hit` that no predictor can learn,
  /// turning what would be a mispredict per match into plain arithmetic.
  /// (Materializing results take the branch; output_.push_back needs it.)
  void add_match_if(bool hit, const rel::Tuple& r, const rel::Tuple& s) {
    if (materialize_) {
      if (hit) add_match(r, s);
      return;
    }
    const std::uint64_t mixed = pair_hash(r.payload, s.payload);
    matches_ += hit ? 1 : 0;
    checksum_ += hit ? mixed : 0;
  }

  /// Adds totals a kernel accumulated itself: `matches` more matches whose
  /// pair_hash values sum to `checksum`. Counting-only results only — a
  /// materializing one must see every row through add_match.
  void add_counted(std::uint64_t matches, std::uint64_t checksum) {
    matches_ += matches;
    checksum_ += checksum;
  }

  /// Pre-sizes the output for a probe batch about to be resolved: callers
  /// pass the batch's match upper bound once, so the per-match push_back
  /// almost never hits the capacity check mid-batch. Growth stays
  /// geometric (never shrinks to the exact bound), keeping the amortized
  /// O(1) append that repeated exact reserves would destroy. Counting-only
  /// results ignore it.
  void reserve_batch(std::size_t upper_bound_matches) {
    if (!materialize_) return;
    const std::size_t want = output_.size() + upper_bound_matches;
    if (want > output_.capacity()) {
      output_.reserve(std::max(want, output_.capacity() * 2));
    }
  }

  /// Folds another (e.g. per-partition) result into this one. Counting-only
  /// results skip the output splice entirely; materializing ones reserve up
  /// front so per-partition merges don't reallocate repeatedly.
  void merge(const JoinResult& other) {
    matches_ += other.matches_;
    checksum_ += other.checksum_;
    if (materialize_ && !other.output_.empty()) {
      output_.reserve(output_.size() + other.output_.size());
      output_.insert(output_.end(), other.output_.begin(), other.output_.end());
    }
  }

  std::uint64_t matches() const { return matches_; }
  std::uint64_t checksum() const { return checksum_; }
  bool materializes() const { return materialize_; }
  std::span<const OutTuple> output() const { return output_; }

  /// Mixes one (r, s) pairing into a 64-bit value; summed over all matches
  /// the total is independent of match order but sensitive to pairings.
  static std::uint64_t pair_hash(std::uint64_t r, std::uint64_t s) {
    std::uint64_t x = r * 0x9E3779B97F4A7C15ULL + s * 0xC2B2AE3D27D4EB4FULL + 1;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }

 private:
  bool materialize_;
  std::uint64_t matches_ = 0;
  std::uint64_t checksum_ = 0;
  std::vector<OutTuple> output_;
};

}  // namespace cj::join
