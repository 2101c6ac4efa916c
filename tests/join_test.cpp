// Unit tests for the local join kernels: radix clustering, hash tables,
// hash join, sort-merge (equi + band), nested loops, cross-validation of
// all algorithms against each other, and the page pool behind their large
// buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <sys/resource.h>
#endif

#include "cyclo/chunk.h"
#include "join/hash_join.h"
#include "join/local_join.h"
#include "join/nested_loops.h"
#include "join/page_pool.h"
#include "join/radix.h"
#include "join/simd.h"
#include "join/sort_merge.h"
#include "join/staged.h"
#include "rel/generator.h"

namespace cj::join {
namespace {

rel::Relation gen(std::uint64_t rows, std::uint64_t domain, std::uint64_t seed,
                  double zipf = 0.0) {
  return rel::generate(
      {.rows = rows, .key_domain = domain, .zipf_z = zipf, .seed = seed}, "t",
      seed);
}

// ----------------------------------------------------------------- radix

TEST(Radix, ChooseBitsFitsCacheBudget) {
  // The footprint per S tuple is derived from the table layout
  // (PartitionHashTable::kBytesPerStationaryTuple), so size the budget
  // from the same source instead of hard-coding layout constants: a budget
  // of exactly 1024 tuples must split 1000 tuples into one partition,
  // 2000 into two, and so on.
  RadixConfig config;
  config.cache_budget_bytes = PartitionHashTable::kBytesPerStationaryTuple * 1024;
  EXPECT_EQ(choose_radix_bits(1000, config), 0);
  EXPECT_EQ(choose_radix_bits(2000, config), 1);
  EXPECT_EQ(choose_radix_bits(4000, config), 2);
  EXPECT_EQ(choose_radix_bits(1 << 20, config), 10);
}

TEST(Radix, ChooseBitsRespectsMaxBits) {
  RadixConfig config;
  config.cache_budget_bytes = 24;
  config.max_bits = 5;
  EXPECT_EQ(choose_radix_bits(1'000'000'000, config), 5);
}

TEST(Radix, ZeroBitsIsIdentity) {
  auto r = gen(100, 50, 1);
  auto parts = radix_cluster(r.tuples(), 0, 8);
  EXPECT_EQ(parts.num_partitions(), 1u);
  EXPECT_TRUE(std::equal(r.tuples().begin(), r.tuples().end(),
                         parts.partition(0).begin()));
}

class RadixClusterBits : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RadixClusterBits, EveryTupleLandsInItsPartition) {
  const auto [total_bits, bits_per_pass] = GetParam();
  auto r = gen(20'000, 5'000, 2);
  auto parts = radix_cluster(r.tuples(), total_bits, bits_per_pass);

  EXPECT_EQ(parts.rows(), r.rows());
  EXPECT_EQ(parts.num_partitions(), 1u << total_bits);
  std::uint64_t seen = 0;
  for (std::uint32_t p = 0; p < parts.num_partitions(); ++p) {
    for (const auto& t : parts.partition(p)) {
      EXPECT_EQ(partition_of(t.key, total_bits), p);
      ++seen;
    }
  }
  EXPECT_EQ(seen, r.rows());
}

TEST_P(RadixClusterBits, IsAPermutationOfTheInput) {
  const auto [total_bits, bits_per_pass] = GetParam();
  auto r = gen(10'000, 3'000, 3);
  auto parts = radix_cluster(r.tuples(), total_bits, bits_per_pass);

  std::multiset<std::uint64_t> in, out;
  // uint64_t{...}: packed Tuple — a const& straight to the offset-4 payload
  // member would be a misaligned reference (UB).
  for (const auto& t : r.tuples()) in.insert(std::uint64_t{t.payload});
  for (const auto& t : parts.all_tuples()) out.insert(std::uint64_t{t.payload});
  EXPECT_EQ(in, out);
}

INSTANTIATE_TEST_SUITE_P(BitCombos, RadixClusterBits,
                         ::testing::Values(std::tuple{1, 8}, std::tuple{4, 8},
                                           std::tuple{8, 8}, std::tuple{10, 4},
                                           std::tuple{12, 5}, std::tuple{14, 8},
                                           std::tuple{9, 3}));

TEST(Radix, MultiPassEqualsSinglePass) {
  auto r = gen(30'000, 10'000, 4);
  auto one_pass = radix_cluster(r.tuples(), 10, 16);
  auto multi_pass = radix_cluster(r.tuples(), 10, 4);
  // Same partition directory; tuple order within a partition may differ
  // between pass structures, so compare partition contents as multisets.
  ASSERT_EQ(one_pass.offsets().size(), multi_pass.offsets().size());
  for (std::size_t i = 0; i < one_pass.offsets().size(); ++i) {
    EXPECT_EQ(one_pass.offsets()[i], multi_pass.offsets()[i]);
  }
  for (std::uint32_t p = 0; p < one_pass.num_partitions(); ++p) {
    std::multiset<std::uint64_t> a, b;
    for (const auto& t : one_pass.partition(p)) a.insert(std::uint64_t{t.payload});
    for (const auto& t : multi_pass.partition(p)) b.insert(std::uint64_t{t.payload});
    EXPECT_EQ(a, b);
  }
}

TEST(Radix, EmptyInput) {
  auto parts = radix_cluster({}, 4, 8);
  EXPECT_EQ(parts.rows(), 0u);
  EXPECT_EQ(parts.num_partitions(), 16u);
  for (std::uint32_t p = 0; p < 16; ++p) EXPECT_TRUE(parts.partition(p).empty());
}

// ------------------------------------------------------------ hash table

TEST(PartitionHashTable, FindsAllDuplicates) {
  std::vector<rel::Tuple> s = {{5, 1}, {5, 2}, {7, 3}, {5, 4}};
  PartitionHashTable table;
  table.build(s, 0);
  std::vector<rel::Tuple> r = {{5, 100}};
  JoinResult result;
  table.probe(r, result);
  EXPECT_EQ(result.matches(), 3u);
}

TEST(PartitionHashTable, EmptyTableProducesNoMatches) {
  PartitionHashTable table;
  table.build({}, 0);
  std::vector<rel::Tuple> r = {{1, 1}, {2, 2}};
  JoinResult result;
  table.probe(r, result);
  EXPECT_EQ(result.matches(), 0u);
}

TEST(PartitionHashTable, NoFalseMatches) {
  std::vector<rel::Tuple> s;
  for (std::uint32_t i = 0; i < 1000; i += 2) s.push_back({i, i});
  PartitionHashTable table;
  table.build(s, 0);
  std::vector<rel::Tuple> r;
  for (std::uint32_t i = 1; i < 1000; i += 2) r.push_back({i, i});
  JoinResult result;
  table.probe(r, result);  // disjoint odd vs even keys
  EXPECT_EQ(result.matches(), 0u);
}

// ----------------------------------------------------------- sort kernel
//
// sort_into against a std::sort reference kept here: keys in the same
// order and the same tuple multiset. The LSD path only runs for MSD
// clusters above the insertion-sort cutoff, so the scale cases use
// 2^14-2^18 rows over domain 2^20, where the Zipf head fills one cluster
// far beyond the rest.

bool key_then_payload_less(const rel::Tuple& a, const rel::Tuple& b) {
  return a.key != b.key ? a.key < b.key : a.payload < b.payload;
}

void expect_sorts(std::span<const rel::Tuple> in) {
  std::vector<rel::Tuple> out(in.size());
  sort_into(in, out);

  std::vector<rel::Tuple> ref(in.begin(), in.end());
  std::sort(ref.begin(), ref.end(),
            [](const rel::Tuple& a, const rel::Tuple& b) { return a.key < b.key; });
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(out[i].key, ref[i].key) << "row " << i << " of " << ref.size();
  }

  std::sort(out.begin(), out.end(), key_then_payload_less);
  std::sort(ref.begin(), ref.end(), key_then_payload_less);
  EXPECT_EQ(out, ref) << "tuple multiset changed";
}

TEST(SortInto, EmptyAndSingleTuple) {
  sort_into({}, {});
  const std::vector<rel::Tuple> one = {{42, 7}};
  expect_sorts(one);
}

TEST(SortInto, AllEqualKeys) {
  std::vector<rel::Tuple> in;
  for (std::uint64_t i = 0; i < 5'000; ++i) in.push_back({9, i});
  expect_sorts(in);
}

TEST(SortInto, KeysAtBothEndsOfTheDomain) {
  // A 32-bit key range: 400 tuples of two keys in each end cluster, so
  // both take the LSD pass rather than the insertion sort, and 200 of one
  // key in the middle cluster.
  const std::uint32_t keys[] = {0xFFFFFFFF, 0, 0x80000000, 0xFFFFFFFE, 1};
  std::vector<rel::Tuple> in;
  for (std::uint64_t i = 0; i < 1'000; ++i) in.push_back({keys[i % 5], i});
  expect_sorts(in);
}

TEST(SortInto, FullKeyDomainTakesTwoLsdDigits) {
  // A 32-bit key range leaves 21 bits below the 11 MSD bits: two LSD
  // digits per cluster, ~128 tuples per cluster at 2^18 rows.
  auto t = gen(1U << 18, 1ULL << 32, 21);
  std::vector<rel::Tuple> in(t.tuples().begin(), t.tuples().end());
  in.push_back({0, 1ULL << 40});
  in.push_back({0xFFFFFFFF, 1ULL << 41});
  expect_sorts(in);
}

TEST(SortInto, UnalignedMinimumKey) {
  // min = 1'000'003 is aligned to no cluster width: a cluster spans a
  // carry into its keys' low bits, so the LSD digits must come from
  // key - min, not from key.
  auto t = gen(1U << 18, 1U << 20, 22);
  std::vector<rel::Tuple> in(t.tuples().begin(), t.tuples().end());
  for (rel::Tuple& tuple : in) tuple.key += 1'000'003;
  expect_sorts(in);
}

/// sort_into's output against std::stable_sort by key, byte for byte: a
/// stable sort's output is unique.
void expect_sorts_stably(std::span<const rel::Tuple> in) {
  std::vector<rel::Tuple> out(in.size());
  sort_into(in, out);
  std::vector<rel::Tuple> ref(in.begin(), in.end());
  std::stable_sort(ref.begin(), ref.end(), [](const rel::Tuple& a, const rel::Tuple& b) {
    return a.key < b.key;
  });
  EXPECT_TRUE(out.size() == ref.size() &&
              (out.empty() || std::memcmp(out.data(), ref.data(),
                                          out.size() * sizeof(rel::Tuple)) == 0))
      << in.size() << " tuples";
}

TEST(SortInto, ClusterSizesAroundTheInsertionCutoff) {
  // Below 2^12 tuples the whole input is one cluster: 1 tuple, the
  // insertion-sort cutoff (32), one past it (the first LSD pass), and
  // 3'000 tuples over 20 key bits, more than one 11-bit digit's buckets.
  // Payloads number the tuples, so a reordered duplicate shows.
  for (const std::uint64_t rows : {1U, 32U, 33U, 3'000U}) {
    const auto t = gen(rows, 1U << 20, 81);
    std::vector<rel::Tuple> in(t.tuples().begin(), t.tuples().end());
    for (std::uint64_t i = 0; i < in.size(); ++i) {
      in[i].key %= 64;  // duplicates
      in[i].key *= 16'411;
      in[i].payload = i;
    }
    expect_sorts_stably(in);
  }
  // 2^14 tuples over keys [0, 2^20): 8 MSD clusters of 2^17 keys each.
  // Cluster 1 gets one tuple, cluster 2 the cutoff's 32, cluster 3 one
  // more; the rest, thousands each, take LSD digits of at most 11 bits.
  std::vector<rel::Tuple> in;
  const auto cluster_key = [](std::uint32_t cluster, std::uint64_t i) {
    return (cluster << 17) | static_cast<std::uint32_t>((i * 2'654'435'761U) % (1U << 17) % 5'000);
  };
  std::uint64_t id = 0;
  for (std::uint32_t cluster : {0U, 4U, 5U, 6U, 7U}) {
    for (int c = 0; c < 3'270; ++c, ++id) in.push_back({cluster_key(cluster, id), id});
  }
  for (const auto& [cluster, count] : {std::pair{1U, 1}, std::pair{2U, 32}, std::pair{3U, 33}}) {
    for (int c = 0; c < count; ++c, ++id) in.push_back({cluster_key(cluster, id), id});
  }
  in.push_back({(1U << 20) - 1, id++});
  std::rotate(in.begin(), in.begin() + 7'000, in.end());  // interleave clusters
  ASSERT_EQ(std::bit_width(in.size()), 15);
  expect_sorts_stably(in);
}

struct SortCase {
  int log_rows;
  double zipf;
};

class SortIntoScale : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortIntoScale, MatchesStdSort) {
  const auto [log_rows, zipf] = GetParam();
  auto t = gen(1ULL << log_rows, 1U << 20, 24, zipf);
  expect_sorts(t.tuples());
}

INSTANTIATE_TEST_SUITE_P(
    RowsAndSkew, SortIntoScale,
    ::testing::Values(SortCase{14, 0.0}, SortCase{14, 0.5}, SortCase{14, 1.0},
                      SortCase{14, 1.25}, SortCase{16, 0.0}, SortCase{16, 0.5},
                      SortCase{16, 1.0}, SortCase{16, 1.25}, SortCase{18, 0.0},
                      SortCase{18, 0.5}, SortCase{18, 1.0}, SortCase{18, 1.25}));

// ---------------------------------------------------------- merge joins

TEST(MergeJoin, HandlesDuplicateGroupsOnBothSides) {
  std::vector<rel::Tuple> r = {{1, 1}, {2, 2}, {2, 3}, {4, 4}};
  std::vector<rel::Tuple> s = {{2, 10}, {2, 11}, {2, 12}, {4, 13}, {5, 14}};
  JoinResult result(true);
  merge_join(r, s, result);
  EXPECT_EQ(result.matches(), 2u * 3u + 1u);
}

TEST(MergeJoin, EmptySides) {
  std::vector<rel::Tuple> r = {{1, 1}};
  JoinResult a, b, c;
  merge_join({}, r, a);
  merge_join(r, {}, b);
  merge_join({}, {}, c);
  EXPECT_EQ(a.matches() + b.matches() + c.matches(), 0u);
}

TEST(BandMergeJoin, ZeroBandEqualsEquiJoin) {
  auto r = gen(3'000, 500, 5);
  auto s = gen(3'000, 500, 6);
  std::vector<rel::Tuple> rs(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> ss(s.tuples().begin(), s.tuples().end());
  sort_fragment(rs);
  sort_fragment(ss);
  JoinResult equi, band;
  merge_join(rs, ss, equi);
  band_merge_join(rs, ss, 0, band);
  EXPECT_EQ(equi.matches(), band.matches());
  EXPECT_EQ(equi.checksum(), band.checksum());
}

TEST(BandMergeJoin, MatchesOracleAcrossBands) {
  auto r = gen(800, 300, 7);
  auto s = gen(800, 300, 8);
  std::vector<rel::Tuple> rs(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> ss(s.tuples().begin(), s.tuples().end());
  sort_fragment(rs);
  sort_fragment(ss);
  for (std::uint32_t band : {1u, 2u, 10u, 50u}) {
    JoinResult got, oracle;
    band_merge_join(rs, ss, band, got);
    nested_loops_band_join(r.tuples(), s.tuples(), band, oracle);
    EXPECT_EQ(got.matches(), oracle.matches()) << "band " << band;
    EXPECT_EQ(got.checksum(), oracle.checksum()) << "band " << band;
  }
}

TEST(BandMergeJoin, KeySpaceBoundariesDoNotOverflow) {
  // Keys at the extremes of the 32-bit space; the band math must saturate.
  std::vector<rel::Tuple> r = {{0, 1}, {0xFFFFFFFF, 2}};
  std::vector<rel::Tuple> s = {{1, 10}, {0xFFFFFFFE, 20}};
  JoinResult got, oracle;
  band_merge_join(r, s, 5, got);
  nested_loops_band_join(r, s, 5, oracle);
  EXPECT_EQ(got.matches(), oracle.matches());
  EXPECT_EQ(got.checksum(), oracle.checksum());
}

TEST(BandMergeJoin, LargeInputsMatchNestedLoops) {
  // 2^14 rows per side, sorted by sort_into inside local_sort_merge_join.
  // Zipf 1.0 over 2^20 piles about half the rows into the first MSD
  // cluster, so the sort takes its LSD passes. One nested-loops pass
  // serves all three bands.
  auto r = gen(1U << 14, 1U << 20, 31, 1.0);
  auto s = gen(1U << 14, 1U << 20, 32, 1.0);
  constexpr std::array<std::uint32_t, 3> kBands = {0, 1, 300};
  std::array<JoinResult, kBands.size()> oracle;
  for (const rel::Tuple& a : r.tuples()) {
    for (const rel::Tuple& b : s.tuples()) {
      const std::uint32_t d = a.key > b.key ? a.key - b.key : b.key - a.key;
      for (std::size_t i = 0; i < kBands.size(); ++i) {
        if (d <= kBands[i]) oracle[i].add_match(a, b);
      }
    }
  }
  for (std::size_t i = 0; i < kBands.size(); ++i) {
    const JoinResult got = local_sort_merge_join(r.tuples(), s.tuples(), kBands[i]);
    EXPECT_EQ(got.matches(), oracle[i].matches()) << "band " << kBands[i];
    EXPECT_EQ(got.checksum(), oracle[i].checksum()) << "band " << kBands[i];
  }
}

// ------------------------------------------------ merge kernel parity
//
// The two-phase merge (bounds over the key column, then emission) against
// nested loops over the same sorted runs: nested loops visits r in order
// and, for one r, s in order, so its materialized output is the merge's,
// row for row. Every case runs at every SIMD tier the machine executes and
// must give the same rows there.

SimdTier tier_for(Simd request);     // dispatch-tier parity below
void run_threaded(StagedJob& job);   // staged setup kernels below

std::vector<rel::Tuple> sorted_copy(std::span<const rel::Tuple> in) {
  std::vector<rel::Tuple> out(in.size());
  sort_into(in, out);
  return out;
}

std::vector<Simd> executable_tiers() {
  std::vector<Simd> tiers = {Simd::kScalar};
  for (const Simd simd : {Simd::kAvx2, Simd::kNeon}) {
    if (simd_tier_available(tier_for(simd))) tiers.push_back(simd);
  }
  return tiers;
}

/// The merge of sorted r and s at every tier, materialized and counting,
/// against nested loops: same rows in the same order, same totals.
void expect_merge_matches_nested_loops(std::span<const rel::Tuple> r,
                                       std::span<const rel::Tuple> s,
                                       std::uint32_t band) {
  JoinResult oracle(true);
  nested_loops_band_join(r, s, band, oracle);
  for (const Simd simd : executable_tiers()) {
    const KernelConfig kernel{.simd = simd};
    const char* tier = simd_tier_name(tier_for(simd));
    JoinResult rows(true);
    band_merge_join(r, s, band, rows, kernel);
    ASSERT_EQ(rows.matches(), oracle.matches()) << tier << " band " << band;
    EXPECT_EQ(rows.checksum(), oracle.checksum()) << tier << " band " << band;
    EXPECT_TRUE(std::ranges::equal(rows.output(), oracle.output()))
        << tier << " band " << band << ": rows differ or come out of order";
    JoinResult counted;
    band_merge_join(r, s, band, counted, kernel);
    EXPECT_EQ(counted.matches(), oracle.matches()) << tier << " band " << band;
    EXPECT_EQ(counted.checksum(), oracle.checksum()) << tier << " band " << band;
  }
}

enum class MergeKeys { kUniform, kZipf05, kZipf125, kAllDuplicates };

struct MergeCase {
  MergeKeys keys;
  std::uint32_t band;
};

class BandMergeJoinParity : public ::testing::TestWithParam<MergeCase> {};

TEST_P(BandMergeJoinParity, MatchesNestedLoopsRowForRowAtEveryTier) {
  const auto [keys, band] = GetParam();
  std::vector<rel::Tuple> r;
  std::vector<rel::Tuple> s;
  if (keys == MergeKeys::kAllDuplicates) {
    for (std::uint64_t i = 0; i < 300; ++i) r.push_back({42, i});
    for (std::uint64_t i = 0; i < 400; ++i) s.push_back({42, 1000 + i});
  } else {
    const double zipf = keys == MergeKeys::kUniform  ? 0.0
                        : keys == MergeKeys::kZipf05 ? 0.5
                                                     : 1.25;
    const auto rr = gen(1'500, 2'000, 71, zipf);
    const auto ss = gen(1'700, 2'000, 72, zipf);
    r = sorted_copy(rr.tuples());
    s = sorted_copy(ss.tuples());
  }
  expect_merge_matches_nested_loops(r, s, band);
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndBands, BandMergeJoinParity,
    ::testing::Values(MergeCase{MergeKeys::kUniform, 0}, MergeCase{MergeKeys::kUniform, 1},
                      MergeCase{MergeKeys::kUniform, 7}, MergeCase{MergeKeys::kZipf05, 0},
                      MergeCase{MergeKeys::kZipf05, 1}, MergeCase{MergeKeys::kZipf05, 7},
                      MergeCase{MergeKeys::kZipf125, 0}, MergeCase{MergeKeys::kZipf125, 1},
                      MergeCase{MergeKeys::kZipf125, 7},
                      MergeCase{MergeKeys::kAllDuplicates, 0},
                      MergeCase{MergeKeys::kAllDuplicates, 1},
                      MergeCase{MergeKeys::kAllDuplicates, 7}));

TEST(BandMergeJoin, SaturatingBandAtTheKeyDomainEnds) {
  // Windows that clamp at key 0 and at 0xFFFFFFFF, up to a band that
  // covers the whole domain; the S column's padding keys are 0xFFFFFFFF
  // too, so a cursor must stop at the column's end, not at its padding.
  const std::vector<rel::Tuple> r = {{0, 1}, {0, 2}, {3, 3}, {0xFFFFFFFE, 4},
                                     {0xFFFFFFFF, 5}, {0xFFFFFFFF, 6}};
  const std::vector<rel::Tuple> s = {{0, 10}, {1, 11}, {9, 12}, {0x80000000, 13},
                                     {0xFFFFFFF8, 14}, {0xFFFFFFFF, 15},
                                     {0xFFFFFFFF, 16}};
  for (const std::uint32_t band : {0U, 1U, 7U, 0x7FFFFFFFU, 0xFFFFFFFFU}) {
    expect_merge_matches_nested_loops(r, s, band);
  }
}

TEST(BandMergeJoin, EmptyAndOneTupleWindows) {
  // Every other r key has no partner, the rest exactly one: windows of
  // zero and one tuple alternate, so the cursors stop mid compare step.
  std::vector<rel::Tuple> r;
  std::vector<rel::Tuple> s;
  for (std::uint32_t k = 0; k < 500; ++k) {
    r.push_back({k * 10, k});
    if (k % 2 == 0) s.push_back({k * 10, 100 + k});
  }
  expect_merge_matches_nested_loops(r, s, 0);
  expect_merge_matches_nested_loops(r, s, 4);  // band < gap: still 0 or 1
  expect_merge_matches_nested_loops(r, {}, 3);
  expect_merge_matches_nested_loops({}, s, 3);
  expect_merge_matches_nested_loops(std::vector<rel::Tuple>{{20, 1}}, s, 0);
}

TEST(BandMergeJoin, WindowsLongerThanOneCompareStep) {
  // Duplicate runs of 7, 8, 9, 63, 64 and 65 S tuples: windows shorter,
  // as long as and longer than one 8-key compare step, and than eight.
  std::vector<rel::Tuple> s;
  std::vector<rel::Tuple> r;
  std::uint32_t key = 100;
  for (const int run : {7, 8, 9, 63, 64, 65}) {
    for (int c = 0; c < run; ++c) s.push_back({key, s.size()});
    r.push_back({key - 1, key});
    r.push_back({key, key + 1});
    r.push_back({key, key + 2});
    key += 100;
  }
  expect_merge_matches_nested_loops(r, s, 0);
  expect_merge_matches_nested_loops(r, s, 1);
  expect_merge_matches_nested_loops(r, s, 150);  // windows span two runs
}

TEST(BandMergeJoin, WindowsBeyondThePairBuffer) {
  // 5'000 S tuples of one key: each of these r tuples' windows is larger
  // than the counting emission's pair buffer, and the r tuples around
  // them fill the buffer several times over.
  std::vector<rel::Tuple> s;
  for (std::uint64_t i = 0; i < 5'000; ++i) s.push_back({500, i});
  for (std::uint32_t k = 501; k < 1'500; ++k) s.push_back({k, k});
  std::vector<rel::Tuple> r;
  for (std::uint32_t k = 490; k < 1'400; ++k) r.push_back({k, 7 * k});
  expect_merge_matches_nested_loops(r, s, 0);
  expect_merge_matches_nested_loops(r, s, 12);
}

TEST(BandMergeJoin, ChunkedWindowsOfTheKeyColumnMatchTheWholeJoin) {
  // The runner's shape: S sorted by a staged sort_into that also writes
  // its key column, R in chunks of four ranges each, every range merged
  // against its matching_window of S with the window's slice of the
  // column (padded only at the column's end).
  const auto r = sorted_copy(gen(20'000, 30'000, 73, 0.5).tuples());
  const auto s_in = gen(20'000, 30'000, 74, 0.5);
  PoolArray<rel::Tuple> s_pool;
  PoolArray<std::uint32_t> keys;
  StagedJob job(3);
  sort_into(s_in.tuples(), &s_pool, job, &keys);
  run_threaded(job);
  const std::span<const rel::Tuple> s(s_pool);
  ASSERT_EQ(keys.size(), s.size() + kKeyPad);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], i < s.size() ? s[i].key : 0xFFFFFFFFU) << "key " << i;
  }
  for (const std::uint32_t band : {0U, 1U, 7U}) {
    // Without a column, R goes in 2^14-tuple pieces, each with a column of
    // its own window: the same rows in the same order as one keyed call.
    JoinResult whole(true);
    band_merge_join(r, s, band, whole);
    JoinResult keyed(true);
    band_merge_join(r, s, keys.data(), band, keyed);
    EXPECT_TRUE(std::ranges::equal(whole.output(), keyed.output())) << "band " << band;
    for (const Simd simd : executable_tiers()) {
      JoinResult chunked;
      for (std::size_t off = 0; off < r.size(); off += 2'730) {
        const auto chunk =
            std::span<const rel::Tuple>(r).subspan(off, std::min<std::size_t>(2'730, r.size() - off));
        for (int p = 0; p < 4; ++p) {
          const auto range = chunk.subspan(chunk.size() * p / 4,
                                           chunk.size() * (p + 1) / 4 - chunk.size() * p / 4);
          if (range.empty()) continue;
          const auto window =
              matching_window(s, range.front().key, range.back().key, band);
          band_merge_join(range, window, keys.data() + (window.data() - s.data()),
                          band, chunked, KernelConfig{.simd = simd});
        }
      }
      EXPECT_EQ(chunked.matches(), whole.matches()) << "band " << band;
      EXPECT_EQ(chunked.checksum(), whole.checksum()) << "band " << band;
    }
  }
}

TEST(MatchingWindow, BoundsTheMergeInput) {
  std::vector<rel::Tuple> s;
  for (std::uint32_t i = 0; i < 100; ++i) s.push_back({i * 10, i});
  auto window = matching_window(s, 200, 300, 0);
  ASSERT_FALSE(window.empty());
  EXPECT_EQ(window.front().key, 200u);
  EXPECT_EQ(window.back().key, 300u);

  auto banded = matching_window(s, 200, 300, 15);
  EXPECT_EQ(banded.front().key, 190u);
  EXPECT_EQ(banded.back().key, 310u);

  auto empty = matching_window(s, 2000, 3000, 0);
  EXPECT_TRUE(empty.empty());
}

// --------------------------------------------------- algorithm agreement

struct JoinCase {
  std::uint64_t rows;
  std::uint64_t domain;
  double zipf;
};

class AlgorithmsAgree : public ::testing::TestWithParam<JoinCase> {};

TEST_P(AlgorithmsAgree, HashSortMergeAndOracleMatch) {
  const JoinCase c = GetParam();
  auto r = gen(c.rows, c.domain, 11, c.zipf);
  auto s = gen(c.rows, c.domain, 12, c.zipf);

  JoinResult oracle;
  nested_loops_equi_join(r.tuples(), s.tuples(), oracle);
  auto hash = local_hash_join(r.tuples(), s.tuples());
  auto merge = local_sort_merge_join(r.tuples(), s.tuples());

  EXPECT_EQ(hash.matches(), oracle.matches());
  EXPECT_EQ(hash.checksum(), oracle.checksum());
  EXPECT_EQ(merge.matches(), oracle.matches());
  EXPECT_EQ(merge.checksum(), oracle.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AlgorithmsAgree,
    ::testing::Values(JoinCase{100, 10, 0.0},       // heavy duplication
                      JoinCase{1'000, 1'000, 0.0},  // ~unique keys
                      JoinCase{2'000, 200, 0.0},    // 10x duplication
                      JoinCase{2'000, 2'000, 0.9},  // skewed
                      JoinCase{2'000, 2'000, 1.2},  // heavily skewed
                      JoinCase{1, 1, 0.0},          // single row
                      JoinCase{3'000, 1u << 31, 0.0}));  // sparse domain

TEST(LocalJoin, DisjointInputsYieldNothing) {
  rel::Relation r("r"), s("s");
  for (std::uint32_t i = 0; i < 1000; ++i) r.push_back({i, i});
  for (std::uint32_t i = 2000; i < 3000; ++i) s.push_back({i, i});
  EXPECT_EQ(local_hash_join(r.tuples(), s.tuples()).matches(), 0u);
  EXPECT_EQ(local_sort_merge_join(r.tuples(), s.tuples()).matches(), 0u);
}

TEST(LocalJoin, CrossProductOnSingleKey) {
  rel::Relation r("r"), s("s");
  for (std::uint64_t i = 0; i < 100; ++i) r.push_back({7, i});
  for (std::uint64_t i = 0; i < 50; ++i) s.push_back({7, 1000 + i});
  EXPECT_EQ(local_hash_join(r.tuples(), s.tuples()).matches(), 5000u);
  EXPECT_EQ(local_sort_merge_join(r.tuples(), s.tuples()).matches(), 5000u);
}

TEST(LocalJoin, TimingPhasesAreReported) {
  auto r = gen(50'000, 10'000, 13);
  auto s = gen(50'000, 10'000, 14);
  LocalJoinTiming ht{}, mt{};
  (void)local_hash_join(r.tuples(), s.tuples(), {}, &ht);
  (void)local_sort_merge_join(r.tuples(), s.tuples(), 0, &mt);
  EXPECT_GT(ht.setup_ns, 0);
  EXPECT_GT(ht.join_ns, 0);
  EXPECT_GT(mt.setup_ns, 0);
  EXPECT_GT(mt.join_ns, 0);
}

TEST(LocalJoin, MaterializedOutputMatchesCount) {
  auto r = gen(500, 100, 15);
  auto s = gen(500, 100, 16);
  auto res = local_hash_join(r.tuples(), s.tuples(), {}, nullptr, true);
  EXPECT_EQ(res.output().size(), res.matches());
  // Every materialized row must actually be a key match.
  std::map<std::uint64_t, std::uint32_t> r_keys;
  for (const auto& t : r.tuples()) r_keys[std::uint64_t{t.payload}] = t.key;
  for (const auto& out : res.output()) {
    EXPECT_EQ(r_keys.at(out.r_payload), out.key);
  }
}

TEST(SingleTableHashJoin, AgreesWithRadixJoin) {
  auto r = gen(30'000, 8'000, 21);
  auto s = gen(30'000, 8'000, 22);
  const int bits = choose_radix_bits(s.rows(), {});
  const auto radix = HashJoinStationary::build(s.tuples(), bits);
  const auto r_parts = radix_cluster(r.tuples(), bits, 8);
  JoinResult a, b;
  for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
    radix.probe_partition(p, r_parts.partition(p), a);
  }
  SingleTableHashJoin::build(s.tuples()).probe(r.tuples(), b);
  EXPECT_EQ(a.matches(), b.matches());
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(SingleTableHashJoin, EmptyStationary) {
  auto r = gen(100, 50, 23);
  JoinResult result;
  SingleTableHashJoin::build({}).probe(r.tuples(), result);
  EXPECT_EQ(result.matches(), 0u);
}

TEST(JoinResult, MergeAccumulates) {
  JoinResult a, b;
  rel::Tuple t1{1, 10}, t2{1, 20};
  a.add_match(t1, t2);
  b.add_match(t2, t1);
  const auto a_sum = a.checksum();
  a.merge(b);
  EXPECT_EQ(a.matches(), 2u);
  EXPECT_NE(a.checksum(), a_sum);
}

TEST(JoinResult, ChecksumIsOrderIndependentButPairingSensitive) {
  rel::Tuple r1{1, 10}, r2{1, 20}, s1{1, 30}, s2{1, 40};
  JoinResult ab, ba, crossed;
  ab.add_match(r1, s1);
  ab.add_match(r2, s2);
  ba.add_match(r2, s2);
  ba.add_match(r1, s1);
  crossed.add_match(r1, s2);
  crossed.add_match(r2, s1);
  EXPECT_EQ(ab.checksum(), ba.checksum());
  EXPECT_NE(ab.checksum(), crossed.checksum());
}

// ------------------------------------------------- kernel checksum parity
//
// The hash join kernels (docs/KERNELS.md) must be bit-identical in *result*
// to an independent reference — the nested-loops oracle at small sizes,
// sort-merge where the oracle's quadratic cost rules it out. The
// order-independent checksum catches any dropped, duplicated or miscrossed
// match. Swept over skew and radix-bit settings (including 0 = no
// clustering).

JoinResult hash_join_with(std::span<const rel::Tuple> r,
                          std::span<const rel::Tuple> s, int bits,
                          const KernelConfig& kernel = {}) {
  RadixConfig config;
  config.kernel = kernel;
  const auto stationary = HashJoinStationary::build(s, bits, config);
  const auto r_parts = radix_cluster(r, bits, config.bits_per_pass, kernel);
  JoinResult result;
  for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
    stationary.probe_partition(p, r_parts.partition(p), result);
  }
  return result;
}

struct KernelParityCase {
  double zipf;
  int radix_bits;
};

class KernelParity : public ::testing::TestWithParam<KernelParityCase> {};

TEST_P(KernelParity, OptimizedLegacyAndOracleAgreeOnEqui) {
  const auto [zipf, bits] = GetParam();
  auto r = gen(3'000, 900, 31, zipf);
  auto s = gen(3'000, 900, 32, zipf);

  JoinResult oracle;
  nested_loops_equi_join(r.tuples(), s.tuples(), oracle);
  const auto optimized = hash_join_with(r.tuples(), s.tuples(), bits);

  EXPECT_EQ(optimized.matches(), oracle.matches());
  EXPECT_EQ(optimized.checksum(), oracle.checksum());
}

TEST_P(KernelParity, BandJoinAgreesWithOracle) {
  const auto [zipf, band_width] = GetParam();  // reuse the int as the band
  auto r = gen(1'200, 400, 33, zipf);
  auto s = gen(1'200, 400, 34, zipf);
  std::vector<rel::Tuple> rs(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> ss(s.tuples().begin(), s.tuples().end());
  sort_fragment(rs);
  sort_fragment(ss);

  const auto band = static_cast<std::uint32_t>(band_width);
  JoinResult got, oracle;
  band_merge_join(rs, ss, band, got);
  nested_loops_band_join(r.tuples(), s.tuples(), band, oracle);
  EXPECT_EQ(got.matches(), oracle.matches());
  EXPECT_EQ(got.checksum(), oracle.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    SkewAndBits, KernelParity,
    ::testing::Values(KernelParityCase{0.0, 0}, KernelParityCase{0.0, 4},
                      KernelParityCase{0.0, 9}, KernelParityCase{0.5, 0},
                      KernelParityCase{0.5, 6}, KernelParityCase{1.0, 0},
                      KernelParityCase{1.0, 4}, KernelParityCase{1.0, 9},
                      KernelParityCase{1.25, 0}, KernelParityCase{1.25, 6}));

// ------------------------------------------- dispatch-tier checksum parity
//
// The SIMD tiers (scalar/AVX2/NEON) must be bit-identical in result: same
// matches, same order-independent checksum, against the nested-loops
// oracle. Each tier runs at two duplicate densities measured against the
// fixed 16-slot bucket group: 8 build rows per key (two keys can share a
// home group) and 16 (one key fills a whole group, so the next key that
// hashes there must walk). Tiers the running machine cannot execute are
// skipped (resolve_simd would silently degrade them to scalar, which the
// scalar cases already cover).

SimdTier tier_for(Simd request) {
  switch (request) {
    case Simd::kAvx2: return SimdTier::kAvx2;
    case Simd::kNeon: return SimdTier::kNeon;
    default: return SimdTier::kScalar;
  }
}

struct TierCase {
  Simd simd;
  int rows_per_key;  // average duplicates per key on each side
};

class DispatchTierParity : public ::testing::TestWithParam<TierCase> {};

TEST_P(DispatchTierParity, EquiJoinAgreesWithOracleAcrossDistributions) {
  const auto [simd, rows_per_key] = GetParam();
  if (!simd_tier_available(tier_for(simd))) {
    GTEST_SKIP() << "tier " << simd_tier_name(tier_for(simd))
                 << " not executable on this machine";
  }
  const KernelConfig kernel{.simd = simd};
  // 4'097 rows: partitions of non-power-of-two size, so group counts and
  // fastrange region boundaries get no accidental alignment help.
  const std::uint64_t domain = 4'097 / rows_per_key;
  for (const double zipf : {0.0, 0.5, 1.0, 1.25}) {
    auto r = gen(4'097, domain, 41, zipf);
    auto s = gen(4'097, domain, 42, zipf);
    JoinResult oracle;
    nested_loops_equi_join(r.tuples(), s.tuples(), oracle);
    for (const int bits : {0, 3}) {
      const auto got = hash_join_with(r.tuples(), s.tuples(), bits, kernel);
      EXPECT_EQ(got.matches(), oracle.matches())
          << "zipf " << zipf << " bits " << bits;
      EXPECT_EQ(got.checksum(), oracle.checksum())
          << "zipf " << zipf << " bits " << bits;
    }
  }
}

TEST_P(DispatchTierParity, BandMergeJoinAgreesWithOracle) {
  const auto [simd, rows_per_key] = GetParam();
  if (!simd_tier_available(tier_for(simd))) {
    GTEST_SKIP() << "tier " << simd_tier_name(tier_for(simd))
                 << " not executable on this machine";
  }
  const KernelConfig kernel{.simd = simd};
  const std::uint64_t domain = 2'001 / rows_per_key;
  auto r = gen(2'001, domain, 45, 0.8);
  auto s = gen(2'001, domain, 46, 0.8);
  std::vector<rel::Tuple> rs(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> ss(s.tuples().begin(), s.tuples().end());
  sort_fragment(rs);
  sort_fragment(ss);
  for (const std::uint32_t band : {0u, 3u}) {
    JoinResult got, oracle;
    band_merge_join(rs, ss, band, got, kernel);
    nested_loops_band_join(r.tuples(), s.tuples(), band, oracle);
    EXPECT_EQ(got.matches(), oracle.matches()) << "band " << band;
    EXPECT_EQ(got.checksum(), oracle.checksum()) << "band " << band;
  }
}

TEST_P(DispatchTierParity, AllDuplicateKeysOverflowWalk) {
  // 3'000 S tuples carry the same key: the home group fills, inserts walk
  // a long run of consecutive groups, and a probe must traverse the whole
  // run — the overflow walk at its most adversarial. 64 further keys with
  // rows_per_key copies each are inserted after the run, so those whose
  // home group lies inside it must walk past it to insert and to probe.
  const auto [simd, rows_per_key] = GetParam();
  if (!simd_tier_available(tier_for(simd))) {
    GTEST_SKIP() << "tier " << simd_tier_name(tier_for(simd))
                 << " not executable on this machine";
  }
  const KernelConfig kernel{.simd = simd};
  std::vector<rel::Tuple> s;
  for (std::uint64_t i = 0; i < 3'000; ++i) s.push_back({5, i});
  std::vector<rel::Tuple> r = {{5, 1}, {7, 2}, {9, 3}};
  for (std::uint32_t key = 100; key < 164; ++key) {
    for (int c = 0; c < rows_per_key; ++c) s.push_back({key, s.size()});
    r.push_back({key, key});
  }
  PartitionHashTable table;
  table.build(s, 0, kernel);
  JoinResult result;
  table.probe(r, result);
  EXPECT_EQ(result.matches(), 3'000u + 64u * rows_per_key);
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndGroups, DispatchTierParity,
    ::testing::Values(TierCase{Simd::kScalar, 16}, TierCase{Simd::kScalar, 8},
                      TierCase{Simd::kAvx2, 16}, TierCase{Simd::kAvx2, 8},
                      TierCase{Simd::kNeon, 16}, TierCase{Simd::kNeon, 8}));

// ------------------------------------------------ staged-build coverage
//
// Sized past kStagedBuildMinTableBytes so HashJoinStationary::build takes
// the fused region-staged path (radix_bits = 1 maximizes regions per
// partition and exercises the cross-region carry). The nested-loops oracle
// is quadratic and unusable here; sort-merge — an independent production
// algorithm, itself held to the oracle at small sizes above — serves as
// the reference.

TEST(KernelParity, StagedBuildAgreesWithSortMergeAtScale) {
  auto r = gen(320'000, 90'000, 43, 0.9);
  auto s = gen(320'000, 90'000, 44, 0.9);
  const JoinResult reference = local_sort_merge_join(r.tuples(), s.tuples());
  for (const int bits : {1, 6}) {
    const auto staged = hash_join_with(r.tuples(), s.tuples(), bits);
    EXPECT_EQ(staged.matches(), reference.matches()) << "bits " << bits;
    EXPECT_EQ(staged.checksum(), reference.checksum()) << "bits " << bits;
  }
}

TEST(KernelParity, StagedBuildSkewFallbackOnAllDuplicates) {
  // One key for all 320k rows: every tuple lands in one staging region,
  // whose row count blows the staged path's carry-index budget, forcing
  // the per-table skew fallback to the direct build. Parity of the result
  // (every probe of the hot key matches all |S|) is what proves the
  // fallback engaged correctly rather than corrupting the table.
  const std::uint64_t n = 320'000;
  std::vector<rel::Tuple> s;
  s.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) s.push_back({5, i});
  const std::vector<rel::Tuple> r = {{5, 1}, {7, 2}};
  RadixConfig config;
  const auto stationary = HashJoinStationary::build(s, 1, config);
  const auto r_parts = radix_cluster(r, 1, 8, config.kernel);
  JoinResult result;
  for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
    stationary.probe_partition(p, r_parts.partition(p), result);
  }
  EXPECT_EQ(result.matches(), n);
}

TEST(PartitionHashTable, FingerprintFindsAllDuplicates) {
  // Heavier than FindsAllDuplicates above: one key's duplicates spill
  // across several collision-cluster steps.
  std::vector<rel::Tuple> s;
  for (std::uint64_t i = 0; i < 40; ++i) s.push_back({5, i});
  s.push_back({7, 100});
  PartitionHashTable table;
  table.build(s, 0);
  std::vector<rel::Tuple> r = {{5, 1}, {7, 2}, {9, 3}};
  JoinResult result;
  table.probe(r, result);
  EXPECT_EQ(result.matches(), 41u);
}

TEST(PartitionHashTable, FingerprintMaterializesCorrectPairs) {
  std::vector<rel::Tuple> s = {{1, 10}, {2, 20}, {3, 30}};
  PartitionHashTable table;
  table.build(s, 0);
  std::vector<rel::Tuple> r = {{2, 7}, {3, 8}};
  JoinResult result(true);
  table.probe(r, result);
  ASSERT_EQ(result.output().size(), 2u);
  for (const auto& out : result.output()) {
    if (out.key == 2) {
      EXPECT_EQ(out.r_payload, 7u);
      EXPECT_EQ(out.s_payload, 20u);
    } else {
      EXPECT_EQ(out.key, 3u);
      EXPECT_EQ(out.r_payload, 8u);
      EXPECT_EQ(out.s_payload, 30u);
    }
  }
}

TEST(JoinResult, CountingMergeIgnoresStaleOutput) {
  // A counting-only accumulator must not splice materialized tuples in.
  JoinResult materialized(true), counting(false);
  rel::Tuple t{1, 2};
  materialized.add_match(t, t);
  counting.merge(materialized);
  EXPECT_EQ(counting.matches(), 1u);
  EXPECT_TRUE(counting.output().empty());
}

TEST(NestedLoops, ArbitraryPredicate) {
  auto r = gen(200, 100, 17);
  auto s = gen(200, 100, 18);
  JoinResult result;
  nested_loops_join(
      r.tuples(), s.tuples(),
      [](const rel::Tuple& a, const rel::Tuple& b) { return a.key > b.key + 90; },
      result);
  std::uint64_t expected = 0;
  for (const auto& a : r.tuples()) {
    for (const auto& b : s.tuples()) expected += (a.key > b.key + 90);
  }
  EXPECT_EQ(result.matches(), expected);
}

// ------------------------------------------------------------- page pool

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// The pool's retained-memory bound (join/page_pool.h).
void expect_bounded(const PagePool::Stats& st) {
  EXPECT_LE(st.live_bytes + st.parked_bytes, st.high_water_bytes);
}

TEST(PagePool, BlockReleasedOnOneThreadIsAdoptedOnAnother) {
  PagePool pool;
  PagePool::Block first;
  std::thread([&] {
    first = pool.acquire(5 * kMiB);
    if (first.data != nullptr) std::memset(first.data, 0x5A, 5 * kMiB);
    pool.release(first);
  }).join();
  if (first.data == nullptr) GTEST_SKIP() << "no mmap-backed pool here";

  PagePool::Block second;
  std::thread([&] { second = pool.acquire(5 * kMiB); }).join();
  EXPECT_EQ(second.data, first.data);
  EXPECT_EQ(second.bytes, first.bytes);
  EXPECT_EQ(second.bytes, 6 * kMiB);  // rounded up to whole huge pages
  // The pages written on the first thread, not fresh zero pages.
  EXPECT_EQ(second.data[5 * kMiB - 1], std::byte{0x5A});
  const PagePool::Stats st = pool.stats();
  EXPECT_EQ(st.fresh_bytes, first.bytes);
  EXPECT_EQ(st.reused_bytes, first.bytes);
  pool.release(second);
}

TEST(PagePool, ManyThreadsAcquireAndReleaseConcurrently) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  PagePool pool;
  std::atomic<int> clobbered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t bytes = (2 + static_cast<std::size_t>(t + i) % 3) * kMiB;
        const PagePool::Block block = pool.acquire(bytes);
        if (block.data == nullptr) return;
        // One byte per page, tagged by owner: a block handed to two
        // threads at once shows up as a clobbered tag (and a TSan race).
        const auto tag = static_cast<std::byte>(t * kRounds + i);
        for (std::size_t off = 0; off < bytes; off += 4096) block.data[off] = tag;
        std::this_thread::yield();
        for (std::size_t off = 0; off < bytes; off += 4096) {
          if (block.data[off] != tag) ++clobbered;
        }
        pool.release(block);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const PagePool::Stats st = pool.stats();
  if (st.fresh_bytes == 0) GTEST_SKIP() << "no mmap-backed pool here";
  EXPECT_EQ(clobbered.load(), 0);
  EXPECT_EQ(st.live_bytes, 0u);
  EXPECT_GT(st.reused_bytes, 0u);
  expect_bounded(st);
  // At most one 4 MiB block per thread was ever live at once.
  EXPECT_LE(st.high_water_bytes, kThreads * 4 * kMiB);
}

TEST(PagePool, RetainedBytesStayBoundedAsBlockSizesShift) {
  PagePool pool;
  // Each round holds its blocks at once, then releases them. Sizes grow
  // and shrink between rounds, so parked blocks keep failing to fit and
  // fresh mappings keep pushing against the bound.
  const std::vector<std::vector<std::size_t>> rounds = {
      {2, 4, 6}, {8, 2, 2}, {10}, {2, 2, 2, 2}, {12, 4}, {3, 3, 3}, {14}, {16}};
  std::size_t largest_round = 0;
  for (const auto& sizes : rounds) {
    std::vector<PagePool::Block> held;
    std::size_t round_bytes = 0;
    for (const std::size_t mib : sizes) {
      held.push_back(pool.acquire(mib * kMiB));
      if (held.back().data == nullptr) GTEST_SKIP() << "no mmap-backed pool here";
      round_bytes += held.back().bytes;
      expect_bounded(pool.stats());
    }
    largest_round = std::max(largest_round, round_bytes);
    for (const PagePool::Block& block : held) {
      pool.release(block);
      expect_bounded(pool.stats());
    }
  }
  const PagePool::Stats st = pool.stats();
  EXPECT_EQ(st.live_bytes, 0u);
  EXPECT_EQ(st.high_water_bytes, largest_round);
  EXPECT_GT(st.parked_bytes, 0u);  // the last round's blocks stay parked
  // The shifts forced evictions: more was mapped than is retained.
  EXPECT_GT(st.fresh_bytes, st.parked_bytes);
}

// The check is on glibc's allocator, which ASan and TSan replace.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
// Below one huge page a PoolBuffer is a heap block. A loop that allocates
// one such buffer per pass, with a small allocation made while it is live
// (as a radix pass makes its partition directory), must get the freed
// block back instead of growing the heap and first-touching fresh pages
// every pass. glibc's memalign does not reuse an exactly sized free chunk,
// which is why PoolBuffer aligns a plain heap block itself.
TEST(PagePool, SmallBufferReusesTheHeapBlockOfTheLastPass) {
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  constexpr std::size_t kBytes = 768 << 10;
  long faults_after_warmup = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const long before = minor_faults();
    PoolBuffer buf(kBytes);
    const std::vector<std::uint32_t> directory(5, 1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    std::memset(buf.data(), pass, kBytes);
    if (pass >= 2) faults_after_warmup += minor_faults() - before;
  }
  EXPECT_LT(faults_after_warmup, 16);  // one pass faults kBytes/4K = 192
}
#endif

// Reused storage is not zeroed, so every consumer must write before it
// reads. Park blocks of every size class the joins below ask for, filled
// with 0xAB, then run a hash join and a sort-merge setup that adopt them:
// any stale byte read as data would show in the result.
TEST(PagePool, JoinsOnAdoptedPoisonedBlocksMatchTheOracle) {
  {
    std::vector<PoolBuffer> poison;
    for (std::size_t mib = 2; mib <= 16; mib += 2) {
      poison.emplace_back(mib * kMiB);
      std::memset(poison.back().data(), 0xAB, poison.back().bytes());
    }
  }
  const PagePool::Stats before = PagePool::process().stats();
  if (before.parked_bytes == 0) GTEST_SKIP() << "no mmap-backed pool here";

  // |S| = 2^17 builds its 4 MiB table slab directly; |S| = 2^18 takes the
  // staged build, whose clustered copy (3 MiB) and 8 MiB table slab come
  // from the pool, as does the sorted copy of S.
  auto r = gen(256, 4096, 61);
  for (const std::uint64_t s_rows : {1U << 17, 1U << 18}) {
    auto s = gen(s_rows, 4096, 62);
    JoinResult oracle;
    nested_loops_equi_join(r.tuples(), s.tuples(), oracle);
    ASSERT_GT(oracle.matches(), 0u);

    RadixConfig config;
    const int bits = choose_radix_bits(s.rows(), config);
    const auto stationary = HashJoinStationary::build(s.tuples(), bits, config);
    const auto r_parts =
        radix_cluster(r.tuples(), bits, config.bits_per_pass, config.kernel);
    JoinResult hashed;
    for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
      stationary.probe_partition(p, r_parts.partition(p), hashed);
    }
    EXPECT_EQ(hashed.matches(), oracle.matches()) << "|S| " << s_rows;
    EXPECT_EQ(hashed.checksum(), oracle.checksum()) << "|S| " << s_rows;

    // The cyclo-join's sort-merge setup: both sides sorted from their
    // views straight into uninitialized pool arrays.
    PoolArray<rel::Tuple> s_sorted(s.rows());
    PoolArray<rel::Tuple> r_sorted(r.rows());
    sort_into(s.tuples(), s_sorted);
    sort_into(r.tuples(), r_sorted);
    JoinResult merged;
    merge_join(r_sorted, s_sorted, merged);
    EXPECT_EQ(merged.matches(), oracle.matches()) << "|S| " << s_rows;
    EXPECT_EQ(merged.checksum(), oracle.checksum()) << "|S| " << s_rows;
  }

  const PagePool::Stats after = PagePool::process().stats();
  EXPECT_EQ(after.fresh_bytes, before.fresh_bytes);  // all adopted
  EXPECT_GE(after.reused_bytes - before.reused_bytes, 4 * (2 * kMiB));
}

// ------------------------------------------------- staged setup kernels
//
// The staged setup (join/staged.h) must produce the inline path's bytes for
// any task count: sorted arrays, partitions, slab chunks, and — through the
// tables — the same probe results. Each stage's tasks run on their own
// threads here, so the sanitizer jobs see them run concurrently.

void run_threaded(StagedJob& job) {
  for (std::size_t stage = 0; stage < job.stages(); ++stage) {
    std::vector<std::thread> threads;
    for (int t = 0; t < job.tasks(); ++t) {
      threads.emplace_back([&job, stage, t] { job.run(stage, t); });
    }
    for (auto& thread : threads) thread.join();
  }
}

enum class StagedKeys { kUniform, kZipf, kAllDuplicates };

struct StagedCase {
  int tasks;
  StagedKeys keys;
  std::uint64_t rows;
};

std::vector<rel::Tuple> staged_input(StagedKeys keys, std::uint64_t rows,
                                     std::uint64_t seed) {
  if (rows == 0) return {};
  if (keys == StagedKeys::kAllDuplicates) {
    std::vector<rel::Tuple> out;
    for (std::uint64_t i = 0; i < rows; ++i) out.push_back({7, i});
    return out;
  }
  const double zipf = keys == StagedKeys::kZipf ? 1.25 : 0.0;
  const rel::Relation t = gen(rows, std::max<std::uint64_t>(rows, 1), seed, zipf);
  return {t.tuples().begin(), t.tuples().end()};
}

bool same_bytes(std::span<const rel::Tuple> a, std::span<const rel::Tuple> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_slab(cyclo::ChunkSlab& a, cyclo::ChunkSlab& b) {
  if (a.num_chunks() != b.num_chunks() || a.total_tuples() != b.total_tuples()) {
    return false;
  }
  const auto x = a.slab();
  const auto y = b.slab();
  if (x.size() != y.size() ||
      (!x.empty() && std::memcmp(x.data(), y.data(), x.size()) != 0)) {
    return false;
  }
  for (std::size_t c = 0; c < a.num_chunks(); ++c) {
    if (a.chunk(c).data() - x.data() != b.chunk(c).data() - y.data() ||
        a.chunk(c).size() != b.chunk(c).size()) {
      return false;
    }
  }
  return true;
}

class StagedSortInto : public ::testing::TestWithParam<StagedCase> {};

TEST_P(StagedSortInto, MatchesInlineSort) {
  const auto [tasks, keys, rows] = GetParam();
  const auto in = staged_input(keys, rows, 51);
  std::vector<rel::Tuple> inline_out(in.size());
  sort_into(in, inline_out);
  ASSERT_TRUE(is_sorted_by_key(inline_out));
  PoolArray<rel::Tuple> staged_out;
  PoolArray<std::uint32_t> column;
  StagedJob job(tasks);
  sort_into(in, &staged_out, job, &column);
  run_threaded(job);
  EXPECT_TRUE(same_bytes(staged_out, inline_out));
  // The key column: the sorted keys, then the padding.
  ASSERT_EQ(column.size(), in.size() + kKeyPad);
  std::vector<std::uint32_t> want(in.size() + kKeyPad, 0xFFFFFFFFU);
  for (std::size_t i = 0; i < in.size(); ++i) want[i] = inline_out[i].key;
  EXPECT_TRUE(std::ranges::equal(column, want));
}

TEST_P(StagedSortInto, SlabMatchesInline) {
  const auto [tasks, keys, rows] = GetParam();
  const auto in = staged_input(keys, rows, 52);
  const cyclo::ChunkWriter writer(4096);
  std::vector<rel::Tuple> sorted(in.size());
  sort_into(in, sorted);
  cyclo::ChunkSlab inline_slab = writer.from_sorted(sorted, 3);

  PoolArray<rel::Tuple> staged_sorted;
  cyclo::ChunkSlab staged_slab;
  StagedJob job(tasks);
  sort_into(in, &staged_sorted, job);
  writer.from_sorted(staged_sorted, 3, job, &staged_slab);
  run_threaded(job);
  EXPECT_TRUE(same_slab(staged_slab, inline_slab));

  cyclo::ChunkSlab inline_raw = writer.from_raw(in, 3);
  cyclo::ChunkSlab staged_raw;
  StagedJob raw_job(tasks);
  writer.from_raw(in, 3, raw_job, &staged_raw);
  run_threaded(raw_job);
  EXPECT_TRUE(same_slab(staged_raw, inline_raw));
}

class StagedRadixCluster : public ::testing::TestWithParam<StagedCase> {};

TEST_P(StagedRadixCluster, MatchesInlineClustering) {
  const auto [tasks, keys, rows] = GetParam();
  const auto in = staged_input(keys, rows, 53);
  // One pass, two passes, and four (two middle passes) of 3 bits.
  for (const auto [bits, per_pass] : {std::pair{0, 8}, std::pair{5, 8},
                                      std::pair{12, 8}, std::pair{11, 3}}) {
    const PartitionedData inline_parts = radix_cluster(in, bits, per_pass);
    PartitionedData staged_parts;
    StagedJob job(tasks);
    radix_cluster(in, bits, per_pass, job, &staged_parts);
    run_threaded(job);
    EXPECT_TRUE(same_bytes(staged_parts.all_tuples(), inline_parts.all_tuples()))
        << "bits " << bits << " per pass " << per_pass;
    EXPECT_TRUE(std::ranges::equal(staged_parts.offsets(), inline_parts.offsets()))
        << "bits " << bits << " per pass " << per_pass;
  }
}

TEST_P(StagedRadixCluster, SlabMatchesInline) {
  const auto [tasks, keys, rows] = GetParam();
  const auto in = staged_input(keys, rows, 54);
  const cyclo::ChunkWriter writer(4096);
  cyclo::ChunkSlab inline_slab =
      writer.from_partitioned(radix_cluster(in, 6, 8), 2);
  PartitionedData parts;
  cyclo::ChunkSlab staged_slab;
  StagedJob job(tasks);
  radix_cluster(in, 6, 8, job, &parts);
  writer.from_partitioned(parts, 2, job, &staged_slab);
  run_threaded(job);
  EXPECT_TRUE(same_slab(staged_slab, inline_slab));
}

class StagedKernelParity : public ::testing::TestWithParam<StagedCase> {};

TEST_P(StagedKernelParity, HashBuildMatchesInlineAndSortMerge) {
  const auto [tasks, keys, rows] = GetParam();
  // A hot key's duplicates fill its home group and every insert after them
  // walks past them, so skewed builds grow quadratically: uniform keys alone
  // take the fused build's size.
  const auto s = staged_input(
      keys, keys == StagedKeys::kUniform ? rows : std::min<std::uint64_t>(rows, 20'000),
      55);
  // All-duplicate keys would make every R tuple match all of S: probe with
  // a few of them and one key S lacks.
  const auto r = keys == StagedKeys::kAllDuplicates
                     ? std::vector<rel::Tuple>{{7, 1}, {7, 2}, {7, 3}, {8, 4}}
                     : staged_input(keys, std::min<std::uint64_t>(rows, 2'000), 56);
  const JoinResult reference = local_sort_merge_join(r, s);
  const RadixConfig config;
  // bits 0: one table; 1: the most regions per partition in the fused
  // build; choose_radix_bits: the production shape (fused from 2^18 rows).
  for (const int bits : {0, 1, choose_radix_bits(s.size(), config)}) {
    const HashJoinStationary inline_build = HashJoinStationary::build(s, bits, config);
    HashJoinStationary staged;
    StagedJob job(tasks);
    HashJoinStationary::build(s, bits, config, job, &staged);
    run_threaded(job);
    EXPECT_TRUE(same_bytes(staged.partitions().all_tuples(),
                           inline_build.partitions().all_tuples()))
        << "bits " << bits;
    EXPECT_EQ(staged.bytes(), inline_build.bytes()) << "bits " << bits;

    const auto r_parts = radix_cluster(r, bits, config.bits_per_pass);
    JoinResult result;
    for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
      staged.probe_partition(p, r_parts.partition(p), result);
    }
    EXPECT_EQ(result.matches(), reference.matches()) << "bits " << bits;
    EXPECT_EQ(result.checksum(), reference.checksum()) << "bits " << bits;
  }
}

std::vector<StagedCase> staged_cases() {
  std::vector<StagedCase> out;
  for (const int tasks : {1, 2, 3, 4, 7}) {
    for (const StagedKeys keys :
         {StagedKeys::kUniform, StagedKeys::kZipf, StagedKeys::kAllDuplicates}) {
      // Empty, fewer rows than tasks, small, and past the fused-build
      // threshold.
      for (const std::uint64_t rows : {0ULL, 5ULL, 4'099ULL, 300'000ULL}) {
        out.push_back({tasks, keys, rows});
      }
    }
  }
  return out;
}

std::string staged_name(const ::testing::TestParamInfo<StagedCase>& info) {
  const char* keys[] = {"Uniform", "Zipf125", "AllDup"};
  return std::string(keys[static_cast<int>(info.param.keys)]) + "_" +
         std::to_string(info.param.rows) + "rows_" +
         std::to_string(info.param.tasks) + "tasks";
}

INSTANTIATE_TEST_SUITE_P(TasksKeysRows, StagedSortInto,
                         ::testing::ValuesIn(staged_cases()), staged_name);
INSTANTIATE_TEST_SUITE_P(TasksKeysRows, StagedRadixCluster,
                         ::testing::ValuesIn(staged_cases()), staged_name);
INSTANTIATE_TEST_SUITE_P(TasksKeysRows, StagedKernelParity,
                         ::testing::ValuesIn(staged_cases()), staged_name);

}  // namespace
}  // namespace cj::join
