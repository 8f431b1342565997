// Unit tests for the hash module: position map, linear hashing invariants,
// partition maps, and the local hash table's accounting and range surgery.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>
#include <vector>

#include "hash/hash_family.hpp"
#include "hash/local_hash_table.hpp"
#include "hash/partition_map.hpp"
#include "util/rng.hpp"
#include "workload/distribution.hpp"

namespace ehja {
namespace {

// ------------------------------------------------------------ position map

TEST(PositionTest, HighBitsPreserveOrder) {
  EXPECT_LE(position_of(key_from_unit(0.1)), position_of(key_from_unit(0.2)));
  EXPECT_EQ(position_of(0), 0u);
  EXPECT_EQ(position_of(UINT64_MAX), kPositionCount - 1);
}

TEST(EqualRangesTest, CoverAndDisjoint) {
  const auto ranges = equal_ranges(6, 1000);
  EXPECT_EQ(ranges.front().lo, 0u);
  EXPECT_EQ(ranges.back().hi, 1000u);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i - 1].hi, ranges[i].lo);
  }
}

// ----------------------------------------------------------- linear hashing

TEST(LinearHashMapTest, InitialState) {
  LinearHashMap lh(4, 1024);
  EXPECT_EQ(lh.bucket_count(), 4u);
  EXPECT_EQ(lh.level(), 0u);
  EXPECT_EQ(lh.split_ptr(), 0u);
  EXPECT_EQ(lh.bucket_range(0), (PosRange{0, 256}));
  EXPECT_EQ(lh.bucket_range(3), (PosRange{768, 1024}));
}

TEST(LinearHashMapTest, SplitsWalkThePointer) {
  LinearHashMap lh(4, 1024);
  // First split targets bucket 0 ([0,256)) regardless of who overflowed.
  auto s0 = lh.split_next();
  EXPECT_EQ(s0.kept, (PosRange{0, 128}));
  EXPECT_EQ(s0.moved, (PosRange{128, 256}));
  EXPECT_EQ(lh.split_ptr(), 1u);
  EXPECT_EQ(lh.bucket_count(), 5u);
  // Second split targets the original bucket 1 ([256,512)).
  auto s1 = lh.split_next();
  EXPECT_EQ(s1.kept, (PosRange{256, 384}));
  EXPECT_EQ(s1.moved, (PosRange{384, 512}));
}

TEST(LinearHashMapTest, LevelIncrementsWhenPointerWraps) {
  LinearHashMap lh(2, 1024);
  lh.split_next();  // splits [0,512)
  EXPECT_EQ(lh.level(), 0u);
  lh.split_next();  // splits [512,1024): pointer wraps
  EXPECT_EQ(lh.level(), 1u);
  EXPECT_EQ(lh.split_ptr(), 0u);
  EXPECT_EQ(lh.bucket_count(), 4u);
  // Next round re-splits the now-256-wide buckets left to right.
  auto s = lh.split_next();
  EXPECT_EQ(s.kept, (PosRange{0, 128}));
}

TEST(LinearHashMapTest, AtMostTwoBucketWidthsExist) {
  // The "at most two hash functions active" invariant: bucket widths take
  // at most two distinct values at any time.
  SplitMix64 rng(1);
  LinearHashMap lh(4, 1u << 16);
  for (int i = 0; i < 40; ++i) {
    lh.split_next();
    std::vector<std::uint64_t> widths;
    for (std::size_t b = 0; b < lh.bucket_count(); ++b) {
      widths.push_back(lh.bucket_range(b).width());
    }
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
    EXPECT_LE(widths.size(), 2u);
    if (widths.size() == 2) {
      EXPECT_EQ(widths[0] * 2, widths[1]);
    }
  }
}

TEST(LinearHashMapTest, BucketIndexOfAgreesWithRanges) {
  LinearHashMap lh(3, 10000);
  for (int i = 0; i < 10; ++i) lh.split_next();
  for (std::uint64_t pos = 0; pos < 10000; pos += 7) {
    const std::size_t idx = lh.bucket_index_of(pos);
    EXPECT_TRUE(lh.bucket_range(idx).contains(pos));
  }
}

TEST(LinearHashMapTest, BoundsStayCoveringAndSorted) {
  LinearHashMap lh(4);
  for (int i = 0; i < 30; ++i) lh.split_next();
  const auto& bounds = lh.bounds();
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), kPositionCount);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(LinearHashMapTest, SplitPossibleFalseAtPositionResolution) {
  LinearHashMap lh(2, 4);  // four positions, two buckets of width 2
  EXPECT_TRUE(lh.split_possible());
  lh.split_next();
  lh.split_next();
  // All buckets now width 1: nothing left to split.
  EXPECT_FALSE(lh.split_possible());
}

// ------------------------------------------------------------ partition map

TEST(PartitionMapTest, InitialEqualRanges) {
  const auto map = PartitionMap::initial({10, 11, 12, 13});
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.entry_for(0).active_owner(), 10);
  EXPECT_EQ(map.entry_for(kPositionCount - 1).active_owner(), 13);
  EXPECT_EQ(map.owner_slots(), 4u);
}

TEST(PartitionMapTest, SplitEntry) {
  auto map = PartitionMap::initial({10, 11});
  const std::uint64_t mid = kPositionCount / 4;
  map.split_entry(0, mid, 99);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.entry_for(mid - 1).active_owner(), 10);
  EXPECT_EQ(map.entry_for(mid).active_owner(), 99);
  map.check();
}

TEST(PartitionMapTest, AddReplicaMakesNewestActive) {
  auto map = PartitionMap::initial({10, 11});
  map.add_replica(1, 99);
  const auto& entry = map.entries()[1];
  EXPECT_EQ(entry.active_owner(), 99);
  ASSERT_EQ(entry.owners.size(), 2u);
  EXPECT_EQ(entry.owners[1], 11);
  EXPECT_EQ(map.owner_slots(), 3u);
}

TEST(PartitionMapTest, ReplaceEntrySubdivides) {
  auto map = PartitionMap::initial({10, 11});
  const PosRange original = map.entries()[0].range;
  const std::uint64_t third = original.lo + original.width() / 3;
  std::vector<PartitionMap::Entry> plan = {
      {PosRange{original.lo, third}, {20}},
      {PosRange{third, original.hi}, {21}},
  };
  map.replace_entry(0, plan);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.entry_for(original.lo).active_owner(), 20);
  EXPECT_EQ(map.entry_for(third).active_owner(), 21);
}

TEST(PartitionMapTest, IndexForBoundaries) {
  const auto map = PartitionMap::initial({1, 2, 3, 4});
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(map.index_for(map.entries()[i].range.lo), i);
    EXPECT_EQ(map.index_for(map.entries()[i].range.hi - 1), i);
  }
}

TEST(PartitionMapTest, WireBytesGrowWithEntries) {
  auto map = PartitionMap::initial({1, 2});
  const std::size_t before = map.wire_bytes();
  map.add_replica(0, 3);
  EXPECT_GT(map.wire_bytes(), before);
}

TEST(PartitionMapDeathTest, SplittingReplicatedRangeAborts) {
  auto map = PartitionMap::initial({1, 2});
  map.add_replica(0, 3);
  EXPECT_DEATH(map.split_entry(0, kPositionCount / 4, 9), "replicated");
}

// --------------------------------------------------------- local hash table

LocalHashTable small_table(PosRange range = PosRange{0, 1024}) {
  return LocalHashTable(Schema{100}, range);
}

Tuple tuple_at_position(std::uint64_t pos, std::uint64_t id = 0) {
  return Tuple{id, pos << (64 - kPositionBits)};
}

TEST(LocalHashTableTest, InsertAccountsFootprint) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  table.insert(tuple_at_position(5, 2));
  EXPECT_EQ(table.tuple_count(), 2u);
  EXPECT_EQ(table.footprint_bytes(), 2 * (100 + kHashEntryOverheadBytes));
}

TEST(LocalHashTableTest, ProbeFindsAllKeyMatches) {
  auto table = small_table();
  const Tuple a = tuple_at_position(5, 1);
  Tuple b = tuple_at_position(5, 2);
  b.key = a.key;  // same join attribute
  Tuple c = tuple_at_position(5, 3);
  c.key = a.key + 1;  // same position, different attribute
  table.insert(a);
  table.insert(b);
  table.insert(c);
  Tuple probe = a;
  probe.id = 99;
  const auto result = table.probe(probe);
  EXPECT_EQ(result.matches, 2u);
  // Binary search over the 3-entry chain plus one comparison per match.
  EXPECT_GE(result.comparisons, result.matches);
  EXPECT_LE(result.comparisons, 3u + result.matches);
  EXPECT_EQ(result.checksum_delta,
            match_signature(1, 99) + match_signature(2, 99));
}

TEST(LocalHashTableTest, ProbeMissReturnsZero) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  const auto result = table.probe(tuple_at_position(6, 9));
  EXPECT_EQ(result.matches, 0u);
  EXPECT_GE(result.comparisons, 1u);  // the miss still costs a lookup
}

TEST(LocalHashTableTest, ExtractRangeRemovesAndReturns) {
  auto table = small_table();
  for (std::uint64_t pos = 0; pos < 100; ++pos) {
    table.insert(tuple_at_position(pos, pos));
  }
  const auto extracted = table.extract_range(PosRange{50, 100});
  EXPECT_EQ(extracted.size(), 50u);
  EXPECT_EQ(table.tuple_count(), 50u);
  EXPECT_EQ(table.footprint_bytes(), 50 * (100 + kHashEntryOverheadBytes));
  for (const Tuple& t : extracted) {
    EXPECT_GE(position_of(t.key), 50u);
  }
}

TEST(LocalHashTableTest, SetRangeAfterExtraction) {
  auto table = small_table();
  for (std::uint64_t pos = 0; pos < 100; ++pos) {
    table.insert(tuple_at_position(pos, pos));
  }
  table.extract_range(PosRange{50, 1024});
  table.set_range(PosRange{0, 50});
  EXPECT_EQ(table.tuple_count(), 50u);
  // Probing inside the shrunken range still works.
  EXPECT_EQ(table.probe(tuple_at_position(10, 999)).matches, 1u);
}

TEST(LocalHashTableDeathTest, SetRangeOrphaningTuplesAborts) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  EXPECT_DEATH(table.set_range(PosRange{100, 200}), "orphan");
}

TEST(LocalHashTableDeathTest, InsertOutsideRangeAborts) {
  auto table = small_table(PosRange{0, 10});
  EXPECT_DEATH(table.insert(tuple_at_position(10, 1)), "outside");
}

TEST(LocalHashTableTest, HistogramCountsEntries) {
  auto table = small_table(PosRange{0, 100});
  for (int i = 0; i < 10; ++i) table.insert(tuple_at_position(5, 100 + i));
  table.insert(tuple_at_position(95, 1));
  const auto hist = table.histogram(10);
  EXPECT_EQ(hist.total(), 11u);
  EXPECT_EQ(hist.bin_weight(0), 10u);
  EXPECT_EQ(hist.bin_weight(9), 1u);
}

TEST(LocalHashTableTest, ClearResetsEverything) {
  auto table = small_table();
  table.insert(tuple_at_position(1, 1));
  table.clear();
  EXPECT_EQ(table.tuple_count(), 0u);
  EXPECT_EQ(table.footprint_bytes(), 0u);
}

// ------------------------------------------ scalar/batched equivalence fuzz
//
// insert_batch/probe_batch must be byte-identical to driving the scalar
// calls tuple by tuple: same matches, comparisons, checksum, footprint, and
// the same extracted tuples in the same order.  The fuzz drives two tables
// through random interleavings of batch inserts, probes, and extract_range
// surgery (each of which seals pending inserts first) over random ranges
// and both uniform and heavily skewed position distributions.

/// Random batch whose positions all lie in `range`; `hot_positions` > 0
/// concentrates all rows onto that many distinct positions (skew), and a
/// quarter of the keys are duplicated to exercise same-key match lists.
TupleBatch random_batch(SplitMix64& rng, const PosRange& range,
                        std::size_t rows, std::size_t hot_positions) {
  TupleBatch batch;
  batch.reserve(rows);
  std::uint64_t last_key = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t pos = range.lo + rng.next_u64() % range.width();
    if (hot_positions > 0) {
      pos = range.lo + rng.next_u64() % hot_positions;
    }
    std::uint64_t key = (pos << (64 - kPositionBits)) |
                        (rng.next_u64() & ((1ull << (64 - kPositionBits)) - 1));
    if (i > 0 && rng.next_u64() % 4 == 0) key = last_key;  // duplicate key
    last_key = key;
    batch.append(rng.next_u64(), key);
  }
  return batch;
}

TEST(BatchEquivalenceFuzz, InsertProbeExtractInterleavings) {
  SplitMix64 rng(2026);
  for (int round = 0; round < 24; ++round) {
    // Random owned range, sometimes not starting at zero.
    const std::uint64_t lo = (rng.next_u64() % 8) * 1000;
    const std::uint64_t width = 64 + rng.next_u64() % 4000;
    const PosRange range{lo, lo + width};
    const Schema schema{100};
    LocalHashTable scalar_table(schema, range);
    LocalHashTable batched_table(schema, range);
    const std::size_t hot = (round % 3 == 0) ? 1 + rng.next_u64() % 5 : 0;

    for (int step = 0; step < 12; ++step) {
      const std::uint64_t op = rng.next_u64() % 4;
      if (op <= 1) {  // build batch
        const auto batch =
            random_batch(rng, range, 1 + rng.next_u64() % 500, hot);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          scalar_table.insert(batch.tuple(i));
        }
        batched_table.insert_batch(batch);
      } else if (op == 2) {  // probe batch
        const auto batch =
            random_batch(rng, range, 1 + rng.next_u64() % 500, hot);
        LocalHashTable::BatchProbeResult want;
        want.probed = batch.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto r = scalar_table.probe(batch.tuple(i));
          want.matches += r.matches;
          want.comparisons += r.comparisons;
          want.checksum_delta += r.checksum_delta;
        }
        const auto got = batched_table.probe_batch(batch);
        EXPECT_EQ(got.probed, want.probed);
        EXPECT_EQ(got.matches, want.matches);
        EXPECT_EQ(got.comparisons, want.comparisons);
        EXPECT_EQ(got.checksum_delta, want.checksum_delta);
      } else {  // extract a random sub-range from both
        const std::uint64_t a = lo + rng.next_u64() % width;
        const std::uint64_t b = lo + rng.next_u64() % width;
        const PosRange sub{std::min(a, b), std::max(a, b) + 1};
        EXPECT_EQ(scalar_table.extract_range(sub),
                  batched_table.extract_range(sub));
      }
      EXPECT_EQ(scalar_table.tuple_count(), batched_table.tuple_count());
      EXPECT_EQ(scalar_table.footprint_bytes(),
                batched_table.footprint_bytes());
    }
  }
}

// extract_unordered against extract_range on twin tables: the same rows
// (as a multiset), and afterwards the same table -- counts, footprint,
// histogram and probe output, captured rows in the same order.  Probes
// between inserts leave a mix of sealed rows and unsealed tail rows for
// the extraction to split.
TEST(ExtractUnorderedFuzz, SameRowsAndRemainingTableAsExtractRange) {
  SplitMix64 rng(2027);
  const auto by_id = [](std::vector<Tuple> rows) {
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      return a.id != b.id ? a.id < b.id : a.key < b.key;
    });
    return rows;
  };
  for (int round = 0; round < 24; ++round) {
    const std::uint64_t lo = (rng.next_u64() % 8) * 1000;
    const std::uint64_t width = 64 + rng.next_u64() % 4000;
    const PosRange range{lo, lo + width};
    const Schema schema{100};
    LocalHashTable ordered(schema, range);
    LocalHashTable unordered(schema, range);
    const std::size_t hot = (round % 3 == 0) ? 1 + rng.next_u64() % 5 : 0;
    for (int step = 0; step < 16; ++step) {
      const std::uint64_t op = rng.next_u64() % 4;
      if (op <= 1) {
        // Batches past one 32k-row tail block now and then.
        const std::size_t rows = rng.next_u64() % 8 == 0
                                     ? 30'000 + rng.next_u64() % 10'000
                                     : 1 + rng.next_u64() % 500;
        const auto batch = random_batch(rng, range, rows, hot);
        ordered.insert_batch(batch);
        unordered.insert_batch(batch);
      } else if (op == 2) {
        const auto batch =
            random_batch(rng, range, 1 + rng.next_u64() % 200, hot);
        std::vector<Tuple> want_rows;
        std::vector<Tuple> got_rows;
        const auto want = ordered.probe_batch(batch, &want_rows);
        const auto got = unordered.probe_batch(batch, &got_rows);
        EXPECT_EQ(got.matches, want.matches);
        EXPECT_EQ(got.comparisons, want.comparisons);
        EXPECT_EQ(got.checksum_delta, want.checksum_delta);
        EXPECT_EQ(got_rows, want_rows);
      } else {
        const std::uint64_t a = lo + rng.next_u64() % width;
        const std::uint64_t b = lo + rng.next_u64() % width;
        const PosRange sub{std::min(a, b), std::max(a, b) + 1};
        EXPECT_EQ(unordered.count_range(sub), ordered.count_range(sub));
        EXPECT_EQ(by_id(unordered.extract_unordered(sub)),
                  by_id(ordered.extract_range(sub)));
      }
      EXPECT_EQ(unordered.tuple_count(), ordered.tuple_count());
      EXPECT_EQ(unordered.footprint_bytes(), ordered.footprint_bytes());
      EXPECT_EQ(unordered.histogram(16).weights(),
                ordered.histogram(16).weights());
    }
  }
}

// ------------------------------------------ differential test vs a model
//
// An independent model of the table's contract: a std::unordered_multimap
// from join attribute to (row id, insertion sequence) plus per-position
// counts.  It checks every observable of LocalHashTable -- probe results
// (matches, modeled comparisons = bit_width(position count) + matches, or 1
// on an empty position; checksum; captured rows), extract_range's content
// *and* order (position, then key, equal keys in insertion order),
// histograms, counts and footprint -- across random interleavings that
// include inserts after probes (a reseal over sealed rows) and extracts
// after probes.

enum class ModelShape { kUniform, kSmallDomain, kGaussian, kZipf };

struct ModelRow {
  std::uint64_t id;
  std::uint64_t seq;
};

class TableModel {
 public:
  explicit TableModel(PosRange range) : range_(range) {}

  const PosRange& range() const { return range_; }
  std::uint64_t size() const { return rows_.size(); }

  void insert(const Tuple& t) {
    rows_.emplace(t.key, ModelRow{t.id, next_seq_++});
    ++per_position_[position_of(t.key)];
  }

  /// (matches, comparisons, checksum) and the captured pairs of one probe.
  LocalHashTable::BatchProbeResult probe(const Tuple& s,
                                         std::vector<Tuple>& sink) const {
    LocalHashTable::BatchProbeResult r;
    r.probed = 1;
    const auto count = per_position_.find(position_of(s.key));
    if (count == per_position_.end()) {
      r.comparisons = 1;
      return r;
    }
    r.comparisons = std::bit_width(count->second);
    const auto [lo, hi] = rows_.equal_range(s.key);
    for (auto it = lo; it != hi; ++it) {
      ++r.matches;
      ++r.comparisons;
      r.checksum_delta += match_signature(it->second.id, s.id);
      sink.push_back(Tuple{it->second.id, s.id});
    }
    return r;
  }

  /// Rows in `sub`, removed, in the table's documented extraction order.
  std::vector<Tuple> extract(const PosRange& sub) {
    struct Out {
      std::uint64_t key, seq, id;
    };
    std::vector<Out> out;
    for (auto it = rows_.begin(); it != rows_.end();) {
      if (sub.contains(position_of(it->first))) {
        out.push_back(Out{it->first, it->second.seq, it->second.id});
        --per_position_[position_of(it->first)];
        it = rows_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(per_position_, [](const auto& kv) { return kv.second == 0; });
    // Position order is key order (positions are the keys' high bits).
    std::sort(out.begin(), out.end(), [](const Out& a, const Out& b) {
      return a.key != b.key ? a.key < b.key : a.seq < b.seq;
    });
    std::vector<Tuple> tuples;
    for (const Out& o : out) tuples.push_back(Tuple{o.id, o.key});
    return tuples;
  }

  void set_range(const PosRange& next) { range_ = next; }

  void clear() {
    rows_.clear();
    per_position_.clear();
  }

  /// Smallest range holding every row (empty when there are none).
  PosRange occupied() const {
    if (per_position_.empty()) return PosRange{0, 0};
    return PosRange{per_position_.begin()->first,
                    per_position_.rbegin()->first + 1};
  }

  BinnedHistogram histogram(std::size_t bins) const {
    BinnedHistogram hist(range_.lo, range_.hi, bins);
    for (const auto& [pos, count] : per_position_) hist.add(pos, count);
    return hist;
  }

 private:
  PosRange range_;
  std::unordered_multimap<std::uint64_t, ModelRow> rows_;
  std::map<std::uint64_t, std::uint64_t> per_position_;
  std::uint64_t next_seq_ = 0;
};

/// One key in `range` shaped by `shape`.  Gaussian positions (a sum of four
/// uniforms) pile rows onto a few hot positions, whose low bits are spread
/// (even positions: the interpolated guess lands close) or clustered in a
/// tiny window (odd positions: the guess lands far off); every shape
/// repeats keys often.
std::uint64_t model_key(SplitMix64& rng, const PosRange& range,
                        ModelShape shape, std::uint64_t last_key) {
  constexpr unsigned kLowBits = 64 - kPositionBits;
  constexpr std::uint64_t kLowMask = (1ull << kLowBits) - 1;
  if (last_key != 0 && rng.next_u64() % 4 == 0) return last_key;
  switch (shape) {
    case ModelShape::kUniform: {
      const std::uint64_t pos = range.lo + rng.next_u64() % range.width();
      return (pos << kLowBits) | (rng.next_u64() & kLowMask);
    }
    case ModelShape::kSmallDomain: {
      const std::uint64_t k = rng.next_u64() % 48;
      const std::uint64_t pos = range.lo + (k * 7) % range.width();
      return (pos << kLowBits) | k;
    }
    case ModelShape::kGaussian: {
      std::uint64_t sum = 0;
      for (int i = 0; i < 4; ++i) sum += rng.next_u64() % 9;
      const std::uint64_t pos =
          range.lo + (range.width() / 2 + sum) % range.width();
      const std::uint64_t low =
          pos % 2 == 0 ? rng.next_u64() & kLowMask : rng.next_u64() % 64;
      return (pos << kLowBits) | low;
    }
    case ModelShape::kZipf: {
      // Rank r with probability ~2^-(r+1): half the rows land on one hot
      // position while the tail still spreads across the range.
      std::uint64_t rank = 0;
      while (rank < 30 && (rng.next_u64() & 1) == 0) ++rank;
      const std::uint64_t pos = range.lo + (rank * 97) % range.width();
      return (pos << kLowBits) | (rng.next_u64() & kLowMask);
    }
  }
  return 0;
}

TupleBatch model_batch(SplitMix64& rng, const PosRange& range,
                       std::size_t rows, ModelShape shape) {
  TupleBatch batch;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    last = model_key(rng, range, shape, last);
    batch.append(rng.next_u64(), last);
  }
  return batch;
}

void expect_same_probe(const LocalHashTable::BatchProbeResult& got,
                       const LocalHashTable::BatchProbeResult& want,
                       std::vector<Tuple> got_rows,
                       std::vector<Tuple> want_rows) {
  EXPECT_EQ(got.probed, want.probed);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.comparisons, want.comparisons);
  EXPECT_EQ(got.checksum_delta, want.checksum_delta);
  const auto by_pair = [](const Tuple& a, const Tuple& b) {
    return a.id != b.id ? a.id < b.id : a.key < b.key;
  };
  std::sort(got_rows.begin(), got_rows.end(), by_pair);
  std::sort(want_rows.begin(), want_rows.end(), by_pair);
  EXPECT_EQ(got_rows, want_rows);
}

void run_model_differential(ModelShape shape, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const std::uint64_t lo = (rng.next_u64() % 8) * 700;
  const PosRange initial{lo, lo + 32 + rng.next_u64() % 1500};
  const Schema schema{100};
  LocalHashTable table(schema, initial);
  TableModel model(initial);
  bool probed = false;
  int inserts_after_probe = 0;
  int extracts_after_probe = 0;

  for (int step = 0; step < 160; ++step) {
    const PosRange range = model.range();
    const std::uint64_t op = rng.next_u64() % 16;
    if (op < 3) {  // scalar inserts
      const auto batch =
          model_batch(rng, range, 1 + rng.next_u64() % 40, shape);
      for (const Tuple& t : batch) {
        table.insert(t);
        model.insert(t);
      }
      inserts_after_probe += probed ? 1 : 0;
      probed = false;
    } else if (op < 7) {  // batched inserts, some large
      const std::size_t rows = rng.next_u64() % 3 == 0
                                   ? 1000 + rng.next_u64() % 2000
                                   : 1 + rng.next_u64() % 300;
      const auto batch = model_batch(rng, range, rows, shape);
      table.insert_batch(batch);
      for (const Tuple& t : batch) model.insert(t);
      inserts_after_probe += probed ? 1 : 0;
      probed = false;
    } else if (op < 9) {  // scalar probes
      const auto batch =
          model_batch(rng, range, 1 + rng.next_u64() % 60, shape);
      LocalHashTable::BatchProbeResult got, want;
      std::vector<Tuple> got_rows, want_rows;
      for (const Tuple& t : batch) {
        const auto g = table.probe(t, &got_rows);
        ++got.probed;
        got.matches += g.matches;
        got.comparisons += g.comparisons;
        got.checksum_delta += g.checksum_delta;
        const auto w = model.probe(t, want_rows);
        want.probed += w.probed;
        want.matches += w.matches;
        want.comparisons += w.comparisons;
        want.checksum_delta += w.checksum_delta;
      }
      expect_same_probe(got, want, got_rows, want_rows);
      probed = true;
    } else if (op < 12) {  // batched probes
      const auto batch =
          model_batch(rng, range, 1 + rng.next_u64() % 800, shape);
      std::vector<Tuple> got_rows, want_rows;
      const auto got = table.probe_batch(batch, &got_rows);
      LocalHashTable::BatchProbeResult want;
      for (const Tuple& t : batch) {
        const auto w = model.probe(t, want_rows);
        want.probed += w.probed;
        want.matches += w.matches;
        want.comparisons += w.comparisons;
        want.checksum_delta += w.checksum_delta;
      }
      expect_same_probe(got, want, got_rows, want_rows);
      probed = true;
    } else if (op < 14) {  // extract a random sub-range, order included
      const std::uint64_t a = range.lo + rng.next_u64() % range.width();
      const std::uint64_t b = range.lo + rng.next_u64() % range.width();
      const PosRange sub{std::min(a, b), std::max(a, b) + 1};
      EXPECT_EQ(table.extract_range(sub), model.extract(sub));
      extracts_after_probe += probed ? 1 : 0;
    } else if (op == 14) {  // slide the range around what is left
      const PosRange occupied = model.occupied();
      PosRange next = range;
      if (occupied.empty()) {
        next.lo = rng.next_u64() % 4000;
        next.hi = next.lo + 16 + rng.next_u64() % 1500;
      } else {
        next.lo = occupied.lo - rng.next_u64() % (occupied.lo + 1) % 200;
        next.hi = occupied.hi + rng.next_u64() % 200;
      }
      table.set_range(next);
      model.set_range(next);
    } else if (rng.next_u64() % 4 == 0) {
      table.clear();
      model.clear();
    }
    ASSERT_EQ(table.range(), model.range());
    ASSERT_EQ(table.tuple_count(), model.size());
    EXPECT_EQ(table.footprint_bytes(),
              model.size() * (schema.tuple_bytes + kHashEntryOverheadBytes));
    // Bin counts: one, a count leaving a remainder bin, the reshuffle's
    // usual shape, one bin per position, and more bins than positions.
    const std::size_t width = static_cast<std::size_t>(table.range().width());
    for (const std::size_t bins : {std::size_t{1}, std::size_t{7},
                                   std::size_t{16}, width, width + 3}) {
      const BinnedHistogram got = table.histogram(bins);
      const BinnedHistogram want = model.histogram(bins);
      ASSERT_TRUE(got.same_geometry(want)) << "bins=" << bins;
      EXPECT_EQ(got.weights(), want.weights()) << "bins=" << bins;
      EXPECT_EQ(got.total(), want.total()) << "bins=" << bins;
    }
    // An early seal (a replica does one after its histogram reply) must not
    // change any later probe or extraction; it draws no randomness.
    if (step % 5 == 0) table.seal();
  }
  // The seal transitions the test exists for were really exercised.
  EXPECT_GT(inserts_after_probe, 0);
  EXPECT_GT(extracts_after_probe, 0);
  // Drain: the full extraction matches the model, order included.
  EXPECT_EQ(table.extract_range(model.range()),
            model.extract(model.range()));
  EXPECT_TRUE(table.empty());
}

TEST(LocalHashTableModelTest, UniformMatchesModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_model_differential(ModelShape::kUniform, seed);
  }
}

TEST(LocalHashTableModelTest, SmallDomainMatchesModel) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    run_model_differential(ModelShape::kSmallDomain, seed);
  }
}

TEST(LocalHashTableModelTest, GaussianSkewMatchesModel) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    run_model_differential(ModelShape::kGaussian, seed);
  }
}

TEST(LocalHashTableModelTest, ZipfSkewMatchesModel) {
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    run_model_differential(ModelShape::kZipf, seed);
  }
}

}  // namespace
}  // namespace ehja
