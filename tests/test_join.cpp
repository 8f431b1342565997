// Unit tests for the serial reference join and the hybrid-hash spiller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "join/grace_join.hpp"
#include "join/serial_join.hpp"
#include "join/sort_merge_join.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

namespace ehja {
namespace {

Relation make_relation(RelTag tag, std::uint64_t count, DistributionSpec dist,
                       std::uint64_t seed = 7) {
  RelationSpec spec;
  spec.tag = tag;
  spec.tuple_count = count;
  spec.schema = Schema{100};
  spec.dist = dist;
  return materialize(spec, seed, 2);
}

TEST(SerialJoinTest, DisjointKeysNoMatches) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  r.add({1, 100});
  s.add({2, 200});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 0u);
  EXPECT_EQ(result.checksum, 0u);
}

TEST(SerialJoinTest, CrossProductOnDuplicateKeys) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  for (std::uint64_t i = 0; i < 3; ++i) r.add({i, 42});
  for (std::uint64_t i = 0; i < 4; ++i) s.add({100 + i, 42});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 12u);
}

TEST(SerialJoinTest, ChecksumMatchesManualComputation) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  r.add({1, 5});
  r.add({2, 6});
  s.add({3, 5});
  s.add({4, 6});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 2u);
  EXPECT_EQ(result.checksum, match_signature(1, 3) + match_signature(2, 4));
}

TEST(SerialJoinTest, EmptyRelations) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  EXPECT_EQ(serial_hash_join(r, s).matches, 0u);
  s.add({1, 1});
  EXPECT_EQ(serial_hash_join(r, s).matches, 0u);
}

TEST(SerialJoinTest, CaptureFormAgreesWithCountingForm) {
  Relation no_match_r(RelTag::kR, Schema{100});
  Relation no_match_s(RelTag::kS, Schema{100});
  for (std::uint64_t i = 0; i < 50; ++i) {
    no_match_r.add({i, 2 * i});
    no_match_s.add({100 + i, 2 * i + 1});
  }
  const struct {
    const char* name;
    Relation build, probe;
  } cases[] = {
      {"uniform", make_relation(RelTag::kR, 6000, DistributionSpec::Uniform()),
       make_relation(RelTag::kS, 6000, DistributionSpec::Uniform(), 8)},
      {"smalldomain",
       make_relation(RelTag::kR, 6000, DistributionSpec::SmallDomain(512)),
       make_relation(RelTag::kS, 6000, DistributionSpec::SmallDomain(512), 8)},
      {"empty-match", no_match_r, no_match_s},
  };
  for (const auto& c : cases) {
    std::vector<Tuple> out;
    const JoinResult captured = serial_hash_join(c.build, c.probe, &out);
    EXPECT_EQ(captured, serial_hash_join(c.build, c.probe)) << c.name;
    EXPECT_EQ(out.size(), captured.matches) << c.name;
    std::uint64_t checksum = 0;
    for (const Tuple& pair : out) {
      checksum += match_signature(pair.id, pair.key);
    }
    EXPECT_EQ(checksum, captured.checksum) << c.name;
  }
  // The inputs span the shapes they are named for.
  EXPECT_GT(serial_hash_join(cases[1].build, cases[1].probe).matches, 0u);
  EXPECT_EQ(serial_hash_join(cases[2].build, cases[2].probe).matches, 0u);
}

// ------------------------------------------------------------- sort-merge

TEST(SortMergeJoinTest, AgreesWithHashJoinAcrossDistributions) {
  for (const auto& dist :
       {DistributionSpec::Uniform(), DistributionSpec::SmallDomain(512),
        DistributionSpec::Zipf(1.2, 300),
        DistributionSpec::Gaussian(0.5, 1e-3)}) {
    const auto r = make_relation(RelTag::kR, 8000, dist);
    const auto s = make_relation(RelTag::kS, 8000, dist);
    EXPECT_EQ(sort_merge_join(r, s), serial_hash_join(r, s))
        << dist.to_string();
  }
}

TEST(SortMergeJoinTest, CrossProductOnAllEqualKeys) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  for (std::uint64_t i = 0; i < 7; ++i) r.add({i, 42});
  for (std::uint64_t i = 0; i < 11; ++i) s.add({100 + i, 42});
  const auto result = sort_merge_join(r, s);
  EXPECT_EQ(result.matches, 77u);
  EXPECT_EQ(result, serial_hash_join(r, s));
}

TEST(SortMergeJoinTest, EmptySidesYieldNothing) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  EXPECT_EQ(sort_merge_join(r, s).matches, 0u);
  r.add({1, 5});
  EXPECT_EQ(sort_merge_join(r, s).matches, 0u);
}

// ------------------------------------------------------------ grace / OOC

struct GraceFixture {
  SimDisk disk{DiskConfig{}};
  CostModel cost;
};

TEST(GraceJoinTest, InCoreWhenBudgetSuffices) {
  GraceFixture fx;
  const auto r = make_relation(RelTag::kR, 5000, DistributionSpec::SmallDomain(256));
  const auto s = make_relation(RelTag::kS, 5000, DistributionSpec::SmallDomain(256));
  const auto expected = serial_hash_join(r, s);
  const auto outcome = grace_join(r, s, /*budget=*/64 * kMiB, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  EXPECT_EQ(outcome.spilled_build_tuples, 0u);
  EXPECT_EQ(fx.disk.bytes_written(), 0u);
}

TEST(GraceJoinTest, SpillsAndStillMatchesOracle) {
  GraceFixture fx;
  const auto r = make_relation(RelTag::kR, 20000, DistributionSpec::SmallDomain(512));
  const auto s = make_relation(RelTag::kS, 20000, DistributionSpec::SmallDomain(512));
  const auto expected = serial_hash_join(r, s);
  // Budget for ~4000 tuples: most partitions must spill.
  const std::uint64_t budget = 4000 * tuple_footprint(r.schema());
  const auto outcome = grace_join(r, s, budget, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  EXPECT_GT(outcome.spilled_build_tuples, 0u);
  EXPECT_GT(outcome.spilled_probe_tuples, 0u);
  EXPECT_GT(fx.disk.bytes_written(), 0u);
  EXPECT_GT(outcome.seconds, 0.0);
}

TEST(GraceJoinTest, MultiPassWhenPartitionExceedsBudget) {
  GraceFixture fx;
  // All keys in one tiny band -> one partition holds everything.
  const auto r = make_relation(RelTag::kR, 8000, DistributionSpec::Gaussian(0.5, 1e-7));
  const auto s = make_relation(RelTag::kS, 8000, DistributionSpec::Gaussian(0.5, 1e-7));
  const auto expected = serial_hash_join(r, s);
  const std::uint64_t budget = 1000 * tuple_footprint(r.schema());
  const auto outcome = grace_join(r, s, budget, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  // The hot partition is ~8x the budget: S must be rescanned several times.
  EXPECT_GT(fx.disk.bytes_read(),
            outcome.spilled_build_tuples * 100 +
                2 * outcome.spilled_probe_tuples * 100);
}

TEST(GraceJoinTest, SmallerBudgetNeverCheaper) {
  const auto r = make_relation(RelTag::kR, 10000, DistributionSpec::Uniform());
  const auto s = make_relation(RelTag::kS, 10000, DistributionSpec::Uniform());
  double prev = -1.0;
  for (const std::uint64_t tuples : {16000u, 4000u, 1000u}) {
    GraceFixture fx;
    const auto outcome = grace_join(
        r, s, tuples * tuple_footprint(r.schema()), 16, fx.disk, fx.cost);
    EXPECT_GE(outcome.seconds, prev);
    prev = outcome.seconds;
  }
}

TEST(HybridHashSpillerTest, EvictsLargestPartitionFirst) {
  GraceFixture fx;
  const Schema schema{100};
  HybridHashSpiller spiller(schema, PosRange{0, kPositionCount},
                            200 * tuple_footprint(schema), 4, fx.disk,
                            fx.cost, 1);
  // Load partition 0 (positions near 0) much heavier than the rest.
  SplitMix64 rng(3);
  TupleBatch heavy;
  for (int i = 0; i < 150; ++i) {
    heavy.append(static_cast<std::uint64_t>(i),
                 rng.next_below(kPositionCount / 8) << (64 - kPositionBits));
  }
  spiller.add_build(heavy);
  TupleBatch light;
  for (int i = 0; i < 100; ++i) {
    light.append(1000 + static_cast<std::uint64_t>(i),
                 (kPositionCount / 2 + rng.next_below(100))
                     << (64 - kPositionBits));
  }
  spiller.add_build(light);
  ASSERT_GT(spiller.spilled_partitions(), 0u);
  // The heavy first partition must be on disk.
  EXPECT_GT(spiller.spilled_build_tuples(), 100u);
}

TEST(HybridHashSpillerTest, BuildTupleConservation) {
  GraceFixture fx;
  const Schema schema{100};
  HybridHashSpiller spiller(schema, PosRange{0, kPositionCount},
                            500 * tuple_footprint(schema), 8, fx.disk,
                            fx.cost, 1);
  SplitMix64 rng(4);
  const std::uint64_t n = 5000;
  TupleBatch batch;
  for (std::uint64_t i = 0; i < n; ++i) batch.append(i, rng.next_u64());
  spiller.add_build(batch);
  EXPECT_EQ(spiller.build_tuples(), n);
  // In-memory + spilled must cover every build tuple.
  const std::uint64_t in_memory =
      spiller.memory_footprint() / tuple_footprint(schema);
  EXPECT_EQ(in_memory + spiller.spilled_build_tuples(), n);
}

// ------------------------------------------- batched spiller vs reference

/// The tuple-at-a-time dynamic hybrid hash the batched HybridHashSpiller
/// must reproduce: one scalar insert/probe per row, the eviction check
/// after every in-memory insert, and a phase 3 that builds a hash multimap
/// per R fragment and rescans S_k per pass.  Partition layout and spill
/// stream ids match the spiller's, so both models drive their own SimDisk
/// through the same write/read sequence.
class ReferenceSpiller {
 public:
  ReferenceSpiller(Schema schema, PosRange range, std::uint64_t budget,
                   std::size_t fanout, SimDisk& disk, const CostModel& cost,
                   std::uint64_t stream_namespace, SpillPolicy policy)
      : schema_(schema), budget_(budget), policy_(policy), cost_(cost),
        table_(schema, range) {
    const std::size_t parts = static_cast<std::size_t>(
        std::min<std::uint64_t>(fanout, range.width()));
    for (std::size_t k = 0; k < parts; ++k) {
      Partition part;
      part.range = PosRange{range.lo + range.width() * k / parts,
                            range.lo + range.width() * (k + 1) / parts};
      const std::uint64_t base = (stream_namespace << 6) | (k << 1);
      part.r_file = std::make_unique<SpillFile>(disk, base);
      part.s_file = std::make_unique<SpillFile>(disk, base | 1);
      partitions_.push_back(std::move(part));
    }
  }

  double add_build(const Tuple& t) {
    ++build_tuples;
    Partition& part = partitions_[partition_of(t.key)];
    if (part.spilled) {
      part.r_tuples.push_back(t);
      part.r_file->note_records(1);
      return cost_.tuple_pack_sec + part.r_file->append(schema_.tuple_bytes);
    }
    table_.insert(t);
    ++part.mem_tuples;
    double seconds = cost_.tuple_insert_sec;
    if (table_.footprint_bytes() > budget_ &&
        policy_ == SpillPolicy::kEvictAll) {
      for (std::size_t k = 0; k < partitions_.size(); ++k) {
        if (!partitions_[k].spilled) seconds += evict(k);
      }
      return seconds;
    }
    while (table_.footprint_bytes() > budget_) {
      std::size_t victim = partitions_.size();
      for (std::size_t k = 0; k < partitions_.size(); ++k) {
        if (partitions_[k].spilled) continue;
        if (victim == partitions_.size() ||
            partitions_[k].mem_tuples > partitions_[victim].mem_tuples) {
          victim = k;
        }
      }
      seconds += evict(victim);
    }
    return seconds;
  }

  double add_probe(const Tuple& t, JoinResult& acc, std::vector<Tuple>* sink) {
    Partition& part = partitions_[partition_of(t.key)];
    if (part.spilled) {
      part.s_tuples.push_back(t);
      part.s_file->note_records(1);
      return cost_.tuple_pack_sec + part.s_file->append(schema_.tuple_bytes);
    }
    const auto probe = table_.probe(t, sink);
    acc.matches += probe.matches;
    acc.checksum += probe.checksum_delta;
    return cost_.tuple_probe_sec +
           static_cast<double>(probe.comparisons) * cost_.tuple_compare_sec +
           static_cast<double>(probe.matches) * cost_.match_emit_sec;
  }

  double finish(JoinResult& acc, std::vector<Tuple>* sink) {
    double seconds = 0.0;
    for (Partition& part : partitions_) {
      if (!part.spilled) continue;
      seconds += part.r_file->flush() + part.s_file->flush();
      if (part.r_tuples.empty() || part.s_tuples.empty()) {
        seconds += part.r_file->scan_all() + part.s_file->scan_all();
        continue;
      }
      const std::size_t n = part.r_tuples.size();
      const std::size_t passes = static_cast<std::size_t>(
          ceil_div(n * tuple_footprint(schema_), budget_));
      for (std::size_t f = 0; f < passes; ++f) {
        const std::size_t begin = n * f / passes;
        const std::size_t end = n * (f + 1) / passes;
        seconds += part.r_file->scan((end - begin) * schema_.tuple_bytes);
        seconds += static_cast<double>(end - begin) * cost_.tuple_insert_sec;
        std::unordered_multimap<std::uint64_t, std::uint64_t> fragment;
        for (std::size_t i = begin; i < end; ++i) {
          fragment.emplace(part.r_tuples[i].key, part.r_tuples[i].id);
        }
        seconds +=
            part.s_file->scan(part.s_tuples.size() * schema_.tuple_bytes);
        for (const Tuple& s : part.s_tuples) {
          seconds += cost_.tuple_probe_sec;
          const auto [lo, hi] = fragment.equal_range(s.key);
          for (auto it = lo; it != hi; ++it) {
            seconds += cost_.tuple_compare_sec + cost_.match_emit_sec;
            ++acc.matches;
            acc.checksum += match_signature(it->second, s.id);
            if (sink) sink->push_back(Tuple{it->second, s.id});
          }
        }
      }
    }
    return seconds;
  }

  std::uint64_t spilled_build_tuples() const {
    std::uint64_t n = 0;
    for (const Partition& p : partitions_) n += p.r_tuples.size();
    return n;
  }
  std::uint64_t spilled_probe_tuples() const {
    std::uint64_t n = 0;
    for (const Partition& p : partitions_) n += p.s_tuples.size();
    return n;
  }
  std::vector<Tuple> spilled_probe_rows() const {
    std::vector<Tuple> rows;
    for (const Partition& p : partitions_) {
      rows.insert(rows.end(), p.s_tuples.begin(), p.s_tuples.end());
    }
    return rows;
  }

  std::uint64_t build_tuples = 0;
  std::vector<std::size_t> evictions;

 private:
  struct Partition {
    PosRange range;
    bool spilled = false;
    std::uint64_t mem_tuples = 0;
    std::unique_ptr<SpillFile> r_file;
    std::unique_ptr<SpillFile> s_file;
    std::vector<Tuple> r_tuples;
    std::vector<Tuple> s_tuples;
  };

  std::size_t partition_of(std::uint64_t key) const {
    const std::uint64_t pos = position_of(key);
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      if (partitions_[k].range.contains(pos)) return k;
    }
    ADD_FAILURE() << "key outside the spiller's range";
    return 0;
  }

  double evict(std::size_t victim) {
    Partition& part = partitions_[victim];
    part.spilled = true;
    evictions.push_back(victim);
    std::vector<Tuple> evicted = table_.extract_range(part.range);
    part.mem_tuples = 0;
    double seconds = static_cast<double>(evicted.size()) * cost_.tuple_pack_sec;
    seconds += part.r_file->append(evicted.size() * schema_.tuple_bytes);
    part.r_file->note_records(evicted.size());
    part.r_tuples.insert(part.r_tuples.end(), evicted.begin(), evicted.end());
    return seconds;
  }

  Schema schema_;
  std::uint64_t budget_;
  SpillPolicy policy_;
  const CostModel& cost_;
  LocalHashTable table_;
  std::vector<Partition> partitions_;
};

enum class KeyShape { kUniform, kGaussian, kSmallDomain, kHotKey, kDrift };

/// `n` rows whose positions lie in `range`, shaped like the workload
/// distributions: uniform over the range, a narrow gaussian band around
/// its middle, or a small domain of repeated keys.  Two more shapes aim at
/// the spilled partitions' key buckets: one hot key on an eighth of the
/// rows (it fills whole runs of a sample's quantiles, so it sits on a
/// splitter), and a drift whose first third lies in the middle 1/64 of the
/// range and the rest alternately in its lowest and top 1/64 (outside the
/// band an early eviction samples, crowding into the edge buckets).
std::vector<Tuple> rows_in(const PosRange& range, KeyShape shape,
                           std::size_t n, std::uint64_t id_base,
                           SplitMix64& rng) {
  constexpr unsigned kLowBits = 64 - kPositionBits;
  const auto key_at = [&](std::uint64_t pos) {
    return (pos << kLowBits) | (rng.next_u64() >> kPositionBits);
  };
  // 64-363 distinct keys, in adjacent pairs (k, k + 1): duplicates on both
  // sides, near-equal keys for the sort, matches bounded by n^2 / 64.
  std::vector<std::uint64_t> domain(64 + rng.next_below(300));
  for (std::size_t i = 0; i < domain.size(); ++i) {
    domain[i] = i % 2 == 1
                    ? domain[i - 1] + 1
                    : key_at(range.lo + rng.next_below(range.width())) & ~1ull;
  }
  const double sigma =
      std::max(1.0, static_cast<double>(range.width()) * 0.002);
  const std::uint64_t hot =
      shape == KeyShape::kHotKey
          ? key_at(range.lo + rng.next_below(range.width()))
          : 0;
  const std::uint64_t band = std::max<std::uint64_t>(1, range.width() / 64);
  std::vector<Tuple> rows;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = 0;
    switch (shape) {
      case KeyShape::kUniform:
        key = key_at(range.lo + rng.next_below(range.width()));
        break;
      case KeyShape::kGaussian: {
        const double at = static_cast<double>(range.lo + range.width() / 2) +
                          rng.next_gaussian() * sigma;
        const double clamped =
            std::clamp(at, static_cast<double>(range.lo),
                       static_cast<double>(range.hi - 1));
        key = key_at(static_cast<std::uint64_t>(clamped));
        break;
      }
      case KeyShape::kSmallDomain:
        key = domain[rng.next_below(domain.size())];
        break;
      case KeyShape::kHotKey:
        key = rng.next_below(8) == 0
                  ? hot
                  : key_at(range.lo + rng.next_below(range.width()));
        break;
      case KeyShape::kDrift: {
        std::uint64_t base = range.lo + range.width() / 2;
        if (i >= n / 3) base = i % 2 == 0 ? range.lo : range.hi - band;
        key = key_at(std::min(base + rng.next_below(band), range.hi - 1));
        break;
      }
    }
    rows.push_back(Tuple{id_base + i, key});
  }
  return rows;
}

/// Batch boundaries over `n` rows: all single rows, random sizes up to a
/// few budgets (straddling overflow points), or the whole stream at once.
std::vector<std::size_t> cuts(std::size_t n, int mode,
                              std::uint64_t budget_rows, SplitMix64& rng) {
  std::vector<std::size_t> ends;
  for (std::size_t at = 0; at < n;) {
    std::size_t size = n - at;
    if (mode == 0) size = 1;
    if (mode == 1) size = 1 + rng.next_below(3 * budget_rows + 2);
    at = std::min(n, at + size);
    ends.push_back(at);
  }
  return ends;
}

void expect_seconds(double batched, double reference, const char* what) {
  EXPECT_LE(std::abs(batched - reference), 1e-9 * std::abs(reference))
      << what << ": batched " << batched << " vs reference " << reference;
}

std::vector<Tuple> canonical(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return a.id != b.id ? a.id < b.id : a.key < b.key;
  });
  return rows;
}

struct DiffCase {
  std::uint64_t seed;
  SpillPolicy policy;
  KeyShape shape;
  std::size_t fanout;
  std::uint64_t budget_rows;
  int batch_mode;     // see cuts()
  int adopt;          // 0: fresh spiller, 1: unsealed table, 2: sealed table
  std::size_t build;  // build rows (the first third go to the adopted table)
  std::size_t probe;
  /// Stop after half the probe rows and drain the spiller with
  /// extract_all instead of finishing.
  bool extract_all = false;
};

void run_differential(const DiffCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << c.seed << " policy " << static_cast<int>(c.policy)
               << " shape " << static_cast<int>(c.shape) << " fanout "
               << c.fanout << " budget_rows " << c.budget_rows << " batches "
               << c.batch_mode << " adopt " << c.adopt);
  SplitMix64 rng(c.seed);
  const Schema schema{100};
  // Mostly a node-sized range (a table costs one Run per position), now
  // and then the whole position space as grace_join() uses it.
  const std::uint64_t lo = rng.next_below(kPositionCount / 2);
  const PosRange range =
      rng.next_below(8) == 0
          ? PosRange{0, kPositionCount}
          : PosRange{lo, lo + 1 + rng.next_below(kPositionCount / 16)};
  // A budget that is not a whole number of rows exercises the floor.
  const std::uint64_t budget = c.budget_rows * tuple_footprint(schema) +
                               rng.next_below(tuple_footprint(schema));
  const CostModel cost;
  SimDisk batched_disk{DiskConfig{}};
  SimDisk reference_disk{DiskConfig{}};
  HybridHashSpiller batched(schema, range, budget, c.fanout, batched_disk, cost,
                            3, c.policy);
  ReferenceSpiller reference(schema, range, budget, c.fanout, reference_disk,
                             cost, 3, c.policy);

  const std::vector<Tuple> build =
      rows_in(range, c.shape, c.build, 0, rng);
  // Probe keys share the build's key shape; half of them reuse build keys
  // so every shape produces matches.
  std::vector<Tuple> probe = rows_in(range, c.shape, c.probe, 1u << 30, rng);
  for (std::size_t i = 0; i < probe.size() && !build.empty(); i += 2) {
    probe[i].key = build[rng.next_below(build.size())].key;
  }
  if (c.extract_all) probe.resize(probe.size() / 2);

  std::size_t first = 0;
  if (c.adopt != 0) {
    // Spill entry: the batched spiller adopts a table, the reference
    // extracts the same table's rows and re-adds them one at a time.
    first = build.size() / 3;
    LocalHashTable for_batched(schema, range);
    LocalHashTable for_reference(schema, range);
    const TupleBatch entered = TupleBatch::from_tuples(
        std::vector<Tuple>(build.begin(), build.begin() + first));
    for_batched.insert_batch(entered);
    for_reference.insert_batch(entered);
    if (c.adopt == 2) {
      for_batched.seal();
      for_reference.seal();
    }
    double expected = 0.0;
    for (const Tuple& t : for_reference.extract_range(range)) {
      expected += reference.add_build(t);
    }
    expect_seconds(batched.adopt(std::move(for_batched)), expected, "adopt");
  }

  const auto feed = [&](const std::vector<Tuple>& rows, std::size_t begin,
                        auto&& add_batched, auto&& add_reference) {
    std::size_t at = begin;
    for (const std::size_t end :
         cuts(rows.size() - begin, c.batch_mode, c.budget_rows, rng)) {
      const std::vector<Tuple> slice(
          rows.begin() + static_cast<std::ptrdiff_t>(at),
          rows.begin() + static_cast<std::ptrdiff_t>(begin + end));
      double expected = 0.0;
      for (const Tuple& t : slice) expected += add_reference(t);
      expect_seconds(add_batched(TupleBatch::from_tuples(slice)), expected,
                     "batch");
      at = begin + end;
    }
  };
  feed(build, first,
       [&](const TupleBatch& b) { return batched.add_build(b); },
       [&](const Tuple& t) { return reference.add_build(t); });

  JoinResult batched_result;
  JoinResult reference_result;
  std::vector<Tuple> batched_sink;
  std::vector<Tuple> reference_sink;
  feed(probe, 0,
       [&](const TupleBatch& b) {
         return batched.add_probe(b, batched_result, &batched_sink);
       },
       [&](const Tuple& t) {
         return reference.add_probe(t, reference_result, &reference_sink);
       });
  EXPECT_EQ(batched.evictions(), reference.evictions);
  EXPECT_EQ(batched.build_tuples(), reference.build_tuples);
  EXPECT_EQ(batched.spilled_build_tuples(), reference.spilled_build_tuples());
  EXPECT_EQ(batched.spilled_probe_tuples(), reference.spilled_probe_tuples());

  if (c.extract_all) {
    // Every build row fed, and every probe row deferred to phase 3, comes
    // back once; the spiller is left empty.
    std::vector<Tuple> build_out;
    std::vector<Tuple> probe_out;
    batched.extract_all(build_out, probe_out);
    EXPECT_EQ(canonical(build_out), canonical(build));
    EXPECT_EQ(canonical(probe_out), canonical(reference.spilled_probe_rows()));
    EXPECT_EQ(batched_result, reference_result);
    EXPECT_EQ(batched.spilled_build_tuples(), 0u);
    EXPECT_EQ(batched.spilled_probe_tuples(), 0u);
    EXPECT_EQ(batched.memory_footprint(), 0u);
    return;
  }

  expect_seconds(batched.finish(batched_result, &batched_sink),
                 reference.finish(reference_result, &reference_sink),
                 "finish");
  EXPECT_EQ(batched_result, reference_result);
  EXPECT_EQ(batched_result.matches, batched_sink.size());
  EXPECT_EQ(canonical(batched_sink), canonical(reference_sink));
  EXPECT_EQ(batched_disk.bytes_written(), reference_disk.bytes_written());
  EXPECT_EQ(batched_disk.bytes_read(), reference_disk.bytes_read());
  EXPECT_EQ(batched_disk.seeks(), reference_disk.seeks());
}

TEST(SpillerDifferentialTest, RandomCasesMatchTupleAtATimeReference) {
  SplitMix64 rng(20260);
  const std::size_t fanouts[] = {1, 2, 3, 5, 16, 64};
  for (std::uint64_t i = 0; i < 240; ++i) {
    DiffCase c;
    c.seed = rng.next_u64();
    c.policy = i % 2 == 0 ? SpillPolicy::kEvictLargest : SpillPolicy::kEvictAll;
    c.shape = static_cast<KeyShape>(i / 2 % 3);
    c.fanout = fanouts[rng.next_below(6)];
    c.budget_rows = 1 + rng.next_below(2000);
    c.batch_mode = static_cast<int>(i / 6 % 3);
    c.adopt = static_cast<int>(i / 18 % 3);
    // At most ~30 budgets of build rows keeps the reference's phase 3 (one
    // S_k rescan per pass) small.
    c.build = rng.next_below(
        std::min<std::uint64_t>(5000, 30 * c.budget_rows + 60));
    c.probe = rng.next_below(5000);
    run_differential(c);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SpillerDifferentialTest, MultiPassPhase3WithDuplicateKeys) {
  // A tiny budget under a small key domain: one partition's R side is many
  // budgets long, so the modeled phase 3 makes several passes, and every
  // key repeats on both sides.
  for (const SpillPolicy policy :
       {SpillPolicy::kEvictLargest, SpillPolicy::kEvictAll}) {
    for (const int adopt : {0, 1, 2}) {
      run_differential(DiffCase{static_cast<std::uint64_t>(41 + adopt), policy,
                                KeyShape::kSmallDomain, 4, 40, 1, adopt, 4000,
                                3000});
      run_differential(DiffCase{static_cast<std::uint64_t>(51 + adopt), policy,
                                KeyShape::kGaussian, 16, 100, 2, adopt, 6000,
                                6000});
    }
  }
}

TEST(SpillerDifferentialTest, PartitionsLongerThanOneSortBufferAgree) {
  // Spilled sides of tens of thousands of rows: phase 3 sorts them with
  // in-place distribution passes before the cache-sized buffer takes over.
  for (const KeyShape shape : {KeyShape::kUniform, KeyShape::kGaussian}) {
    run_differential(DiffCase{61, SpillPolicy::kEvictLargest, shape, 1, 4000,
                              1, 1, 40000, 40000});
  }
  run_differential(DiffCase{62, SpillPolicy::kEvictAll,
                            KeyShape::kSmallDomain, 2, 4000, 2, 0, 40000,
                            1000});
}

TEST(SpillerDifferentialTest, KeyBucketEdgeCasesAgree) {
  for (const SpillPolicy policy :
       {SpillPolicy::kEvictLargest, SpillPolicy::kEvictAll}) {
    // One hot key on a splitter, duplicated on both sides: evictions of
    // thousands of rows, so the splitters are sampled.
    for (const int adopt : {0, 1}) {
      run_differential(DiffCase{static_cast<std::uint64_t>(71 + adopt), policy,
                                KeyShape::kHotKey, 2, 3000, 1, adopt, 12000,
                                4000});
    }
    // Later rows outside the first eviction's sampled band: one partition,
    // so they crowd into the edge buckets (over a sort buffer's worth).
    run_differential(DiffCase{73, policy, KeyShape::kDrift, 1, 2000, 1, 0,
                              60000, 60000});
    // Evictions too small to sample, or empty (evict-everything with most
    // partitions untouched): equal-width splitters.
    run_differential(DiffCase{74, policy, KeyShape::kGaussian, 16, 30, 1, 1,
                              5000, 5000});
    run_differential(DiffCase{75, policy, KeyShape::kDrift, 4, 1000, 2, 0,
                              20000, 6000});
    run_differential(DiffCase{76, policy, KeyShape::kUniform, 64, 500, 1, 0,
                              8000, 8000});
  }
}

TEST(SpillerDifferentialTest, ExtractAllMidStreamReturnsEveryRow) {
  for (const SpillPolicy policy :
       {SpillPolicy::kEvictLargest, SpillPolicy::kEvictAll}) {
    for (const KeyShape shape :
         {KeyShape::kUniform, KeyShape::kHotKey, KeyShape::kDrift}) {
      for (const int adopt : {0, 2}) {
        DiffCase c{static_cast<std::uint64_t>(81 + adopt), policy, shape, 8,
                   400, 1, adopt, 6000, 4000};
        c.extract_all = true;
        run_differential(c);
      }
    }
  }
}

TEST(SpillerDifferentialTest, SingleRowBatchesAndWholeStreamAgree) {
  for (const int mode : {0, 1, 2}) {
    run_differential(DiffCase{7, SpillPolicy::kEvictLargest,
                              KeyShape::kUniform, 8, 300, mode, 1, 3000,
                              3000});
  }
}

}  // namespace
}  // namespace ehja
