// Dynamic hybrid-hash / GRACE out-of-core join machinery.
//
// HybridHashSpiller manages one node's position range when the hash table
// cannot be guaranteed to fit: the range is pre-cut into `fanout` equal
// sub-partitions; tuples build in memory until the budget is exceeded, then
// whole sub-partitions are evicted to simulated disk, largest first.  Build
// tuples for spilled sub-partitions go straight to their R spill file, probe
// tuples likewise to the S spill file; in-memory sub-partitions are probed
// immediately (the classic dynamic hybrid-hash discipline).  finish() joins
// each spilled (R_k, S_k) pair, multi-pass when R_k alone exceeds the
// budget (each extra pass rescans S_k, which is what makes the OOC baseline
// collapse at small initial node counts -- paper Fig. 2).
//
// Batch API.  add_build / add_probe take columnar TupleBatches and route
// each row to its sub-partition by the batch's precomputed position column.
// Rows of in-memory sub-partitions go through LocalHashTable::insert_batch /
// probe_batch; rows of spilled ones are appended to their partition, one
// run of same-partition rows at a time and in row order (so spill-file
// buffer flushes, and the seeks between streams, hit the disk model in the
// order a tuple-at-a-time loop would produce).  A
// build batch is cut at every overflow point: the rows before it are
// inserted, the victims are evicted, and routing resumes with the next row,
// so every eviction happens exactly where the row-by-row discipline would
// have put it.
//
// Spill entry.  adopt() takes over a join process's LocalHashTable instead
// of extracting its rows and re-adding them.  The sub-partition counts come
// from the table's run counts (no seal), and the evictions a re-add in
// position order would trigger are replayed from those counts alone: rows
// would enter sub-partition by sub-partition, and the table overflows every
// budget / tuple_footprint rows.  Each evicted sub-partition then costs one
// LocalHashTable::extract_unordered (no seal: the rows are bucketed by key
// on their way to disk); the rows that stay in memory are never copied.
//
// Spilled storage.  A spilled partition keeps each side's rows (its "disk
// contents") in kBuckets key buckets.  Both sides share one array of
// splitters, chosen once when the partition is evicted: equal-depth
// quantiles of a strided sample of the evicted rows, or equal-width bounds
// over the partition's key span when the eviction is too small to sample.
// A row's bucket is the number of splitters at or below its key -- a
// monotone function of the key, found by a branchless search -- so equal
// keys of R and S always share a bucket; how well the splitters balance the
// buckets only affects speed, never the result.
//
// Phase 3.  finish() *models* the multi-pass join: per pass, read one R
// fragment, build over it, rescan all of S_k -- those disk reads and CPU
// charges are what the simulator's timelines see.  The *mechanism* joins
// each pair bucket pair by bucket pair: both buckets are sorted by key and
// merged, which yields exactly the matches the modeled passes would.  A
// bucket pair usually fits in cache; the sort (KeySort) is kept for the
// oversized buckets a hot key or rows outside the sampled key band make.
// It shares no code with the serial_hash_join / sort_merge_join oracles.
//
// Modeled seconds, evictions, spilled counts, matches, checksum and the
// captured-row multiset equal those of a tuple-at-a-time spiller (one
// scalar insert or probe and one overflow check per row), which
// tests/test_join.cpp keeps as the differential reference; only the
// floating-point summation order differs.
//
// All methods return the virtual seconds consumed (CPU per the cost model +
// disk per SimDisk); the caller charges them to its node.  This component
// serves two masters: the paper's "Out of Core" baseline algorithm, and any
// EHJA node that must degrade gracefully once the potential-node pool is
// exhausted.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cost_model.hpp"
#include "hash/local_hash_table.hpp"
#include "join/serial_join.hpp"
#include "relation/tuple_batch.hpp"
#include "storage/sim_disk.hpp"
#include "storage/spill_file.hpp"

namespace ehja {

/// What to do when the build side exceeds the budget.
enum class SpillPolicy {
  /// Evict one sub-partition at a time, largest first, and keep probing the
  /// rest in memory (dynamic hybrid hash).  Used when an EHJA node degrades
  /// after pool exhaustion.
  kEvictLargest,
  /// First overflow sends *everything* to disk -- the basic GRACE
  /// out-of-core join of the paper's ss2, which is what its "Out of Core"
  /// baseline runs: all of R and all of S stream through the disk before
  /// any bucket pair is joined.
  kEvictAll,
};

class HybridHashSpiller {
 public:
  HybridHashSpiller(Schema schema, PosRange range,
                    std::uint64_t memory_budget_bytes, std::size_t fanout,
                    SimDisk& disk, const CostModel& cost,
                    std::uint64_t stream_namespace,
                    SpillPolicy policy = SpillPolicy::kEvictLargest);

  /// Spill entry: take `table` (which must cover range()) as the in-memory
  /// side of this still-empty spiller and evict what re-adding its rows in
  /// position order would evict.  Returns the seconds that re-add costs.
  double adopt(LocalHashTable table);

  /// Route a batch of build-relation rows; may trigger evictions.
  double add_build(const TupleBatch& batch);

  /// Route a batch of probe-relation rows; rows of in-memory partitions are
  /// probed into `acc` immediately, spilled ones are deferred to finish().
  /// A non-null `sink` receives one Tuple{build_row_id, probe_row_id} per
  /// match -- matches emitted here and in finish() together mirror `acc`
  /// exactly, whichever side of a spill transition each match lands on.
  double add_probe(const TupleBatch& batch, JoinResult& acc,
                   std::vector<Tuple>* sink = nullptr);

  /// Join all spilled (R_k, S_k) pairs into `acc`.  Call once, after both
  /// streams end.
  double finish(JoinResult& acc, std::vector<Tuple>* sink = nullptr);

  /// Drain every build tuple (in memory and on disk) and every deferred
  /// spilled probe tuple, leaving the spiller empty; returns the seconds
  /// consumed (disk scans of the spilled partitions).  The recovery
  /// range-reset uses this to rebuild a node's state minus the discarded
  /// ranges; the caller re-adds the survivors to a fresh spiller.
  double extract_all(std::vector<Tuple>& build_out,
                     std::vector<Tuple>& probe_out);

  // --- observability ---
  std::uint64_t build_tuples() const { return build_tuples_; }
  std::uint64_t spilled_build_tuples() const;
  std::uint64_t spilled_probe_tuples() const;
  std::size_t spilled_partitions() const;
  /// Sub-partition indices in the order they were evicted.
  const std::vector<std::size_t>& evictions() const { return evictions_; }
  std::uint64_t memory_footprint() const { return table_.footprint_bytes(); }
  const PosRange& range() const { return table_.range(); }
  bool any_spilled() const { return spilled_partitions() > 0; }

 private:
  static constexpr unsigned kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  /// Sorted bucket bounds: bucket b holds the keys k with
  /// splitters[b - 1] <= k < splitters[b].
  using Splitters = std::array<std::uint64_t, kBuckets - 1>;
  /// One side's "disk contents": kBuckets key buckets once spilled.
  using Buckets = std::vector<std::vector<Tuple>>;

  struct Partition {
    PosRange range;
    bool spilled = false;
    std::uint64_t mem_tuples = 0;  // build tuples currently in memory
    std::unique_ptr<SpillFile> r_file;
    std::unique_ptr<SpillFile> s_file;
    Splitters splitters{};  // chosen by evict(), shared by both sides
    Buckets r;
    Buckets s;
  };

  std::size_t partition_of(std::uint64_t pos) const;
  /// Append rows [begin, end) of `batch` to a spilled partition's R or S
  /// side.
  double spill_rows(const Splitters& splitters, Buckets& side,
                    SpillFile& file, const TupleBatch& batch,
                    std::size_t begin, std::size_t end);
  /// Choose `part`'s splitters from its evicted rows.
  static void choose_splitters(Partition& part,
                               const std::vector<Tuple>& evicted);
  /// The in-memory partition holding the most rows per `rows(k)` (the
  /// lowest index among equals).
  template <typename Rows>
  std::size_t largest_resident(Rows rows) const;
  /// Evict until the table fits the budget again (per the policy).
  double relieve();
  double evict(std::size_t victim);
  double join_partition(Partition& part, JoinResult& acc,
                        std::vector<Tuple>* sink);

  Schema schema_;
  std::uint64_t budget_;
  SpillPolicy policy_;
  const CostModel* cost_;
  SimDisk* disk_;
  LocalHashTable table_;
  std::vector<Partition> partitions_;
  std::vector<std::size_t> evictions_;
  /// Scratch for the rows of a batch that stay in memory.
  TupleBatch resident_;
  std::uint64_t build_tuples_ = 0;
  bool finished_ = false;
};

/// Serial one-node GRACE-style join with full cost accounting; the
/// standalone building block the unit tests exercise and examples use.
struct GraceOutcome {
  JoinResult result;
  double seconds = 0.0;
  std::uint64_t spilled_build_tuples = 0;
  std::uint64_t spilled_probe_tuples = 0;
};

GraceOutcome grace_join(const Relation& build, const Relation& probe,
                        std::uint64_t memory_budget_bytes, std::size_t fanout,
                        SimDisk& disk, const CostModel& cost);

}  // namespace ehja
