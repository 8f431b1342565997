// A join process's local hash-table partition.
//
// Covers one contiguous position range.  The *position* (high key bits) is
// the unit of partitioning, migration and reshuffling; within a position,
// tuples are kept in join-attribute order so that probing costs what a
// well-dimensioned 2004 hash table cost -- a handful of key comparisons --
// rather than a linear walk over everything sharing the position.  (Under
// the paper's extreme-skew workloads a position can hold tens of thousands
// of distinct keys; a real implementation re-hashes them locally, and so
// must the model, or probe CPU would dwarf every effect the paper measures.)
//
// Storage is one position-clustered sorted run: a flat row array in which
// every owned position's rows sit contiguously, ordered by join attribute
// (equal keys keep their insertion order), plus one 8-byte Run {start,
// count} per owned position.  Inserts only append rows to an unsealed tail
// of fixed-size blocks (no reallocation copies while a table grows) and
// bump the position's count.  The first probe or extract_range after new
// inserts *seals* the table: a stable counting sort on position moves the
// tail rows into their position's run and each touched run is re-sorted by
// key.  seal() is also public: a hybrid replica-set member seals as soon as
// its reshuffle histogram reply has been sent (JoinProcessActor::
// handle_histogram_request), so the whole-table sort overlaps the
// scheduler's plan round instead of delaying the first extract_range.
// Sealing early or late yields the same rows in the same order.  A probe
// then reads its position's run and scans the contiguous stretch of equal
// keys (long skewed runs are searched from an interpolated guess);
// extract_range copies each run of the sub-range out (extract_unordered
// skips the seal and the order); histogram(),
// count_range() and set_range() read the counts and never seal.  Rows
// removed by extract_range leave holes that the next seal drops; once holes
// outnumber live rows the table compacts at once.
//
// ProbeResult::comparisons reports what the modeled 2004 structure pays --
// a binary search over the position's rows plus one comparison per match --
// which the caller charges to the cost model; how the run is scanned is the
// lookup mechanism, not the cost model.
//
// The batch interface (insert_batch / probe_batch) consumes columnar
// TupleBatches: positions come from the batch's precomputed hash column and
// the loops prefetch the Run and row cache lines a few rows ahead, which is
// where the bulk path's throughput over tuple-at-a-time calls comes from.
// Results are bit-identical to the scalar calls (tests/test_hash.cpp fuzzes
// the equivalence).
//
// The memory *footprint* is byte-accurate against the declared schema
// (payload included plus per-entry overhead) even though payload bytes are
// not materialized; the owning join process compares footprint_bytes()
// against its node's budget to detect bucket overflow.
//
// Range surgery -- extract_range() for reshuffle and recovery,
// extract_unordered() for split migration and spill eviction, set_range()
// after a reshuffle -- returns the removed tuples so the caller can
// re-chunk and ship them, keeping accounting exact.  extract_range's
// tuples come out in position order and, within a position, in key order
// (equal keys in insertion order).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hash/hash_family.hpp"
#include "relation/tuple.hpp"
#include "relation/tuple_batch.hpp"
#include "util/histogram.hpp"

namespace ehja {

class LocalHashTable {
 public:
  LocalHashTable(Schema schema, PosRange range);

  const PosRange& range() const { return range_; }
  const Schema& schema() const { return schema_; }
  std::uint64_t tuple_count() const { return tuple_count_; }
  std::uint64_t footprint_bytes() const { return footprint_bytes_; }
  bool empty() const { return tuple_count_ == 0; }

  /// Insert a build tuple whose position must lie inside range().
  void insert(const Tuple& t);

  /// Bulk insert of a whole batch (positions come from the batch's
  /// precomputed hash column; every one must lie inside range()).
  void insert_batch(const TupleBatch& batch);

  struct ProbeResult {
    std::uint64_t matches = 0;         // matches found for this tuple
    std::uint64_t comparisons = 0;     // key comparisons performed (cost)
    std::uint64_t checksum_delta = 0;  // sum of match signatures
  };

  /// Aggregate over a whole batch; each field is exactly the sum of the
  /// per-tuple ProbeResults the scalar path would have produced.
  struct BatchProbeResult {
    std::uint64_t probed = 0;
    std::uint64_t matches = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t checksum_delta = 0;
  };

  /// Probe with one tuple of the second relation.  (Seals pending inserts,
  /// hence non-const.)  When `sink` is non-null every match appends one
  /// Tuple{build_row_id, probe_row_id} -- exactly one append per
  /// checksum_delta contribution, so the captured multiset always equals
  /// the counted result.
  ProbeResult probe(const Tuple& s, std::vector<Tuple>* sink = nullptr);

  /// Bulk probe with every tuple of `batch` (same sink contract as probe).
  BatchProbeResult probe_batch(const TupleBatch& batch,
                               std::vector<Tuple>* sink = nullptr);

  /// Remove and return every tuple whose position lies in `sub` (must be
  /// inside range()); footprint shrinks accordingly.
  std::vector<Tuple> extract_range(const PosRange& sub);

  /// extract_range without the order: the rows come out in no particular
  /// order and the table is not sealed first (the sub-range's unsealed rows
  /// are filtered out of the tail).  For callers whose rows are re-ordered
  /// anyway -- spill eviction buckets them by key, split migration
  /// re-inserts them at the receiver.
  std::vector<Tuple> extract_unordered(const PosRange& sub);

  /// Rows whose position lies in `sub` (must be inside range()); reads the
  /// run counts and never seals.
  std::uint64_t count_range(const PosRange& sub) const;

  /// Shrink/slide the owned range after a reshuffle; every retained tuple
  /// must lie inside the new range (checked).
  void set_range(const PosRange& next);

  /// Per-position entry counts binned for the reshuffle global sum.
  BinnedHistogram histogram(std::size_t bins) const;

  /// Fold the unsealed tail into the sorted runs (no-op when there is none).
  /// probe and extract_range seal on demand; a caller that knows a probe or
  /// extraction is coming can seal earlier, off its critical path.
  void seal() {
    if (tail_rows_ != 0) rebuild();
  }

  /// Drop everything (phase-3 out-of-core joins reuse the node's budget).
  void clear();

 private:
  /// One stored tuple.  The no-op default constructor keeps the tail blocks
  /// and the seal's output array from being zero-filled before they are
  /// overwritten.
  struct Row {
    std::uint64_t id;
    std::uint64_t key;

    Row() {}  // intentionally uninitialized
    Row(std::uint64_t id_, std::uint64_t key_) : id(id_), key(key_) {}
  };

  /// A position's rows: [start, start + count) of the sealed section.
  /// `count` also covers the position's unsealed tail rows, so it is
  /// always the position's live row count.
  struct Run {
    std::uint32_t start = 0;
    std::uint32_t count = 0;
  };

  Run& run(std::uint64_t pos) {
    return runs_[static_cast<std::size_t>(pos - range_.lo)];
  }
  const Run& run(std::uint64_t pos) const {
    return runs_[static_cast<std::size_t>(pos - range_.lo)];
  }

  /// Rows per tail block (512 KiB).
  static constexpr std::size_t kBlockRows = std::size_t{1} << 15;

  /// Room for `n` more tail rows at tail_rows_ within the current block
  /// (allocating a block when the current one is full); returns the slot
  /// pointer and the number of rows that fit (<= n).
  std::pair<Row*, std::size_t> tail_slots(std::size_t n);
  /// Lay every live row out again in position-then-key order, dropping the
  /// holes left by extract_range and emptying the tail.
  void rebuild();
  /// First of the `n` key-sorted rows at `first` whose key is >= `key`.
  static const Row* seek(const Row* first, std::uint32_t n,
                         std::uint64_t key);
  void probe_run(const Run& r, std::uint64_t key, std::uint64_t id,
                 std::vector<Tuple>* sink, BatchProbeResult& agg) const;

  Schema schema_;
  PosRange range_;
  std::uint64_t tuple_count_ = 0;
  std::uint64_t footprint_bytes_ = 0;
  std::vector<Row> rows_;  // the sealed runs, in position order
  std::vector<Run> runs_;  // one per owned position
  std::vector<std::unique_ptr<Row[]>> tail_;  // unsealed rows, in order
  std::size_t tail_rows_ = 0;
  std::uint64_t holes_ = 0;  // extracted rows still inside rows_
};

}  // namespace ehja
