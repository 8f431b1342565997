// Lock-free concurrent counterpart of LocalHashTable.
//
// A flat entry slab, per-position chain heads, and an open-addressing key
// index over the join attribute (the scalar table's design before it became
// a sorted run), where every shared word the parallel build/probe fan-out
// touches is an atomic:
//
//   * chain heads pack {count:32 | head:32} into one 64-bit word, so a
//     CAS push updates the head pointer and the chain length together
//     (the length feeds the modeled binary-search comparison count, which
//     must stay exactly what LocalHashTable would report);
//   * the slab is claimed in contiguous segments via a fetch_add cursor --
//     capacity is grown only between fork-join regions (reserve_rows), so
//     the hot path never reallocates under concurrency;
//   * index slots are CAS-published Treiber-style: an empty slot is claimed
//     with a release CAS, a same-key slot is replaced by linking the new
//     entry's key_next to the current head and CASing the slot over.
//
// Two build disciplines (IntraMode, hash/intra_mode.hpp): kShared CAS-pushes
// from every lane directly; kMerge scatters rows into per-thread scratch
// keyed by position sub-range, then each lane exclusively merges one
// sub-range with plain stores -- which reproduces the serial insert order
// bit for bit at any thread count.  extract_range emits each position in
// LocalHashTable's order (key order, equal keys in insertion order), so in
// merge mode its output equals the scalar table's exactly.  Either way the
// join-visible results -- matches, comparisons, checksum, footprint,
// histograms -- are identical to LocalHashTable for the same content
// (tests/test_concurrent_hash.cpp fuzzes this).
//
// Concurrency contract: insert_rows / probe_rows / scatter_rows /
// merge_subrange may run from many threads at once; everything else
// (reserve_rows, ensure_index, range surgery, accessors) is serial-only and
// must be separated from in-flight parallel calls by a synchronization
// point (IntraPool::run's join provides it on the actor path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hash/hash_family.hpp"
#include "hash/intra_mode.hpp"
#include "hash/local_hash_table.hpp"
#include "relation/tuple.hpp"
#include "relation/tuple_batch.hpp"
#include "util/histogram.hpp"

namespace ehja {

class ConcurrentKeyIndex {
 public:
  using ProbeResult = LocalHashTable::ProbeResult;
  using BatchProbeResult = LocalHashTable::BatchProbeResult;

  ConcurrentKeyIndex(Schema schema, PosRange range);

  const PosRange& range() const { return range_; }
  const Schema& schema() const { return schema_; }
  std::uint64_t tuple_count() const {
    return tuple_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t footprint_bytes() const {
    return footprint_bytes_.load(std::memory_order_relaxed);
  }
  bool empty() const { return tuple_count() == 0; }

  // --- serial API (LocalHashTable-compatible) ---

  void insert(const Tuple& t);
  void insert_batch(const TupleBatch& batch);
  ProbeResult probe(const Tuple& s, std::vector<Tuple>* sink = nullptr);
  BatchProbeResult probe_batch(const TupleBatch& batch,
                               std::vector<Tuple>* sink = nullptr);
  std::vector<Tuple> extract_range(const PosRange& sub);
  void set_range(const PosRange& next);
  BinnedHistogram histogram(std::size_t bins) const;
  void clear();

  // --- parallel protocol (shared mode) ---

  /// Serial: guarantee slab and index capacity for `n` further rows so the
  /// concurrent calls below never reallocate.
  void reserve_rows(std::size_t n);
  /// Thread-safe: insert rows [begin, end) of `batch` (shared CAS path).
  /// Capacity for them must have been reserved.
  void insert_rows(const TupleBatch& batch, std::size_t begin,
                   std::size_t end);
  /// Thread-safe after ensure_index(): probe rows [begin, end) of `batch`.
  /// A non-null `sink` (one vector per calling lane) receives one
  /// Tuple{build_row_id, probe_row_id} per match, mirroring checksum_delta.
  BatchProbeResult probe_rows(const TupleBatch& batch, std::size_t begin,
                              std::size_t end,
                              std::vector<Tuple>* sink = nullptr) const;
  /// Serial: build the key index if absent (probe_rows requires it unless
  /// the table is empty).
  void ensure_index();

  // --- parallel protocol (merge mode) ---

  /// Serial: reserve capacity, claim the batch's slab segment, size the
  /// per-thread scratch.
  void begin_merge(const TupleBatch& batch, unsigned threads);
  /// Thread-safe: partition lane `t`'s slice of `batch` into scratch by
  /// position sub-range.
  void scatter_rows(const TupleBatch& batch, unsigned t, unsigned threads);
  /// Thread-safe: drain every lane's scratch for sub-range `sub` into the
  /// shared chains (exclusive owner of those positions; plain stores).
  void merge_subrange(const TupleBatch& batch, unsigned sub,
                      unsigned threads);
  /// Serial: commit counters and invalidate the key index (rebuilt lazily
  /// at the next probe).
  void finish_merge(const TupleBatch& batch);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    std::uint64_t id;
    std::uint64_t key;
    std::uint32_t chain_next;
    std::uint32_t key_next;
  };

  static constexpr std::uint64_t pack(std::uint32_t head,
                                      std::uint32_t count) {
    return (static_cast<std::uint64_t>(count) << 32) | head;
  }
  static constexpr std::uint32_t head_of(std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  }
  static constexpr std::uint32_t count_of(std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> 32);
  }
  // pack(kNil, 0), spelled out: an in-class constexpr member cannot call
  // pack() before the class is complete.
  static constexpr std::uint64_t kEmptyChain =
      static_cast<std::uint64_t>(kNil);

  std::size_t chain_slot(std::uint64_t pos) const {
    return static_cast<std::size_t>(pos - range_.lo);
  }
  /// Contiguous position sub-range owned by merge lane `sub` of `threads`.
  std::size_t subrange_of(std::uint64_t pos, unsigned threads) const {
    return static_cast<std::size_t>((pos - range_.lo) * threads /
                                    range_.width());
  }

  void validate_positions(const TupleBatch& batch, std::size_t begin,
                          std::size_t end) const;
  /// CAS-publish entry `e` into the key index (thread-safe; capacity must
  /// already cover it).
  void index_publish(std::uint32_t e);
  std::uint32_t index_find(std::uint64_t key) const;
  /// Serial: (re)build the index sized for at least `min_keys` keys.
  void rebuild_index(std::uint64_t min_keys);

  Schema schema_;
  PosRange range_;

  std::atomic<std::uint64_t> tuple_count_{0};
  std::atomic<std::uint64_t> footprint_bytes_{0};

  // Entry slab: fixed-capacity segment store, cursor-claimed.  Grown only
  // by reserve_rows / begin_merge (serial contexts).
  std::unique_ptr<Entry[]> slab_;
  std::size_t slab_capacity_ = 0;
  std::atomic<std::uint32_t> slab_used_{0};

  // One packed {count|head} word per owned position.
  std::unique_ptr<std::atomic<std::uint64_t>[]> chains_;

  // Open-addressing key index: slot -> head entry of a same-key list.
  std::unique_ptr<std::atomic<std::uint32_t>[]> index_slots_;
  std::size_t index_slot_count_ = 0;
  std::size_t index_mask_ = 0;
  std::atomic<std::uint64_t> index_keys_{0};
  std::atomic<bool> index_built_{false};

  // Merge-mode scratch: scratch_[source_lane][target_sub] = row indices.
  std::vector<std::vector<std::vector<std::uint32_t>>> scratch_;
  std::uint32_t merge_base_ = 0;
};

}  // namespace ehja
