#include "hash/concurrent_key_index.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define EHJA_PREFETCH(p) __builtin_prefetch(p)
#define EHJA_PREFETCH_W(p) __builtin_prefetch((p), 1)
#else
#define EHJA_PREFETCH(p) ((void)0)
#define EHJA_PREFETCH_W(p) ((void)0)
#endif

namespace ehja {

namespace {

/// Comparisons a binary search over n sorted keys performs (ceil(log2)+1).
/// Must match LocalHashTable's accounting exactly -- the differential fuzz
/// test holds both tables to the same comparison totals.
std::uint64_t search_comparisons(std::size_t n) {
  std::uint64_t comparisons = 1;
  while (n > 1) {
    n >>= 1;
    ++comparisons;
  }
  return comparisons;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t kPrefetchAhead = 16;

}  // namespace

ConcurrentKeyIndex::ConcurrentKeyIndex(Schema schema, PosRange range)
    : schema_(schema), range_(range) {
  EHJA_CHECK(!range.empty());
  const std::size_t width = static_cast<std::size_t>(range.width());
  chains_ = std::make_unique<std::atomic<std::uint64_t>[]>(width);
  for (std::size_t i = 0; i < width; ++i) {
    chains_[i].store(kEmptyChain, std::memory_order_relaxed);
  }
}

void ConcurrentKeyIndex::reserve_rows(std::size_t n) {
  const std::size_t used = slab_used_.load(std::memory_order_relaxed);
  const std::size_t need = used + n;
  EHJA_CHECK_MSG(need < kNil, "slab exceeds 32-bit entry ids");
  if (need > slab_capacity_) {
    const std::size_t cap = next_pow2(std::max<std::size_t>(1024, need));
    std::unique_ptr<Entry[]> grown = std::make_unique<Entry[]>(cap);
    std::copy(slab_.get(), slab_.get() + used, grown.get());
    slab_ = std::move(grown);
    slab_capacity_ = cap;
  }
  // If the index is live, concurrent inserts will publish into it; keep the
  // load factor <= 1/2 for the worst case of n all-distinct keys.
  if (index_built_.load(std::memory_order_relaxed) &&
      (index_keys_.load(std::memory_order_relaxed) + n) * 2 >
          index_slot_count_) {
    rebuild_index(tuple_count_.load(std::memory_order_relaxed) + n);
  }
}

void ConcurrentKeyIndex::validate_positions(const TupleBatch& batch,
                                            std::size_t begin,
                                            std::size_t end) const {
  const std::uint32_t* positions = batch.positions().data();
  const std::uint32_t vlo = static_cast<std::uint32_t>(range_.lo);
  const std::uint32_t vwidth = static_cast<std::uint32_t>(range_.width());
  std::uint32_t bad = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bad |= static_cast<std::uint32_t>(positions[i] - vlo >= vwidth);
  }
  EHJA_CHECK_MSG(bad == 0, "rows outside owned range");
}

void ConcurrentKeyIndex::insert_rows(const TupleBatch& batch,
                                     std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  validate_positions(batch, begin, end);
  const std::size_t n = end - begin;
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  // Claim a contiguous slab segment; reserve_rows guaranteed capacity, so
  // this never races with reallocation.
  const std::uint32_t base = slab_used_.fetch_add(
      static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  EHJA_CHECK_MSG(base + n <= slab_capacity_,
                 "insert_rows without reserve_rows");
  const bool live_index = index_built_.load(std::memory_order_relaxed);
  const std::uint64_t lo = range_.lo;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = begin + i;
    if (i + kPrefetchAhead < n) {
      EHJA_PREFETCH_W(&chains_[static_cast<std::size_t>(
          positions[row + kPrefetchAhead] - lo)]);
    }
    const std::uint32_t e = base + static_cast<std::uint32_t>(i);
    Entry& ent = slab_[e];
    ent.id = ids[row];
    ent.key = keys[row];
    ent.key_next = kNil;
    std::atomic<std::uint64_t>& c =
        chains_[static_cast<std::size_t>(positions[row] - lo)];
    std::uint64_t cur = c.load(std::memory_order_relaxed);
    do {
      ent.chain_next = head_of(cur);
    } while (!c.compare_exchange_weak(cur, pack(e, count_of(cur) + 1),
                                      std::memory_order_release,
                                      std::memory_order_relaxed));
    if (live_index) index_publish(e);
  }
  tuple_count_.fetch_add(n, std::memory_order_relaxed);
  footprint_bytes_.fetch_add(
      static_cast<std::uint64_t>(n) * tuple_footprint(schema_),
      std::memory_order_relaxed);
}

ConcurrentKeyIndex::BatchProbeResult ConcurrentKeyIndex::probe_rows(
    const TupleBatch& batch, std::size_t begin, std::size_t end,
    std::vector<Tuple>* sink) const {
  BatchProbeResult agg;
  if (begin >= end) return agg;
  agg.probed = end - begin;
  EHJA_CHECK_MSG(index_built_.load(std::memory_order_relaxed) || empty(),
                 "probe_rows without ensure_index");
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  const bool have_index = index_built_.load(std::memory_order_relaxed);
  for (std::size_t i = begin; i < end; ++i) {
    if (i + kPrefetchAhead < end) {
      const std::uint64_t ahead = positions[i + kPrefetchAhead];
      if (range_.contains(ahead)) {
        EHJA_PREFETCH(&chains_[static_cast<std::size_t>(ahead - range_.lo)]);
      }
      if (have_index) {
        EHJA_PREFETCH(&index_slots_[SplitMix64::mix(keys[i + kPrefetchAhead]) &
                                    index_mask_]);
      }
    }
    const std::uint64_t pos = positions[i];
    EHJA_CHECK_MSG(range_.contains(pos), "probe outside owned range");
    const std::uint64_t word =
        chains_[chain_slot(pos)].load(std::memory_order_acquire);
    const std::uint32_t count = count_of(word);
    if (count == 0) {
      agg.comparisons += 1;
      continue;
    }
    agg.comparisons += search_comparisons(count);
    for (std::uint32_t e = index_find(keys[i]); e != kNil;
         e = slab_[e].key_next) {
      ++agg.matches;
      ++agg.comparisons;
      agg.checksum_delta += match_signature(slab_[e].id, ids[i]);
      if (sink) sink->push_back(Tuple{slab_[e].id, ids[i]});
    }
  }
  return agg;
}

void ConcurrentKeyIndex::ensure_index() {
  if (index_built_.load(std::memory_order_relaxed)) return;
  rebuild_index(tuple_count_.load(std::memory_order_relaxed));
  index_built_.store(true, std::memory_order_relaxed);
}

void ConcurrentKeyIndex::rebuild_index(std::uint64_t min_keys) {
  const std::size_t slots = next_pow2(
      std::max<std::size_t>(64, static_cast<std::size_t>(min_keys) * 2));
  index_slots_ = std::make_unique<std::atomic<std::uint32_t>[]>(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    index_slots_[s].store(kNil, std::memory_order_relaxed);
  }
  index_slot_count_ = slots;
  index_mask_ = slots - 1;
  index_keys_.store(0, std::memory_order_relaxed);
  const std::size_t width = static_cast<std::size_t>(range_.width());
  for (std::size_t slot = 0; slot < width; ++slot) {
    const std::uint64_t word = chains_[slot].load(std::memory_order_relaxed);
    for (std::uint32_t e = head_of(word); e != kNil;
         e = slab_[e].chain_next) {
      index_publish(e);
    }
  }
}

void ConcurrentKeyIndex::index_publish(std::uint32_t e) {
  const std::uint64_t key = slab_[e].key;
  std::size_t s = SplitMix64::mix(key) & index_mask_;
  std::uint32_t cur = index_slots_[s].load(std::memory_order_acquire);
  while (true) {
    if (cur == kNil) {
      slab_[e].key_next = kNil;
      if (index_slots_[s].compare_exchange_weak(cur, e,
                                                std::memory_order_release,
                                                std::memory_order_acquire)) {
        index_keys_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      continue;  // cur reloaded by the failed CAS
    }
    if (slab_[cur].key == key) {
      // Same key: link in front of the current head, then swing the slot.
      slab_[e].key_next = cur;
      if (index_slots_[s].compare_exchange_weak(cur, e,
                                                std::memory_order_release,
                                                std::memory_order_acquire)) {
        return;
      }
      continue;
    }
    s = (s + 1) & index_mask_;
    cur = index_slots_[s].load(std::memory_order_acquire);
  }
}

std::uint32_t ConcurrentKeyIndex::index_find(std::uint64_t key) const {
  std::size_t s = SplitMix64::mix(key) & index_mask_;
  while (true) {
    const std::uint32_t e = index_slots_[s].load(std::memory_order_acquire);
    if (e == kNil) return kNil;
    if (slab_[e].key == key) return e;
    s = (s + 1) & index_mask_;
  }
}

// --- merge mode ---

void ConcurrentKeyIndex::begin_merge(const TupleBatch& batch,
                                     unsigned threads) {
  const std::size_t n = batch.size();
  reserve_rows(n);
  validate_positions(batch, 0, n);
  merge_base_ = slab_used_.fetch_add(static_cast<std::uint32_t>(n),
                                     std::memory_order_relaxed);
  scratch_.resize(threads);
  for (auto& per_lane : scratch_) {
    per_lane.resize(threads);
    for (auto& rows : per_lane) rows.clear();
  }
}

void ConcurrentKeyIndex::scatter_rows(const TupleBatch& batch, unsigned t,
                                      unsigned threads) {
  // Same contiguous slicing as IntraPool::slice (hash/ cannot see runtime/).
  const std::size_t n = batch.size();
  const std::size_t begin = n * t / threads;
  const std::size_t end = n * (t + 1) / threads;
  const std::uint32_t* positions = batch.positions().data();
  auto& out = scratch_[t];
  for (std::size_t row = begin; row < end; ++row) {
    out[subrange_of(positions[row], threads)].push_back(
        static_cast<std::uint32_t>(row));
  }
}

void ConcurrentKeyIndex::merge_subrange(const TupleBatch& batch, unsigned sub,
                                        unsigned threads) {
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  const std::uint64_t lo = range_.lo;
  // Lanes are drained in index order and each lane's rows are ascending, so
  // per position the pushes happen in batch order -- exactly the linkage the
  // serial insert_batch would have produced.
  for (unsigned t = 0; t < threads; ++t) {
    for (const std::uint32_t row : scratch_[t][sub]) {
      const std::uint32_t e = merge_base_ + row;
      Entry& ent = slab_[e];
      ent.id = ids[row];
      ent.key = keys[row];
      ent.key_next = kNil;
      std::atomic<std::uint64_t>& c =
          chains_[static_cast<std::size_t>(positions[row] - lo)];
      // Exclusive owner of every position in `sub`: plain RMW, no CAS.
      const std::uint64_t cur = c.load(std::memory_order_relaxed);
      ent.chain_next = head_of(cur);
      c.store(pack(e, count_of(cur) + 1), std::memory_order_relaxed);
    }
  }
}

void ConcurrentKeyIndex::finish_merge(const TupleBatch& batch) {
  const std::size_t n = batch.size();
  tuple_count_.fetch_add(n, std::memory_order_relaxed);
  footprint_bytes_.fetch_add(
      static_cast<std::uint64_t>(n) * tuple_footprint(schema_),
      std::memory_order_relaxed);
  // Merged entries bypassed index maintenance; rebuild lazily at next probe.
  index_built_.store(false, std::memory_order_relaxed);
}

// --- serial LocalHashTable-compatible API ---

void ConcurrentKeyIndex::insert(const Tuple& t) {
  TupleBatch batch;
  batch.push_back(t);
  reserve_rows(1);
  insert_rows(batch, 0, 1);
}

void ConcurrentKeyIndex::insert_batch(const TupleBatch& batch) {
  reserve_rows(batch.size());
  insert_rows(batch, 0, batch.size());
}

ConcurrentKeyIndex::ProbeResult ConcurrentKeyIndex::probe(
    const Tuple& s, std::vector<Tuple>* sink) {
  if (!empty()) ensure_index();
  TupleBatch batch;
  batch.push_back(s);
  const BatchProbeResult agg = probe_rows(batch, 0, 1, sink);
  return ProbeResult{agg.matches, agg.comparisons, agg.checksum_delta};
}

ConcurrentKeyIndex::BatchProbeResult ConcurrentKeyIndex::probe_batch(
    const TupleBatch& batch, std::vector<Tuple>* sink) {
  if (!empty()) ensure_index();
  return probe_rows(batch, 0, batch.size(), sink);
}

std::vector<Tuple> ConcurrentKeyIndex::extract_range(const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  std::vector<Tuple> extracted;
  bool removed = false;
  for (std::uint64_t pos = sub.lo; pos < sub.hi; ++pos) {
    std::atomic<std::uint64_t>& c = chains_[chain_slot(pos)];
    const std::uint64_t word = c.load(std::memory_order_relaxed);
    const std::uint32_t count = count_of(word);
    if (count == 0) continue;
    // Emit LocalHashTable's order: key order within the position, equal
    // keys in insertion order.  Chains link newest-first, so reverse the
    // collected segment before the stable sort.
    const std::size_t mark = extracted.size();
    for (std::uint32_t e = head_of(word); e != kNil;
         e = slab_[e].chain_next) {
      extracted.push_back(Tuple{slab_[e].id, slab_[e].key});
    }
    std::reverse(extracted.begin() + mark, extracted.end());
    std::stable_sort(extracted.begin() + mark, extracted.end(),
                     [](const Tuple& a, const Tuple& b) {
                       return a.key < b.key;
                     });
    tuple_count_.fetch_sub(count, std::memory_order_relaxed);
    footprint_bytes_.fetch_sub(
        static_cast<std::uint64_t>(count) * tuple_footprint(schema_),
        std::memory_order_relaxed);
    c.store(kEmptyChain, std::memory_order_relaxed);
    removed = true;
  }
  // Removed entries stay in the slab but leave the chains; the index would
  // keep resolving them, so it must be rebuilt before the next probe.
  if (removed) index_built_.store(false, std::memory_order_relaxed);
  return extracted;
}

void ConcurrentKeyIndex::set_range(const PosRange& next) {
  EHJA_CHECK(!next.empty());
  const std::size_t next_width = static_cast<std::size_t>(next.width());
  std::unique_ptr<std::atomic<std::uint64_t>[]> fresh =
      std::make_unique<std::atomic<std::uint64_t>[]>(next_width);
  for (std::size_t i = 0; i < next_width; ++i) {
    fresh[i].store(kEmptyChain, std::memory_order_relaxed);
  }
  std::uint64_t retained = 0;
  for (std::uint64_t pos = range_.lo; pos < range_.hi; ++pos) {
    const std::uint64_t word =
        chains_[chain_slot(pos)].load(std::memory_order_relaxed);
    if (count_of(word) == 0) continue;
    EHJA_CHECK_MSG(next.contains(pos),
                   "set_range would orphan retained tuples");
    retained += count_of(word);
    fresh[static_cast<std::size_t>(pos - next.lo)].store(
        word, std::memory_order_relaxed);
  }
  EHJA_CHECK(retained == tuple_count_.load(std::memory_order_relaxed));
  range_ = next;
  chains_ = std::move(fresh);
  // Every retained entry survived, so the key index (keyed by join
  // attribute, not position) remains valid.
}

BinnedHistogram ConcurrentKeyIndex::histogram(std::size_t bins) const {
  BinnedHistogram hist(range_.lo, range_.hi, bins);
  for (std::uint64_t pos = range_.lo; pos < range_.hi; ++pos) {
    const std::uint32_t count =
        count_of(chains_[chain_slot(pos)].load(std::memory_order_relaxed));
    if (count != 0) hist.add(pos, count);
  }
  return hist;
}

void ConcurrentKeyIndex::clear() {
  slab_.reset();
  slab_capacity_ = 0;
  slab_used_.store(0, std::memory_order_relaxed);
  const std::size_t width = static_cast<std::size_t>(range_.width());
  for (std::size_t i = 0; i < width; ++i) {
    chains_[i].store(kEmptyChain, std::memory_order_relaxed);
  }
  index_slots_.reset();
  index_slot_count_ = 0;
  index_mask_ = 0;
  index_keys_.store(0, std::memory_order_relaxed);
  index_built_.store(false, std::memory_order_relaxed);
  tuple_count_.store(0, std::memory_order_relaxed);
  footprint_bytes_.store(0, std::memory_order_relaxed);
}

const char* intra_mode_name(IntraMode mode) {
  switch (mode) {
    case IntraMode::kShared:
      return "shared";
    case IntraMode::kMerge:
      return "merge";
  }
  return "?";
}

}  // namespace ehja
