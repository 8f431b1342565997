#include "hash/local_hash_table.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

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
/// This is the *modeled* probe cost of the 2004 structure; the actual
/// lookup scans the position's sorted run.
std::uint64_t search_comparisons(std::size_t n) {
  std::uint64_t comparisons = 1;
  while (n > 1) {
    n >>= 1;
    ++comparisons;
  }
  return comparisons;
}

/// How far ahead the batch loops prefetch the Run cache lines (the probe
/// loop prefetches the row its scan starts at half as far ahead, once the
/// Run has arrived).  Large tables make both arrays miss LLC on random
/// access; a short software pipeline hides most of that latency.
constexpr std::size_t kPrefetchAhead = 16;

/// Runs up to this long are scanned linearly; longer (skewed) runs are
/// searched from an interpolated guess.
constexpr std::uint32_t kLinearScanMax = 16;

/// Where `key` would sit in a run of `n` rows if the run's keys spread
/// evenly over their position's key span (< n).  Under range skew a hot
/// position's keys are close to even, so the guess lands within a few rows.
std::size_t interpolate(std::uint64_t key, std::uint32_t n) {
  static_assert(kPositionBits <= 32);
  constexpr unsigned kLowBits = 64 - kPositionBits;
  const std::uint64_t low = key & ((std::uint64_t{1} << kLowBits) - 1);
  return static_cast<std::size_t>(((low >> (kLowBits - 32)) * n) >> 32);
}

/// Stable sort of a run's `n` rows by key: insertion sort for short runs,
/// std::stable_sort for long (skewed) ones.
template <typename Row>
void sort_by_key(Row* first, std::uint32_t n) {
  if (n > kLinearScanMax) {
    std::stable_sort(first, first + n, [](const Row& a, const Row& b) {
      return a.key < b.key;
    });
    return;
  }
  for (std::uint32_t i = 1; i < n; ++i) {
    const Row row = first[i];
    std::uint32_t j = i;
    for (; j > 0 && first[j - 1].key > row.key; --j) {
      first[j] = first[j - 1];
    }
    first[j] = row;
  }
}

/// Abort unless every position of `batch` lies in [lo, lo + width).  One
/// branchless (vectorizable) scan, so the hot loops carry no per-row range
/// check; the abort semantics match the scalar path -- the process dies
/// either way, and partial mutation is unobservable past an abort.
void check_positions(const TupleBatch& batch, const PosRange& range,
                     const char* msg) {
  const std::uint32_t* positions = batch.positions().data();
  const std::uint32_t lo = static_cast<std::uint32_t>(range.lo);
  const std::uint32_t width = static_cast<std::uint32_t>(range.width());
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    bad |= static_cast<std::uint32_t>(positions[i] - lo >= width);
  }
  EHJA_CHECK_MSG(bad == 0, msg);
}

}  // namespace

LocalHashTable::LocalHashTable(Schema schema, PosRange range)
    : schema_(schema), range_(range) {
  EHJA_CHECK(!range.empty());
  runs_.resize(static_cast<std::size_t>(range.width()));
}

std::pair<LocalHashTable::Row*, std::size_t> LocalHashTable::tail_slots(
    std::size_t n) {
  if (tail_rows_ == tail_.size() * kBlockRows) {
    tail_.emplace_back(new Row[kBlockRows]);
  }
  const std::size_t used = tail_rows_ - (tail_.size() - 1) * kBlockRows;
  return {tail_.back().get() + used, std::min(n, kBlockRows - used)};
}

void LocalHashTable::insert(const Tuple& t) {
  const std::uint64_t pos = position_of(t.key);
  EHJA_CHECK_MSG(range_.contains(pos), "insert outside owned range");
  *tail_slots(1).first = Row{t.id, t.key};
  ++tail_rows_;
  ++run(pos).count;
  ++tuple_count_;
  footprint_bytes_ += tuple_footprint(schema_);
}

void LocalHashTable::insert_batch(const TupleBatch& batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  check_positions(batch, range_, "insert outside owned range");
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  // Append the rows to the tail blocks through a raw pointer (no capacity
  // checks in the loop) and bump each position's count; the prefetched Run
  // increment is the loop's only random access.
  Run* runs = runs_.data();
  const std::uint64_t lo = range_.lo;
  for (std::size_t done = 0; done < n;) {
    const auto [out, fit] = tail_slots(n - done);
    for (std::size_t j = 0; j < fit; ++j) {
      const std::size_t i = done + j;
      if (i + kPrefetchAhead < n) {
        EHJA_PREFETCH_W(&runs[positions[i + kPrefetchAhead] - lo]);
      }
      out[j] = Row{ids[i], keys[i]};
      ++runs[positions[i] - lo].count;
    }
    done += fit;
    tail_rows_ += fit;
  }
  tuple_count_ += n;
  footprint_bytes_ += static_cast<std::uint64_t>(n) * tuple_footprint(schema_);
}

void LocalHashTable::rebuild() {
  const std::size_t width = runs_.size();
  const std::uint64_t lo = range_.lo;
  const auto slot_of = [lo](const Row& row) {
    return static_cast<std::size_t>(position_of(row.key) - lo);
  };
  const auto for_each_block = [this](auto&& fn) {
    for (std::size_t b = 0; b < tail_.size(); ++b) {
      fn(tail_[b].get(), std::min(kBlockRows, tail_rows_ - b * kBlockRows));
    }
  };
  // Tail rows per position: a run keeps its sealed rows (count minus
  // tail), already in key order, and takes its tail rows after them.
  std::vector<std::uint32_t> tail(width, 0);
  for_each_block([&](const Row* rows, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ++tail[slot_of(rows[i])];
  });
  std::vector<Row> out(static_cast<std::size_t>(tuple_count_));
  std::vector<std::uint32_t> cursor(width);
  std::uint32_t at = 0;
  for (std::size_t p = 0; p < width; ++p) {
    Run& r = runs_[p];
    const std::uint32_t kept = r.count - tail[p];
    if (kept != 0) std::copy_n(rows_.data() + r.start, kept, out.data() + at);
    r.start = at;
    cursor[p] = at + kept;
    at += r.count;
  }
  EHJA_CHECK(at == tuple_count_);
  // Stable counting-sort scatter of the tail: within a position the tail
  // rows keep their insertion order.
  for_each_block([&](const Row* rows, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        EHJA_PREFETCH_W(&cursor[slot_of(rows[i + kPrefetchAhead])]);
      }
      out[cursor[slot_of(rows[i])]++] = rows[i];
    }
  });
  // Re-sort each run that took tail rows; stability keeps equal keys in
  // insertion order (sealed rows precede every tail row).
  for (std::size_t p = 0; p < width; ++p) {
    const Run& r = runs_[p];
    if (tail[p] != 0 && r.count > 1) {
      sort_by_key(out.data() + r.start, r.count);
    }
  }
  rows_ = std::move(out);
  tail_.clear();
  tail_rows_ = 0;
  holes_ = 0;
}

const LocalHashTable::Row* LocalHashTable::seek(const Row* first,
                                                 std::uint32_t n,
                                                 std::uint64_t key) {
  const auto less = [](const Row& row, std::uint64_t k) {
    return row.key < k;
  };
  if (n <= kLinearScanMax) {
    while (n != 0 && first->key < key) ++first, --n;
    return first;
  }
  // Gallop outward from the interpolated guess, then binary search the
  // bracket: O(log distance) even when the guess is poor.
  const std::size_t guess = interpolate(key, n);
  std::size_t step = 1;
  if (first[guess].key < key) {
    std::size_t at = guess;  // first[at].key < key
    while (at + step < n && first[at + step].key < key) {
      at += step;
      step <<= 1;
    }
    return std::lower_bound(first + at + 1,
                            first + std::min<std::size_t>(at + step, n), key,
                            less);
  }
  std::size_t at = guess;  // first[at].key >= key
  while (at >= step && !(first[at - step].key < key)) {
    at -= step;
    step <<= 1;
  }
  return std::lower_bound(first + (at >= step ? at - step + 1 : 0),
                          first + at, key, less);
}

void LocalHashTable::probe_run(const Run& r, std::uint64_t key,
                               std::uint64_t id, std::vector<Tuple>* sink,
                               BatchProbeResult& agg) const {
  if (r.count == 0) {
    agg.comparisons += 1;
    return;
  }
  agg.comparisons += search_comparisons(r.count);
  const Row* const first = rows_.data() + r.start;
  const Row* const end = first + r.count;
  for (const Row* it = seek(first, r.count, key);
       it != end && it->key == key; ++it) {
    ++agg.matches;
    ++agg.comparisons;
    agg.checksum_delta += match_signature(it->id, id);
    if (sink) sink->push_back(Tuple{it->id, id});
  }
}

LocalHashTable::ProbeResult LocalHashTable::probe(const Tuple& s,
                                                  std::vector<Tuple>* sink) {
  const std::uint64_t pos = position_of(s.key);
  EHJA_CHECK_MSG(range_.contains(pos), "probe outside owned range");
  seal();
  BatchProbeResult agg;
  probe_run(run(pos), s.key, s.id, sink, agg);
  return ProbeResult{agg.matches, agg.comparisons, agg.checksum_delta};
}

LocalHashTable::BatchProbeResult LocalHashTable::probe_batch(
    const TupleBatch& batch, std::vector<Tuple>* sink) {
  BatchProbeResult agg;
  const std::size_t n = batch.size();
  agg.probed = n;
  if (n == 0) return agg;
  check_positions(batch, range_, "probe outside owned range");
  seal();
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  const Run* runs = runs_.data();
  const Row* rows = rows_.data();
  const std::uint64_t lo = range_.lo;
  constexpr std::size_t kRowAhead = kPrefetchAhead / 2;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      EHJA_PREFETCH(&runs[positions[i + kPrefetchAhead] - lo]);
    }
    if (i + kRowAhead < n) {
      const Run& ahead = runs[positions[i + kRowAhead] - lo];
      if (ahead.count > kLinearScanMax) {
        EHJA_PREFETCH(rows + ahead.start +
                      interpolate(keys[i + kRowAhead], ahead.count));
      } else if (ahead.count != 0) {
        EHJA_PREFETCH(rows + ahead.start);
      }
    }
    probe_run(runs[positions[i] - lo], keys[i], ids[i], sink, agg);
  }
  return agg;
}

std::vector<Tuple> LocalHashTable::extract_range(const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  seal();
  const std::uint64_t removed = count_range(sub);
  std::vector<Tuple> extracted;
  if (removed == 0) return extracted;
  extracted.reserve(static_cast<std::size_t>(removed));
  for (std::uint64_t pos = sub.lo; pos < sub.hi; ++pos) {
    Run& r = run(pos);
    const Row* it = rows_.data() + r.start;
    for (const Row* end = it + r.count; it != end; ++it) {
      extracted.push_back(Tuple{it->id, it->key});
    }
    r.count = 0;
  }
  tuple_count_ -= removed;
  footprint_bytes_ -= removed * tuple_footprint(schema_);
  holes_ += removed;
  // Compact once the holes outnumber the live rows (amortized O(1) per
  // removed row; an emptied table releases its rows at once).
  if (holes_ > tuple_count_) rebuild();
  return extracted;
}

std::vector<Tuple> LocalHashTable::extract_unordered(const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  const std::uint64_t removed = count_range(sub);
  std::vector<Tuple> extracted;
  if (removed == 0) return extracted;
  extracted.reserve(static_cast<std::size_t>(removed));
  // Take the sub-range's tail rows, compacting the rest of the tail in
  // place, and count them per position: a run's sealed rows are its count
  // minus its tail rows.
  std::vector<std::uint32_t> tail(static_cast<std::size_t>(sub.width()), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < tail_rows_; ++i) {
    const Row row = tail_[i / kBlockRows][i % kBlockRows];
    const std::uint64_t pos = position_of(row.key);
    if (sub.contains(pos)) {
      extracted.push_back(Tuple{row.id, row.key});
      ++tail[static_cast<std::size_t>(pos - sub.lo)];
    } else {
      tail_[kept / kBlockRows][kept % kBlockRows] = row;
      ++kept;
    }
  }
  tail_rows_ = kept;
  tail_.resize((kept + kBlockRows - 1) / kBlockRows);
  std::uint64_t sealed = 0;
  for (std::uint64_t pos = sub.lo; pos < sub.hi; ++pos) {
    Run& r = run(pos);
    const std::uint32_t n =
        r.count - tail[static_cast<std::size_t>(pos - sub.lo)];
    const Row* it = rows_.data() + r.start;
    for (const Row* end = it + n; it != end; ++it) {
      extracted.push_back(Tuple{it->id, it->key});
    }
    sealed += n;
    r.count = 0;
  }
  tuple_count_ -= removed;
  footprint_bytes_ -= removed * tuple_footprint(schema_);
  holes_ += sealed;
  if (holes_ > tuple_count_) rebuild();
  return extracted;
}

std::uint64_t LocalHashTable::count_range(const PosRange& sub) const {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  std::uint64_t n = 0;
  for (std::uint64_t pos = sub.lo; pos < sub.hi; ++pos) n += run(pos).count;
  return n;
}

void LocalHashTable::set_range(const PosRange& next) {
  EHJA_CHECK(!next.empty());
  std::vector<Run> fresh(static_cast<std::size_t>(next.width()));
  std::uint64_t retained = 0;
  for (std::uint64_t pos = range_.lo; pos < range_.hi; ++pos) {
    const Run& r = run(pos);
    if (r.count == 0) continue;
    EHJA_CHECK_MSG(next.contains(pos),
                   "set_range would orphan retained tuples");
    retained += r.count;
    fresh[static_cast<std::size_t>(pos - next.lo)] = r;
  }
  EHJA_CHECK(retained == tuple_count_);
  range_ = next;
  runs_ = std::move(fresh);
  // Rows do not store their Run index, so the rows stay valid: the next
  // seal re-derives every tail row's position against the new range.
}

BinnedHistogram LocalHashTable::histogram(std::size_t bins) const {
  // One strided pass over the runs, bin by bin; the geometry is
  // BinnedHistogram's (equal-width bins, the last one takes the remainder).
  const std::size_t n =
      BinnedHistogram::effective_bins(range_.lo, range_.hi, bins);
  const std::size_t width = runs_.size() / n;
  std::vector<std::uint64_t> weights(n);
  const Run* r = runs_.data();
  for (std::size_t b = 0; b < n; ++b) {
    const Run* end = b + 1 == n ? runs_.data() + runs_.size() : r + width;
    std::uint64_t sum = 0;
    for (; r != end; ++r) sum += r->count;
    weights[b] = sum;
  }
  return BinnedHistogram(range_.lo, range_.hi, std::move(weights));
}

void LocalHashTable::clear() {
  std::vector<Row>().swap(rows_);
  runs_.assign(runs_.size(), Run{});
  tail_.clear();
  tail_rows_ = 0;
  holes_ = 0;
  tuple_count_ = 0;
  footprint_bytes_ = 0;
}

}  // namespace ehja
