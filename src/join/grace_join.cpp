#include "join/grace_join.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace ehja {

namespace {

std::uint64_t part_boundary(const PosRange& range, std::size_t k,
                            std::size_t fanout) {
  return range.lo + range.width() * k / fanout;
}

/// Sorts rows by key, in place but for a cache-sized buffer.  Each pass
/// distributes rows by their key's offset within [min key, max key]: a range
/// of at most kBufferRows is scattered through the buffer into about one
/// bucket per four rows, each then insertion-sorted; a longer one is cut
/// into up to kFanout buckets in place (each row swapped straight into its
/// bucket) and each bucket sorted the same way.  The in-place swaps are
/// latency-bound (about 80 ns a row even on uniform keys), so phase 3 hands
/// it cache-sized key buckets and only an oversized bucket takes that path.
class KeySort {
 public:
  void operator()(Tuple* first, std::size_t n) {
    if (n <= kInsertionMax) {
      insertion_sort(first, n);
      return;
    }
    const auto [min, max] = std::minmax_element(first, first + n, by_key);
    const std::uint64_t lo = min->key;
    const std::uint64_t span = max->key - lo;
    if (span == 0) return;  // all keys equal
    const std::size_t want = n <= kBufferRows ? n / 4 : kFanout;
    unsigned shift = 0;
    while ((span >> shift) >= want) ++shift;
    const auto bucket = [lo, shift](const Tuple& t) {
      return static_cast<std::size_t>((t.key - lo) >> shift);
    };
    const std::size_t buckets = bucket(*max) + 1;
    if (n <= kBufferRows) {
      // Bucket sizes, then each bucket's first slot, then (after the
      // scatter) each bucket's end.
      ends_.assign(buckets, 0);
      for (const Tuple* t = first; t != first + n; ++t) ++ends_[bucket(*t)];
      std::size_t at = 0;
      for (std::size_t& slot : ends_) at += std::exchange(slot, at);
      buffer_.resize(n);
      for (const Tuple* t = first; t != first + n; ++t) {
        buffer_[ends_[bucket(*t)]++] = *t;
      }
      std::copy_n(buffer_.data(), n, first);
      std::size_t begin = 0;
      for (const std::size_t end : ends_) {
        if (end - begin > kInsertionMax) {
          std::sort(first + begin, first + end, by_key);
        } else {
          insertion_sort(first + begin, end - begin);
        }
        begin = end;
      }
      return;
    }
    std::array<std::size_t, kFanout> next{};
    std::array<std::size_t, kFanout> end{};
    for (const Tuple* t = first; t != first + n; ++t) ++end[bucket(*t)];
    std::size_t at = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      next[b] = at;
      at += end[b];
      end[b] = at;
    }
    for (std::size_t b = 0; b < buckets; ++b) {
      while (next[b] < end[b]) {
        Tuple t = first[next[b]];
        for (std::size_t d = bucket(t); d != b; d = bucket(t)) {
          std::swap(t, first[next[d]++]);
        }
        first[next[b]++] = t;
      }
    }
    std::size_t begin = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      (*this)(first + begin, end[b] - begin);
      begin = end[b];
    }
  }

 private:
  static constexpr std::size_t kInsertionMax = 32;
  static constexpr std::size_t kFanout = 256;
  static constexpr std::size_t kBufferRows = std::size_t{1} << 14;  // 256 KiB

  static bool by_key(const Tuple& a, const Tuple& b) { return a.key < b.key; }

  static void insertion_sort(Tuple* first, std::size_t n) {
    for (std::size_t i = 1; i < n; ++i) {
      const Tuple t = first[i];
      std::size_t j = i;
      for (; j > 0 && first[j - 1].key > t.key; --j) first[j] = first[j - 1];
      first[j] = t;
    }
  }

  std::vector<Tuple> buffer_;
  std::vector<std::size_t> ends_;
};

/// How many of the sorted `splitters` are <= `key`: a branchless halving
/// search over 2^b - 1 entries.
template <std::size_t N>
std::size_t bucket_of(const std::array<std::uint64_t, N>& splitters,
                      std::uint64_t key) {
  static_assert(((N + 1) & N) == 0, "2^b - 1 splitters");
  std::size_t b = 0;
  for (std::size_t step = (N + 1) / 2; step != 0; step /= 2) {
    b += splitters[b + step - 1] <= key ? step : 0;
  }
  return b;
}

/// Rows across a side's buckets.
std::uint64_t row_count(const std::vector<std::vector<Tuple>>& buckets) {
  std::uint64_t n = 0;
  for (const std::vector<Tuple>& bucket : buckets) n += bucket.size();
  return n;
}

/// End of the run of rows from `i` on whose positions lie in `range`.
std::size_t run_end(const TupleBatch& batch, std::size_t i,
                    const PosRange& range) {
  const std::uint32_t* positions = batch.positions().data();
  std::size_t end = i + 1;
  while (end < batch.size() && range.contains(positions[end])) ++end;
  return end;
}

/// Join two key-sorted row sets: every (r, s) pair with equal keys, once.
/// Returns the number of matches.
std::uint64_t merge_sorted(const std::vector<Tuple>& r,
                           const std::vector<Tuple>& s, JoinResult& acc,
                           std::vector<Tuple>* sink) {
  std::uint64_t matches = 0;
  auto ri = r.begin();
  auto si = s.begin();
  while (ri != r.end() && si != s.end()) {
    if (ri->key < si->key) {
      ++ri;
      continue;
    }
    if (si->key < ri->key) {
      ++si;
      continue;
    }
    const std::uint64_t key = ri->key;
    const auto other_key = [key](const Tuple& t) { return t.key != key; };
    const auto r_end = std::find_if(ri, r.end(), other_key);
    const auto s_end = std::find_if(si, s.end(), other_key);
    for (auto a = ri; a != r_end; ++a) {
      for (auto b = si; b != s_end; ++b) {
        ++matches;
        acc.checksum += match_signature(a->id, b->id);
        if (sink) sink->push_back(Tuple{a->id, b->id});
      }
    }
    ri = r_end;
    si = s_end;
  }
  acc.matches += matches;
  return matches;
}

}  // namespace

HybridHashSpiller::HybridHashSpiller(Schema schema, PosRange range,
                                     std::uint64_t memory_budget_bytes,
                                     std::size_t fanout, SimDisk& disk,
                                     const CostModel& cost,
                                     std::uint64_t stream_namespace,
                                     SpillPolicy policy)
    : schema_(schema),
      budget_(memory_budget_bytes),
      policy_(policy),
      cost_(&cost),
      disk_(&disk),
      table_(schema, range) {
  EHJA_CHECK(fanout >= 1);
  EHJA_CHECK_MSG(budget_ >= tuple_footprint(schema),
                 "budget below a single tuple's footprint");
  const std::size_t parts =
      static_cast<std::size_t>(std::min<std::uint64_t>(fanout, range.width()));
  partitions_.reserve(parts);
  for (std::size_t k = 0; k < parts; ++k) {
    Partition part;
    part.range = PosRange{part_boundary(range, k, parts),
                          part_boundary(range, k + 1, parts)};
    const std::uint64_t base = (stream_namespace << 6) | (k << 1);
    part.r_file = std::make_unique<SpillFile>(disk, base);
    part.s_file = std::make_unique<SpillFile>(disk, base | 1);
    partitions_.push_back(std::move(part));
  }
}

std::size_t HybridHashSpiller::partition_of(std::uint64_t pos) const {
  const PosRange& range = table_.range();
  EHJA_CHECK(range.contains(pos));
  std::size_t k = static_cast<std::size_t>((pos - range.lo) *
                                           partitions_.size() / range.width());
  k = std::min(k, partitions_.size() - 1);
  // Integer rounding can land one partition off; fix up locally.
  while (pos < partitions_[k].range.lo) --k;
  while (pos >= partitions_[k].range.hi) ++k;
  return k;
}

double HybridHashSpiller::spill_rows(const Splitters& splitters,
                                     Buckets& side, SpillFile& file,
                                     const TupleBatch& batch,
                                     std::size_t begin, std::size_t end) {
  const std::uint64_t* ids = batch.ids().data();
  const std::uint64_t* keys = batch.keys().data();
  for (std::size_t i = begin; i < end; ++i) {
    side[bucket_of(splitters, keys[i])].push_back(Tuple{ids[i], keys[i]});
  }
  const std::size_t n = end - begin;
  file.note_records(n);
  // One append of n rows flushes the same buffers, in the same order, as n
  // one-row appends: nothing else touches the disk in between.
  return static_cast<double>(n) * cost_->tuple_pack_sec +
         file.append(n * schema_.tuple_bytes);
}

double HybridHashSpiller::adopt(LocalHashTable table) {
  EHJA_CHECK(!finished_);
  EHJA_CHECK_MSG(build_tuples_ == 0, "adopt into a spiller that holds rows");
  EHJA_CHECK_MSG(table.range() == range(),
                 "adopted table covers another range");
  table_ = std::move(table);
  build_tuples_ = table_.tuple_count();
  for (Partition& part : partitions_) {
    part.mem_tuples = table_.count_range(part.range);
  }
  // Replay re-adding the rows one at a time in position order: partition k's
  // rows enter after all of partition k-1's, and the table overflows on the
  // row that takes it past the budget.  `entered` is what the replay holds
  // in memory; evict() moves a victim's *whole* sub-partition to disk, which
  // for a partly entered victim also covers its rows still to come -- the
  // same rows, in the same disk-write order, as the row-by-row re-add.
  const std::uint64_t footprint = tuple_footprint(schema_);
  std::vector<std::uint64_t> entered(partitions_.size(), 0);
  std::uint64_t resident = 0;  // the replay's table footprint
  std::uint64_t inserts = 0;
  double seconds = 0.0;
  const auto evict_entered = [&](std::size_t victim) {
    resident -= entered[victim] * footprint;
    seconds += evict(victim);
  };
  for (std::size_t k = 0; k < partitions_.size(); ++k) {
    std::uint64_t left = partitions_[k].mem_tuples;
    while (left != 0 && !partitions_[k].spilled) {
      const std::uint64_t room = (budget_ - resident) / footprint;
      const std::uint64_t n = std::min(left, room + 1);
      entered[k] += n;
      resident += n * footprint;
      inserts += n;
      left -= n;
      if (resident <= budget_) continue;
      if (policy_ == SpillPolicy::kEvictAll) {
        for (std::size_t j = 0; j < partitions_.size(); ++j) {
          if (!partitions_[j].spilled) evict_entered(j);
        }
        continue;
      }
      while (resident > budget_) {
        evict_entered(largest_resident(
            [&entered](std::size_t j) { return entered[j]; }));
      }
    }
  }
  EHJA_CHECK(resident == table_.footprint_bytes());
  return seconds + static_cast<double>(inserts) * cost_->tuple_insert_sec;
}

double HybridHashSpiller::add_build(const TupleBatch& batch) {
  EHJA_CHECK(!finished_);
  build_tuples_ += batch.size();
  const std::uint64_t footprint = tuple_footprint(schema_);
  double seconds = 0.0;
  std::size_t i = 0;
  while (i < batch.size()) {
    // Route rows up to the one that takes the table past the budget (the
    // table is within budget between calls), then insert and evict.
    const std::uint64_t room =
        (budget_ - table_.footprint_bytes()) / footprint;
    resident_.clear();
    while (i < batch.size() && resident_.size() <= room) {
      Partition& part = partitions_[partition_of(batch.position(i))];
      std::size_t end = run_end(batch, i, part.range);
      if (part.spilled) {
        seconds += spill_rows(part.splitters, part.r, *part.r_file, batch, i, end);
      } else {
        end = std::min<std::size_t>(end, i + (room + 1 - resident_.size()));
        resident_.append_range(batch, i, end);
        part.mem_tuples += end - i;
      }
      i = end;
    }
    table_.insert_batch(resident_);
    seconds +=
        static_cast<double>(resident_.size()) * cost_->tuple_insert_sec;
    if (table_.footprint_bytes() > budget_) seconds += relieve();
  }
  return seconds;
}

template <typename Rows>
std::size_t HybridHashSpiller::largest_resident(Rows rows) const {
  std::size_t victim = partitions_.size();
  for (std::size_t k = 0; k < partitions_.size(); ++k) {
    if (partitions_[k].spilled) continue;
    if (victim == partitions_.size() || rows(k) > rows(victim)) victim = k;
  }
  EHJA_CHECK_MSG(victim < partitions_.size(),
                 "over budget with every partition already spilled");
  return victim;
}

double HybridHashSpiller::relieve() {
  double seconds = 0.0;
  if (policy_ == SpillPolicy::kEvictAll) {
    // Basic GRACE: the first overflow sends every partition to disk; from
    // here on the whole join streams through the disk.
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      if (!partitions_[k].spilled) seconds += evict(k);
    }
    return seconds;
  }
  while (table_.footprint_bytes() > budget_) {
    seconds += evict(largest_resident(
        [this](std::size_t k) { return partitions_[k].mem_tuples; }));
  }
  return seconds;
}

double HybridHashSpiller::evict(std::size_t victim) {
  Partition& part = partitions_[victim];
  part.spilled = true;
  evictions_.push_back(victim);
  // The rows are bucketed by key here, so the table is not sealed for them.
  const std::vector<Tuple> evicted = table_.extract_unordered(part.range);
  EHJA_CHECK(evicted.size() == part.mem_tuples);
  part.mem_tuples = 0;
  choose_splitters(part, evicted);
  part.r.assign(kBuckets, {});
  part.s.assign(kBuckets, {});
  // One search per row; its result sizes every bucket exactly, then places
  // the row.
  static_assert(kBuckets <= 256, "bucket ids are stored as bytes");
  std::vector<std::uint8_t> bucket(evicted.size());
  std::array<std::size_t, kBuckets> sizes{};
  for (std::size_t i = 0; i < evicted.size(); ++i) {
    bucket[i] = static_cast<std::uint8_t>(
        bucket_of(part.splitters, evicted[i].key));
    ++sizes[bucket[i]];
  }
  for (std::size_t b = 0; b < kBuckets; ++b) part.r[b].reserve(sizes[b]);
  for (std::size_t i = 0; i < evicted.size(); ++i) {
    part.r[bucket[i]].push_back(evicted[i]);
  }
  double seconds =
      static_cast<double>(evicted.size()) * cost_->tuple_pack_sec;
  seconds += part.r_file->append(evicted.size() * schema_.tuple_bytes);
  part.r_file->note_records(evicted.size());
  return seconds;
}

void HybridHashSpiller::choose_splitters(Partition& part,
                                         const std::vector<Tuple>& evicted) {
  // Below kSampleMin rows a sample says little about the rows to come.
  constexpr std::size_t kSampleMin = 4 * kBuckets;
  constexpr std::size_t kSampleMax = 16 * kBuckets;
  if (evicted.size() < kSampleMin) {
    // Equal-width bounds over the partition's key span.
    constexpr unsigned kLowBits = 64 - kPositionBits;
    static_assert(kLowBits >= kBucketBits, "a bucket narrower than a key");
    const std::uint64_t lo = part.range.lo << kLowBits;
    const std::uint64_t step = part.range.width() << (kLowBits - kBucketBits);
    for (std::size_t b = 1; b < kBuckets; ++b) {
      part.splitters[b - 1] = lo + b * step;
    }
    return;
  }
  // Equal-depth bounds: quantiles of a strided sample (only the sample is
  // sorted).
  const std::size_t m = std::min(evicted.size(), kSampleMax);
  std::vector<std::uint64_t> sample(m);
  for (std::size_t i = 0; i < m; ++i) {
    sample[i] = evicted[i * evicted.size() / m].key;
  }
  std::sort(sample.begin(), sample.end());
  for (std::size_t b = 1; b < kBuckets; ++b) {
    part.splitters[b - 1] = sample[b * m / kBuckets];
  }
}

double HybridHashSpiller::add_probe(const TupleBatch& batch, JoinResult& acc,
                                    std::vector<Tuple>* sink) {
  EHJA_CHECK(!finished_);
  double seconds = 0.0;
  const TupleBatch* resident = &batch;
  if (any_spilled()) {
    resident_.clear();
    for (std::size_t i = 0; i < batch.size();) {
      Partition& part = partitions_[partition_of(batch.position(i))];
      const std::size_t end = run_end(batch, i, part.range);
      if (part.spilled) {
        seconds += spill_rows(part.splitters, part.s, *part.s_file, batch, i, end);
      } else {
        resident_.append_range(batch, i, end);
      }
      i = end;
    }
    resident = &resident_;
  }
  const auto agg = table_.probe_batch(*resident, sink);
  acc.matches += agg.matches;
  acc.checksum += agg.checksum_delta;
  return seconds +
         static_cast<double>(agg.probed) * cost_->tuple_probe_sec +
         static_cast<double>(agg.comparisons) * cost_->tuple_compare_sec +
         static_cast<double>(agg.matches) * cost_->match_emit_sec;
}

double HybridHashSpiller::join_partition(Partition& part, JoinResult& acc,
                                         std::vector<Tuple>* sink) {
  double seconds = part.r_file->flush() + part.s_file->flush();
  const std::uint64_t n = row_count(part.r);
  const std::uint64_t s_rows = row_count(part.s);
  if (n == 0 || s_rows == 0) {
    // Still pay the scan of whichever side has data (the 2004 code would
    // read the partition to discover it matches nothing).
    seconds += part.r_file->scan_all();
    seconds += part.s_file->scan_all();
    return seconds;
  }
  // The modeled cost: when R_k exceeds the budget, each pass reads one R
  // fragment, builds a table over it and rescans the whole of S_k.
  const std::uint64_t passes = ceil_div(n * tuple_footprint(schema_), budget_);
  for (std::uint64_t f = 0; f < passes; ++f) {
    const std::uint64_t begin = n * f / passes;
    const std::uint64_t end = n * (f + 1) / passes;
    seconds += part.r_file->scan((end - begin) * schema_.tuple_bytes);
    seconds += part.s_file->scan(s_rows * schema_.tuple_bytes);
  }
  seconds += static_cast<double>(n) * cost_->tuple_insert_sec;
  seconds += static_cast<double>(passes) * static_cast<double>(s_rows) *
             cost_->tuple_probe_sec;
  // The mechanism: equal keys share a bucket, so merging each bucket pair
  // in key order finds the same matches the passes would.
  KeySort sort;
  std::uint64_t matches = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    std::vector<Tuple>& r = part.r[b];
    std::vector<Tuple>& s = part.s[b];
    if (r.empty() || s.empty()) continue;
    sort(r.data(), r.size());
    sort(s.data(), s.size());
    matches += merge_sorted(r, s, acc, sink);
  }
  seconds += static_cast<double>(matches) *
             (cost_->tuple_compare_sec + cost_->match_emit_sec);
  return seconds;
}

double HybridHashSpiller::finish(JoinResult& acc, std::vector<Tuple>* sink) {
  EHJA_CHECK(!finished_);
  finished_ = true;
  double seconds = 0.0;
  for (Partition& part : partitions_) {
    if (!part.spilled) continue;
    seconds += join_partition(part, acc, sink);
  }
  return seconds;
}

double HybridHashSpiller::extract_all(std::vector<Tuple>& build_out,
                                      std::vector<Tuple>& probe_out) {
  EHJA_CHECK(!finished_);
  double seconds = 0.0;
  for (Partition& part : partitions_) {
    if (part.mem_tuples > 0) {
      std::vector<Tuple> mem = table_.extract_range(part.range);
      EHJA_CHECK(mem.size() == part.mem_tuples);
      part.mem_tuples = 0;
      build_out.insert(build_out.end(), mem.begin(), mem.end());
    }
    if (part.spilled) {
      seconds += part.r_file->flush() + part.s_file->flush();
      seconds += part.r_file->scan_all() + part.s_file->scan_all();
      for (const std::vector<Tuple>& bucket : part.r) {
        build_out.insert(build_out.end(), bucket.begin(), bucket.end());
      }
      for (const std::vector<Tuple>& bucket : part.s) {
        probe_out.insert(probe_out.end(), bucket.begin(), bucket.end());
      }
      part.r.clear();
      part.s.clear();
      part.spilled = false;
    }
  }
  build_tuples_ = 0;
  return seconds;
}

std::uint64_t HybridHashSpiller::spilled_build_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += row_count(p.r);
  return n;
}

std::uint64_t HybridHashSpiller::spilled_probe_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += row_count(p.s);
  return n;
}

std::size_t HybridHashSpiller::spilled_partitions() const {
  std::size_t n = 0;
  for (const Partition& p : partitions_) n += p.spilled ? 1 : 0;
  return n;
}

GraceOutcome grace_join(const Relation& build, const Relation& probe,
                        std::uint64_t memory_budget_bytes, std::size_t fanout,
                        SimDisk& disk, const CostModel& cost) {
  HybridHashSpiller spiller(build.schema(), PosRange{0, kPositionCount},
                            memory_budget_bytes, fanout, disk, cost,
                            /*stream_namespace=*/1);
  GraceOutcome outcome;
  outcome.seconds += spiller.add_build(TupleBatch::from_tuples(build.tuples()));
  outcome.seconds += spiller.add_probe(TupleBatch::from_tuples(probe.tuples()),
                                       outcome.result);
  outcome.seconds += spiller.finish(outcome.result);
  outcome.spilled_build_tuples = spiller.spilled_build_tuples();
  outcome.spilled_probe_tuples = spiller.spilled_probe_tuples();
  return outcome;
}

}  // namespace ehja
