// Fixed-width binned histogram over an integer domain.
//
// The hybrid algorithm's reshuffling step needs per-hash-position entry
// counts summed across a replica set (paper ss4.2.3).  Shipping one counter
// per position would cost megabytes, so counts are binned: `BinnedHistogram`
// covers a contiguous position range [lo, hi) with `bins` equal-width bins.
// The greedy contiguous partitioner (util/partition.hpp) then operates on the
// bin weights.
#pragma once

#include <cstdint>
#include <vector>

namespace ehja {

class BinnedHistogram {
 public:
  BinnedHistogram() = default;

  /// Covers [lo, hi) with `bins` equal-width bins.  The last bin absorbs the
  /// remainder when (hi - lo) is not divisible by `bins`.
  BinnedHistogram(std::uint64_t lo, std::uint64_t hi, std::size_t bins);

  /// Covers [lo, hi) with one bin per entry of `weights`, adopted as the bin
  /// weights (requires 0 < weights.size() <= hi - lo, so the geometry is
  /// exactly that of the (lo, hi, weights.size()) constructor).
  BinnedHistogram(std::uint64_t lo, std::uint64_t hi,
                  std::vector<std::uint64_t> weights);

  /// The number of bins the (lo, hi, bins) constructor creates: `bins`
  /// clamped to the range width.
  static std::size_t effective_bins(std::uint64_t lo, std::uint64_t hi,
                                    std::size_t bins);

  void add(std::uint64_t position, std::uint64_t weight = 1);

  /// Element-wise sum; both histograms must have identical geometry.  This is
  /// the "global sum operation ... among the nodes that share the same hash
  /// table range" from the paper.
  void merge(const BinnedHistogram& other);

  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }
  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin_weight(std::size_t bin) const { return counts_[bin]; }
  const std::vector<std::uint64_t>& weights() const { return counts_; }
  std::uint64_t total() const { return total_; }

  /// Inclusive lower position of `bin`.
  std::uint64_t bin_lo(std::size_t bin) const;
  /// Exclusive upper position of `bin`.
  std::uint64_t bin_hi(std::size_t bin) const;
  /// Bin index covering `position` (which must lie in [lo, hi)).
  std::size_t bin_of(std::uint64_t position) const;

  /// Serialized size in bytes when sent over the network (8 B per bin plus a
  /// small header); used by the cost model.
  std::size_t wire_bytes() const { return 32 + 8 * counts_.size(); }

  bool same_geometry(const BinnedHistogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size();
  }

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t width_ = 1;  // bin width; last bin may be wider
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace ehja
