#include "util/histogram.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace ehja {

BinnedHistogram::BinnedHistogram(std::uint64_t lo, std::uint64_t hi,
                                 std::size_t bins)
    : lo_(lo), hi_(hi) {
  const std::size_t n = effective_bins(lo, hi, bins);
  width_ = (hi - lo) / n;
  counts_.assign(n, 0);
}

BinnedHistogram::BinnedHistogram(std::uint64_t lo, std::uint64_t hi,
                                 std::vector<std::uint64_t> weights)
    : lo_(lo), hi_(hi), counts_(std::move(weights)) {
  EHJA_CHECK(hi > lo);
  EHJA_CHECK(!counts_.empty() && counts_.size() <= hi - lo);
  width_ = (hi - lo) / counts_.size();
  for (const std::uint64_t w : counts_) total_ += w;
}

std::size_t BinnedHistogram::effective_bins(std::uint64_t lo, std::uint64_t hi,
                                            std::size_t bins) {
  EHJA_CHECK(hi > lo);
  EHJA_CHECK(bins > 0);
  return static_cast<std::size_t>(std::min<std::uint64_t>(bins, hi - lo));
}

void BinnedHistogram::add(std::uint64_t position, std::uint64_t weight) {
  counts_[bin_of(position)] += weight;
  total_ += weight;
}

void BinnedHistogram::merge(const BinnedHistogram& other) {
  EHJA_CHECK_MSG(same_geometry(other), "histogram geometry mismatch in merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::uint64_t BinnedHistogram::bin_lo(std::size_t bin) const {
  EHJA_CHECK(bin < counts_.size());
  return lo_ + width_ * bin;
}

std::uint64_t BinnedHistogram::bin_hi(std::size_t bin) const {
  EHJA_CHECK(bin < counts_.size());
  return bin + 1 == counts_.size() ? hi_ : lo_ + width_ * (bin + 1);
}

std::size_t BinnedHistogram::bin_of(std::uint64_t position) const {
  EHJA_CHECK_MSG(position >= lo_ && position < hi_,
                 "position outside histogram range");
  const std::size_t bin = static_cast<std::size_t>((position - lo_) / width_);
  // Positions in the remainder tail land past the last bin; clamp them in.
  return std::min(bin, counts_.size() - 1);
}

}  // namespace ehja
