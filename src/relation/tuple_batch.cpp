#include "relation/tuple_batch.hpp"

#include <utility>

namespace ehja {

TupleBatch TupleBatch::from_tuples(const std::vector<Tuple>& tuples) {
  TupleBatch batch;
  batch.reserve(tuples.size());
  for (const Tuple& t : tuples) batch.append(t.id, t.key);
  return batch;
}

TupleBatch TupleBatch::from_columns(std::vector<std::uint64_t> ids,
                                    std::vector<std::uint64_t> keys) {
  EHJA_CHECK(ids.size() == keys.size());
  TupleBatch batch;
  batch.positions_.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    batch.positions_[i] = static_cast<std::uint32_t>(position_of(keys[i]));
  }
  batch.ids_ = std::move(ids);
  batch.keys_ = std::move(keys);
  return batch;
}

void TupleBatch::reserve(std::size_t n) {
  ids_.reserve(n);
  keys_.reserve(n);
  positions_.reserve(n);
}

void TupleBatch::clear() {
  ids_.clear();
  keys_.clear();
  positions_.clear();
}

void TupleBatch::append_range(const TupleBatch& src, std::size_t begin,
                              std::size_t end) {
  ids_.insert(ids_.end(), src.ids_.begin() + begin, src.ids_.begin() + end);
  keys_.insert(keys_.end(), src.keys_.begin() + begin,
               src.keys_.begin() + end);
  positions_.insert(positions_.end(), src.positions_.begin() + begin,
                    src.positions_.begin() + end);
}

std::vector<Tuple> TupleBatch::to_tuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(tuple(i));
  return out;
}

}  // namespace ehja
