#include "join/serial_join.hpp"

#include <unordered_map>

namespace ehja {

JoinResult serial_hash_join(const Relation& build, const Relation& probe,
                            std::vector<Tuple>* out) {
  std::unordered_multimap<std::uint64_t, std::uint64_t> table;
  table.reserve(build.size());
  for (const Tuple& r : build.tuples()) {
    table.emplace(r.key, r.id);
  }
  JoinResult result;
  for (const Tuple& s : probe.tuples()) {
    auto [lo, hi] = table.equal_range(s.key);
    for (auto it = lo; it != hi; ++it) {
      ++result.matches;
      result.checksum += match_signature(it->second, s.id);
      if (out) out->push_back(Tuple{it->second, s.id});
    }
  }
  return result;
}

}  // namespace ehja
