// Serial in-core hash join -- the paper's Algorithm 1.
//
// Deliberately implemented with a plain std::unordered_multimap rather than
// LocalHashTable: it is the independent oracle the integration tests compare
// every distributed run against, so sharing code with the system under test
// would weaken the check.
#pragma once

#include <cstdint>
#include <vector>

#include "relation/relation.hpp"

namespace ehja {

struct JoinResult {
  std::uint64_t matches = 0;
  /// Sum of match_signature() over all output pairs (order independent).
  std::uint64_t checksum = 0;

  friend bool operator==(const JoinResult&, const JoinResult&) = default;
};

/// Build a hash table over `build`, probe it with `probe` (Algorithm 1).
/// When `out` is non-null, also append each output pair as
/// Tuple{build_row_id, probe_row_id} (one append per counted match); the
/// multi-way oracle uses this to materialize stage outputs tuple-by-tuple.
JoinResult serial_hash_join(const Relation& build, const Relation& probe,
                            std::vector<Tuple>* out = nullptr);

}  // namespace ehja
