// Materialized multi-way join pipelines -- the paper's ss6 future work.
//
// A multi-join plan  ((R1 |><| R2) |><| R3) |><| ...  evaluated left-deep:
// each stage's join output becomes the *build* relation of the next stage.
// The defining property (and the reason the paper cares): the build size of
// stage k+1 is the output cardinality of stage k, which is unknowable when
// the query starts -- exactly the situation the Expanding Hash-based Join
// Algorithms were designed for.  Each stage therefore starts on a small
// initial node set and expands on demand.
//
// Unlike the earlier modeled pipeline (which only carried cardinalities
// forward), stages here hand over *concrete rows*: a stage runs with
// EhjaConfig::capture_output so its join nodes stream their matched
// (build_row_id, probe_row_id) pairs back to the scheduler, the driver
// canonicalizes and re-keys them (link_stage_output below), and the result
// rides into the next stage's config as a MaterializedRelation.  Data
// sources replay slices of that shared row vector through the ordinary
// TupleStream machinery, so deterministic replay -- and with it recovery,
// source reassignment and partition rebuild -- works mid-pipeline exactly
// as it does for generated relations.
//
// Expansion across stages negotiates against one shared node budget
// (plan.join_pool_nodes): every stage's initial nodes and every expansion
// grant come out of the same ledger through the admission-control PoolHooks
// path, a stage returns all its nodes when it drains, and a request beyond
// the budget is a counted denial (the scheduler's pool-exhausted handling
// takes over, e.g. spilling).
//
// Every pipeline execution is verified against serial_multi_join(), the
// tuple-by-tuple oracle below: same plan, same seeds, byte-identical final
// rows on every runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/driver.hpp"

namespace ehja {

struct PipelineStage {
  /// The new relation this stage probes with (the build side is the
  /// previous stage's output; for stage 0 it is `first_build` below).
  RelationSpec probe;
  Algorithm algorithm = Algorithm::kHybrid;
  /// Nodes this stage claims from the shared budget before it starts.
  std::uint32_t initial_join_nodes = 2;
  /// Key distribution of this stage's output rows when they become the
  /// next stage's build input.  The derived key is a function of the
  /// *build-side* row id, so all matches of one build row carry the same
  /// next-stage key -- the foreign-key carry-through that makes
  /// TPC-H-shaped chains (lineitem |><| orders |><| customer) meaningful.
  /// Ignored on the final stage.
  DistributionSpec link_dist = DistributionSpec::SmallDomain(1 << 20);
  /// Failures injected while this stage runs (stage-local pool indices).
  FaultPlan faults;
};

struct PipelinePlan {
  /// Build relation of the first stage.
  RelationSpec first_build;
  /// Tuple size of intermediate results (join output rows are wider than
  /// either input; default: both inputs' payloads side by side).
  std::uint32_t intermediate_tuple_bytes = 200;
  std::vector<PipelineStage> stages;

  /// Shared cluster parameters applied to every stage.  join_pool_nodes is
  /// the *global* node budget all stages draw from.
  std::uint32_t join_pool_nodes = 24;
  std::uint32_t data_sources = 4;
  std::uint64_t node_hash_memory_bytes = 80 * kMiB;
  std::uint64_t seed = 1;
  /// Transport chunk capacity for every stage.
  std::uint32_t chunk_tuples = 10'000;
  /// Failure-detection knobs, applied to every stage (recovery arms itself
  /// per stage when that stage's FaultPlan is non-empty, as usual).
  FaultToleranceConfig ft;

  /// First problem with the plan as a human-readable message, or nullopt.
  /// Rejects (at least): an empty stage list, a stage with zero
  /// initial_join_nodes, a stage budget exceeding the global pool, and any
  /// per-stage EhjaConfig rejection.
  std::optional<std::string> validate_or_error() const;
  /// Abort-on-nonsense variant of validate_or_error().
  void validate() const;

  /// The EhjaConfig stage `k` runs with, before the build side's
  /// materialized rows are attached (tests use this to cross-check seeds
  /// and per-stage layout; run_pipeline builds the same config).
  EhjaConfig stage_config(std::size_t k) const;
  /// Per-stage deterministic seed family (stage configs and the oracle
  /// draw probe relations from the same streams).
  std::uint64_t stage_seed(std::size_t k) const {
    return seed + 0x1000 * (static_cast<std::uint64_t>(k) + 1);
  }
  /// Seed of the key-rederivation stream linking stage k to stage k+1.
  std::uint64_t link_seed(std::size_t k) const {
    return seed ^ (0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull *
                                               (static_cast<std::uint64_t>(k) + 1));
  }
};

/// One executed (or short-circuited) stage.
struct StageResult {
  RunResult run;
  /// False when an upstream stage produced zero rows and this stage was
  /// short-circuited (its contribution is exactly zero matches).
  bool executed = false;
  /// Rows this stage handed to the next stage (== run.join().matches when
  /// executed).
  std::uint64_t output_rows = 0;
  /// JoinResult::checksum of this stage's output.
  std::uint64_t output_checksum = 0;
  /// source_checksum stamped on this stage's materialized build input
  /// (0 for stage 0, whose build side is generated).  Invariant:
  /// stages[k].output_checksum == stages[k+1].build_input_checksum.
  std::uint64_t build_input_checksum = 0;
  /// Expansion requests the shared budget denied during this stage.
  std::uint32_t denied_expansions = 0;
  /// Peak nodes this stage held from the shared budget (initial + grants).
  std::uint32_t peak_join_nodes = 0;
};

struct PipelineResult {
  std::vector<StageResult> stages;
  /// Sum of stage total times (stages run back to back; overlapping them
  /// is still future work, as in the paper's ss6).
  double total_time = 0.0;
  /// Peak concurrent node usage against the shared budget, across stages.
  /// Never exceeds plan.join_pool_nodes -- the ledger enforces it.
  std::uint32_t peak_join_nodes = 0;
  /// Total expansion denials across stages.
  std::uint32_t denied_expansions = 0;
  /// The final stage's result (matches + order-independent checksum).
  JoinResult final;
  /// The final stage's output pairs in canonical order (sorted by the
  /// derived (id, key) of link_stage_output's transform applied with an
  /// identity link: here, sorted (build_row_id, probe_row_id)).  Compared
  /// byte-identically against serial_multi_join().
  std::vector<Tuple> final_rows;
};

/// Execute the plan stage by stage on the chosen runtime.  Aborts
/// (EHJA_CHECK) on an invalid plan -- call plan.validate_or_error() first
/// when the plan is untrusted input.
PipelineResult run_pipeline(const PipelinePlan& plan,
                            RuntimeKind kind = RuntimeKind::kSim);

/// The multi-way oracle: evaluate the whole chain serially, materializing
/// every intermediate tuple-by-tuple with serial_hash_join's capture sink
/// and the same link transform the distributed driver uses.  Every
/// run_pipeline() of the same plan must match it byte-identically.
struct MultiJoinResult {
  /// Per-stage (matches, checksum); short-circuited stages report zeros.
  std::vector<JoinResult> stage_results;
  JoinResult final;
  std::vector<Tuple> final_rows;  // canonical order (see PipelineResult)
};
MultiJoinResult serial_multi_join(const PipelinePlan& plan);

/// The stage hand-off transform, shared verbatim by run_pipeline and
/// serial_multi_join: each captured pair Tuple{r_id, s_id} becomes a build
/// row with id' = match_signature(r_id, s_id) (provenance-unique) and
/// key' = sample_key(link_dist, SplitMix64(link_seed, r_id)) (constant per
/// build row -- FK carry-through), and rows are sorted by (id, key) so the
/// result is independent of capture order.  `checksum` (the producing
/// stage's JoinResult::checksum) is stamped as source_checksum.
std::shared_ptr<const MaterializedRelation> link_stage_output(
    std::vector<Tuple> pairs, std::uint64_t checksum,
    const DistributionSpec& link_dist, std::uint64_t link_seed);

}  // namespace ehja
