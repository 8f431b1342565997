#include "core/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"

namespace ehja {

namespace {

bool canonical_less(const Tuple& a, const Tuple& b) {
  return a.id != b.id ? a.id < b.id : a.key < b.key;
}

/// The shared node ledger all stages draw from.  Slots are join-pool
/// indices [0, capacity); a stage's initial nodes and every expansion grant
/// come out of the same free list, lowest slot first (deterministic
/// placement), and a request against an empty list is a counted denial.
/// Thread-safe: PoolHooks fire from the scheduler's thread under
/// ThreadRuntime.
class StageBudget {
 public:
  explicit StageBudget(std::uint32_t capacity) : capacity_(capacity) {
    reset_free_locked();
  }

  std::optional<std::uint32_t> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      ++denied_;
      return std::nullopt;
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    ++in_use_;
    peak_ = std::max(peak_, in_use_);
    stage_peak_ = std::max(stage_peak_, in_use_);
    return slot;
  }

  void release(std::uint32_t slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    EHJA_CHECK_MSG(in_use_ > 0, "budget release without a matching acquire");
    --in_use_;
    free_.push_back(slot);
    // Keep the lowest slot on top so re-acquisition order stays
    // deterministic even after mid-stage releases (aborted expansions).
    std::sort(free_.begin(), free_.end(), std::greater<std::uint32_t>());
  }

  /// Stage drained: every node comes home, whatever path loaned it out.
  void release_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    in_use_ = 0;
    reset_free_locked();
  }

  /// Peak in-use count since the last call (and since construction).
  std::uint32_t take_stage_peak() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t peak = stage_peak_;
    stage_peak_ = in_use_;
    return peak;
  }

  std::uint32_t peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }
  std::uint32_t denied() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return denied_;
  }

 private:
  void reset_free_locked() {
    free_.clear();
    free_.reserve(capacity_);
    for (std::uint32_t j = capacity_; j > 0; --j) free_.push_back(j - 1);
  }

  const std::uint32_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::uint32_t> free_;  // sorted descending; back() = lowest
  std::uint32_t in_use_ = 0;
  std::uint32_t peak_ = 0;
  std::uint32_t stage_peak_ = 0;
  std::uint32_t denied_ = 0;
};

}  // namespace

std::shared_ptr<const MaterializedRelation> link_stage_output(
    std::vector<Tuple> pairs, std::uint64_t checksum,
    const DistributionSpec& link_dist, std::uint64_t link_seed) {
  auto out = std::make_shared<MaterializedRelation>();
  out->source_checksum = checksum;
  out->rows.reserve(pairs.size());
  for (const Tuple& pair : pairs) {
    // pair = {build_row_id, probe_row_id}.  The derived key is a function
    // of the build row id alone, so every match of one build row lands on
    // the same next-stage key (FK carry-through); the derived id is the
    // pair's signature, unique with overwhelming probability.
    SplitMix64 rng(link_seed, pair.id);
    out->rows.push_back(
        Tuple{match_signature(pair.id, pair.key), sample_key(link_dist, rng)});
  }
  // Canonical order: the captured multiset arrives in per-node report
  // order, which differs across runtimes; sorting makes the hand-off (and
  // with it every downstream row id) byte-identical everywhere.
  std::sort(out->rows.begin(), out->rows.end(), canonical_less);
  return out;
}

std::optional<std::string> PipelinePlan::validate_or_error() const {
  if (stages.empty()) return "pipeline plan has no stages";
  for (std::size_t k = 0; k < stages.size(); ++k) {
    std::ostringstream prefix;
    prefix << "stage " << k << ": ";
    if (stages[k].initial_join_nodes == 0) {
      return prefix.str() + "initial_join_nodes must be >= 1";
    }
    if (stages[k].initial_join_nodes > join_pool_nodes) {
      return prefix.str() + "stage budget exceeds the shared join pool";
    }
    EhjaConfig config = stage_config(k);
    if (k > 0) {
      // The build side's cardinality is a runtime quantity (the previous
      // stage's output); validate the rest of the stage with a 1-tuple
      // stand-in.
      config.build_rel.tuple_count = 1;
    }
    if (const std::optional<std::string> err = config.validate_or_error()) {
      return prefix.str() + *err;
    }
  }
  return std::nullopt;
}

void PipelinePlan::validate() const {
  if (const std::optional<std::string> err = validate_or_error()) {
    EHJA_CHECK_MSG(false, err->c_str());
  }
}

EhjaConfig PipelinePlan::stage_config(std::size_t k) const {
  EHJA_CHECK(k < stages.size());
  const PipelineStage& stage = stages[k];
  EhjaConfig config;
  config.algorithm = stage.algorithm;
  config.initial_join_nodes = stage.initial_join_nodes;
  config.join_pool_nodes = join_pool_nodes;
  config.data_sources = data_sources;
  config.node_hash_memory_bytes = node_hash_memory_bytes;
  config.chunk_tuples = chunk_tuples;
  if (k == 0) {
    config.build_rel = first_build;
  } else {
    config.build_rel = RelationSpec{RelTag::kR, 0,
                                    Schema{intermediate_tuple_bytes},
                                    stages[k - 1].link_dist, nullptr};
  }
  config.build_rel.tag = RelTag::kR;
  config.probe_rel = stage.probe;
  config.probe_rel.tag = RelTag::kS;
  // Each stage draws from its own deterministic stream family.
  config.seed = stage_seed(k);
  config.capture_output = true;
  config.pipeline_stage = static_cast<std::uint32_t>(k);
  config.faults = stage.faults;
  config.ft = ft;
  return config;
}

PipelineResult run_pipeline(const PipelinePlan& plan, RuntimeKind kind) {
  plan.validate();
  PipelineResult result;
  StageBudget budget(plan.join_pool_nodes);
  std::shared_ptr<const MaterializedRelation> build_data;  // null at stage 0
  bool dead = false;  // an upstream stage produced zero rows

  for (std::size_t k = 0; k < plan.stages.size(); ++k) {
    const bool last = k + 1 == plan.stages.size();
    StageResult sr;
    if (dead) {
      // An empty build side joins with anything to the empty result; the
      // distributed machinery insists on >= 1 build tuple, so the stage is
      // decided without running it (the oracle mirrors this).
      sr.build_input_checksum = build_data ? build_data->source_checksum : 0;
      result.stages.push_back(std::move(sr));
      continue;
    }

    EhjaConfig config = plan.stage_config(k);
    if (k > 0) {
      config.build_rel.tuple_count = build_data->rows.size();
      config.build_rel.data = build_data;
      sr.build_input_checksum = build_data->source_checksum;
    }
    config.validate();

    // Claim the stage's initial nodes from the shared ledger, then route
    // every further expansion through it via the admission hooks (the
    // per-query pool starts empty, so ResourcePool::acquire consults the
    // hook each time).
    std::vector<std::uint32_t> initial_slots;
    initial_slots.reserve(config.initial_join_nodes);
    for (std::uint32_t j = 0; j < config.initial_join_nodes; ++j) {
      const std::optional<std::uint32_t> slot = budget.acquire();
      EHJA_CHECK_MSG(slot.has_value(),
                     "shared budget cannot cover a stage's initial nodes");
      initial_slots.push_back(*slot);
    }

    QueryPlacement placement = QueryPlacement::from_config(
        config, /*standby_on_scheduler_node=*/kind == RuntimeKind::kSocket);
    placement.join_nodes.clear();
    for (const std::uint32_t slot : initial_slots) {
      placement.join_nodes.push_back(config.pool_node(slot));
    }
    placement.pool_nodes.clear();

    const NodeId pool_base = config.pool_node(0);
    RunOptions options;
    options.kind = kind;
    options.placement = std::move(placement);
    options.pool_hooks.acquire = [&budget,
                                  pool_base]() -> std::optional<NodeId> {
      const std::optional<std::uint32_t> slot = budget.acquire();
      if (!slot) return std::nullopt;
      return static_cast<NodeId>(pool_base + *slot);
    };
    options.pool_hooks.release = [&budget, pool_base](NodeId node) {
      budget.release(static_cast<std::uint32_t>(node - pool_base));
    };

    const std::uint32_t denied_before = budget.denied();
    RunResult run = run_ehja(config, options);
    // Stage drained: every node -- initial claim and expansion grants --
    // returns to the shared pool for the next stage.
    budget.release_all();

    sr.executed = true;
    sr.denied_expansions = budget.denied() - denied_before;
    sr.peak_join_nodes = budget.take_stage_peak();
    sr.output_rows = run.metrics.output_rows.size();
    sr.output_checksum = run.join().checksum;
    result.total_time += run.metrics.total_time();

    std::vector<Tuple> pairs = std::move(run.metrics.output_rows);
    run.metrics.output_rows.clear();
    EHJA_INFO("pipeline", "stage ", k, ": |build|=",
              config.build_rel.tuple_count,
              " |probe|=", config.probe_rel.tuple_count, " -> ", pairs.size(),
              " rows in ", run.metrics.total_time(), "s on ",
              run.metrics.final_join_nodes, " nodes (peak ",
              sr.peak_join_nodes, ", denied ", sr.denied_expansions, ")");

    if (last) {
      result.final = run.join();
      std::sort(pairs.begin(), pairs.end(), canonical_less);
      result.final_rows = std::move(pairs);
    } else {
      build_data = link_stage_output(std::move(pairs), run.join().checksum,
                                     plan.stages[k].link_dist,
                                     plan.link_seed(k));
      if (build_data->rows.empty()) dead = true;
    }
    sr.run = std::move(run);
    result.stages.push_back(std::move(sr));
  }

  result.peak_join_nodes = budget.peak();
  result.denied_expansions = budget.denied();
  return result;
}

MultiJoinResult serial_multi_join(const PipelinePlan& plan) {
  plan.validate();
  MultiJoinResult result;
  std::shared_ptr<const MaterializedRelation> build_data;
  bool dead = false;

  for (std::size_t k = 0; k < plan.stages.size(); ++k) {
    const bool last = k + 1 == plan.stages.size();
    if (dead) {
      result.stage_results.push_back(JoinResult{});
      continue;
    }

    Relation build;
    if (k == 0) {
      RelationSpec spec = plan.first_build;
      spec.tag = RelTag::kR;
      build = materialize(spec, plan.stage_seed(0), plan.data_sources);
    } else {
      build = Relation(RelTag::kR, Schema{plan.intermediate_tuple_bytes});
      build.reserve(build_data->rows.size());
      for (const Tuple& t : build_data->rows) build.add(t);
    }
    RelationSpec probe_spec = plan.stages[k].probe;
    probe_spec.tag = RelTag::kS;
    const Relation probe =
        materialize(probe_spec, plan.stage_seed(k), plan.data_sources);

    std::vector<Tuple> pairs;
    const JoinResult jr = serial_hash_join(build, probe, &pairs);
    result.stage_results.push_back(jr);

    if (last) {
      result.final = jr;
      std::sort(pairs.begin(), pairs.end(), canonical_less);
      result.final_rows = std::move(pairs);
    } else {
      build_data =
          link_stage_output(std::move(pairs), jr.checksum,
                            plan.stages[k].link_dist, plan.link_seed(k));
      if (build_data->rows.empty()) dead = true;
    }
  }
  return result;
}

}  // namespace ehja
