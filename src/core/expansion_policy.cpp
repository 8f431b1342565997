#include "core/expansion_policy.hpp"

#include <algorithm>
#include <utility>

#include "cluster/cost_model.hpp"
#include "relation/tuple.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

// ------------------------------------------------------------- base policy

std::unique_ptr<ExpansionPolicy> ExpansionPolicy::make(
    std::shared_ptr<const EhjaConfig> config, ExpansionEnv& env,
    ResourcePool pool) {
  switch (config->algorithm) {
    case Algorithm::kSplit:
      return std::make_unique<SplitPolicy>(std::move(config), env,
                                           std::move(pool));
    case Algorithm::kReplicate:
      return std::make_unique<ReplicatePolicy>(std::move(config), env,
                                               std::move(pool));
    case Algorithm::kHybrid:
      return std::make_unique<HybridPolicy>(std::move(config), env,
                                            std::move(pool));
    case Algorithm::kOutOfCore:
      return std::make_unique<OutOfCorePolicy>(std::move(config), env,
                                               std::move(pool));
    case Algorithm::kAdaptive:
      return std::make_unique<AdaptivePolicy>(std::move(config), env,
                                              std::move(pool));
  }
  EHJA_CHECK_MSG(false, "unknown algorithm");
  return nullptr;
}

ExpansionPolicy::ExpansionPolicy(std::shared_ptr<const EhjaConfig> config,
                                 ExpansionEnv& env, ResourcePool pool)
    : config_(std::move(config)), env_(env), pool_(std::move(pool)) {}

void ExpansionPolicy::on_memory_full(ActorId requester,
                                     const MemoryFullPayload& payload) {
  env_.trace(TraceKind::kMemoryFull, requester,
             static_cast<std::int64_t>(payload.footprint_bytes));
  if (pool_exhausted_) {
    send_switch_to_spill(requester);
    return;
  }
  if (std::find(full_queue_.begin(), full_queue_.end(), requester) ==
      full_queue_.end()) {
    full_queue_.push_back(requester);
  }
  try_start_expansion();
}

void ExpansionPolicy::try_start_expansion() {
  if (op_.has_value() || full_queue_.empty()) return;
  if (!env_.expansion_starting()) return;
  const ActorId requester = full_queue_.front();
  full_queue_.pop_front();
  start_expansion(requester);
}

void ExpansionPolicy::on_op_complete(const OpCompletePayload& done) {
  // A completion for an op abandoned by on_actor_dead() (or superseded
  // after a recovery) is stale, not a protocol violation.
  if (!op_.has_value() || done.op_id != op_->op_id) {
    EHJA_WARN("policy", "ignoring stale op-complete for op ", done.op_id);
    return;
  }
  const double duration = env_.now() - op_->started;
  if (op_->is_split) {
    env_.metrics().split_time += duration;
    env_.trace(TraceKind::kSplitOp, op_->requester,
               static_cast<std::int64_t>(done.tuples_received));
  } else {
    env_.metrics().expand_time += duration;
    env_.trace(TraceKind::kHandoffOp, op_->requester,
               static_cast<std::int64_t>(done.tuples_received));
  }
  env_.send_to(op_->requester, make_signal(Tag::kRelief));
  op_.reset();
  try_start_expansion();
}

void ExpansionPolicy::send_switch_to_spill(ActorId requester) {
  env_.metrics().pool_exhausted = true;
  env_.trace(TraceKind::kSpillSwitch, requester);
  spilled_.push_back(requester);
  env_.send_to(requester, make_signal(Tag::kSwitchToSpill));
}

void ExpansionPolicy::degrade_requester(ActorId requester) {
  pool_exhausted_ = true;
  send_switch_to_spill(requester);
  try_start_expansion();
}

void ExpansionPolicy::drop_stale(ActorId requester) {
  // The requester lost active ownership while queued (cannot happen with
  // FIFO channels, but degrade gracefully rather than wedge the build).
  EHJA_WARN("policy", "dropping stale memory-full from join ", requester);
  try_start_expansion();
}

std::optional<NodeId> ExpansionPolicy::acquire_node() {
  // Dead pool nodes are consumed and skipped: the pool does not know about
  // failures, but handing out a corpse would wedge the expansion op.
  while (auto picked = pool_.acquire()) {
    if (env_.node_alive(*picked)) return picked;
  }
  return std::nullopt;
}

void ExpansionPolicy::on_actor_dead(ActorId dead) {
  full_queue_.erase(std::remove(full_queue_.begin(), full_queue_.end(), dead),
                    full_queue_.end());
  spilled_.erase(std::remove(spilled_.begin(), spilled_.end(), dead),
                 spilled_.end());
  if (op_.has_value() &&
      (op_->requester == dead || op_->fresh == dead)) {
    // A participant died mid-op: the kOpComplete will never arrive and the
    // survivor's state is rebuilt by recovery.  Abandon without credit.
    EHJA_WARN("policy", "abandoning expansion op ", op_->op_id,
              " after death of join ", dead);
    op_.reset();
  }
}

std::optional<NodeId> ExpansionPolicy::acquire_or_spill_all(
    ActorId requester) {
  const auto picked = acquire_node();
  if (!picked.has_value()) {
    pool_exhausted_ = true;
    send_switch_to_spill(requester);
    // Everyone still queued gets the same answer.
    while (!full_queue_.empty()) {
      send_switch_to_spill(full_queue_.front());
      full_queue_.pop_front();
    }
  }
  return picked;
}

ActorId ExpansionPolicy::spawn_recruit(ActorId requester, NodeId node) {
  const ActorId fresh = env_.spawn_join(node);
  ++env_.metrics().expansions;
  env_.trace(TraceKind::kExpansion, requester, fresh);
  return fresh;
}

std::size_t ExpansionPolicy::entry_owned_by(ActorId actor) const {
  const PartitionMap& map = env_.map();
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map.entries()[i].active_owner() == actor) return i;
  }
  return map.size();
}

std::uint64_t ExpansionPolicy::begin_op(ActorId requester, bool is_split) {
  const std::uint64_t op_id = next_op_id_++;
  op_ = OpInfo{env_.now(), is_split, requester, kInvalidActor, op_id};
  return op_id;
}

void ExpansionPolicy::launch_split(ActorId requester, ActorId fresh,
                                   std::size_t entry_index, std::uint64_t mid,
                                   ActorId split_request_to) {
  PartitionMap& map = env_.map();
  const PosRange range = map.entries()[entry_index].range;
  const PosRange moved{mid, range.hi};
  map.split_entry(entry_index, mid, fresh);

  const std::uint64_t op_id = begin_op(requester, /*is_split=*/true);
  op_->fresh = fresh;

  JoinInitPayload init;
  init.role = JoinRole::kSplitChild;
  init.range = moved;
  init.source_count = config_->data_sources;
  init.op_id = op_id;
  init.epoch = env_.epoch();
  env_.send_to(fresh, make_message(Tag::kJoinInit, init, kControlWireBytes));

  SplitRequestPayload req;
  req.op_id = op_id;
  req.moved = moved;
  req.target = fresh;
  env_.send_to(split_request_to,
               make_message(Tag::kSplitRequest, req, kControlWireBytes));

  env_.broadcast_map();
  EHJA_DEBUG("policy", "split op ", op_id, ": join ", split_request_to,
             " ships [", moved.lo, ",", moved.hi, ") -> join ", fresh);
}

void ExpansionPolicy::launch_replica(ActorId requester, ActorId fresh,
                                     std::size_t entry_index) {
  PartitionMap& map = env_.map();
  const PosRange range = map.entries()[entry_index].range;
  map.add_replica(entry_index, fresh);

  const std::uint64_t op_id = begin_op(requester, /*is_split=*/false);
  op_->fresh = fresh;

  JoinInitPayload init;
  init.role = JoinRole::kReplica;
  init.range = range;
  init.source_count = config_->data_sources;
  init.op_id = op_id;
  init.epoch = env_.epoch();
  env_.send_to(fresh, make_message(Tag::kJoinInit, init, kControlWireBytes));

  HandoffStartPayload handoff;
  handoff.op_id = op_id;
  handoff.target = fresh;
  env_.send_to(requester,
               make_message(Tag::kHandoffStart, handoff, kControlWireBytes));

  env_.broadcast_map();
  EHJA_DEBUG("policy", "replication op ", op_id, ": join ", requester,
             " frozen, replica join ", fresh, " for [", range.lo, ",",
             range.hi, ")");
}

// ------------------------------------------------------------ split policy

SplitPolicy::SplitPolicy(std::shared_ptr<const EhjaConfig> config,
                         ExpansionEnv& env, ResourcePool pool,
                         std::uint64_t positions)
    : ExpansionPolicy(std::move(config), env, std::move(pool)) {
  if (this->config().split_variant == SplitVariant::kLinearPointer) {
    // The Litwin pointer variant assumes equal-width level-0 buckets.
    EHJA_CHECK_MSG(!this->config().balanced_initial_partition,
                   "linear-pointer split needs equal initial ranges");
    linear_.emplace(this->config().initial_join_nodes, positions);
  }
}

void SplitPolicy::start_expansion(ActorId requester) {
  if (config().split_variant == SplitVariant::kRequesterMidpoint) {
    start_requester_split(requester);
  } else {
    start_pointer_split(requester);
  }
}

void SplitPolicy::start_pointer_split(ActorId requester) {
  if (!linear_->split_possible()) {
    // Position resolution exhausted at the split pointer; nothing sane to
    // split, degrade the requester to local spilling.
    degrade_requester(requester);
    return;
  }
  const auto picked = acquire_or_spill_all(requester);
  if (!picked.has_value()) return;
  const ActorId fresh = spawn_recruit(requester, *picked);

  const LinearHashMap::Split split = linear_->split_next();
  // Owner of the bucket at the split pointer -- not necessarily the
  // requester (classic linear hashing).
  PartitionMap& map = env().map();
  const std::size_t entry_index = map.index_for(split.kept.lo);
  EHJA_CHECK(map.entries()[entry_index].range.lo == split.kept.lo);
  EHJA_CHECK(map.entries()[entry_index].range.hi == split.moved.hi);
  const ActorId owner = map.entries()[entry_index].active_owner();
  launch_split(requester, fresh, entry_index, split.moved.lo, owner);
}

void SplitPolicy::start_requester_split(ActorId requester) {
  // ss1 semantics: "partitions the hash table range assigned to the node,
  // on which memory is full, into two segments and assigns one of the
  // segments to a new node".
  const std::size_t entry_index = entry_owned_by(requester);
  if (entry_index == env().map().size()) {
    drop_stale(requester);
    return;
  }
  const PosRange range = env().map().entries()[entry_index].range;
  if (range.width() < 2) {
    // Position resolution exhausted: this range cannot be subdivided.
    degrade_requester(requester);
    return;
  }
  const auto picked = acquire_or_spill_all(requester);
  if (!picked.has_value()) return;
  const ActorId fresh = spawn_recruit(requester, *picked);
  const std::uint64_t mid = range.lo + range.width() / 2;
  launch_split(requester, fresh, entry_index, mid, requester);
}

// -------------------------------------------------------- replicate/hybrid

void ReplicatePolicy::start_expansion(ActorId requester) {
  // The requester must be the active owner of exactly one range.
  const std::size_t entry_index = entry_owned_by(requester);
  if (entry_index == env().map().size()) {
    drop_stale(requester);
    return;
  }
  const auto picked = acquire_or_spill_all(requester);
  if (!picked.has_value()) return;
  const ActorId fresh = spawn_recruit(requester, *picked);
  launch_replica(requester, fresh, entry_index);
}

bool HybridPolicy::wants_reshuffle() const {
  for (const auto& entry : env().map().entries()) {
    if (entry.owners.size() > 1) return true;
  }
  return false;
}

// ------------------------------------------------------------- out-of-core

void OutOfCorePolicy::on_memory_full(ActorId /*requester*/,
                                     const MemoryFullPayload& /*payload*/) {
  EHJA_CHECK_MSG(false, "out-of-core nodes must spill, not expand");
}

void OutOfCorePolicy::start_expansion(ActorId /*requester*/) {
  EHJA_CHECK_MSG(false, "out-of-core policy never expands");
}

// ---------------------------------------------------------------- adaptive

void AdaptivePolicy::on_memory_full(ActorId requester,
                                    const MemoryFullPayload& payload) {
  bool found = false;
  for (auto& [actor, report] : last_report_) {
    if (actor == requester) {
      report = payload;
      found = true;
      break;
    }
  }
  if (!found) last_report_.emplace_back(requester, payload);
  ExpansionPolicy::on_memory_full(requester, payload);
}

void AdaptivePolicy::start_expansion(ActorId requester) {
  const std::size_t entry_index = entry_owned_by(requester);
  if (entry_index == env().map().size()) {
    drop_stale(requester);
    return;
  }
  const PartitionMap::Entry& entry = env().map().entries()[entry_index];
  const PosRange range = entry.range;
  // A replica set pins its range: frozen members hold tuples of the full
  // range, so the map cannot subdivide it.  Degenerate ranges cannot split
  // either.  Otherwise let the cost model decide.
  MemoryFullPayload report;
  for (const auto& [actor, r] : last_report_) {
    if (actor == requester) report = r;
  }
  const bool can_split = entry.owners.size() == 1 && range.width() >= 2;
  const bool split = can_split && prefer_split(range, report);
  env().trace(TraceKind::kAdaptiveChoice, requester, split ? 1 : 0);

  const auto picked = acquire_or_spill_all(requester);
  if (!picked.has_value()) return;
  const ActorId fresh = spawn_recruit(requester, *picked);
  if (split) {
    ++env().metrics().adaptive_splits;
    const std::uint64_t mid = range.lo + range.width() / 2;
    launch_split(requester, fresh, entry_index, mid, requester);
  } else {
    ++env().metrics().adaptive_replicas;
    launch_replica(requester, fresh, entry_index);
  }
}

bool AdaptivePolicy::prefer_split(const PosRange& /*range*/,
                                  const MemoryFullPayload& report) const {
  const EhjaConfig& cfg = config();
  const double sec_per_byte = 1.0 / cfg.link.bandwidth_bytes_per_sec;
  const std::uint64_t footprint = report.footprint_bytes > 0
                                      ? report.footprint_bytes
                                      : cfg.node_hash_memory_bytes;
  const std::uint64_t held = footprint / tuple_footprint(cfg.build_rel.schema);

  // Split: ship half of the requester's held tuples to the recruit, once.
  const double split_cost = build_migration_cost_sec(
      cfg.cost, held / 2, cfg.build_rel.schema.tuple_bytes, sec_per_byte);

  // Replicate: every probe tuple of this range is broadcast to one more
  // node for the rest of the run.  The range's probe share is estimated
  // from its observed build share (the sources' progress reports); with no
  // reports yet the requester's own tuples are the only evidence.
  const std::uint64_t observed =
      std::max(env().observed_build_tuples(), held);
  const double share =
      static_cast<double>(held) / static_cast<double>(observed);
  const double range_probe_tuples =
      share * static_cast<double>(cfg.probe_rel.tuple_count);
  const double replicate_cost = probe_broadcast_cost_sec(
      cfg.cost, static_cast<std::uint64_t>(range_probe_tuples),
      cfg.probe_rel.schema.tuple_bytes, sec_per_byte);

  return split_cost <= replicate_cost;
}

}  // namespace ehja
