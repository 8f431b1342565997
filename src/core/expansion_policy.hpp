// Expansion policy layer -- the per-algorithm half of the scheduler.
//
// The SchedulerActor (core/scheduler.hpp) is a phase machine; *what to do
// when a join node runs out of memory* is an algorithm decision, and every
// algorithm of the paper answers it differently:
//
//   split       migrate half of a bucket to a fresh node (ss4.2.1);
//   replicate   freeze the full node, replicate its range (ss4.2.2);
//   hybrid      replicate now, reshuffle the replica sets between the
//               build and probe phases (ss4.2.3);
//   out-of-core never expand -- nodes spill locally, so a memory-full
//               message is a protocol violation;
//   adaptive    (extension, the ss6 "which strategy when" question asked
//               *per overflow*): consult the cost model -- estimated
//               build-migration cost of a split vs. probe-broadcast cost
//               of a replica, from observed source rates and the current
//               partition map -- and pick the cheaper expansion each time.
//
// An ExpansionPolicy owns everything downstream of that decision: the
// overflow request queue, the single-op-in-flight barrier, node
// acquisition from the ResourcePool, degradation to local spilling when
// the pool (or the position resolution) is exhausted, and the partition
// map mutations of each expansion.  The scheduler funnels kMemoryFull and
// kOpComplete into the policy and otherwise only needs to know whether the
// policy is idle (the build-drain gate) and whether the final map calls
// for a reshuffle.
//
// Policies talk to the world exclusively through ExpansionEnv, so every
// pool-exhaustion and resolution-exhaustion edge is unit-testable against
// a fake environment (tests/test_expansion_policy.cpp) without standing up
// a full run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/resource_pool.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "hash/hash_family.hpp"
#include "hash/partition_map.hpp"
#include "trace/trace.hpp"

namespace ehja {

/// Services the scheduler provides to an expansion policy.  Everything a
/// policy does to the outside world -- spawning a join process, sending
/// protocol messages, broadcasting the partition map -- goes through this
/// interface.
class ExpansionEnv {
 public:
  virtual ~ExpansionEnv() = default;

  /// The authoritative partition map (policies mutate it).
  virtual PartitionMap& map() = 0;
  /// Run metrics (expansions, pool_exhausted, op times, adaptive counts).
  virtual RunMetrics& metrics() = 0;
  /// Instantiate a fresh join process on `node`, register it with the
  /// scheduler's join list (the drain polls it), return its actor id.
  virtual ActorId spawn_join(NodeId node) = 0;
  /// Send a protocol message to a join actor.
  virtual void send_to(ActorId to, Message msg) = 0;
  /// Broadcast the (mutated) partition map to the data sources.
  virtual void broadcast_map() = 0;
  /// An expansion attempt is starting.  The scheduler aborts an in-flight
  /// build drain and returns whether expansion is currently legal (it is
  /// not outside the build phases).
  virtual bool expansion_starting() = 0;
  /// Build tuples the data sources report having generated so far (the
  /// adaptive policy's observed-rate input; 0 when nothing was reported).
  virtual std::uint64_t observed_build_tuples() const = 0;
  virtual SimTime now() const = 0;
  virtual void trace(TraceKind kind, std::int64_t a = 0,
                     std::int64_t b = 0) = 0;

  // --- recovery services (core/recovery.hpp drives expansion machinery
  // through the same seam) ---
  /// Live join actors, in spawn order (dead ones already pruned).
  virtual const std::vector<ActorId>& join_actors() const = 0;
  /// The data-source actors, in source-index order.
  virtual const std::vector<ActorId>& source_actors() const = 0;
  /// Fail-stop liveness of a cluster node (Runtime::node_alive).
  virtual bool node_alive(NodeId node) const = 0;
  /// Current recovery incarnation epoch (0 until the first recovery); a
  /// join spawned now adopts it through JoinInitPayload::epoch.
  virtual std::uint64_t epoch() const = 0;
};

class ExpansionPolicy {
 public:
  /// The only algorithm dispatch in the system: EhjaConfig::algorithm to
  /// concrete policy.
  static std::unique_ptr<ExpansionPolicy> make(
      std::shared_ptr<const EhjaConfig> config, ExpansionEnv& env,
      ResourcePool pool);

  virtual ~ExpansionPolicy() = default;

  /// A join node reported memory full (build phase only).
  virtual void on_memory_full(ActorId requester,
                              const MemoryFullPayload& payload);

  /// The in-flight expansion op finished: credit its duration, relieve the
  /// requester, start the next queued expansion.
  void on_op_complete(const OpCompletePayload& done);

  /// No op in flight and no requester queued -- the scheduler's gate for
  /// entering the build drain.
  bool idle() const { return !op_.has_value() && full_queue_.empty(); }

  /// Does the build-complete partition map call for a reshuffle phase?
  virtual bool wants_reshuffle() const { return false; }

  /// Join actors degraded to local spilling; their partitions live on
  /// disk, so they cannot take part in a reshuffle.
  const std::vector<ActorId>& spilled() const { return spilled_; }

  bool pool_exhausted() const { return pool_exhausted_; }

  /// Unclaimed pool nodes (scheduler-failover snapshot input).  A copy:
  /// the pool is thread-safe now and hands out value snapshots.
  std::vector<NodeId> free_pool_nodes() const { return pool_.free_nodes(); }
  /// Seed the spilled list at scheduler promotion: the members already
  /// received kSwitchToSpill from the predecessor, so nothing is re-sent.
  void adopt_spilled(std::vector<ActorId> spilled) {
    spilled_ = std::move(spilled);
  }

  // --- recovery hooks -------------------------------------------------
  /// Acquire a pool node, skipping nodes that have since died (a dead pool
  /// node is silently consumed).  Used by the recovery manager to recruit
  /// replacement nodes; does not touch the overflow queue.
  std::optional<NodeId> acquire_node();
  /// `dead` was declared failed: purge it from the overflow queue and the
  /// spilled list, and abandon the in-flight op if it involves the dead
  /// actor (its kOpComplete will never arrive; the survivor's state is
  /// rebuilt by recovery).  Does not start new ops -- the scheduler calls
  /// kick() once recovery finishes.
  void on_actor_dead(ActorId dead);
  /// Restart queued expansions after recovery resumes the build.
  void kick() { try_start_expansion(); }
  /// Degrade `requester` to local spilling unconditionally (probe-phase
  /// recovery with no memory headroom for the rebuilt range).
  void force_spill(ActorId requester) { send_switch_to_spill(requester); }

  ExpansionPolicy(std::shared_ptr<const EhjaConfig> config, ExpansionEnv& env,
                  ResourcePool pool);

 protected:
  /// Start the expansion operation for `requester` (the policy decision
  /// point).  Implementations either begin an op, or degrade the requester
  /// and continue with the queue.
  virtual void start_expansion(ActorId requester) = 0;

  /// Pop the queue and dispatch to start_expansion while no op is in
  /// flight (the barrier: at most one expansion op at a time).
  void try_start_expansion();

  // --- shared expansion primitives -------------------------------------

  /// Tell `requester` to degrade to local disk spilling.
  void send_switch_to_spill(ActorId requester);
  /// Resolution exhausted for `requester`: mark the pool done, degrade the
  /// requester, and continue with the rest of the queue.
  void degrade_requester(ActorId requester);
  /// `requester` is no longer an active owner (cannot happen with FIFO
  /// channels): drop the stale request, continue with the queue.
  void drop_stale(ActorId requester);
  /// Acquire a pool node; on exhaustion degrade the requester and flush
  /// every queued requester to spilling.
  std::optional<NodeId> acquire_or_spill_all(ActorId requester);
  /// Spawn the recruited join process and record the expansion.
  ActorId spawn_recruit(ActorId requester, NodeId node);
  /// Index of the map entry actively owned by `actor`; map().size() if
  /// none.
  std::size_t entry_owned_by(ActorId actor) const;

  /// Split `entry_index` at `mid`: the upper half migrates to the already
  /// recruited `fresh` node; `split_request_to` (the entry's active owner)
  /// ships it.
  void launch_split(ActorId requester, ActorId fresh, std::size_t entry_index,
                    std::uint64_t mid, ActorId split_request_to);
  /// Replicate the range of `entry_index` on the already recruited `fresh`
  /// node: `requester` freezes and hands off its pending chunks.
  void launch_replica(ActorId requester, ActorId fresh,
                      std::size_t entry_index);

  const EhjaConfig& config() const { return *config_; }
  ExpansionEnv& env() const { return env_; }

 private:
  struct OpInfo {
    SimTime started = 0.0;
    bool is_split = false;
    ActorId requester = kInvalidActor;
    ActorId fresh = kInvalidActor;
    std::uint64_t op_id = 0;
  };

  std::uint64_t begin_op(ActorId requester, bool is_split);

  std::shared_ptr<const EhjaConfig> config_;
  ExpansionEnv& env_;
  ResourcePool pool_;
  bool pool_exhausted_ = false;
  std::vector<ActorId> spilled_;

  // expansion serialization (the barrier)
  std::deque<ActorId> full_queue_;
  std::optional<OpInfo> op_;  // at most one in flight
  std::uint64_t next_op_id_ = 1;
};

/// ss4.2.1: linear hashing across nodes.  Owns the LinearHashMap of the
/// kLinearPointer variant; the default kRequesterMidpoint variant halves
/// the overflowing node's own range.
class SplitPolicy final : public ExpansionPolicy {
 public:
  /// `positions` sizes the linear-hash position space; tests shrink it to
  /// reach resolution exhaustion (production uses kPositionCount).
  SplitPolicy(std::shared_ptr<const EhjaConfig> config, ExpansionEnv& env,
              ResourcePool pool, std::uint64_t positions = kPositionCount);

 protected:
  void start_expansion(ActorId requester) override;

 private:
  void start_pointer_split(ActorId requester);
  void start_requester_split(ActorId requester);

  std::optional<LinearHashMap> linear_;  // kLinearPointer variant only
};

/// ss4.2.2: replicate the overflowed range on a fresh node.
class ReplicatePolicy : public ExpansionPolicy {
 public:
  using ExpansionPolicy::ExpansionPolicy;

 protected:
  void start_expansion(ActorId requester) override;
};

/// ss4.2.3: replicate during the build, then reshuffle the replica sets.
/// Expansion behaviour is exactly the replication policy's; the difference
/// is the post-build reshuffle request.
class HybridPolicy final : public ReplicatePolicy {
 public:
  using ReplicatePolicy::ReplicatePolicy;

  bool wants_reshuffle() const override;
};

/// Baseline: nodes spill to local disk and never expand, so a memory-full
/// message is a protocol violation.
class OutOfCorePolicy final : public ExpansionPolicy {
 public:
  using ExpansionPolicy::ExpansionPolicy;

  void on_memory_full(ActorId requester,
                      const MemoryFullPayload& payload) override;

 protected:
  void start_expansion(ActorId requester) override;
};

/// Extension: pick split or replicate *per overflow* by comparing the cost
/// model's estimate of the one-time build-migration cost of a split with
/// the recurring probe-broadcast cost of a replica (cluster/cost_model).
/// Ranges that already carry replicas keep replicating (a replica set pins
/// its range: the frozen members hold tuples of the full range, so the map
/// cannot subdivide it), as do ranges too narrow to split.
class AdaptivePolicy final : public ExpansionPolicy {
 public:
  using ExpansionPolicy::ExpansionPolicy;

 protected:
  void start_expansion(ActorId requester) override;

 private:
  bool prefer_split(const PosRange& range,
                    const MemoryFullPayload& payload) const;

  /// Footprint of the most recent overflow report per requester (the
  /// decision input; keyed by actor, refreshed on every kMemoryFull).
  void on_memory_full(ActorId requester,
                      const MemoryFullPayload& payload) override;
  std::vector<std::pair<ActorId, MemoryFullPayload>> last_report_;
};

}  // namespace ehja
