// Unit tests for the expansion-policy layer against a fake environment.
//
// These drive every pool-exhaustion and resolution-exhaustion edge through
// the ExpansionEnv seam without standing up a run: the fake records spawns,
// sends and map broadcasts, and the tests assert on the exact protocol
// traffic each policy emits.  The DrainProtocol state machine is covered at
// the bottom of the file.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/drain.hpp"
#include "core/expansion_policy.hpp"
#include "relation/tuple.hpp"

namespace ehja {
namespace {

struct FakeEnv final : public ExpansionEnv {
  PartitionMap map_;
  RunMetrics metrics_;
  struct Sent {
    ActorId to;
    Message msg;
  };
  std::vector<Sent> sent;
  std::vector<NodeId> spawned_nodes;
  ActorId next_actor = 100;
  int broadcasts = 0;
  bool allow_expansion = true;
  std::uint64_t observed = 0;
  SimTime now_ = 0.0;
  std::vector<std::pair<TraceKind, std::pair<std::int64_t, std::int64_t>>>
      traces;

  PartitionMap& map() override { return map_; }
  RunMetrics& metrics() override { return metrics_; }
  ActorId spawn_join(NodeId node) override {
    spawned_nodes.push_back(node);
    return next_actor++;
  }
  void send_to(ActorId to, Message msg) override {
    sent.push_back({to, std::move(msg)});
  }
  void broadcast_map() override { ++broadcasts; }
  bool expansion_starting() override { return allow_expansion; }
  std::uint64_t observed_build_tuples() const override { return observed; }
  SimTime now() const override { return now_; }
  void trace(TraceKind kind, std::int64_t a, std::int64_t b) override {
    traces.push_back({kind, {a, b}});
  }
  std::vector<ActorId> join_list{1, 2, 3, 4};
  std::vector<ActorId> source_list;
  const std::vector<ActorId>& join_actors() const override {
    return join_list;
  }
  const std::vector<ActorId>& source_actors() const override {
    return source_list;
  }
  bool node_alive(NodeId /*node*/) const override { return true; }
  std::uint64_t epoch() const override { return 0; }

  std::vector<Sent> with_tag(Tag tag) const {
    std::vector<Sent> out;
    for (const auto& s : sent) {
      if (s.msg.tag == static_cast<int>(tag)) out.push_back(s);
    }
    return out;
  }
};

class PolicyTest : public ::testing::Test {
 protected:
  ResourcePool make_pool(std::size_t nodes) {
    std::vector<NodeId> potential;
    for (std::size_t i = 0; i < nodes; ++i) {
      potential.push_back(static_cast<NodeId>(10 + i));
    }
    return ResourcePool(spec, std::move(potential), config->pick_policy);
  }

  std::unique_ptr<ExpansionPolicy> make_policy(
      Algorithm algorithm, std::size_t pool_nodes,
      std::uint64_t positions = kPositionCount) {
    config->algorithm = algorithm;
    env.map_ = PartitionMap::initial(joins, positions);
    return ExpansionPolicy::make(config, env, make_pool(pool_nodes));
  }

  void memory_full(ExpansionPolicy& policy, ActorId from,
                   std::uint64_t footprint = 0) {
    MemoryFullPayload payload;
    payload.footprint_bytes = footprint;
    payload.budget_bytes = config->node_hash_memory_bytes;
    policy.on_memory_full(from, payload);
  }

  void op_complete(ExpansionPolicy& policy, std::uint64_t op_id) {
    OpCompletePayload done;
    done.op_id = op_id;
    policy.on_op_complete(done);
  }

  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  ClusterSpec spec = make_uniform_cluster(64);
  FakeEnv env;
  std::vector<ActorId> joins{1, 2, 3, 4};
};

// ------------------------------------------------------ protocol round-trip

TEST_F(PolicyTest, SplitServicesOverflowThroughProtocol) {
  auto policy = make_policy(Algorithm::kSplit, 8);
  memory_full(*policy, 1);

  // One node recruited, one split op in flight.
  ASSERT_EQ(env.spawned_nodes.size(), 1u);
  EXPECT_FALSE(policy->idle());
  EXPECT_EQ(env.metrics_.expansions, 1u);
  EXPECT_EQ(env.broadcasts, 1);

  // The fresh node gets its half-range init; the requester ships it.
  const auto inits = env.with_tag(Tag::kJoinInit);
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_EQ(inits[0].to, 100);
  const auto& init = inits[0].msg.as<JoinInitPayload>();
  EXPECT_EQ(init.role, JoinRole::kSplitChild);
  const PosRange upper{kPositionCount / 8, kPositionCount / 4};
  EXPECT_EQ(init.range, upper);

  const auto reqs = env.with_tag(Tag::kSplitRequest);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].to, 1);
  const auto& req = reqs[0].msg.as<SplitRequestPayload>();
  EXPECT_EQ(req.moved, upper);
  EXPECT_EQ(req.target, 100);

  // The map now carries the fifth, single-owner entry.
  EXPECT_EQ(env.map_.size(), 5u);
  EXPECT_EQ(env.map_.entry_for(upper.lo).active_owner(), 100);

  // Op completion relieves the requester and returns the policy to idle.
  op_complete(*policy, req.op_id);
  const auto reliefs = env.with_tag(Tag::kRelief);
  ASSERT_EQ(reliefs.size(), 1u);
  EXPECT_EQ(reliefs[0].to, 1);
  EXPECT_TRUE(policy->idle());
}

TEST_F(PolicyTest, OverflowsSerializeBehindTheInflightOp) {
  auto policy = make_policy(Algorithm::kReplicate, 8);
  memory_full(*policy, 1);
  ASSERT_EQ(env.spawned_nodes.size(), 1u);

  // A second (and duplicate) overflow queues; no new op starts.
  memory_full(*policy, 2);
  memory_full(*policy, 2);
  EXPECT_EQ(env.spawned_nodes.size(), 1u);
  EXPECT_FALSE(policy->idle());

  // Completing op 1 launches exactly one op for the deduplicated requester.
  const auto first = env.with_tag(Tag::kHandoffStart);
  ASSERT_EQ(first.size(), 1u);
  op_complete(*policy, first[0].msg.as<HandoffStartPayload>().op_id);
  EXPECT_EQ(env.spawned_nodes.size(), 2u);
  const auto handoffs = env.with_tag(Tag::kHandoffStart);
  ASSERT_EQ(handoffs.size(), 2u);
  EXPECT_EQ(handoffs[1].to, 2);

  op_complete(*policy, handoffs[1].msg.as<HandoffStartPayload>().op_id);
  EXPECT_TRUE(policy->idle());
  EXPECT_EQ(env.metrics_.expansions, 2u);
}

TEST_F(PolicyTest, ExpansionDeniedOutsideBuildStaysQueued) {
  auto policy = make_policy(Algorithm::kReplicate, 8);
  env.allow_expansion = false;
  memory_full(*policy, 1);
  // Nothing starts, but the request is not lost.
  EXPECT_TRUE(env.spawned_nodes.empty());
  EXPECT_FALSE(policy->idle());
}

// ------------------------------------------------------ pool exhaustion

TEST_F(PolicyTest, PoolExhaustionMidQueueFlushesEveryoneToSpill) {
  // One pool node: the first overflow consumes it; two more queue behind
  // the in-flight op.  When the op completes and the next acquire fails,
  // the whole queue must degrade to spilling, not just its head.
  auto policy = make_policy(Algorithm::kReplicate, 1);
  memory_full(*policy, 1);
  memory_full(*policy, 2);
  memory_full(*policy, 3);
  ASSERT_EQ(env.spawned_nodes.size(), 1u);

  const auto handoffs = env.with_tag(Tag::kHandoffStart);
  ASSERT_EQ(handoffs.size(), 1u);
  op_complete(*policy, handoffs[0].msg.as<HandoffStartPayload>().op_id);

  const auto spills = env.with_tag(Tag::kSwitchToSpill);
  ASSERT_EQ(spills.size(), 2u);
  EXPECT_EQ(spills[0].to, 2);
  EXPECT_EQ(spills[1].to, 3);
  EXPECT_EQ(policy->spilled(), (std::vector<ActorId>{2, 3}));
  EXPECT_TRUE(policy->pool_exhausted());
  EXPECT_TRUE(env.metrics_.pool_exhausted);
  EXPECT_TRUE(policy->idle());
  EXPECT_EQ(env.metrics_.expansions, 1u);

  // Later overflows short-circuit straight to spilling.
  memory_full(*policy, 4);
  EXPECT_EQ(env.with_tag(Tag::kSwitchToSpill).size(), 3u);
  EXPECT_EQ(policy->spilled(), (std::vector<ActorId>{2, 3, 4}));
  EXPECT_TRUE(policy->idle());
}

// ------------------------------------------------ resolution exhaustion

TEST_F(PolicyTest, LinearPointerResolutionExhaustionDegradesToSpill) {
  // Four single-position buckets: LinearHashMap::split_possible() is false
  // from the start, so the first overflow degrades to spilling even though
  // the pool still has nodes.
  config->algorithm = Algorithm::kSplit;
  config->split_variant = SplitVariant::kLinearPointer;
  env.map_ = PartitionMap::initial(joins, /*positions=*/4);
  SplitPolicy policy(config, env, make_pool(8), /*positions=*/4);

  memory_full(policy, 1);
  EXPECT_TRUE(env.spawned_nodes.empty());
  EXPECT_EQ(env.metrics_.expansions, 0u);
  EXPECT_EQ(policy.spilled(), (std::vector<ActorId>{1}));
  EXPECT_TRUE(policy.pool_exhausted());
  EXPECT_TRUE(policy.idle());

  memory_full(policy, 2);
  EXPECT_EQ(policy.spilled(), (std::vector<ActorId>{1, 2}));
}

TEST_F(PolicyTest, RequesterMidpointWidthExhaustionDegradesToSpill) {
  // A single-position range cannot be halved: the requester-midpoint
  // variant must degrade the requester instead of splitting.
  auto policy = make_policy(Algorithm::kSplit, 8, /*positions=*/4);
  memory_full(*policy, 2);
  EXPECT_TRUE(env.spawned_nodes.empty());
  EXPECT_EQ(env.metrics_.expansions, 0u);
  EXPECT_EQ(policy->spilled(), (std::vector<ActorId>{2}));
  EXPECT_TRUE(policy->pool_exhausted());
}

TEST_F(PolicyTest, StaleRequesterIsDroppedWithoutSideEffects) {
  auto policy = make_policy(Algorithm::kReplicate, 8);
  memory_full(*policy, 99);  // not an active owner of any range
  EXPECT_TRUE(env.spawned_nodes.empty());
  EXPECT_TRUE(env.with_tag(Tag::kSwitchToSpill).empty());
  EXPECT_TRUE(policy->spilled().empty());
  EXPECT_TRUE(policy->idle());
  EXPECT_EQ(env.metrics_.expansions, 0u);
}

// ------------------------------------------------------------ out-of-core

using OutOfCorePolicyDeathTest = PolicyTest;

TEST_F(OutOfCorePolicyDeathTest, MemoryFullIsAProtocolViolation) {
  auto policy = make_policy(Algorithm::kOutOfCore, 8);
  EXPECT_DEATH(memory_full(*policy, 1), "spill, not expand");
}

// --------------------------------------------------------------- adaptive

TEST_F(PolicyTest, AdaptiveSplitsWhenProbeBroadcastDominates) {
  // Default 10M-tuple probe: broadcasting the range's probe share forever
  // dwarfs migrating half the held build tuples once.
  auto policy = make_policy(Algorithm::kAdaptive, 8);
  memory_full(*policy, 1, config->node_hash_memory_bytes);

  EXPECT_EQ(env.with_tag(Tag::kSplitRequest).size(), 1u);
  EXPECT_TRUE(env.with_tag(Tag::kHandoffStart).empty());
  EXPECT_EQ(env.metrics_.adaptive_splits, 1u);
  EXPECT_EQ(env.metrics_.adaptive_replicas, 0u);
  // The choice is traced (a = requester, b = 1 for split).
  bool traced = false;
  for (const auto& [kind, ab] : env.traces) {
    if (kind == TraceKind::kAdaptiveChoice) {
      traced = true;
      EXPECT_EQ(ab.first, 1);
      EXPECT_EQ(ab.second, 1);
    }
  }
  EXPECT_TRUE(traced);
}

TEST_F(PolicyTest, AdaptiveReplicatesWhenProbeIsSmall) {
  // A 1000-tuple probe makes the recurring broadcast trivially cheaper
  // than migrating ~340k build tuples.
  config->probe_rel.tuple_count = 1'000;
  auto policy = make_policy(Algorithm::kAdaptive, 8);
  memory_full(*policy, 1, config->node_hash_memory_bytes);

  EXPECT_TRUE(env.with_tag(Tag::kSplitRequest).empty());
  EXPECT_EQ(env.with_tag(Tag::kHandoffStart).size(), 1u);
  EXPECT_EQ(env.metrics_.adaptive_splits, 0u);
  EXPECT_EQ(env.metrics_.adaptive_replicas, 1u);
}

TEST_F(PolicyTest, AdaptiveReplicatedRangeKeepsReplicating) {
  // Entry 0 already carries a replica: its frozen members hold tuples of
  // the full range, so the map cannot subdivide it -- the policy must
  // replicate again even though the probe side favours splitting.
  auto policy = make_policy(Algorithm::kAdaptive, 8);
  env.map_.add_replica(0, 50);
  memory_full(*policy, 50, config->node_hash_memory_bytes);

  EXPECT_TRUE(env.with_tag(Tag::kSplitRequest).empty());
  const auto handoffs = env.with_tag(Tag::kHandoffStart);
  ASSERT_EQ(handoffs.size(), 1u);
  EXPECT_EQ(handoffs[0].to, 50);
  EXPECT_EQ(env.metrics_.adaptive_replicas, 1u);
}

TEST_F(PolicyTest, AdaptiveObservedBuildShareFlipsTheDecision) {
  // The same overflow flips from split to replicate as the observed build
  // volume grows: a range holding a tiny share of the build attracts a
  // tiny share of the probe, so the broadcast becomes the cheap option.
  const std::uint64_t footprint = 1 * kMiB;
  const auto run_once = [&](std::uint64_t observed) {
    config = std::make_shared<EhjaConfig>();
    config->algorithm = Algorithm::kAdaptive;
    config->probe_rel.tuple_count = 100'000;
    env = FakeEnv{};
    env.map_ = PartitionMap::initial(joins);
    env.observed = observed;
    auto policy = ExpansionPolicy::make(config, env, make_pool(8));
    memory_full(*policy, 1, footprint);
    return !env.with_tag(Tag::kSplitRequest).empty();
  };

  const std::uint64_t held =
      footprint / tuple_footprint(EhjaConfig{}.build_rel.schema);
  EXPECT_TRUE(run_once(held));          // share 1.0: broadcast everything
  EXPECT_FALSE(run_once(held * 1000));  // share 0.001: broadcast almost none
}

// --------------------------------------------------------- drain protocol

using Outcome = DrainProtocol::Outcome;

DrainAckPayload ack(std::uint64_t epoch, std::uint64_t received,
                    std::uint64_t forwarded = 0) {
  DrainAckPayload a;
  a.epoch = epoch;
  a.data_chunks_received = received;
  a.data_chunks_forwarded = forwarded;
  return a;
}

TEST(DrainProtocolTest, NeedsTwoConsecutiveBalancedRounds) {
  DrainProtocol drain;
  drain.arm();

  const auto p1 = drain.begin_round();
  EXPECT_TRUE(drain.in_round());
  EXPECT_EQ(drain.on_ack(1, ack(p1.epoch, 6), 2, 10), Outcome::kPending);
  // Balanced (6 + 4 == 10) but no previous round to compare against.
  EXPECT_EQ(drain.on_ack(2, ack(p1.epoch, 4), 2, 10), Outcome::kRepoll);

  const auto p2 = drain.begin_round();
  EXPECT_GT(p2.epoch, p1.epoch);
  EXPECT_EQ(drain.on_ack(1, ack(p2.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p2.epoch, 4), 2, 10), Outcome::kDrained);
  EXPECT_FALSE(drain.in_round());
}

TEST(DrainProtocolTest, UnbalancedRoundsKeepRepolling) {
  DrainProtocol drain;
  drain.arm();

  // 9 of 10 chunks accounted for: in flight somewhere.
  auto p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 5), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);

  // Balanced now, but the totals moved since the last round.
  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);

  // Stable and balanced: drained.
  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kDrained);
}

TEST(DrainProtocolTest, ForwardedChunksBalanceTheEquation) {
  DrainProtocol drain;
  drain.arm();
  // Sources sent 10; nodes re-forwarded 4 among themselves, so receivers
  // legitimately count 14.
  for (int round = 0; round < 2; ++round) {
    const auto p = drain.begin_round();
    EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 8, 2), 2, 10), Outcome::kPending);
    const auto outcome = drain.on_ack(2, ack(p.epoch, 6, 2), 2, 10);
    EXPECT_EQ(outcome, round == 0 ? Outcome::kRepoll : Outcome::kDrained);
  }
}

TEST(DrainProtocolTest, StaleEpochAcksAreIgnored) {
  DrainProtocol drain;
  drain.arm();
  const auto p1 = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p1.epoch, 10), 2, 10), Outcome::kPending);
  const auto p2 = drain.begin_round();  // repoll before the round finished

  // The straggler ack of round 1 must not pollute round 2.
  EXPECT_EQ(drain.on_ack(2, ack(p1.epoch, 7), 2, 10), Outcome::kStale);
  EXPECT_EQ(drain.on_ack(1, ack(p2.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p2.epoch, 4), 2, 10), Outcome::kRepoll);
}

TEST(DrainProtocolTest, DuplicateAcksFromOneSenderCountOnce) {
  // A jittery network can deliver the same ack twice (drop-with-redelivery
  // models retransmission).  The second copy must neither complete the
  // round nor double-count the sender's chunks.
  DrainProtocol drain;
  drain.arm();
  const auto p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kStale);
  EXPECT_TRUE(drain.in_round());
  // The genuine second sender still completes the round, and the balance
  // is computed from one copy of each ack (6 + 4 == 10, not 12 + 4).
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);
}

TEST(DrainProtocolTest, LateAckAfterRoundCompletionIsStale) {
  DrainProtocol drain;
  drain.arm();
  auto p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);
  // A third (duplicate) ack arriving after the round closed must not be
  // counted into the next round's totals.
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kStale);

  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kDrained);
}

TEST(DrainProtocolTest, AbortInvalidatesTheRoundAndTheHistory) {
  DrainProtocol drain;
  drain.arm();

  // A balanced round establishes history...
  auto p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);

  // ...an expansion aborts the next round mid-flight...
  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  drain.abort();
  EXPECT_FALSE(drain.in_round());
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kStale);

  // ...and the restarted drain must prove stability afresh: one balanced
  // round is not enough.
  drain.arm();
  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kRepoll);
  p = drain.begin_round();
  EXPECT_EQ(drain.on_ack(1, ack(p.epoch, 6), 2, 10), Outcome::kPending);
  EXPECT_EQ(drain.on_ack(2, ack(p.epoch, 4), 2, 10), Outcome::kDrained);
}

}  // namespace
}  // namespace ehja
