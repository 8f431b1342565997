// Protocol-level unit tests for DataSourceActor via the actor harness:
// routing, chunk buffering, map-update adoption, probe broadcast, source
// completion reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "actor_harness.hpp"
#include "core/data_source.hpp"
#include "core/messages.hpp"
#include "workload/generator.hpp"

namespace ehja {
namespace {

constexpr ActorId kScheduler = 0;

struct Fixture {
  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  std::unique_ptr<HarnessRuntime> rt;
  ActorId source = kInvalidActor;
  DataSourceActor* actor = nullptr;

  explicit Fixture(std::uint64_t build_count = 4000,
                   std::uint32_t chunk = 1000) {
    config->data_sources = 1;
    config->build_rel.tuple_count = build_count;
    config->probe_rel.tuple_count = build_count;
    config->build_rel.dist = DistributionSpec::Uniform();
    config->probe_rel.dist = DistributionSpec::Uniform();
    config->chunk_tuples = chunk;
    config->generation_slice_tuples = chunk;
    rt = std::make_unique<HarnessRuntime>(make_cluster(*config));
    // Actor 0 stands in for the scheduler (never started).
    struct Null final : Actor {
      void on_message(const Message&) override {}
    };
    rt->spawn(config->scheduler_node(), std::make_unique<Null>());
    auto ds = std::make_unique<DataSourceActor>(config, 0, kScheduler);
    actor = ds.get();
    source = rt->spawn(config->source_node(0), std::move(ds));
  }

  /// Start the build phase against a 2-owner map (actors 10 and 11 don't
  /// exist; the harness just records sends).
  void start_build(PartitionMap map) {
    StartBuildPayload payload;
    payload.map = std::move(map);
    rt->deliver(source, make_message(Tag::kStartBuild, payload, 100));
  }

  /// Run generation slices until the source stops self-deferring.
  void drain_generation() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      std::deque<HarnessRuntime::Sent> batch;
      batch.swap(rt->outbox());
      for (auto& sent : batch) {
        if (sent.to == source &&
            sent.msg.tag == static_cast<int>(Tag::kGenSlice)) {
          Message msg = std::move(sent.msg);
          msg.from = sent.from;
          rt->actor(source).on_message(msg);
          progressed = true;
        } else {
          rt->outbox().push_back(std::move(sent));  // keep for assertions
        }
      }
    }
  }
};

PartitionMap two_owner_map() { return PartitionMap::initial({10, 11}); }

TEST(DataSourceTest, GeneratesExactlyTheConfiguredTuples) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  std::uint64_t tuples = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    tuples += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(tuples, 4000u);
}

TEST(DataSourceTest, RoutesByPositionToActiveOwner) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    const auto& chunk = sent.msg.as<ChunkPayload>().chunk;
    for (const Tuple& t : chunk.batch) {
      const bool lower = position_of(t.key) < kPositionCount / 2;
      EXPECT_EQ(sent.to, lower ? 10 : 11);
    }
  }
}

TEST(DataSourceTest, FullChunksPlusFinalPartials) {
  Fixture fx(4500, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  const auto chunks = fx.rt->sent_with_tag(Tag::kDataChunk);
  // 4500 uniform tuples over 2 owners: 4 full chunks + 2 partial flushes.
  std::uint64_t full = 0, partial = 0;
  for (const auto& sent : chunks) {
    const std::size_t n = sent.msg.as<ChunkPayload>().chunk.size();
    (n == 1000 ? full : partial) += 1;
    EXPECT_LE(n, 1000u);
  }
  EXPECT_GE(full, 3u);
  EXPECT_LE(partial, 2u);
}

TEST(DataSourceTest, ReportsSourceDoneWithTotals) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  const auto done = fx.rt->sent_with_tag(Tag::kSourceDone);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].to, kScheduler);
  const auto& payload = done[0].msg.as<SourceDonePayload>();
  EXPECT_EQ(payload.rel, RelTag::kR);
  EXPECT_EQ(payload.tuples_sent, 4000u);
  EXPECT_EQ(payload.chunks_sent, fx.rt->sent_with_tag(Tag::kDataChunk).size());
}

TEST(DataSourceTest, MapUpdateRedirectsSubsequentTuples) {
  Fixture fx(8000, 1000);
  auto map = two_owner_map();
  fx.start_build(map);
  // Process exactly the one queued generation slice, then update the map
  // so the lower half now belongs to actor 99.
  {
    auto& outbox = fx.rt->outbox();
    auto it = outbox.begin();
    while (it != outbox.end() &&
           it->msg.tag != static_cast<int>(Tag::kGenSlice)) {
      ++it;
    }
    ASSERT_NE(it, outbox.end());
    Message slice = std::move(it->msg);
    outbox.erase(it);
    fx.rt->deliver(fx.source, std::move(slice));
  }
  MapUpdatePayload update;
  update.version = 1;
  map.add_replica(0, 99);
  update.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, update, 100));
  fx.drain_generation();
  // Some lower-half chunks must now target 99.
  bool saw_new_owner = false;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    if (sent.to == 99) saw_new_owner = true;
  }
  EXPECT_TRUE(saw_new_owner);
}

TEST(DataSourceTest, StaleMapVersionIgnored) {
  Fixture fx(4000, 1000);
  auto map = two_owner_map();
  fx.start_build(map);
  MapUpdatePayload newer;
  newer.version = 5;
  auto map2 = map;
  map2.add_replica(0, 99);
  newer.map = map2;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, newer, 100));
  MapUpdatePayload stale;
  stale.version = 2;  // older than 5: must not override
  stale.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, stale, 100));
  fx.drain_generation();
  bool lower_to_99 = false;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    if (sent.to == 99) lower_to_99 = true;
    EXPECT_NE(sent.to, 10);  // old active owner replaced by version 5
  }
  EXPECT_TRUE(lower_to_99);
}

TEST(DataSourceTest, ProbeBroadcastsToAllReplicas) {
  Fixture fx(2000, 500);
  auto map = two_owner_map();
  map.add_replica(0, 99);  // lower half: replicas {99, 10}
  StartProbePayload payload;
  payload.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, payload, 100));
  fx.drain_generation();
  std::uint64_t to_99 = 0, to_10 = 0, to_11 = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    const auto& chunk = sent.msg.as<ChunkPayload>().chunk;
    EXPECT_EQ(chunk.rel, RelTag::kS);
    if (sent.to == 99) to_99 += chunk.size();
    if (sent.to == 10) to_10 += chunk.size();
    if (sent.to == 11) to_11 += chunk.size();
  }
  // Every lower-half probe tuple goes to BOTH replicas.
  EXPECT_EQ(to_99, to_10);
  EXPECT_GT(to_99, 0u);
  EXPECT_EQ(to_99 + to_11, 2000u);
}

TEST(DataSourceTest, ProbeSingleOwnerNoDuplication) {
  Fixture fx(2000, 500);
  StartProbePayload payload;
  payload.map = two_owner_map();
  fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, payload, 100));
  fx.drain_generation();
  std::uint64_t total = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    total += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(total, 2000u);
}

TEST(DataSourceTest, ChargesGenerationCpu) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  // At least tuple_generate_sec per tuple must have been charged.
  EXPECT_GE(fx.rt->charged(), 4000 * fx.config->cost.tuple_generate_sec);
}

/// One kDataChunk send: destination and rows, in send order.
struct ChunkSend {
  ActorId to;
  RelTag rel;
  std::vector<Tuple> rows;
};

/// The chunk sequence a source must produce, built tuple at a time: each
/// TupleStream tuple is routed through PartitionMap::entry_for (the active
/// owner on the build, every owner on the probe), a buffer is sent the
/// moment it holds `chunk` rows, and the relation's end sends what is left
/// in ActorId order.  `update` replaces the map after `update_after` tuples.
std::vector<ChunkSend> reference_chunks(const EhjaConfig& config, bool probe,
                                        const PartitionMap& map,
                                        const PartitionMap& update,
                                        std::uint64_t update_after) {
  const RelationSpec& spec = probe ? config.probe_rel : config.build_rel;
  TupleStream stream(spec, config.seed, 0, config.data_sources);
  std::map<ActorId, std::vector<Tuple>> buffers;
  std::vector<ChunkSend> sends;
  Tuple t;
  for (std::uint64_t produced = 0; stream.next(t); ++produced) {
    const auto& entry = (produced < update_after ? map : update)
                            .entry_for(position_of(t.key));
    std::vector<ActorId> dests{entry.active_owner()};
    if (probe) dests = entry.owners;
    for (const ActorId to : dests) {
      buffers[to].push_back(t);
      if (buffers[to].size() >= config.chunk_tuples) {
        sends.push_back(ChunkSend{to, spec.tag, std::move(buffers[to])});
        buffers[to].clear();
      }
    }
  }
  for (auto& [to, rows] : buffers) {
    if (!rows.empty()) sends.push_back(ChunkSend{to, spec.tag, rows});
  }
  return sends;
}

TEST(DataSourceTest, ChunkSequenceMatchesTupleAtATimeRouting) {
  for (const bool probe : {false, true}) {
    SCOPED_TRACE(probe ? "probe" : "build");
    // Chunks of 700 against slices of 1000: buffers fill and flush inside
    // slices and carry partial chunks across slice boundaries.
    Fixture fx(5000, 700);
    fx.config->generation_slice_tuples = 1000;
    PartitionMap map = PartitionMap::initial({10, 11, 12});
    map.add_replica(1, 99);  // entry 1 is replicated: {99, 11}
    // The mid-stream update splits entry 2 and replicates entry 0.
    PartitionMap update = map;
    const PosRange third = update.entries()[2].range;
    update.split_entry(2, third.lo + third.width() / 2, 13);
    update.add_replica(0, 98);

    if (probe) {
      StartProbePayload start;
      start.map = map;
      fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, start, 100));
    } else {
      fx.start_build(map);
    }
    // Exactly two generation slices under the first map, then the update.
    for (int slice = 0; slice < 2; ++slice) {
      auto& outbox = fx.rt->outbox();
      auto it = std::find_if(outbox.begin(), outbox.end(), [](const auto& s) {
        return s.msg.tag == static_cast<int>(Tag::kGenSlice);
      });
      ASSERT_NE(it, outbox.end());
      Message msg = std::move(it->msg);
      outbox.erase(it);
      fx.rt->deliver(fx.source, std::move(msg));
    }
    MapUpdatePayload payload;
    payload.version = 1;
    payload.map = update;
    fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, payload, 100));
    fx.drain_generation();

    std::vector<ChunkSend> got;
    for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
      const Chunk& chunk = sent.msg.as<ChunkPayload>().chunk;
      got.push_back(ChunkSend{sent.to, chunk.rel, chunk.batch.to_tuples()});
    }
    const std::vector<ChunkSend> want =
        reference_chunks(*fx.config, probe, map, update, 2000);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to) << "chunk " << i;
      EXPECT_EQ(got[i].rel, want[i].rel) << "chunk " << i;
      EXPECT_EQ(got[i].rows, want[i].rows) << "chunk " << i;
    }
  }
}

}  // namespace
}  // namespace ehja
