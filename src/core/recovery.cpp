#include "core/recovery.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

namespace {

/// Sort, drop empties, coalesce overlapping/adjacent ranges.
std::vector<PosRange> normalize(std::vector<PosRange> ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const PosRange& a, const PosRange& b) { return a.lo < b.lo; });
  std::vector<PosRange> out;
  for (const PosRange& r : ranges) {
    if (r.empty()) continue;
    if (!out.empty() && r.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, r.hi);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

/// `r` clipped against a normalized range list.
std::vector<PosRange> intersect(const PosRange& r,
                                const std::vector<PosRange>& list) {
  std::vector<PosRange> out;
  for (const PosRange& l : list) {
    const std::uint64_t lo = std::max(r.lo, l.lo);
    const std::uint64_t hi = std::min(r.hi, l.hi);
    if (lo < hi) out.push_back(PosRange{lo, hi});
  }
  return out;
}

}  // namespace

RecoveryManager::RecoveryManager(std::shared_ptr<const EhjaConfig> config,
                                 ExpansionEnv& env, RecoveryHost& host)
    : config_(std::move(config)), env_(env), host_(host) {}

void RecoveryManager::on_death(ActorId dead, bool probe_phase) {
  EHJA_CHECK_MSG(dead_.insert(dead).second, "actor declared dead twice");
  const PosRange hull = host_.coverage_of(dead);
  if (!hull.empty()) hulls_.push_back(hull);
  probe_ = probe_ || probe_phase;
  if (stage_ == Stage::kIdle) {
    started_ = env_.now();
    wave_deaths_ = 0;
  }
  ++wave_deaths_;
  ++epoch_;
  env_.trace(TraceKind::kRecoveryStart, static_cast<std::int64_t>(epoch_),
             static_cast<std::int64_t>(wave_deaths_));
  EHJA_WARN("recovery", "join actor ", dead, " dead; epoch ", epoch_, " (",
            probe_ ? "probe" : "build", "-phase recovery, wave of ",
            wave_deaths_, ")");
  run_surgery();
}

void RecoveryManager::on_wipe(bool probe_phase) {
  hulls_.push_back(PosRange{0, env_.map().positions()});
  probe_ = probe_ || probe_phase;
  if (stage_ == Stage::kIdle) {
    started_ = env_.now();
    wave_deaths_ = 0;
  }
  ++wave_deaths_;
  ++epoch_;
  env_.trace(TraceKind::kRecoveryStart, static_cast<std::int64_t>(epoch_),
             static_cast<std::int64_t>(wave_deaths_));
  EHJA_WARN("recovery", "full-coverage wipe; epoch ", epoch_, " (",
            probe_ ? "probe" : "build", "-phase recovery, wave of ",
            wave_deaths_, ")");
  run_surgery();
}

void RecoveryManager::on_source_death(ActorId dead, bool probe_phase) {
  EHJA_CHECK_MSG(dead_.insert(dead).second,
                 "data source declared dead twice");
  on_wipe(probe_phase);
}

void RecoveryManager::add_fresh_source(ActorId source, bool probe_phase) {
  fresh_build_.insert(source);
  if (probe_phase) fresh_probe_.insert(source);
}

void RecoveryManager::add_fresh_probe_source(ActorId source) {
  fresh_probe_.insert(source);
}

void RecoveryManager::restore(std::uint64_t epoch, std::set<ActorId> dead) {
  EHJA_CHECK_MSG(stage_ == Stage::kIdle,
                 "restore into an active recovery");
  epoch_ = epoch;
  dead_ = std::move(dead);
}

void RecoveryManager::run_surgery() {
  stage_ = Stage::kResetting;
  pending_resets_.clear();
  pending_replays_.clear();
  const std::vector<PosRange> lost = normalize(hulls_);

  std::map<ActorId, RangeResetPayload> resets;
  std::vector<PartitionMap::Entry> out;
  std::vector<std::size_t> grown;  // out-indices whose range was extended
  std::vector<PosRange> replay_acc;
  std::optional<std::uint64_t> orphan_lo;  // unowned prefix awaiting a home

  auto reset_of = [&resets, this](ActorId actor) -> RangeResetPayload& {
    RangeResetPayload& r = resets[actor];
    r.epoch = epoch_;
    return r;
  };
  auto emit = [&out, &grown, &orphan_lo](PartitionMap::Entry entry) {
    if (orphan_lo.has_value()) {
      entry.range.lo = *orphan_lo;
      orphan_lo.reset();
      out.push_back(std::move(entry));
      grown.push_back(out.size() - 1);
    } else {
      out.push_back(std::move(entry));
    }
  };

  for (const PartitionMap::Entry& entry : env_.map().entries()) {
    std::vector<ActorId> live;
    for (ActorId owner : entry.owners) {
      if (dead_.count(owner) == 0) live.push_back(owner);
    }
    const bool member_died = live.size() != entry.owners.size();
    const std::vector<PosRange> overlap = intersect(entry.range, lost);
    if (!member_died && overlap.empty()) {
      emit(entry);
      continue;
    }

    if (!probe_ && !member_died) {
      // Build phase, owners intact, a dead neighbour's hull reaches into
      // this entry (it owned a wider range once): surgical repair.  Any
      // member may hold overlap tuples (temporal shards), so every one
      // discards them; the replay re-delivers to the active owner.
      for (ActorId owner : live) {
        RangeResetPayload& r = reset_of(owner);
        r.discard.insert(r.discard.end(), overlap.begin(), overlap.end());
      }
      replay_acc.insert(replay_acc.end(), overlap.begin(), overlap.end());
      emit(entry);
      continue;
    }

    // Collapse: the entry is rebuilt from scratch on a single owner.  A
    // dead member's hull covers the whole entry (ownership is folded into
    // coverage at every map broadcast) and probe recovery widens to the
    // full range regardless, so the discard is the entry range either way.
    replay_acc.push_back(entry.range);
    ActorId chosen = kInvalidActor;
    if (!live.empty()) {
      // Prefer the pre-failure active owner; else any survivor.
      chosen = dead_.count(entry.owners.front()) == 0 ? entry.owners.front()
                                                      : live.front();
    } else if (const auto node = host_.recruit_node(); node.has_value()) {
      chosen = env_.spawn_join(*node);
      JoinInitPayload init;
      init.role = JoinRole::kInitial;
      init.range = entry.range;
      init.source_count = config_->data_sources;
      init.epoch = epoch_;
      env_.send_to(chosen,
                   make_message(Tag::kJoinInit, init, kControlWireBytes));
      EHJA_INFO("recovery", "recruited join ", chosen, " on node ", *node,
                " for [", entry.range.lo, ",", entry.range.hi, ")");
    }
    if (chosen == kInvalidActor) {
      // No survivor and the pool is dry: merge the range into a neighbour
      // (its owner regrows via RangeReset::new_range and may well end up
      // spilling -- correct, if slow, beats wedged).
      if (!out.empty()) {
        out.back().range.hi = entry.range.hi;
        grown.push_back(out.size() - 1);
      } else if (!orphan_lo.has_value()) {
        orphan_lo = entry.range.lo;
      }
      continue;
    }
    // The fresh-recruit discard is vacuous (empty table) but uniform; the
    // reset doubles as the barrier ack and the epoch adoption.
    RangeResetPayload& r = reset_of(chosen);
    r.discard.push_back(entry.range);
    r.zero_probe_results |= probe_;
    for (ActorId other : live) {
      if (other == chosen) continue;
      RangeResetPayload& o = reset_of(other);
      o.discard.push_back(entry.range);
      o.zero_probe_results |= probe_;
      o.retired = true;
    }
    emit(PartitionMap::Entry{entry.range, {chosen}});
  }
  EHJA_CHECK_MSG(!out.empty(), "recovery: no live join node remains");
  EHJA_CHECK(!orphan_lo.has_value());

  // Deduplicate grown indices (an entry can absorb several orphans) and
  // hand every owner of a grown entry its final range.
  std::sort(grown.begin(), grown.end());
  grown.erase(std::unique(grown.begin(), grown.end()), grown.end());
  for (const std::size_t idx : grown) {
    for (ActorId owner : out[idx].owners) {
      reset_of(owner).new_range = out[idx].range;
    }
  }

  replay_ = normalize(std::move(replay_acc));
  env_.map() = PartitionMap::from_entries(std::move(out),
                                          env_.map().positions());
  env_.broadcast_map();  // re-route the sources; refresh coverage hulls

  // Fence first (FIFO: every reset recipient has the fence applied before
  // the reset), then the resets; replay waits for the full ack barrier.
  RecoveryFencePayload fence;
  fence.epoch = epoch_;
  fence.lost = replay_;
  const std::size_t fence_wire = kControlWireBytes + 16 * replay_.size();
  for (ActorId join : env_.join_actors()) {
    env_.send_to(join, make_message(Tag::kRecoveryFence, fence, fence_wire));
  }
  for (auto& [actor, payload] : resets) {
    payload.discard = normalize(std::move(payload.discard));
    const std::size_t wire = kControlWireBytes + 16 * payload.discard.size();
    pending_resets_.insert(actor);
    env_.send_to(actor, make_message(Tag::kRangeReset, payload, wire));
  }
  if (pending_resets_.empty()) start_build_replay();
}

void RecoveryManager::start_build_replay() {
  stage_ = Stage::kBuildReplay;
  // Reset barrier passed: every join has discarded the ranges a fresh
  // replacement source will (re-)deliver, so its normal build stream can
  // start.  It streams its full slice as an ordinary counted stream -- no
  // replay job, because it has produced nothing to replay.
  for (ActorId source : fresh_build_) {
    host_.start_replacement_source(source, config_->build_rel.tag, epoch_);
  }
  if (replay_.empty()) {
    // The dead actor never owned a range (e.g. a recruit lost before its
    // first map broadcast): nothing to rebuild.
    fresh_build_.clear();
    if (probe_) {
      stage_ = Stage::kSettleDrain;
      host_.start_settle_drain();
    } else {
      finish();
    }
    return;
  }
  // The fresh set must stay populated through the send: a just-started
  // replacement must NOT also receive a replay request, or it would re-send
  // whatever prefix its brand-new stream produced before the request landed.
  send_replay_requests(config_->build_rel.tag, /*pause_after=*/probe_);
  fresh_build_.clear();
  if (pending_replays_.empty()) {
    // Every source is a fresh replacement: the new streams re-deliver
    // everything; the phase drain (or settle drain) waits for them.
    if (probe_) {
      stage_ = Stage::kSettleDrain;
      host_.start_settle_drain();
    } else {
      finish();
    }
  }
}

void RecoveryManager::send_replay_requests(RelTag rel, bool pause_after) {
  ReplayRequestPayload req;
  req.epoch = epoch_;
  req.rel = rel;
  req.ranges = replay_;
  const std::size_t wire = kControlWireBytes + 16 * replay_.size();
  const bool probe_rel = rel == config_->probe_rel.tag;
  pending_replays_.clear();
  for (ActorId source : env_.source_actors()) {
    // A replacement whose build stream never started has nothing to replay
    // (its kStartBuild goes out at the barrier); one awaiting its probe
    // stream has produced no relation-S tuples either.
    if (fresh_build_.count(source) != 0) continue;
    if (probe_rel && fresh_probe_.count(source) != 0) continue;
    // The settle drain pauses sources that finished the build and are
    // streaming probes; a replacement still mid-build-stream must keep
    // flowing or the settle drain would never balance.
    req.pause_after = pause_after && fresh_probe_.count(source) == 0;
    pending_replays_.insert(source);
    env_.send_to(source, make_message(Tag::kReplayRequest, req, wire));
  }
}

void RecoveryManager::on_reset_ack(ActorId from,
                                   const RangeResetAckPayload& ack) {
  if (ack.epoch != epoch_ || stage_ != Stage::kResetting) return;  // stale
  pending_resets_.erase(from);
  if (pending_resets_.empty()) start_build_replay();
}

void RecoveryManager::on_replay_done(ActorId from,
                                     const ReplayDonePayload& done) {
  if (done.epoch != epoch_) return;  // superseded by a folded recovery
  if (stage_ == Stage::kBuildReplay && done.rel == config_->build_rel.tag) {
    env_.metrics().replayed_build_tuples += done.tuples_replayed;
    env_.trace(TraceKind::kReplay, from,
               static_cast<std::int64_t>(done.tuples_replayed));
    pending_replays_.erase(from);
    if (!pending_replays_.empty()) return;
    if (probe_) {
      stage_ = Stage::kSettleDrain;
      host_.start_settle_drain();
    } else {
      finish();
    }
  } else if (stage_ == Stage::kProbeReplay &&
             done.rel == config_->probe_rel.tag) {
    env_.metrics().replayed_probe_tuples += done.tuples_replayed;
    env_.trace(TraceKind::kReplay, from,
               static_cast<std::int64_t>(done.tuples_replayed));
    pending_replays_.erase(from);
    if (pending_replays_.empty()) finish();
  } else {
    EHJA_WARN("recovery", "replay-done from ", from, " out of stage");
  }
}

void RecoveryManager::on_settle_drained() {
  if (stage_ != Stage::kSettleDrain) return;  // aborted by a fold
  stage_ = Stage::kProbeReplay;
  // The replayed build chunks have landed; a replacement source that never
  // produced relation S starts its normal probe stream now (the run's
  // kStartProbe broadcast predates its spawn, so it never saw one).
  for (ActorId source : fresh_probe_) {
    host_.start_replacement_source(source, config_->probe_rel.tag, epoch_);
  }
  // As in start_build_replay: clear only after the send, so the skip check
  // keeps replay requests away from streams that just started fresh.
  send_replay_requests(config_->probe_rel.tag, /*pause_after=*/false);
  fresh_probe_.clear();
  if (pending_replays_.empty()) finish();
}

void RecoveryManager::finish() {
  const double duration = env_.now() - started_;
  ++env_.metrics().recoveries;
  env_.metrics().recovery_time_total += duration;
  env_.trace(TraceKind::kRecoveryDone, static_cast<std::int64_t>(epoch_),
             static_cast<std::int64_t>(duration * 1e6));
  EHJA_INFO("recovery", "epoch ", epoch_, " recovered in ", duration, "s (",
            wave_deaths_, " death(s), ",
            probe_ ? "probe" : "build", " phase)");
  stage_ = Stage::kIdle;
  hulls_.clear();
  replay_.clear();
  pending_resets_.clear();
  pending_replays_.clear();
  fresh_build_.clear();
  fresh_probe_.clear();
  const bool probe = probe_;
  probe_ = false;
  host_.recovery_complete(probe);
}

}  // namespace ehja
