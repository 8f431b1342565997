// Multi-process TCP runtime (the third Runtime backend).
//
// SimRuntime models the paper's cluster; ThreadRuntime shakes out protocol
// races; SocketRuntime *is* a cluster: every NodeId runs as a separate OS
// process (runtime/launcher.hpp forks this binary in worker mode) and every
// message crosses a real TCP connection in the net/wire.hpp format.
//
// Topology.  The coordinator process (the one that called run_ehja) hosts
// node 0 -- by the driver's layout the scheduler -- and spawns one worker
// process per remaining node.  Startup handshake, all over loopback TCP:
//
//   1. worker -> coordinator   HELLO    (node id, mesh listen port,
//                                        incarnation epoch)
//   2. coordinator -> worker   WELCOME  (the full EhjaConfig, serialized;
//                                        wire-version mismatches fail here)
//   3. coordinator -> worker   PEERS    (every other worker's listen port)
//   4. worker <-> worker       PEER_HELLO on direct connections: the
//                              higher-numbered node dials the lower, so each
//                              unordered pair gets exactly one socket
//   5. worker -> coordinator   READY once its mesh is complete
//
// After READY the cluster is a full mesh: worker<->worker traffic (chunk
// forwarding, splits, reshuffle) never relays through the coordinator.
//
// Actor placement.  All spawns happen on the coordinator (the scheduler and
// driver run there), which assigns ActorIds sequentially and ships a SPAWN
// frame (an Actor::remote_spawn_spec recipe) to the owning worker plus
// ANNOUNCE frames (id -> node routes) to everyone else.  Because the
// coordinator announces an id before any message naming it can be sent,
// routes are almost always known on arrival; the rare cross-connection race
// is absorbed by pending queues on both the send and receive side.
//
// Delivery contract.  One TCP connection per node pair plus a per-connection
// sequence number on every actor-message frame gives per-pair FIFO -- the
// same ordering NetworkModel guarantees and the drain protocol relies on --
// and the receiver EHJA_CHECKs the sequence to prove it.  An actor-message
// frame is written to its socket when it is queued (non-blocking; a partial
// write finishes from the event loop's poll), so replies and data chunks
// never wait behind the rest of a handler batch: the batch size (64 local
// deliveries on the coordinator, 32 on a worker) only bounds local work
// between two polls.  Frames a worker queued before a chunk-triggered
// self-SIGKILL therefore reach their peers, which fail-stop allows.
//
// Worker death (SIGKILL from the FaultPlan, or any real crash) is observed
// by the launcher's reap and folded into the same fail-stop state as
// SimRuntime::kill_node: the node is marked dead, peers get NODE_DEAD and
// drop traffic to/from it, and the scheduler's heartbeat detector + recovery
// protocol take it from there, unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "core/config.hpp"
#include "runtime/actor.hpp"
#include "runtime/launcher.hpp"

namespace ehja {

namespace netio {
struct Conn;
}

/// Worker-mode entry point.  If argv requests worker mode
/// (`--ehja-worker=<node> --ehja-coordinator-port=<port>`), runs the worker
/// to completion and returns its exit code; otherwise returns nullopt.
/// Every binary that can host a socket run must call this first thing in
/// main() -- the launcher re-executes the binary itself.
std::optional<int> maybe_run_socket_worker(int argc, char** argv);

/// Per-pair FIFO acceptance: frame sequence numbers on one connection must
/// arrive exactly in send order.  Exposed for the ordering tests; the
/// runtimes EHJA_CHECK this on every received actor-message frame.
inline bool fifo_accept(std::uint64_t& expected_next, std::uint64_t seq) {
  if (seq != expected_next) return false;
  ++expected_next;
  return true;
}

/// The coordinator-side Runtime.  Constructing it launches and handshakes
/// the whole worker fleet; run() drives the scheduler plus all socket I/O
/// on the calling thread until request_stop(), then shuts the fleet down.
class SocketRuntime final : public Runtime {
 public:
  /// `config` is shipped to every worker in the WELCOME frame (minus the
  /// trace sink -- tracing only observes coordinator-side actors).
  SocketRuntime(ClusterSpec spec, const EhjaConfig& config);
  ~SocketRuntime() override;

  ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) override;
  void send(Actor& from, ActorId to, Message msg) override;
  void defer(Actor& from, Message msg) override;
  void charge(Actor& from, double cpu_seconds) override;
  SimTime actor_now(const Actor& actor) const override;
  void defer_after(Actor& from, Message msg, double delay_sec) override;
  void kill_node(NodeId node) override;
  void schedule_kill(NodeId node, double at) override;
  bool node_alive(NodeId node) const override;
  std::uint32_t kills_executed() const override { return kills_executed_; }
  void run() override;
  void request_stop() override;
  const ClusterSpec& cluster() const override { return spec_; }
  std::size_t actor_count() const override { return actors_.size(); }
  Actor& actor(ActorId id) override;

  // --- serving-layer extensions (see src/serve/) -----------------------

  /// Forget a finished actor cluster-wide: the coordinator drops its local
  /// instance (or tells the owning worker to), tombstones the id so
  /// straggler traffic is silently discarded, and broadcasts kRetire.  A
  /// long-lived coordinator would otherwise leak one Actor per query
  /// forever.  Must not be called from inside the actor's own handler.
  void retire_actor(ActorId id) override;

  /// Hook invoked once per event-loop iteration, after local delivery and
  /// timers, before blocking on sockets.  The serving coordinator does its
  /// admission/finalization work here, on the runtime thread, so it never
  /// races actor delivery.
  void set_idle_hook(std::function<void()> hook) { idle_hook_ = std::move(hook); }

  /// Poll an external fd alongside the fleet sockets; `on_event` fires on
  /// readability (or error/EOF -- the callee inspects the fd).  This is how
  /// the serve front end multiplexes its client listener and client
  /// connections into the runtime's single event loop.
  void watch_fd(int fd, std::function<void()> on_event);
  void unwatch_fd(int fd);

 private:
  struct Timer {
    double due = 0.0;  // seconds on the run clock
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Inbound {
    ActorId to = kInvalidActor;
    NodeId from_node = -1;
    Message msg;
  };

  void handshake(std::uint16_t port);
  void deliver_local(const Inbound& in);
  void drain_local(std::size_t budget);
  void fire_due_timers();
  void enqueue_timer(double delay_sec, std::function<void()> fn);
  double now_sec() const;
  void pump_sockets(int timeout_ms);
  void handle_frames(netio::Conn& conn);
  void mark_node_dead(NodeId node);
  void broadcast_announce(ActorId id, NodeId node);
  void shutdown_cluster();
  /// Ship `config` (if it differs from the handshake config) to `node`
  /// exactly once; returns the config id to stamp into the SPAWN frame
  /// (0 = the handshake config).
  std::uint32_t ship_config(NodeId node,
                            const std::shared_ptr<const EhjaConfig>& config);

  ClusterSpec spec_;
  EhjaConfig config_;
  Launcher launcher_;
  int listen_fd_ = -1;

  /// Indexed by NodeId; entry 0 (the coordinator itself) stays null.
  std::vector<std::unique_ptr<netio::Conn>> conns_;

  std::vector<std::unique_ptr<Actor>> actors_;  // remote ones stay unbound
  std::vector<NodeId> route_;                   // ActorId -> hosting node
  std::set<ActorId> retired_;                   // ids whose traffic is void
  std::deque<Inbound> local_q_;
  std::vector<Actor*> start_q_;  // pre-run local spawns awaiting on_start

  std::vector<Timer> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  /// defer_after()/schedule_kill() before run(): delays are relative to run
  /// start (ThreadRuntime semantics), so they park here until the clock
  /// exists.
  std::vector<std::pair<double, std::function<void()>>> pre_run_timers_;

  std::vector<char> node_dead_;
  std::uint32_t kills_executed_ = 0;
  bool running_ = false;
  bool stop_ = false;
  bool stopping_ = false;  // shutdown begun: exits are no longer failures
  bool shutdown_done_ = false;
  std::chrono::steady_clock::time_point epoch_;

  // Serving-layer state: per-query config shipping and the external-fd /
  // idle-hook plumbing (empty and inert for classic one-shot runs).
  struct ShippedConfig {
    /// Pinned so the pointer key in config_ids_ can never be recycled by a
    /// later allocation (a few hundred bytes per distinct query config).
    std::shared_ptr<const EhjaConfig> config;
    std::vector<std::uint8_t> body;  // encoded once
    std::set<NodeId> holders;        // nodes that already received it
  };
  std::map<const EhjaConfig*, std::uint32_t> config_ids_;
  std::map<std::uint32_t, ShippedConfig> shipped_configs_;
  std::uint32_t next_config_id_ = 1;
  std::function<void()> idle_hook_;
  std::map<int, std::function<void()>> watched_fds_;
};

}  // namespace ehja
