#include "runtime/socket_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/data_source.hpp"
#include "core/join_process.hpp"
#include "net/framed_conn.hpp"
#include "net/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

// The connection plumbing (Conn, listeners, frame cutting) lives in
// net/framed_conn.{hpp,cpp} now, shared with the serve layer's client links.
using netio::adopt_fd;
using netio::Conn;
using netio::connect_loopback;
using netio::flush_out;
using netio::make_listener;
using netio::must_flush;
using netio::must_recv_frame;
using netio::next_frame;
using netio::queue_frame;
using netio::read_available;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLocalBatch = 64;
constexpr int kIdlePollMs = 50;
constexpr double kHandshakeTimeoutSec = 60.0;
constexpr std::uint64_t kFirstIncarnation = 1;

// --- control frame bodies (field lists in net/wire.hpp) ---

/// Decode a control frame's body; a malformed one is fatal: `what` names
/// the frame in the "corrupt ..." message.
template <class T>
T parse_body(const wire::Frame& f, const char* what) {
  T body;
  EHJA_CHECK_MSG(wire::decode_body(f.body, body),
                 (std::string("corrupt ") + what).c_str());
  return body;
}

/// Queue an actor-message frame and write it out at once, without blocking:
/// a reply or a data chunk leaves when its handler sends it, not after the
/// rest of the handler batch.  Bytes the socket cannot take yet stay in
/// c.out and drain from the event loop's poll.
void send_msg_frame(Conn& c, ActorId to, const Message& msg) {
  if (!c.usable()) return;
  wire::Writer w;
  wire::Encoder ar(w);
  ar.id(to);
  ar.varint(c.next_send_seq++);
  wire::encode_message(msg, w);
  wire::append_frame(c.out, wire::FrameKind::kActorMsg, w.data());
  flush_out(c);
}

struct DecodedMsg {
  ActorId to = kInvalidActor;
  std::uint64_t seq = 0;
  Message msg;
};

DecodedMsg parse_msg_frame(const wire::Frame& f) {
  wire::Reader r(f.body);
  wire::Decoder ar(r);
  DecodedMsg d;
  ar.id(d.to);
  ar.varint(d.seq);
  const bool ok = r.ok() && wire::decode_message(r, d.msg);
  EHJA_CHECK_MSG(ok && r.remaining() == 0, "corrupt actor-message frame");
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

SocketRuntime::SocketRuntime(ClusterSpec spec, const EhjaConfig& config)
    : spec_(std::move(spec)), config_(config) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::size_t total = spec_.node_count();
  EHJA_CHECK_MSG(total >= 1, "socket runtime needs at least one node");
  node_dead_.assign(total, 0);
  conns_.resize(total);

  std::uint16_t port = 0;
  listen_fd_ = make_listener(port);
  for (std::size_t n = 1; n < total; ++n) {
    launcher_.spawn_worker(static_cast<NodeId>(n), port);
  }
  handshake(port);
}

SocketRuntime::~SocketRuntime() {
  shutdown_cluster();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketRuntime::handshake(std::uint16_t /*port*/) {
  const std::size_t total = spec_.node_count();
  const std::size_t workers = total - 1;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kHandshakeTimeoutSec));
  auto check_progress = [&] {
    const auto exits = launcher_.reap();
    EHJA_CHECK_MSG(exits.empty(), "worker process died during handshake");
    EHJA_CHECK_MSG(Clock::now() < deadline, "cluster handshake timed out");
  };

  // Phase 1: collect one HELLO per worker (arrival order is arbitrary).
  std::vector<std::uint16_t> mesh_port(total, 0);
  std::vector<std::unique_ptr<Conn>> unnamed;
  std::size_t identified = 0;
  while (identified < workers) {
    check_progress();
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& c : unnamed) pfds.push_back({c->fd, POLLIN, 0});
    ::poll(pfds.data(), pfds.size(), 100);
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      unnamed.push_back(adopt_fd(fd));
    }
    for (auto& c : unnamed) {
      if (!c) continue;
      read_available(*c);
      EHJA_CHECK_MSG(!c->eof && !c->broken, "worker hung up during handshake");
      wire::Frame f;
      if (!next_frame(*c, f)) continue;
      EHJA_CHECK_MSG(f.kind == wire::FrameKind::kHello,
                     "expected HELLO from worker");
      const auto h = parse_body<wire::HelloBody>(f, "HELLO");
      EHJA_CHECK_MSG(h.node >= 1 && static_cast<std::size_t>(h.node) < total,
                     "HELLO from unknown node");
      EHJA_CHECK_MSG(conns_[h.node] == nullptr, "duplicate HELLO for node");
      EHJA_CHECK_MSG(h.incarnation == kFirstIncarnation,
                     "HELLO carries unexpected incarnation epoch");
      c->peer = h.node;
      mesh_port[h.node] = h.port;
      conns_[h.node] = std::move(c);
      ++identified;
    }
    unnamed.erase(std::remove(unnamed.begin(), unnamed.end(), nullptr),
                  unnamed.end());
  }

  // Phase 2: WELCOME (the run config) + PEERS (the mesh table) to everyone.
  wire::Writer cw;
  wire::encode_config(config_, cw);
  const std::vector<std::uint8_t> config_body = cw.take();
  for (std::size_t n = 1; n < total; ++n) {
    Conn& c = *conns_[n];
    queue_frame(c, wire::FrameKind::kWelcome, config_body);
    wire::PeersBody peers;
    for (std::size_t m = 1; m < total; ++m) {
      if (m == n) continue;
      peers.peers.push_back({static_cast<NodeId>(m), mesh_port[m]});
    }
    queue_frame(c, wire::FrameKind::kPeers, wire::encode_body(peers));
  }

  // Phase 3: wait for every worker's READY (mesh established).
  std::size_t ready = 0;
  while (ready < workers) {
    check_progress();
    std::vector<pollfd> pfds;
    std::vector<NodeId> which;
    for (std::size_t n = 1; n < total; ++n) {
      Conn& c = *conns_[n];
      short ev = POLLIN;
      if (c.wants_write()) ev |= POLLOUT;
      pfds.push_back({c.fd, ev, 0});
      which.push_back(static_cast<NodeId>(n));
    }
    ::poll(pfds.data(), pfds.size(), 100);
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      Conn& c = *conns_[which[i]];
      flush_out(c);
      read_available(c);
      EHJA_CHECK_MSG(!c.eof && !c.broken, "worker hung up during handshake");
      wire::Frame f;
      while (next_frame(c, f)) {
        EHJA_CHECK_MSG(f.kind == wire::FrameKind::kReady,
                       "expected READY from worker");
        EHJA_CHECK_MSG(f.body.empty(), "corrupt READY");
        ++ready;
      }
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  EHJA_DEBUG("socket", "cluster up: ", workers, " worker processes");
}

ActorId SocketRuntime::spawn(NodeId node, std::unique_ptr<Actor> actor) {
  EHJA_CHECK_MSG(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count(),
                 "spawn: node out of range");
  EHJA_CHECK_MSG(node_alive(node), "spawn on a dead node");
  const ActorId id = static_cast<ActorId>(actors_.size());
  route_.push_back(node);
  if (node == 0) {
    actor->bind(this, id, node);
    Actor* raw = actor.get();
    actors_.push_back(std::move(actor));
    broadcast_announce(id, node);
    // Always via the start queue: a mid-run spawn (the serving layer starts
    // whole queries from the idle hook) must not run on_start() before its
    // query finishes wiring -- the scheduler's on_start needs its pool.
    start_q_.push_back(raw);
  } else {
    const std::optional<RemoteSpawnSpec> spec = actor->remote_spawn_spec();
    EHJA_CHECK_MSG(spec.has_value(),
                   "actor kind cannot be re-instantiated in a worker process");
    // Park the instance (unbound) so actor(id) stays total; the live copy
    // runs in the worker.
    actors_.push_back(std::move(actor));
    const std::uint32_t config_id = ship_config(node, spec->config);
    const wire::SpawnBody body{id, static_cast<std::uint8_t>(spec->kind),
                               spec->source_index, spec->scheduler,
                               config_id};
    queue_frame(*conns_[node], wire::FrameKind::kSpawn,
                wire::encode_body(body));
    broadcast_announce(id, node);
  }
  return id;
}

std::uint32_t SocketRuntime::ship_config(
    NodeId node, const std::shared_ptr<const EhjaConfig>& config) {
  // Id 0 is the handshake config every worker already holds.  Classic runs
  // always land here: the driver builds all actors from the one config it
  // passed to the runtime constructor.
  if (config == nullptr || config.get() == &config_) return 0;
  std::uint32_t id;
  const auto it = config_ids_.find(config.get());
  if (it != config_ids_.end()) {
    id = it->second;
  } else {
    id = next_config_id_++;
    config_ids_.emplace(config.get(), id);
    ShippedConfig shipped;
    shipped.config = config;
    shipped.body = wire::encode_body(wire::QueryConfigBody{id, *config});
    shipped_configs_.emplace(id, std::move(shipped));
  }
  ShippedConfig& shipped = shipped_configs_.at(id);
  if (shipped.holders.insert(node).second && conns_[node]) {
    queue_frame(*conns_[node], wire::FrameKind::kQueryConfig, shipped.body);
  }
  return id;
}

void SocketRuntime::retire_actor(ActorId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= route_.size()) return;
  if (!retired_.insert(id).second) return;
  actors_[id].reset();  // the local instance or the parked remote copy
  // Everyone (owner included) forgets the actor; stragglers in flight are
  // dropped at whichever hop sees the tombstone first.
  const std::vector<std::uint8_t> body =
      wire::encode_body(wire::RetireBody{id});
  for (std::size_t n = 1; n < conns_.size(); ++n) {
    if (node_dead_[n] || !conns_[n]) continue;
    queue_frame(*conns_[n], wire::FrameKind::kRetire, body);
  }
}

void SocketRuntime::watch_fd(int fd, std::function<void()> on_event) {
  EHJA_CHECK(fd >= 0 && on_event != nullptr);
  watched_fds_[fd] = std::move(on_event);
}

void SocketRuntime::unwatch_fd(int fd) { watched_fds_.erase(fd); }

void SocketRuntime::broadcast_announce(ActorId id, NodeId owner) {
  const std::vector<std::uint8_t> body =
      wire::encode_body(wire::AnnounceBody{id, owner});
  for (std::size_t n = 1; n < spec_.node_count(); ++n) {
    if (static_cast<NodeId>(n) == owner || node_dead_[n] || !conns_[n]) continue;
    queue_frame(*conns_[n], wire::FrameKind::kAnnounce, body);
  }
}

void SocketRuntime::send(Actor& from, ActorId to, Message msg) {
  EHJA_CHECK_MSG(to >= 0 && static_cast<std::size_t>(to) < route_.size(),
                 "send to unknown actor");
  if (!node_alive(from.node())) return;
  if (retired_.count(to) != 0) return;  // finished query; traffic is void
  const NodeId dst = route_[to];
  if (dst == 0) {
    local_q_.push_back(Inbound{to, from.node(), std::move(msg)});
    return;
  }
  if (!node_alive(dst) || !conns_[dst]) return;  // fail-stop: drop silently
  send_msg_frame(*conns_[dst], to, msg);
}

void SocketRuntime::defer(Actor& from, Message msg) {
  local_q_.push_back(Inbound{from.id(), from.node(), std::move(msg)});
}

void SocketRuntime::charge(Actor& /*from*/, double /*cpu_seconds*/) {
  // Wall-clock runtime: CPU cost is whatever the hardware does.
}

SimTime SocketRuntime::actor_now(const Actor& /*actor*/) const {
  return now_sec();
}

void SocketRuntime::defer_after(Actor& from, Message msg, double delay_sec) {
  const ActorId id = from.id();
  const NodeId node = from.node();
  auto shared = std::make_shared<Message>(std::move(msg));
  enqueue_timer(delay_sec, [this, id, node, shared] {
    local_q_.push_back(Inbound{id, node, *shared});
  });
}

void SocketRuntime::kill_node(NodeId node) {
  EHJA_CHECK_MSG(node != 0, "cannot kill the coordinator node");
  if (!node_alive(node)) return;
  launcher_.kill_worker(node);  // death surfaces through reap()
}

void SocketRuntime::schedule_kill(NodeId node, double at) {
  EHJA_CHECK_MSG(node != 0, "cannot kill the coordinator node");
  enqueue_timer(at, [this, node] {
    if (node_alive(node)) launcher_.kill_worker(node);
  });
}

bool SocketRuntime::node_alive(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= node_dead_.size()) {
    return false;
  }
  return !node_dead_[node];
}

Actor& SocketRuntime::actor(ActorId id) {
  EHJA_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < actors_.size(),
                 "actor id out of range");
  EHJA_CHECK_MSG(actors_[id] != nullptr, "actor was retired");
  return *actors_[id];
}

double SocketRuntime::now_sec() const {
  if (!running_) return 0.0;
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void SocketRuntime::enqueue_timer(double delay_sec, std::function<void()> fn) {
  if (!running_) {
    pre_run_timers_.emplace_back(delay_sec, std::move(fn));
    return;
  }
  Timer t;
  t.due = now_sec() + std::max(0.0, delay_sec);
  t.seq = timer_seq_++;
  t.fn = std::move(fn);
  timer_heap_.push_back(std::move(t));
  std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                 [](const Timer& a, const Timer& b) {
                   return a.due > b.due || (a.due == b.due && a.seq > b.seq);
                 });
}

void SocketRuntime::fire_due_timers() {
  const auto later = [](const Timer& a, const Timer& b) {
    return a.due > b.due || (a.due == b.due && a.seq > b.seq);
  };
  while (!timer_heap_.empty() && timer_heap_.front().due <= now_sec()) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), later);
    Timer t = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    t.fn();
  }
}

void SocketRuntime::deliver_local(const Inbound& in) {
  if (!node_alive(in.from_node)) return;  // sender died; message lost
  if (retired_.count(in.to) != 0) return;  // retired mid-queue; drop
  EHJA_CHECK_MSG(route_[in.to] == 0, "local delivery to remote actor");
  actors_[in.to]->on_message(in.msg);
}

void SocketRuntime::drain_local(std::size_t budget) {
  while (budget-- > 0 && !local_q_.empty() && !stop_) {
    const Inbound in = std::move(local_q_.front());
    local_q_.pop_front();
    deliver_local(in);
  }
}

void SocketRuntime::mark_node_dead(NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= node_dead_.size()) return;
  if (node_dead_[node]) return;
  node_dead_[node] = 1;
  conns_[node].reset();  // unread input and unsent output die with the node
  const std::vector<std::uint8_t> body =
      wire::encode_body(wire::NodeDeadBody{node});
  for (std::size_t n = 1; n < spec_.node_count(); ++n) {
    if (node_dead_[n] || !conns_[n]) continue;
    queue_frame(*conns_[n], wire::FrameKind::kNodeDead, body);
  }
}

void SocketRuntime::handle_frames(Conn& conn) {
  wire::Frame f;
  while (conn.usable() && next_frame(conn, f)) {
    EHJA_CHECK_MSG(f.kind == wire::FrameKind::kActorMsg,
                   "unexpected control frame from worker");
    DecodedMsg d = parse_msg_frame(f);
    EHJA_CHECK_MSG(fifo_accept(conn.next_recv_seq, d.seq),
                   "per-pair FIFO violation on coordinator link");
    EHJA_CHECK_MSG(d.to >= 0 && static_cast<std::size_t>(d.to) < route_.size(),
                   "worker sent to unknown actor");
    if (retired_.count(d.to) != 0) continue;  // straggler past retirement
    EHJA_CHECK_MSG(route_[d.to] == 0, "worker misrouted a message");
    local_q_.push_back(Inbound{d.to, conn.peer, std::move(d.msg)});
  }
}

void SocketRuntime::pump_sockets(int timeout_ms) {
  // Surface worker deaths first so a dead node's socket is already closed
  // when we poll.
  for (const Launcher::Exit& e : launcher_.reap()) {
    if (stopping_) continue;
    if (e.sigkilled) {
      ++kills_executed_;
      EHJA_INFO("socket", "node ", e.node, " fail-stopped (SIGKILL)");
    } else {
      EHJA_CHECK_MSG(false, ("worker for node " + std::to_string(e.node) +
                             " exited unexpectedly (status " +
                             std::to_string(e.status) + ")")
                                .c_str());
    }
    mark_node_dead(e.node);
  }

  std::vector<pollfd> pfds;
  std::vector<NodeId> which;
  for (std::size_t n = 1; n < conns_.size(); ++n) {
    if (!conns_[n] || !conns_[n]->usable()) continue;
    short ev = POLLIN;
    if (conns_[n]->wants_write()) ev |= POLLOUT;
    pfds.push_back({conns_[n]->fd, ev, 0});
    which.push_back(static_cast<NodeId>(n));
  }
  // External fds (the serve layer's client sockets) ride the same poll.
  const std::size_t fleet_count = pfds.size();
  std::vector<int> ext;
  for (const auto& [fd, cb] : watched_fds_) {
    pfds.push_back({fd, POLLIN, 0});
    ext.push_back(fd);
  }
  const int pr =
      ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), timeout_ms);
  if (pr < 0 && errno != EINTR) {
    EHJA_CHECK_MSG(false, "poll() failed");
  }
  for (std::size_t i = 0; i < fleet_count; ++i) {
    std::unique_ptr<Conn>& slot = conns_[which[i]];
    if (!slot) continue;  // died while handling an earlier conn's frames
    Conn& c = *slot;
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_available(c);
    handle_frames(c);
    flush_out(c);
    // EOF/broken without a reaped exit yet: the process is mid-death; the
    // next reap() turns it into node-dead state.
  }
  for (std::size_t i = 0; i < ext.size(); ++i) {
    if ((pfds[fleet_count + i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    // The callback may watch_fd/unwatch_fd (accepting a client does both);
    // re-check membership so we never invoke a stale entry.
    const auto it = watched_fds_.find(ext[i]);
    if (it != watched_fds_.end()) it->second();
  }
}

void SocketRuntime::run() {
  EHJA_CHECK_MSG(!running_, "run() called twice");
  running_ = true;
  epoch_ = Clock::now();
  for (auto& [delay, fn] : pre_run_timers_) enqueue_timer(delay, std::move(fn));
  pre_run_timers_.clear();

  while (!stop_) {
    // Start freshly spawned local actors (index loop: an on_start may spawn
    // more).  Pre-run spawns start here on the first iteration.
    for (std::size_t i = 0; i < start_q_.size(); ++i) start_q_[i]->on_start();
    start_q_.clear();
    drain_local(kLocalBatch);
    fire_due_timers();
    // The serving coordinator's admission/finalization work runs here, on
    // the runtime thread, between actor deliveries.
    if (idle_hook_) idle_hook_();
    if (stop_) break;
    int timeout = 0;
    if (local_q_.empty()) {
      timeout = kIdlePollMs;
      if (!timer_heap_.empty()) {
        const double dt = timer_heap_.front().due - now_sec();
        const int ms = static_cast<int>(std::ceil(std::max(0.0, dt) * 1000.0));
        timeout = std::clamp(ms, 0, kIdlePollMs);
      }
    }
    pump_sockets(timeout);
  }
  shutdown_cluster();
}

void SocketRuntime::request_stop() { stop_ = true; }

void SocketRuntime::shutdown_cluster() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stopping_ = true;
  for (std::size_t n = 1; n < conns_.size(); ++n) {
    if (!conns_[n] || !conns_[n]->usable()) continue;
    queue_frame(*conns_[n], wire::FrameKind::kShutdown, {});
  }
  // Push the SHUTDOWN frames (and any tail of queued traffic) out, bounded.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (auto& c : conns_) {
      if (!c || !c->usable()) continue;
      flush_out(*c);
      if (c->wants_write()) pending = true;
    }
    if (!pending || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  launcher_.shutdown_all(10.0);
  for (auto& c : conns_) c.reset();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// The Runtime a worker process offers its locally hosted actors.  It never
/// originates spawns (all placement decisions happen on the coordinator);
/// it instantiates actors when SPAWN frames arrive, learns id->node routes
/// from ANNOUNCE frames, and fail-stops its whole process on kill_node.
class SocketWorkerRuntime final : public Runtime {
 public:
  SocketWorkerRuntime(NodeId node, std::uint16_t coordinator_port)
      : node_(node), coordinator_port_(coordinator_port) {}

  int run_worker();

  ActorId spawn(NodeId /*node*/, std::unique_ptr<Actor> /*actor*/) override {
    EHJA_CHECK_MSG(false, "worker processes do not originate spawns");
    return kInvalidActor;
  }

  void send(Actor& /*from*/, ActorId to, Message msg) override {
    if (retired_.count(to) != 0) return;  // finished query; traffic is void
    if (actors_.count(to) != 0) {
      local_q_.push_back(Inbound{to, node_, std::move(msg)});
      return;
    }
    const auto rit = route_.find(to);
    if (rit == route_.end()) {
      // Route not announced yet (the cross-connection spawn race); park the
      // message until the ANNOUNCE arrives.
      pending_out_[to].push_back(std::move(msg));
      return;
    }
    send_remote(rit->second, to, msg);
  }

  void defer(Actor& from, Message msg) override {
    local_q_.push_back(Inbound{from.id(), node_, std::move(msg)});
  }

  void charge(Actor& /*from*/, double /*cpu_seconds*/) override {}

  SimTime actor_now(const Actor& /*actor*/) const override {
    return now_sec();
  }

  void defer_after(Actor& from, Message msg, double delay_sec) override {
    const ActorId id = from.id();
    auto shared = std::make_shared<Message>(std::move(msg));
    Timer t;
    t.due = now_sec() + std::max(0.0, delay_sec);
    t.seq = timer_seq_++;
    t.fn = [this, id, shared] {
      local_q_.push_back(Inbound{id, node_, *shared});
    };
    timer_heap_.push_back(std::move(t));
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerLater{});
  }

  void kill_node(NodeId node) override {
    // Fail-stop for real: the FaultPlan's chunk-triggered self-kill takes
    // down the whole OS process, mid-handler, no goodbye.  The coordinator
    // observes the SIGKILL via waitpid and folds it into the fault model.
    EHJA_CHECK_MSG(node == node_, "a worker can only kill its own node");
    ::raise(SIGKILL);
  }

  void schedule_kill(NodeId /*node*/, double /*at*/) override {
    EHJA_CHECK_MSG(false, "schedule_kill is coordinator-side");
  }

  bool node_alive(NodeId node) const override {
    if (node < 0 || static_cast<std::size_t>(node) >= dead_.size()) {
      return false;
    }
    return !dead_[node];
  }

  void run() override {
    EHJA_CHECK_MSG(false, "worker is driven by run_worker()");
  }
  void request_stop() override { stop_ = true; }

  const ClusterSpec& cluster() const override { return cluster_; }
  std::size_t actor_count() const override { return actors_.size(); }
  Actor& actor(ActorId id) override {
    const auto it = actors_.find(id);
    EHJA_CHECK_MSG(it != actors_.end(), "actor not hosted on this worker");
    return *it->second;
  }

 private:
  struct Inbound {
    ActorId to = kInvalidActor;
    NodeId from_node = -1;
    Message msg;
  };
  struct Timer {
    double due = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due > b.due || (a.due == b.due && a.seq > b.seq);
    }
  };

  void send_remote(NodeId dst, ActorId to, const Message& msg) {
    if (!node_alive(dst)) return;  // fail-stop: drop silently
    Conn* c = conn_for(dst);
    if (c == nullptr || !c->usable()) return;
    send_msg_frame(*c, to, msg);
  }

  Conn* conn_for(NodeId dst) {
    if (dst == 0) return coord_.get();
    if (dst < 0 || static_cast<std::size_t>(dst) >= conns_.size()) return nullptr;
    return conns_[dst].get();
  }

  double now_sec() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  void drain_local(std::size_t budget) {
    while (budget-- > 0 && !local_q_.empty() && !stop_) {
      const Inbound in = std::move(local_q_.front());
      local_q_.pop_front();
      if (!node_alive(in.from_node)) continue;
      if (retired_.count(in.to) != 0) continue;  // finished query straggler
      const auto it = actors_.find(in.to);
      EHJA_CHECK_MSG(it != actors_.end(), "local queue names unknown actor");
      it->second->on_message(in.msg);
    }
  }

  void fire_due_timers() {
    while (!timer_heap_.empty() && timer_heap_.front().due <= now_sec()) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerLater{});
      Timer t = std::move(timer_heap_.back());
      timer_heap_.pop_back();
      t.fn();
    }
  }

  void handle_spawn(const wire::Frame& f);
  void handle_announce(const wire::Frame& f);
  void handle_query_config(const wire::Frame& f);
  void handle_retire(const wire::Frame& f);
  void handle_frames(Conn& c);
  void pump(int timeout_ms);

  const NodeId node_;
  const std::uint16_t coordinator_port_;

  std::shared_ptr<const EhjaConfig> config_;
  ClusterSpec cluster_;
  std::unique_ptr<Conn> coord_;
  std::vector<std::unique_ptr<Conn>> conns_;  // indexed by peer NodeId

  std::map<ActorId, std::unique_ptr<Actor>> actors_;
  std::map<ActorId, NodeId> route_;
  std::set<ActorId> retired_;  // ids whose traffic is void (serve fleet)
  /// Per-query configs shipped by kQueryConfig (serve fleet); id 0 is the
  /// handshake config_.
  std::map<std::uint32_t, std::shared_ptr<const EhjaConfig>> query_configs_;
  /// Messages that arrived for a local actor whose SPAWN frame has not been
  /// processed yet (possible: a peer learned the id from its ANNOUNCE and
  /// raced us).  Replayed, in arrival order, at spawn.
  std::map<ActorId, std::vector<Inbound>> pending_in_;
  /// Messages a local actor sent to an id with no ANNOUNCEd route yet.
  /// Replayed, in send order, when the route arrives.
  std::map<ActorId, std::vector<Message>> pending_out_;

  std::deque<Inbound> local_q_;
  std::vector<Timer> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  std::vector<char> dead_;
  bool stop_ = false;
  bool coord_lost_ = false;
  Clock::time_point epoch_ = Clock::now();
};

void SocketWorkerRuntime::handle_spawn(const wire::Frame& f) {
  const auto [id, kind, source_index, scheduler, config_id] =
      parse_body<wire::SpawnBody>(f, "SPAWN");
  EHJA_CHECK_MSG(actors_.count(id) == 0, "SPAWN for an existing actor");

  std::shared_ptr<const EhjaConfig> cfg = config_;
  if (config_id != 0) {
    // Per-pair FIFO guarantees the kQueryConfig frame landed first.
    const auto it = query_configs_.find(config_id);
    EHJA_CHECK_MSG(it != query_configs_.end(),
                   "SPAWN names an unshipped query config");
    cfg = it->second;
  }
  std::unique_ptr<Actor> actor;
  if (kind == static_cast<std::uint8_t>(RemoteSpawnSpec::Kind::kJoinProcess)) {
    actor = std::make_unique<JoinProcessActor>(cfg, scheduler);
  } else {
    actor = std::make_unique<DataSourceActor>(cfg, source_index, scheduler);
  }
  actor->bind(this, id, node_);
  Actor* raw = actor.get();
  route_[id] = node_;
  actors_.emplace(id, std::move(actor));
  raw->on_start();

  const auto in_it = pending_in_.find(id);
  if (in_it != pending_in_.end()) {
    for (Inbound& in : in_it->second) local_q_.push_back(std::move(in));
    pending_in_.erase(in_it);
  }
  const auto out_it = pending_out_.find(id);
  if (out_it != pending_out_.end()) {
    for (Message& m : out_it->second) {
      local_q_.push_back(Inbound{id, node_, std::move(m)});
    }
    pending_out_.erase(out_it);
  }
}

void SocketWorkerRuntime::handle_announce(const wire::Frame& f) {
  const auto [id, owner] = parse_body<wire::AnnounceBody>(f, "ANNOUNCE");
  EHJA_CHECK_MSG(owner != node_, "ANNOUNCE for own node without SPAWN");
  route_[id] = owner;
  const auto it = pending_out_.find(id);
  if (it != pending_out_.end()) {
    for (const Message& m : it->second) send_remote(owner, id, m);
    pending_out_.erase(it);
  }
}

void SocketWorkerRuntime::handle_query_config(const wire::Frame& f) {
  auto body = parse_body<wire::QueryConfigBody>(f, "QUERY_CONFIG");
  EHJA_CHECK_MSG(body.id != 0,
                 "query config id 0 is reserved for the handshake");
  query_configs_[body.id] =
      std::make_shared<const EhjaConfig>(std::move(body.config));
}

void SocketWorkerRuntime::handle_retire(const wire::Frame& f) {
  const ActorId id = parse_body<wire::RetireBody>(f, "RETIRE").id;
  retired_.insert(id);
  actors_.erase(id);
  route_.erase(id);
  pending_in_.erase(id);
  pending_out_.erase(id);
}

void SocketWorkerRuntime::handle_frames(Conn& c) {
  wire::Frame f;
  while (c.usable() && next_frame(c, f)) {
    switch (f.kind) {
      case wire::FrameKind::kSpawn:
        handle_spawn(f);
        break;
      case wire::FrameKind::kAnnounce:
        handle_announce(f);
        break;
      case wire::FrameKind::kQueryConfig:
        handle_query_config(f);
        break;
      case wire::FrameKind::kRetire:
        handle_retire(f);
        break;
      case wire::FrameKind::kActorMsg: {
        DecodedMsg d = parse_msg_frame(f);
        EHJA_CHECK_MSG(fifo_accept(c.next_recv_seq, d.seq),
                       "per-pair FIFO violation on worker link");
        if (retired_.count(d.to) != 0) break;  // finished query straggler
        if (actors_.count(d.to) != 0) {
          local_q_.push_back(Inbound{d.to, c.peer, std::move(d.msg)});
        } else {
          // SPAWN not processed yet (frame races across connections).
          const auto rit = route_.find(d.to);
          EHJA_CHECK_MSG(rit == route_.end() || rit->second == node_,
                         "peer misrouted a message");
          pending_in_[d.to].push_back(Inbound{d.to, c.peer, std::move(d.msg)});
        }
        break;
      }
      case wire::FrameKind::kNodeDead: {
        const NodeId dead = parse_body<wire::NodeDeadBody>(f, "NODE_DEAD").node;
        if (dead >= 0 && static_cast<std::size_t>(dead) < dead_.size()) {
          dead_[dead] = 1;
          if (static_cast<std::size_t>(dead) < conns_.size()) {
            conns_[dead].reset();
          }
        }
        break;
      }
      case wire::FrameKind::kShutdown:
        stop_ = true;
        break;
      default:
        EHJA_CHECK_MSG(false, "unexpected frame kind on worker");
    }
  }
}

void SocketWorkerRuntime::pump(int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<Conn*> which;
  auto add = [&](Conn* c) {
    if (c == nullptr || !c->usable()) return;
    short ev = POLLIN;
    if (c->wants_write()) ev |= POLLOUT;
    pfds.push_back({c->fd, ev, 0});
    which.push_back(c);
  };
  add(coord_.get());
  for (auto& c : conns_) add(c.get());
  const int pr =
      ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), timeout_ms);
  if (pr < 0 && errno != EINTR) {
    EHJA_CHECK_MSG(false, "poll() failed in worker");
  }
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    Conn* c = which[i];
    // A NODE_DEAD handled earlier in this sweep may have reset a peer conn;
    // the coordinator conn is never reset mid-sweep.
    bool still_here = (c == coord_.get());
    for (const auto& keep : conns_) {
      if (keep.get() == c) still_here = true;
    }
    if (!still_here) continue;
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_available(*c);
    handle_frames(*c);
    flush_out(*c);
    if ((c->eof || c->broken) && c == coord_.get() && !stop_) {
      coord_lost_ = true;  // coordinator vanished without SHUTDOWN
    }
  }
}

int SocketWorkerRuntime::run_worker() {
  ::signal(SIGPIPE, SIG_IGN);

  // Handshake step 1: dial the coordinator, stand up the mesh listener,
  // introduce ourselves.
  coord_ = adopt_fd(connect_loopback(coordinator_port_));
  coord_->peer = 0;
  std::uint16_t my_port = 0;
  const int listen_fd = make_listener(my_port);
  queue_frame(*coord_, wire::FrameKind::kHello,
              wire::encode_body(
                  wire::HelloBody{node_, my_port, kFirstIncarnation}));
  must_flush(*coord_, kHandshakeTimeoutSec, "HELLO");

  // Step 2: WELCOME carries the run config; rebuild the cluster view.
  wire::Frame f = must_recv_frame(*coord_, kHandshakeTimeoutSec, "WELCOME");
  EHJA_CHECK_MSG(f.kind == wire::FrameKind::kWelcome, "expected WELCOME");
  config_ = std::make_shared<const EhjaConfig>(
      parse_body<EhjaConfig>(f, "WELCOME config"));
  cluster_ = make_cluster(*config_);
  dead_.assign(cluster_.node_count(), 0);
  conns_.resize(cluster_.node_count());
  EHJA_CHECK_MSG(node_ >= 1 &&
                     static_cast<std::size_t>(node_) < cluster_.node_count(),
                 "worker node id outside the configured cluster");

  // Step 3: PEERS, then build the mesh -- dial lower-numbered workers,
  // accept the higher-numbered ones.
  f = must_recv_frame(*coord_, kHandshakeTimeoutSec, "PEERS");
  EHJA_CHECK_MSG(f.kind == wire::FrameKind::kPeers, "expected PEERS");
  std::size_t expect_accepts = 0;
  {
    const auto peers = parse_body<wire::PeersBody>(f, "PEERS").peers;
    EHJA_CHECK_MSG(peers.size() == cluster_.node_count() - 2, "corrupt PEERS");
    for (const auto [peer, port] : peers) {
      EHJA_CHECK_MSG(peer >= 1 && peer != node_ &&
                         static_cast<std::size_t>(peer) < cluster_.node_count(),
                     "corrupt PEERS entry");
      if (peer < node_) {
        auto c = adopt_fd(connect_loopback(port));
        c->peer = peer;
        queue_frame(*c, wire::FrameKind::kPeerHello,
                    wire::encode_body(
                        wire::HelloBody{node_, 0, kFirstIncarnation}));
        must_flush(*c, kHandshakeTimeoutSec, "PEER_HELLO");
        conns_[peer] = std::move(c);
      } else {
        ++expect_accepts;
      }
    }
  }
  std::size_t accepted = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kHandshakeTimeoutSec));
  while (accepted < expect_accepts) {
    EHJA_CHECK_MSG(Clock::now() < deadline, "mesh handshake timed out");
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto c = adopt_fd(fd);
    const wire::Frame hello =
        must_recv_frame(*c, kHandshakeTimeoutSec, "PEER_HELLO");
    EHJA_CHECK_MSG(hello.kind == wire::FrameKind::kPeerHello,
                   "expected PEER_HELLO");
    const auto h = parse_body<wire::HelloBody>(hello, "PEER_HELLO");
    EHJA_CHECK_MSG(h.node > node_ &&
                       static_cast<std::size_t>(h.node) < cluster_.node_count(),
                   "PEER_HELLO from unexpected node");
    EHJA_CHECK_MSG(conns_[h.node] == nullptr, "duplicate peer connection");
    EHJA_CHECK_MSG(h.incarnation == kFirstIncarnation,
                   "PEER_HELLO carries unexpected incarnation epoch");
    c->peer = h.node;
    conns_[h.node] = std::move(c);
    ++accepted;
  }
  ::close(listen_fd);

  // Step 4: READY -- the coordinator may start placing actors.
  queue_frame(*coord_, wire::FrameKind::kReady, {});
  must_flush(*coord_, kHandshakeTimeoutSec, "READY");

  // Main loop: interleave local actor work with socket I/O.  The local
  // batch stays small so a self-deferring actor (a data source generating
  // slices) cannot starve inbound control traffic.
  while (!stop_ && !coord_lost_) {
    drain_local(32);
    fire_due_timers();
    if (stop_) break;
    int timeout = 0;
    if (local_q_.empty()) {
      timeout = kIdlePollMs;
      if (!timer_heap_.empty()) {
        const double dt = timer_heap_.front().due - now_sec();
        const int ms = static_cast<int>(std::ceil(std::max(0.0, dt) * 1000.0));
        timeout = std::clamp(ms, 0, kIdlePollMs);
      }
    }
    pump(timeout);
  }
  if (coord_lost_) {
    EHJA_WARN("socket", "worker ", node_,
              ": coordinator vanished without SHUTDOWN");
    return 1;
  }
  // Push any tail of queued output (last reports) before exiting.
  const auto flush_deadline = Clock::now() + std::chrono::seconds(2);
  while (coord_->wants_write() && Clock::now() < flush_deadline) {
    flush_out(*coord_);
    if (!coord_->wants_write()) break;
    pollfd p{coord_->fd, POLLOUT, 0};
    ::poll(&p, 1, 50);
  }
  return 0;
}

std::optional<int> maybe_run_socket_worker(int argc, char** argv) {
  long node = -1;
  long port = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--ehja-worker=", 14) == 0) {
      node = std::atol(a + 14);
    } else if (std::strncmp(a, "--ehja-coordinator-port=", 24) == 0) {
      port = std::atol(a + 24);
    }
  }
  if (node < 0) return std::nullopt;
  EHJA_CHECK_MSG(port > 0 && port <= 0xffff,
                 "worker mode requires --ehja-coordinator-port");
  SocketWorkerRuntime rt(static_cast<NodeId>(node),
                         static_cast<std::uint16_t>(port));
  return rt.run_worker();
}

}  // namespace ehja
