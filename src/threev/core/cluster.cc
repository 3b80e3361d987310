#include "threev/core/cluster.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "threev/common/logging.h"

namespace threev {

void Client::HandleMessage(const Message& msg) {
  if (msg.type == MsgType::kAdminInspectReply) {
    InspectCallback cb;
    {
      MutexLock lock(mu_);
      auto it = inspect_inflight_.find(msg.seq);
      if (it == inspect_inflight_.end()) return;
      cb = std::move(it->second);
      inspect_inflight_.erase(it);
    }
    if (cb) cb(InspectionFromReply(msg));
    return;
  }
  if (msg.type != MsgType::kClientResult) return;
  PendingResult pending;
  {
    MutexLock lock(mu_);
    auto it = inflight_.find(msg.seq);
    if (it == inflight_.end()) return;
    pending = std::move(it->second);
    inflight_.erase(it);
  }
  TxnResult result;
  result.id = msg.txn;
  result.status = Status(msg.status_code, msg.status_msg);
  result.version = msg.version;
  for (const auto& [key, value] : msg.reads) result.reads[key] = value;
  result.submit_time = pending.submit_time;
  result.complete_time = network_->Now();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->EndSpan(result.complete_time, id_, TraceOp::kClientRequest,
                     pending.trace, result.status.ok() ? 1 : 0);
  }
  if (pending.cb) pending.cb(result);
}

uint64_t Client::Submit(NodeId origin, const TxnSpec& spec,
                        ResultCallback cb) {
  uint64_t seq;
  Micros now = network_->Now();
  TraceContext trace;
  if (tracer_ != nullptr && tracer_->enabled()) {
    trace = tracer_->BeginSpan(now, id_, TraceOp::kClientRequest,
                               TraceContext{});
  }
  {
    MutexLock lock(mu_);
    seq = next_seq_++;
    PendingResult pending;
    pending.cb = std::move(cb);
    pending.submit_time = now;
    pending.trace = trace;
    inflight_.emplace(seq, std::move(pending));
  }
  Message m;
  m.type = MsgType::kClientSubmit;
  m.from = id_;
  m.seq = seq;
  m.flag = spec.read_only;
  m.klass = static_cast<uint8_t>(spec.klass);
  m.plan = spec.root;
  m.trace = trace;
  network_->Send(origin, std::move(m));
  return seq;
}

uint64_t Client::Inspect(NodeId target, Version counters_version,
                         InspectCallback cb) {
  uint64_t seq;
  {
    MutexLock lock(mu_);
    seq = next_seq_++;
    inspect_inflight_.emplace(seq, std::move(cb));
  }
  Message m;
  m.type = MsgType::kAdminInspect;
  m.from = id_;
  m.seq = seq;
  m.version = counters_version;
  // Marks the version as explicit: version 0 is a real (pre-advancement)
  // version, distinct from the "use current vu" default of plain probes.
  m.flag = counters_version != 0;
  network_->Send(target, std::move(m));
  return seq;
}

size_t Client::InFlight() const {
  MutexLock lock(mu_);
  return inflight_.size() + inspect_inflight_.size();
}

Cluster::Cluster(const ClusterOptions& options, Network* network,
                 Metrics* metrics, HistoryRecorder* history)
    : options_(options),
      network_(network),
      metrics_(metrics),
      history_(history),
      num_nodes_(options.num_nodes) {
  {
    MutexLock lock(mu_);
    nodes_.resize(options.num_nodes);
    for (size_t i = 0; i < options.num_nodes; ++i) {
      InstallNode(i, std::make_unique<Node>(MakeNodeOptions(i), network,
                                            metrics, history));
    }
  }

  CoordinatorOptions coord_options;
  coord_options.id = coordinator_id();
  coord_options.num_nodes = options.num_nodes;
  coord_options.poll_interval = options.coordinator_poll_interval;
  coord_options.retry_interval = options.coordinator_retry_interval;
  coord_options.tracer = options.tracer;
  coordinator_ =
      std::make_unique<AdvanceCoordinator>(coord_options, network, metrics);
  AdvanceCoordinator* coord = coordinator_.get();
  network->RegisterEndpoint(
      coordinator_id(), [coord](const Message& m) { coord->HandleMessage(m); });

  client_ = std::make_unique<Client>(client_id(), network, options.tracer);
  Client* client = client_.get();
  network->RegisterEndpoint(
      client_id(), [client](const Message& m) { client->HandleMessage(m); });

  if (options.tracer != nullptr) {
    for (size_t i = 0; i < options.num_nodes; ++i) {
      options.tracer->SetTrackName(static_cast<NodeId>(i),
                                   "node-" + std::to_string(i));
    }
    options.tracer->SetTrackName(coordinator_id(), "coordinator");
    options.tracer->SetTrackName(client_id(), "client");
  }
}

NodeOptions Cluster::MakeNodeOptions(size_t i) const {
  NodeOptions node_options;
  node_options.id = static_cast<NodeId>(i);
  node_options.num_nodes = options_.num_nodes;
  node_options.mode = options_.mode;
  node_options.read_policy = options_.read_policy;
  node_options.nc_lock_timeout = options_.nc_lock_timeout;
  node_options.inject_abort_probability = options_.inject_abort_probability;
  node_options.seed = options_.seed;
  if (!options_.wal_dir.empty()) {
    node_options.wal_dir = options_.wal_dir + "/node-" + std::to_string(i);
    node_options.fsync = options_.fsync;
    node_options.wal_segment_bytes = options_.wal_segment_bytes;
  }
  node_options.twopc_retry_interval = options_.twopc_retry_interval;
  node_options.tracer = options_.tracer;
  node_options.test_skip_first_completion =
      options_.test_skip_completion_node >= 0 &&
      static_cast<size_t>(options_.test_skip_completion_node) == i;
  return node_options;
}

void Cluster::InstallNode(size_t i, std::unique_ptr<Node> node) {
  nodes_[i] = std::move(node);
  Node* raw = nodes_[i].get();
  network_->RegisterEndpoint(
      raw->id(), [raw](const Message& m) { raw->HandleMessage(m); });
  network_->SetEndpointUp(raw->id(), true);
}

Node& Cluster::node(size_t i) {
  MutexLock lock(mu_);
  return *nodes_[i];
}

const Node& Cluster::node(size_t i) const {
  MutexLock lock(mu_);
  return *nodes_[i];
}

bool Cluster::node_alive(size_t i) const {
  MutexLock lock(mu_);
  return nodes_[i] != nullptr && !nodes_[i]->halted();
}

void Cluster::KillNode(size_t i) {
  MutexLock lock(mu_);
  BuryLocked(i);
}

void Cluster::BuryLocked(size_t i) {
  if (nodes_[i] == nullptr) return;
  nodes_[i]->Halt();
  network_->SetEndpointUp(static_cast<NodeId>(i), false);
  graveyard_.push_back(std::move(nodes_[i]));
  if (metrics_ != nullptr) {
    metrics_->node_crashes.fetch_add(1, std::memory_order_relaxed);
  }
}

void Cluster::RestartNode(size_t i) {
  {
    MutexLock lock(mu_);
    // A node that halted itself (a failed WAL commit) still holds its
    // slot; it dies here exactly as KillNode would have killed it.
    if (nodes_[i] != nullptr && nodes_[i]->halted()) BuryLocked(i);
    THREEV_CHECK(nodes_[i] == nullptr)
        << "restart of node " << i << " which is still alive";
  }
  THREEV_CHECK(!options_.wal_dir.empty())
      << "restart without durability: node " << i << " has no state to recover";
  // The node is live from the moment its constructor runs: recovery
  // re-broadcasts logged 2PC decisions to every node *including itself*
  // (it may be a participant in a tree it rooted), and a self-addressed
  // decision sent before InstallNode flips liveness must not be dropped
  // as a crash casualty. Delivery still waits for the event loop, by which
  // time the new handler is registered.
  network_->SetEndpointUp(static_cast<NodeId>(i), true);
  // Construct (and run crash recovery) outside the slot lock: recovery does
  // file I/O and re-broadcasts decisions, neither of which should stall
  // concurrent slot readers.
  auto fresh = std::make_unique<Node>(MakeNodeOptions(i), network_,
                                      metrics_, history_);
  MutexLock lock(mu_);
  InstallNode(i, std::move(fresh));
}

std::vector<Node*> Cluster::LiveNodes() const {
  MutexLock lock(mu_);
  std::vector<Node*> live;
  for (const auto& node : nodes_) {
    if (node != nullptr) live.push_back(node.get());
  }
  return live;
}

Status Cluster::CheckpointAll() {
  // Snapshot the live set, then checkpoint unlocked: parked incarnations
  // outlive the cluster, so the pointers stay valid even if a node is
  // killed mid-sweep (its checkpoint attempt just observes a halted node).
  for (Node* node : LiveNodes()) {
    Status s = node->WriteCheckpoint();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

uint64_t Cluster::Submit(NodeId origin, const TxnSpec& spec,
                         Client::ResultCallback cb) {
  return client_->Submit(origin, spec, std::move(cb));
}

void Cluster::InspectAll(
    std::function<void(std::vector<NodeInspection>)> done) {
  std::vector<NodeId> targets;
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] != nullptr) targets.push_back(static_cast<NodeId>(i));
    }
  }
  targets.push_back(coordinator_id());

  // Shared aggregation state; the last reply fires `done`. Replies arrive
  // on whatever thread drives the network, hence the mutex.
  struct Gather {
    Mutex mu;
    std::vector<NodeInspection> replies;
    size_t remaining = 0;
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = targets.size();
  auto finish = std::move(done);
  for (NodeId target : targets) {
    client_->Inspect(target, [gather, finish](const NodeInspection& insp) {
      bool last = false;
      {
        MutexLock lock(gather->mu);
        gather->replies.push_back(insp);
        last = --gather->remaining == 0;
        if (last) {
          std::sort(gather->replies.begin(), gather->replies.end(),
                    [](const NodeInspection& a, const NodeInspection& b) {
                      return a.node < b.node;
                    });
        }
      }
      if (last && finish) finish(std::move(gather->replies));
    });
  }
}

Status Cluster::CheckInvariants() const {
  std::vector<Node*> alive(num_nodes_, nullptr);
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < nodes_.size(); ++i) alive[i] = nodes_[i].get();
  }
  for (size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == nullptr) continue;  // killed: no state to check
    Version vu = alive[i]->vu();
    Version vr = alive[i]->vr();
    if (!(vr < vu && vu <= MaxUpdateVersionFor(vr))) {
      return Status::Internal("node " + std::to_string(i) +
                              " violates vr < vu <= vr+2: vr=" +
                              std::to_string(vr) + " vu=" +
                              std::to_string(vu));
    }
    size_t max_versions = alive[i]->store().MaxVersionsObserved();
    if (max_versions > kMaxSimultaneousVersions) {
      return Status::Internal("node " + std::to_string(i) + " held " +
                              std::to_string(max_versions) +
                              " simultaneous versions of an item");
    }
  }
  // Property 2(b): nodes differing in one version number agree on the
  // other. (Sampled pairwise; exact under SimNet where nothing moves
  // between the reads.)
  for (size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == nullptr) continue;
    for (size_t j = i + 1; j < alive.size(); ++j) {
      if (alive[j] == nullptr) continue;
      Version vui = alive[i]->vu(), vuj = alive[j]->vu();
      Version vri = alive[i]->vr(), vrj = alive[j]->vr();
      if (vui != vuj && vri != vrj) {
        return Status::Internal(
            "nodes " + std::to_string(i) + "," + std::to_string(j) +
            " differ in both vu and vr (property 2b violated)");
      }
    }
  }
  return Status::Ok();
}

size_t Cluster::TotalPendingSubtxns() const {
  size_t n = 0;
  for (Node* node : LiveNodes()) n += node->PendingSubtxns();
  return n;
}

}  // namespace threev
