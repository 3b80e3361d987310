#ifndef THREEV_CORE_CLUSTER_H_
#define THREEV_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "threev/common/mutex.h"
#include "threev/common/status.h"
#include "threev/common/thread_annotations.h"
#include "threev/core/coordinator.h"
#include "threev/core/node.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/trace/introspect.h"
#include "threev/txn/plan.h"
#include "threev/verify/history.h"

namespace threev {

// Client endpoint: submits transactions to any node and routes results back
// to per-request callbacks. Thread-safe; usable from multiple submitter
// threads under ThreadNet.
class Client {
 public:
  using ResultCallback = std::function<void(const TxnResult&)>;
  using InspectCallback = std::function<void(const NodeInspection&)>;

  Client(NodeId id, Network* network, Tracer* tracer = nullptr)
      : id_(id), network_(network), tracer_(tracer) {}

  NodeId id() const { return id_; }

  // Network entry point; register with Network::RegisterEndpoint.
  void HandleMessage(const Message& msg) EXCLUDES(mu_);

  // Sends `spec` to `origin` for execution; `cb` fires when the system
  // reports the transaction's outcome. Returns the request id. `origin`
  // must equal spec.root.node (the root subtransaction executes at the
  // node it is submitted to); the node rejects mismatches. With tracing
  // enabled, the request runs under a fresh kClientRequest root span.
  uint64_t Submit(NodeId origin, const TxnSpec& spec, ResultCallback cb)
      EXCLUDES(mu_);

  // Routes to spec.root.node.
  uint64_t Submit(const TxnSpec& spec, ResultCallback cb) {
    return Submit(spec.root.node, spec, std::move(cb));
  }

  // Sends a kAdminInspect probe to any endpoint (node or coordinator);
  // `cb` fires with the decoded reply. Returns the request id.
  // `counters_version` selects which version's counter row/column the
  // reply carries (0 = the replier's current update version), letting the
  // fuzz invariant probe walk every live version without node internals.
  uint64_t Inspect(NodeId target, Version counters_version, InspectCallback cb)
      EXCLUDES(mu_);
  uint64_t Inspect(NodeId target, InspectCallback cb) {
    return Inspect(target, /*counters_version=*/0, std::move(cb));
  }

  // Requests whose results have not arrived yet.
  size_t InFlight() const EXCLUDES(mu_);

 private:
  struct PendingResult {
    ResultCallback cb;
    Micros submit_time = 0;
    TraceContext trace;
  };

  NodeId id_;
  Network* network_;
  Tracer* tracer_;  // unowned, may be null
  mutable Mutex mu_;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint64_t, PendingResult> inflight_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, InspectCallback> inspect_inflight_
      GUARDED_BY(mu_);
};

struct ClusterOptions {
  size_t num_nodes = 3;
  NodeMode mode = NodeMode::kPure3V;
  ReadPolicy read_policy = ReadPolicy::kReadVersion;
  Micros nc_lock_timeout = 100'000;
  double inject_abort_probability = 0.0;
  Micros coordinator_poll_interval = 2000;
  uint64_t seed = 1;
  // Durability: node i logs under "<wal_dir>/node-<i>". Empty disables
  // logging (and with it KillNode/RestartNode recovery).
  std::string wal_dir;
  FsyncPolicy fsync = FsyncPolicy::kNone;
  size_t wal_segment_bytes = 4u << 20;
  // Crash-tolerance retransmission knobs (see NodeOptions /
  // CoordinatorOptions).
  Micros twopc_retry_interval = 50'000;
  Micros coordinator_retry_interval = 10'000;
  // Observability: shared flight recorder wired into every node, the
  // coordinator, the client and (via the owner) the transport. Unowned,
  // may be null.
  Tracer* tracer = nullptr;
  // Test-only (fuzz-oracle validation): the node that silently skips its
  // first completion-counter increment (NodeOptions::
  // test_skip_first_completion). -1 disables. Never set outside tests.
  int test_skip_completion_node = -1;
};

// Owns and wires a full 3V deployment on one Network: `num_nodes` database
// nodes (endpoints 0..n-1), the advancement coordinator (endpoint n) and a
// default client (endpoint n+1).
class Cluster {
 public:
  Cluster(const ClusterOptions& options, Network* network, Metrics* metrics,
          HistoryRecorder* history = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t num_nodes() const { return num_nodes_; }
  // The returned reference stays valid across KillNode (dead nodes are
  // parked, not destroyed), but callers racing a kill should re-check
  // node_alive.
  Node& node(size_t i) EXCLUDES(mu_);
  const Node& node(size_t i) const EXCLUDES(mu_);
  // False while node i is killed or has halted itself (a failed WAL
  // commit).
  bool node_alive(size_t i) const EXCLUDES(mu_);
  AdvanceCoordinator& coordinator() { return *coordinator_; }
  Client& client() { return *client_; }

  // --- crash/restart orchestration -----------------------------------
  // Halts node i and takes it off the network: queued timers go dead,
  // in-flight messages to it are dropped. The dead Node object is parked
  // in a graveyard (not destroyed) so callbacks it captured stay valid.
  // No-op if already dead.
  void KillNode(size_t i) EXCLUDES(mu_);
  // Constructs a fresh Node over the same wal_dir - running crash
  // recovery in its constructor - and re-registers the endpoint (a new
  // incarnation; pre-crash in-flight messages stay dead). Requires
  // wal_dir to have been set and node i to be dead; a node that halted
  // itself is first killed as by KillNode.
  void RestartNode(size_t i) EXCLUDES(mu_);

  // Checkpoints every live node; returns the first error (nodes that are
  // not quiescent refuse, see Node::WriteCheckpoint).
  Status CheckpointAll() EXCLUDES(mu_);

  NodeId coordinator_id() const { return static_cast<NodeId>(num_nodes_); }
  NodeId client_id() const { return static_cast<NodeId>(num_nodes_) + 1; }

  // Convenience: submit via the default client.
  uint64_t Submit(NodeId origin, const TxnSpec& spec,
                  Client::ResultCallback cb);

  // Probes every live node plus the coordinator with kAdminInspect and
  // fires `done` once every reply arrived, in endpoint order. Asynchronous
  // (the reply needs the event loop to turn); under SimNet call Run() after.
  // A node killed between the liveness snapshot and its reply leaves the
  // aggregation waiting forever - probe healthy clusters.
  void InspectAll(std::function<void(std::vector<NodeInspection>)> done)
      EXCLUDES(mu_);

  // Verifies the paper's structural invariants (Section 4.4):
  //   * vr < vu <= vr + 2 on every node;
  //   * at most 3 simultaneous versions of any item were ever observed;
  //   * property 2(b): two nodes differing in vu agree on vr & vice versa.
  Status CheckInvariants() const EXCLUDES(mu_);

  // Subtransactions whose subtrees are still incomplete, across all nodes.
  size_t TotalPendingSubtxns() const EXCLUDES(mu_);

 private:
  NodeOptions MakeNodeOptions(size_t i) const;
  void InstallNode(size_t i, std::unique_ptr<Node> node) REQUIRES(mu_);
  // KillNode's body: halts node i, takes its endpoint down, parks it in the
  // graveyard and counts the crash. No-op on an empty slot.
  void BuryLocked(size_t i) REQUIRES(mu_);
  // Pointers to the currently-live nodes (parked incarnations excluded).
  std::vector<Node*> LiveNodes() const EXCLUDES(mu_);

  ClusterOptions options_;
  Network* network_;          // unowned
  Metrics* metrics_;          // unowned
  HistoryRecorder* history_;  // unowned, may be null
  const size_t num_nodes_;    // == options_.num_nodes; fixed at construction
  // Guards the node slots: KillNode / RestartNode run on test-orchestration
  // threads concurrently with accessors reading the slots.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Node>> nodes_ GUARDED_BY(mu_);
  // Killed incarnations, kept alive so timer callbacks capturing them
  // remain safe to invoke (they check halted() and return).
  std::vector<std::unique_ptr<Node>> graveyard_ GUARDED_BY(mu_);
  std::unique_ptr<AdvanceCoordinator> coordinator_;
  std::unique_ptr<Client> client_;
};

}  // namespace threev

#endif  // THREEV_CORE_CLUSTER_H_
