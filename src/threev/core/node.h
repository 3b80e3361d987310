#ifndef THREEV_CORE_NODE_H_
#define THREEV_CORE_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/common/random.h"
#include "threev/common/status.h"
#include "threev/core/counters.h"
#include "threev/core/owner_thread.h"
#include "threev/durability/wal.h"
#include "threev/lock/lock_manager.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/storage/versioned_store.h"
#include "threev/trace/trace.h"
#include "threev/txn/plan.h"
#include "threev/verify/history.h"

namespace threev {

// Which version read-only transactions are assigned.
enum class ReadPolicy : uint8_t {
  // The paper's rule: reads run against the stable read version vr.
  kReadVersion = 0,
  // "No Coordination" baseline: reads run against the current update
  // version, observing in-flight transactions (incorrect but fast).
  kCurrentVersion = 1,
};

enum class NodeMode : uint8_t {
  // All update transactions are well-behaved: no locks at all (Section 4).
  kPure3V = 0,
  // NC3V (Section 5): well-behaved transactions take commuting locks;
  // non-commuting transactions take NC locks, gate on vu == vr + 1 and run
  // two-phase commit.
  kNC3V = 1,
};

// How a descendant update subtransaction picks the version it writes.
enum class VersionAssignment : uint8_t {
  // The 3V rule: use the version carried from the root (with version
  // inference when it is newer than the local update version).
  kCarried = 0,
  // The "Manual Versioning" baseline's flaw: writes land in whatever
  // period the executing node is currently in, so a transaction that
  // straddles an unsynchronized period switch splits across versions.
  kLocalPeriod = 1,
};

struct NodeOptions {
  NodeId id = 0;
  size_t num_nodes = 1;
  NodeMode mode = NodeMode::kPure3V;
  ReadPolicy read_policy = ReadPolicy::kReadVersion;
  VersionAssignment version_assignment = VersionAssignment::kCarried;
  // How long a non-commuting subtransaction waits for locks before
  // aborting (deadlock resolution is timeout-based, as in most real
  // distributed lock managers).
  Micros nc_lock_timeout = 100'000;
  // Failure injection: probability that a well-behaved update ROOT
  // subtransaction aborts after executing and spawning children,
  // exercising the compensation machinery of Section 3.2 (the root rolls
  // back locally and sends compensating subtransactions down the tree;
  // see DESIGN.md for the scoping of this simplification).
  double inject_abort_probability = 0.0;
  uint64_t seed = 1;
  // Durability. Empty `wal_dir` disables logging entirely (the seed's
  // in-memory behavior). With a directory set, the node recovers from
  // checkpoint + WAL at construction and appends redo records as it runs.
  std::string wal_dir;
  FsyncPolicy fsync = FsyncPolicy::kNone;
  size_t wal_segment_bytes = 4u << 20;
  // Root-side 2PC retransmission: re-send kPrepare / kDecision to
  // participants that have not answered (their reply - or the original
  // message - died with a crashed node). 0 disables.
  Micros twopc_retry_interval = 50'000;
  // Observability (DESIGN.md section 12). Null disables tracing; when set,
  // the node records spans/instants into this shared flight recorder and
  // answers kAdminInspect probes with richer detail. Unowned.
  Tracer* tracer = nullptr;
  // Test-only protocol-bug injection (DESIGN.md section 13): silently skip
  // this node's first completion-counter increment. Breaks counter-matrix
  // conservation, so quiescence over the affected version can never be
  // detected - exists solely to prove the fuzz oracles catch exactly this
  // class of bug. Never set outside tests.
  bool test_skip_first_completion = false;
};

// One database node (site) running the 3V protocol.
//
// The node is a passive event-driven state machine: HandleMessage() is its
// only input (register it with a Network). It never blocks on remote
// activity - waits (NC lock conflicts, the NC3V version gate) are queued
// continuations, exactly the property Theorem 4.2 promises; on the
// well-behaved fast path no continuation is ever queued.
//
// Completion tracking is hierarchical, following the paper's Table 1: a
// subtransaction's completion counter C(v)[source][here] is incremented -
// and a completion notice sent to its parent's node - only once all of its
// children have reported completion. The root's completion resolves the
// client's transaction. (Its local database effects commit immediately
// after execution; only the *accounting* is hierarchical, so user
// transactions are still never delayed.)
//
// Durability (DESIGN.md section 9): redo records are staged in the WAL's
// batch and committed with one write just before the next message leaves
// (every send goes through Node::Send) and at the end of every handler, so
// between events the log holds every record.
//
// Threading (DESIGN.md section 6): one thread owns the node. Every handler,
// timer callback included (timers arrive as kTimer messages through
// Network::ScheduleTimer), runs on the thread the transport runs this
// endpoint's messages on, so the node, its store, counters and lock table
// take no locks. HandleMessage enforces it: two overlapping calls abort the
// process. Other threads may only call halted(), Halt(), vu(), vr() and
// store().MaxVersionsObserved(); everything else - WriteCheckpoint,
// PendingSubtxns, DebugString, the store/counters/locks accessors - is for
// the owner thread or for a quiescent node (SimNet between events, or after
// the transport stopped).
class Node {
 public:
  Node(const NodeOptions& options, Network* network, Metrics* metrics,
       HistoryRecorder* history = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Network entry point; register with Network::RegisterEndpoint.
  void HandleMessage(const Message& msg);

  // Crash simulation: a halted node ignores every subsequent message and
  // timer callback, and a handler still running when it halted neither
  // sends nor logs from then on. Irreversible - "restarting" means
  // constructing a fresh Node over the same wal_dir (see
  // Cluster::RestartNode).
  void Halt();
  bool halted() const { return halted_.load(std::memory_order_acquire); }

  // Snapshots the store + counters + version variables to a checkpoint file
  // paired with a WAL rotation, then truncates covered segments. Refuses
  // (kFailedPrecondition) while any subtransaction tree or non-commuting
  // transaction is open here: checkpoints are quiescent by construction, so
  // in-doubt 2PC state never needs to be serialized into them.
  Status WriteCheckpoint();

  // --- introspection --------------------------------------------------
  NodeId id() const { return options_.id; }
  // Single writer (the owner thread); other threads sample them.
  Version vu() const { return vu_.load(std::memory_order_relaxed); }
  Version vr() const { return vr_.load(std::memory_order_relaxed); }
  VersionedStore& store() { return store_; }
  const VersionedStore& store() const { return store_; }
  CounterTable& counters() { return counters_; }
  LockManager& locks() { return locks_; }
  // Subtransactions whose subtrees have not completed yet at this node.
  size_t PendingSubtxns() const { return pending_.size(); }
  // Null when durability is disabled.
  WriteAheadLog* wal() { return wal_.get(); }

  // Multi-line diagnostic snapshot: versions, pending subtransactions,
  // open non-commuting transactions, queued version-gate waiters.
  std::string DebugString() const;

 private:
  static constexpr Version kUnassigned = 0xffffffff;

  // Execution context of one subtransaction, kept alive across async lock
  // acquisition by shared_ptr.
  struct ExecContext {
    TxnId txn = 0;
    SubtxnId subtxn = 0;
    SubtxnId parent_subtxn = 0;
    NodeId source = 0;  // node that invoked this subtransaction
    Version version = kUnassigned;
    bool is_root = false;
    bool read_only = false;
    bool compensation = false;
    TxnClass klass = TxnClass::kWellBehaved;
    SubtxnPlan plan;
    // Root only: who to answer when the tree resolves.
    NodeId client = 0;
    uint64_t client_seq = 0;
    Micros submit_time = 0;
    // Span of this subtransaction's execution (invalid when tracing off);
    // child requests carry ctx.trace so remote spans parent under it.
    TraceContext trace;
    // Async lock acquisition state.
    std::vector<std::pair<std::string, LockMode>> lock_needs;
    size_t next_lock = 0;
    bool lock_done = false;
    Micros lock_wait_start = 0;
  };
  using ExecPtr = std::shared_ptr<ExecContext>;

  // A subtransaction that executed here and is waiting for its children's
  // completion notices (hierarchical completion accounting).
  struct PendingSubtxn {
    TxnId txn = 0;
    SubtxnId subtxn = 0;
    SubtxnId parent_subtxn = 0;
    NodeId source = 0;
    Version version = 0;
    bool is_root = false;
    bool read_only = false;
    TxnClass klass = TxnClass::kWellBehaved;
    size_t outstanding = 0;  // children not yet reported
    std::map<std::string, Value> reads;  // own + subtree reads
    Status status;                       // first failure in the subtree
    std::set<NodeId> participants;       // nodes in the subtree
    // Root only.
    NodeId client = 0;
    uint64_t client_seq = 0;
    Micros submit_time = 0;
    // Span carried over from execution; completion notices / 2PC traffic /
    // the client result are stamped with it.
    TraceContext trace;
    // Root of a non-commuting transaction: the kTwopc span opened by
    // ResolveRoot and closed by FinishRoot.
    TraceContext twopc_trace;
    // Two-phase commit state (root of a non-commuting transaction).
    // Sets rather than counts: retransmitted prepares/decisions produce
    // duplicate votes/acks, which must deduplicate, not underflow.
    std::set<NodeId> vote_waiting;
    bool commit = true;
    std::set<NodeId> ack_waiting;
  };

  // Per-node state of a non-commuting transaction (participant side).
  struct NcTxnState {
    std::vector<UndoEntry> undo;  // rollback log, applied in reverse
    // Deferred completion-counter increments, applied at decision time
    // ("the completion counter is incremented atomically together with
    // commitment", Section 5 step 6).
    std::vector<std::pair<Version, NodeId>> completions;
    bool failed = false;
  };

  // --- message handlers ---
  void OnClientSubmit(const Message& msg);
  void OnSubtxnRequest(const Message& msg);
  void OnCompletionNotice(const Message& msg);
  void OnStartAdvancement(const Message& msg);
  void OnCounterRead(const Message& msg);
  void OnReadVersionAdvance(const Message& msg);
  void OnGarbageCollect(const Message& msg);
  void OnPrepare(const Message& msg);
  void OnVote(const Message& msg);
  void OnDecision(const Message& msg);
  void OnDecisionAck(const Message& msg);
  void OnLockCleanup(const Message& msg);
  // Protocol introspection probe: replies with a kAdminInspectReply whose
  // stat map / counter rows describe this node (see trace/introspect.h).
  void OnAdminInspect(const Message& msg);

  // --- execution ---
  // Assigns the root version / applies version inference, then routes to
  // the mode-appropriate execution path.
  void StartSubtxn(ExecPtr ctx);
  // After the NC3V version gate has passed: locks, then body.
  void ProceedNonCommuting(ExecPtr ctx);
  // Sequential async acquisition of ctx->lock_needs, then done(granted).
  void AcquireNextLock(ExecPtr ctx, std::function<void(bool)> done);
  // Re-arming lock-wait watchdog for non-commuting subtransactions.
  void ArmLockTimeout(ExecPtr ctx);
  // Fast-path body: Sections 4.1 / 4.2 (well-behaved and read-only).
  void ExecuteBody(ExecPtr ctx);
  // NC3V body: Section 5 steps 3-6.
  void ExecuteBodyNC(ExecPtr ctx);
  // Spawns one child subtransaction (R increment + request message).
  SubtxnId SpawnChild(const ExecPtr& ctx, const SubtxnPlan& child,
                      bool compensation);
  // Registers the pending record; if no children are outstanding,
  // completes immediately.
  void FinishExecution(const ExecPtr& ctx, Status status,
                       std::vector<SubtxnId> child_ids,
                       std::map<std::string, Value> reads);

  // --- hierarchical completion ---
  // Called when rec's subtree has fully completed at this node.
  void CompleteSubtxn(PendingSubtxn rec);
  // Root resolution: reply to client / kick off 2PC / lock cleanup.
  void ResolveRoot(PendingSubtxn rec);
  void FinishRoot(PendingSubtxn& rec, Status status);

  // --- durability ---
  // Rebuilds state from checkpoint + WAL and re-enters in-doubt 2PC. Runs
  // from the constructor, before the node is registered with the network.
  void RecoverFromLog();
  // Stages one redo record (no-op when durability is off or the node
  // halted); `force` commits it at once. A failed log halts the node.
  void LogRecord(const WalRecord& rec, bool force = false);
  // Commits the staged frames; on failure halts the node and returns false.
  // A halted node discards the staged frames instead and returns false.
  // Requires durability on.
  bool CommitLog();
  void HaltOnLogFailure(const Status& s);
  // Counter-delta record for IncR/IncC (the only non-idempotent records).
  void LogCounter(Version v, bool is_r, NodeId peer);
  // Reserves a block of id sequence numbers ahead of use (kSeqReserve).
  void ReserveSeqs();
  // Root-side 2PC retransmission watchdog; re-arms until the root resolves.
  void ArmTwopcRetry(TxnId txn);
  // Recovery-side decision retransmission: a restarted root's re-broadcast
  // decisions are retried until every node acked (a fire-once broadcast
  // plus one lost message would wedge a prepared participant forever).
  void ArmRecoveryDecisionRetry();

  // --- externalization ---
  // The only way a message leaves this node (tools/threev_lint.py enforces
  // it): commits the staged WAL frames first, and drops the message if the
  // node has halted or the commit failed (which halts it).
  void Send(NodeId to, Message&& m);

  // --- helpers ---
  // `trace` attributes the switch instant to whoever caused it (the
  // coordinator's advancement span, or the inferring subtransaction).
  void AdvanceUpdateVersion(Version v, const TraceContext& trace);
  void WakeVersionGateWaiters();
  bool InjectAbort();
  SubtxnId NewSubtxnId();
  static std::vector<std::pair<std::string, LockMode>> ComputeLockNeeds(
      const SubtxnPlan& plan, bool non_commuting);

  NodeOptions options_;
  Network* network_;          // unowned
  Metrics* metrics_;          // unowned
  HistoryRecorder* history_;  // unowned, may be null
  Tracer* tracer_;            // unowned, may be null (tracing disabled)

  VersionedStore store_;
  CounterTable counters_;
  LockManager locks_;

  // Set once during construction, never reassigned.
  std::unique_ptr<WriteAheadLog> wal_;
  std::atomic<bool> halted_{false};
  // Set while a thread runs HandleMessage; a second thread finding it set
  // aborts the process (the owner-thread check, see the class comment).
  std::atomic<bool> in_handler_{false};
  // Arms NodeOptions::test_skip_first_completion exactly once.
  bool test_completion_skipped_ = false;

  std::atomic<Version> vu_;
  std::atomic<Version> vr_;
  // When each version stopped being the update version (for staleness
  // accounting). Version 0 is frozen at time 0 by construction.
  std::map<Version, Micros> frozen_time_;
  uint64_t next_txn_seq_ = 1;
  uint64_t next_subtxn_seq_ = 1;
  // Ids below this are WAL-reserved.
  uint64_t seq_reserved_until_ = 0;
  Rng rng_;
  // NC lock timeouts, 2PC retries and recovery's decision re-broadcast,
  // each run on this node's thread as a kTimer.
  OwnedTimers timers_;
  std::map<SubtxnId, PendingSubtxn> pending_;
  // Routes kVote / kDecisionAck.
  std::map<TxnId, SubtxnId> nc_roots_;
  // Recovery re-broadcast decisions still awaiting per-node acks. Keyed by
  // txn; value = (commit flag, nodes that have not acked yet). Liveness
  // only - the decision itself is already durably logged.
  std::map<TxnId, std::pair<bool, std::set<NodeId>>> recovered_decisions_;
  std::unordered_map<TxnId, NcTxnState> nc_txns_;
  // NC3V version gate: continuations waiting for vr == version - 1.
  std::vector<std::pair<Version, std::function<void()>>> gate_waiters_;
};

}  // namespace threev

#endif  // THREEV_CORE_NODE_H_
