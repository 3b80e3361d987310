#include "threev/core/node.h"

#include <algorithm>

#include "threev/common/logging.h"
#include "threev/durability/checkpoint.h"
#include "threev/durability/recovery.h"
#include "threev/trace/introspect.h"

namespace threev {

namespace {
// Size of one kSeqReserve block: a restarted node resumes its id sequences
// at the reserved ceiling, so up to this many ids are skipped per restart.
constexpr uint64_t kSeqReserveBlock = 4096;
}  // namespace

Node::Node(const NodeOptions& options, Network* network, Metrics* metrics,
           HistoryRecorder* history)
    : options_(options),
      network_(network),
      metrics_(metrics),
      history_(history),
      tracer_(options.tracer),
      store_(metrics),
      counters_(options.num_nodes),
      vu_(1),
      vr_(0),
      rng_(options.seed + options.id * 0x9e3779b9ull),
      timers_(network, options.id) {
  // Version 0 (the initial read version) was never an update version; for
  // staleness accounting it counts as frozen when this node starts, on the
  // transport's clock.
  frozen_time_[0] = network_->Now();
  if (!options_.wal_dir.empty()) RecoverFromLog();
}

void Node::Halt() { halted_.store(true, std::memory_order_release); }

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

void Node::RecoverFromLog() {
  // Replay checkpoint + redo log into the (still fresh) store and counters.
  Result<RecoveredState> recovered =
      RecoverNodeState(options_.wal_dir, &store_, &counters_, metrics_);
  THREEV_CHECK(recovered.ok())
      << "node " << options_.id << ": recovery failed: "
      << recovered.status().ToString();

  vu_.store(recovered->vu, std::memory_order_relaxed);
  vr_.store(recovered->vr, std::memory_order_relaxed);
  // The recovered read version's freeze time is not logged: after a
  // restart, staleness counts from the restart.
  if (vu() > 1) frozen_time_[PrevVersion(vu())] = network_->Now();
  next_txn_seq_ = recovered->seq_floor;
  next_subtxn_seq_ = recovered->seq_floor;
  seq_reserved_until_ = recovered->seq_floor;

  // Appends continue in a fresh segment after the recovered tail.
  WalOptions wopts;
  wopts.dir = options_.wal_dir;
  wopts.fsync = options_.fsync;
  wopts.segment_bytes = options_.wal_segment_bytes;
  wopts.tracer = tracer_;
  wopts.node = options_.id;
  wopts.now = [this] { return network_->Now(); };
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(wopts, metrics_);
  THREEV_CHECK(wal.ok()) << "node " << options_.id << ": wal open failed: "
                         << wal.status().ToString();
  wal_ = std::move(*wal);

  // Re-enter 2PC for in-doubt non-commuting transactions: restore their
  // participant state and re-take the write locks their undo images prove
  // they held (the lock table is fresh, so every grant is immediate).
  for (const auto& [txn, in_doubt] : recovered->in_doubt) {
    std::set<std::string> locked;
    for (const auto& undo : in_doubt.undo) {
      if (locked.insert(undo.key).second) {
        locks_.Acquire(undo.key, LockMode::kNCWrite, txn, [](bool) {});
      }
    }
    NcTxnState st;
    st.undo = in_doubt.undo;
    st.completions = in_doubt.completions;
    st.failed = in_doubt.failed;
    nc_txns_.emplace(txn, std::move(st));
  }

  // Roots that logged a decision before crashing re-drive it to every node
  // as a 2PC round: participants whose decision message died with us
  // resolve, nodes that already applied it (or never saw the txn) just ack,
  // and the round's retry timer resends until every node has acked - the
  // pre-crash root's timer died with it. In-doubt txns rooted here WITHOUT
  // a logged decision are presumed aborted - the forced kNcRootDecision
  // record is the only possible source of a delivered commit, so no
  // participant can have committed.
  std::map<TxnId, bool> decisions = recovered->root_decisions;
  for (const auto& [txn, in_doubt] : recovered->in_doubt) {
    if (GlobalIdEndpoint(txn) == options_.id && !decisions.count(txn)) {
      WalRecord rec;
      rec.type = WalRecordType::kNcRootDecision;
      rec.txn = txn;
      rec.flag = false;
      LogRecord(rec, /*force=*/true);
      decisions.emplace(txn, false);
    }
  }
  for (const auto& [txn, commit] : decisions) {
    TwopcRound round;
    round.type = MsgType::kDecision;
    round.commit = commit;
    for (NodeId p = 0; p < options_.num_nodes; ++p) round.awaiting.insert(p);
    OpenTwopcRound(txn, std::move(round));
  }
}

void Node::LogRecord(const WalRecord& rec, bool force) {
  if (wal_ == nullptr || halted()) return;
  Status s = wal_->Append(rec, force);
  if (!s.ok()) HaltOnLogFailure(s);
}

bool Node::CommitLog() {
  if (halted()) {
    // A halted node is crashed, and its staged frames die with it.
    wal_->DiscardStaged();
    return false;
  }
  Status s = wal_->Commit();
  if (!s.ok()) HaltOnLogFailure(s);
  return s.ok();
}

void Node::HaltOnLogFailure(const Status& s) {
  // Fail-stop: a node that cannot log must not externalize, so it stops as
  // a killed node does. The failed log refuses every later commit, so no
  // message can leave after this point; a restart recovers what was
  // committed before it.
  if (!halted_.exchange(true, std::memory_order_acq_rel)) {
    THREEV_LOG(kError) << "node " << options_.id
                       << ": wal commit failed, halting: " << s.ToString();
  }
}

void Node::Send(NodeId to, Message&& m) {
  // A halted node is crashed, even while the handler that was running when
  // it halted finishes. Log before externalize: every frame staged so far
  // reaches the OS before this message can.
  if (halted() || (wal_ != nullptr && !CommitLog())) return;
  network_->Send(to, std::move(m));
}

void Node::LogCounter(Version v, bool is_r, NodeId peer) {
  if (wal_ == nullptr) return;
  WalRecord rec;
  rec.type = WalRecordType::kCounter;
  rec.version = v;
  rec.flag = is_r;
  rec.peer = peer;
  LogRecord(rec);
}

void Node::ReserveSeqs() {
  if (wal_ == nullptr) return;
  uint64_t next = std::max(next_txn_seq_, next_subtxn_seq_);
  if (next < seq_reserved_until_) return;
  WalRecord rec;
  rec.type = WalRecordType::kSeqReserve;
  rec.seq = next + kSeqReserveBlock;
  LogRecord(rec, /*force=*/true);
  seq_reserved_until_ = rec.seq;
}

Status Node::WriteCheckpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability disabled");
  }
  if (!pending_.empty() || !nc_txns_.empty() || !gate_waiters_.empty()) {
    return Status::FailedPrecondition(
        "node " + std::to_string(options_.id) +
        " not quiescent: " + std::to_string(pending_.size()) +
        " pending, " + std::to_string(nc_txns_.size()) + " nc txns");
  }
  CheckpointData ck;
  ck.vu = vu();
  ck.vr = vr();
  ck.seq_floor = seq_reserved_until_;
  {
    // Rotate first: every record from here on lands in a segment the
    // checkpoint does not cover, so non-idempotent counter deltas are
    // replayed exactly once.
    Status s = wal_->RotateSegment();
    if (!s.ok()) return s;
    ck.wal_segment = wal_->current_segment();
  }
  for (auto& [key, version, value] : store_.DumpAll()) {
    ck.store.push_back(WalImage{std::move(key), version, std::move(value)});
  }
  for (Version v : counters_.ActiveVersions()) {
    CheckpointData::CounterRow row;
    row.version = v;
    for (const auto& [q, count] : counters_.SnapshotR(v)) row.r.push_back(count);
    for (const auto& [o, count] : counters_.SnapshotC(v)) row.c.push_back(count);
    ck.counters.push_back(std::move(row));
  }
  Status s = WriteCheckpointFile(options_.wal_dir, ck);
  if (!s.ok()) return s;
  size_t bytes = 0;
  for (const auto& img : ck.store) {
    bytes += img.key.size() + img.value.ByteSize() + 12;
  }
  if (metrics_ != nullptr) {
    metrics_->checkpoints_written.fetch_add(1, std::memory_order_relaxed);
    metrics_->checkpoint_bytes.fetch_add(static_cast<int64_t>(bytes),
                                         std::memory_order_relaxed);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(network_->Now(), options_.id, TraceOp::kCheckpoint,
                     TraceContext{}, 0, static_cast<int64_t>(bytes));
  }
  return wal_->TruncateBefore(ck.wal_segment);
}

SubtxnId Node::NewSubtxnId() {
  ReserveSeqs();
  return MakeGlobalId(options_.id, next_subtxn_seq_++);
}

bool Node::InjectAbort() {
  if (options_.inject_abort_probability <= 0) return false;
  return rng_.Bernoulli(options_.inject_abort_probability);
}

void Node::HandleMessage(const Message& msg) {
  HandlerScope owner(in_handler_, "node", options_.id);
  // A halted node is crashed: messages (and timers) already queued for it
  // die here.
  if (halted_.load(std::memory_order_acquire)) return;
  switch (msg.type) {
    case MsgType::kClientSubmit:
      OnClientSubmit(msg);
      break;
    case MsgType::kSubtxnRequest:
      OnSubtxnRequest(msg);
      break;
    case MsgType::kCompletionNotice:
      OnCompletionNotice(msg);
      break;
    case MsgType::kStartAdvancement:
      OnStartAdvancement(msg);
      break;
    case MsgType::kCounterRead:
      OnCounterRead(msg);
      break;
    case MsgType::kReadVersionAdvance:
      OnReadVersionAdvance(msg);
      break;
    case MsgType::kGarbageCollect:
      OnGarbageCollect(msg);
      break;
    case MsgType::kPrepare:
      OnPrepare(msg);
      break;
    case MsgType::kVote:
      OnVote(msg);
      break;
    case MsgType::kDecision:
      OnDecision(msg);
      break;
    case MsgType::kDecisionAck:
      OnDecisionAck(msg);
      break;
    case MsgType::kLockCleanup:
      OnLockCleanup(msg);
      break;
    case MsgType::kAdminInspect:
      OnAdminInspect(msg);
      break;
    case MsgType::kTimer:
      timers_.Fire(msg);
      break;
    default:
      THREEV_LOG(kWarn) << "node " << options_.id << ": unexpected "
                        << msg.ToString();
  }
  // A handler that logged without sending leaves its frames staged; commit
  // them, so the log on disk between events is what it would be with one
  // write per record.
  if (wal_ != nullptr) CommitLog();
}

// ---------------------------------------------------------------------------
// Submission and subtransaction arrival
// ---------------------------------------------------------------------------

void Node::OnClientSubmit(const Message& msg) {
  // The root subtransaction executes here (the tree model's "submitted to
  // one server"); a plan rooted elsewhere is a client routing error, and
  // silently reading another node's keys here would corrupt results.
  if (msg.plan.node != options_.id) {
    Message m;
    m.type = MsgType::kClientResult;
    m.from = options_.id;
    m.seq = msg.seq;
    m.status_code = StatusCode::kInvalidArgument;
    m.status_msg = "plan rooted at node " + std::to_string(msg.plan.node) +
                   " submitted to node " + std::to_string(options_.id);
    m.trace = msg.trace;
    Send(msg.from, std::move(m));
    return;
  }
  auto ctx = std::make_shared<ExecContext>();
  ReserveSeqs();
  ctx->txn = MakeGlobalId(options_.id, next_txn_seq_++);
  ctx->subtxn = MakeGlobalId(options_.id, next_subtxn_seq_++);
  ctx->source = options_.id;
  ctx->is_root = true;
  ctx->read_only = msg.flag;
  ctx->klass = static_cast<TxnClass>(msg.klass);
  ctx->plan = msg.plan;
  ctx->client = msg.from;
  ctx->client_seq = msg.seq;
  ctx->submit_time = network_->Now();
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Root span of the whole transaction tree at this node, parented under
    // the client's request span (if the submit carried one).
    ctx->trace = tracer_->BeginSpan(ctx->submit_time, options_.id,
                                    TraceOp::kTxn, msg.trace,
                                    static_cast<int64_t>(ctx->txn));
  }
  if (history_ != nullptr) {
    TxnSpec spec;
    spec.root = msg.plan;
    spec.read_only = msg.flag;
    spec.klass = ctx->klass;
    history_->RecordSubmit(ctx->txn, spec, ctx->submit_time);
  }
  StartSubtxn(std::move(ctx));
}

void Node::OnSubtxnRequest(const Message& msg) {
  auto ctx = std::make_shared<ExecContext>();
  ctx->txn = msg.txn;
  ctx->subtxn = msg.subtxn;
  ctx->parent_subtxn = msg.parent_subtxn;
  ctx->source = msg.from;
  ctx->version = msg.version;
  ctx->is_root = false;
  ctx->read_only = msg.flag;
  ctx->compensation = msg.compensation;
  ctx->klass = static_cast<TxnClass>(msg.klass);
  ctx->plan = msg.plan;
  if (tracer_ != nullptr && tracer_->enabled()) {
    ctx->trace = tracer_->BeginSpan(network_->Now(), options_.id,
                                    TraceOp::kSubtxn, msg.trace,
                                    static_cast<int64_t>(ctx->subtxn));
  }
  StartSubtxn(std::move(ctx));
}

void Node::StartSubtxn(ExecPtr ctx) {
  if (ctx->is_root) {
    // Section 4.1 step 1 / Section 4.2: a root subtransaction is assigned
    // the current update (or read) version and counts a local request.
    if (ctx->read_only && ctx->klass == TxnClass::kWellBehaved) {
      ctx->version = options_.read_policy == ReadPolicy::kCurrentVersion
                         ? vu()
                         : vr();
    } else {
      // Updates - and non-commuting reads (GlobalSync baseline), which
      // must observe current data under locks - use the update version.
      ctx->version = vu();
    }
    counters_.IncR(ctx->version, options_.id);
    LogCounter(ctx->version, /*is_r=*/true, options_.id);
  } else if (!ctx->read_only) {
    if (options_.version_assignment == VersionAssignment::kLocalPeriod) {
      // Manual-versioning baseline: the write lands in whatever period
      // this node is currently accumulating (see VersionAssignment).
      ctx->version = vu();
    } else if (ctx->version > vu()) {
      // Section 4.1 step 2: a descendant carrying a newer version than
      // our current update version doubles as the start-advancement
      // notification (version inference).
      AdvanceUpdateVersion(ctx->version, ctx->trace);
      if (metrics_ != nullptr) {
        metrics_->version_inferences.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Fast path: pure 3V mode never locks; well-behaved read-only
  // transactions never lock in any mode ("read-only transactions ... do
  // not need to obtain any locks", Section 8). Non-commuting reads exist
  // only in the GlobalSync baseline, which forces everything through the
  // locking path below.
  if (options_.mode == NodeMode::kPure3V ||
      (ctx->read_only && ctx->klass == TxnClass::kWellBehaved)) {
    ExecuteBody(std::move(ctx));
    return;
  }

  if (ctx->klass == TxnClass::kWellBehaved) {
    // NC3V mode: well-behaved updates take commuting locks (2PL; released
    // by the asynchronous clean-up after the whole tree commits).
    ctx->lock_needs = ComputeLockNeeds(ctx->plan, /*non_commuting=*/false);
    ExecPtr c = ctx;
    AcquireNextLock(ctx, [this, c](bool granted) {
      // Commuting lock requests are only ever cancelled at shutdown.
      if (granted) ExecuteBody(c);
    });
    return;
  }

  // Non-commuting transaction. A root must pass the version gate first
  // (Section 5 step 2): proceed only when V(K) == vr + 1, i.e. no version
  // advancement is in flight for its version.
  if (ctx->is_root) {
    if (VersionGateOpen(ctx->version, vr())) {
      ProceedNonCommuting(std::move(ctx));
      return;
    }
    ExecPtr c = ctx;
    gate_waiters_.emplace_back(ctx->version,
                               [this, c] { ProceedNonCommuting(c); });
    if (metrics_ != nullptr) {
      metrics_->version_gate_waits.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  ProceedNonCommuting(std::move(ctx));
}

void Node::ProceedNonCommuting(ExecPtr ctx) {
  ctx->lock_needs = ComputeLockNeeds(ctx->plan, /*non_commuting=*/true);

  // Deadlocks among non-commuting transactions (and against held commute
  // locks) are resolved by timeout-abort. The timeout re-arms until the
  // lock phase resolves: a single-shot timer could fire in the window
  // between two acquisitions of the chain (nothing queued to cancel) and
  // leave the next wait unbounded - a deadlock enabler under heavy
  // message reordering.
  if (!ctx->lock_needs.empty()) {
    ArmLockTimeout(ctx);
  }

  ExecPtr c = ctx;
  AcquireNextLock(ctx, [this, c](bool granted) {
    if (granted) {
      ExecuteBodyNC(c);
      return;
    }
    // Lock timeout: this subtransaction aborts; the root will decide abort
    // for the whole transaction in 2PC. Locks already held stay until the
    // decision (strict 2PL).
    NcTxnState& st = nc_txns_[c->txn];
    st.failed = true;
    st.completions.emplace_back(c->version, c->source);
    FinishExecution(c, Status::Aborted("lock wait timeout"), {}, {});
  });
}

void Node::ArmLockTimeout(ExecPtr ctx) {
  ExecPtr c = std::move(ctx);
  timers_.Arm(options_.nc_lock_timeout, [this, c] {
    if (c->lock_done) return;
    locks_.CancelWaits(c->txn);
    // Keep watching until the lock phase resolves: the cancel may have hit
    // nothing (between acquisitions) or only a sibling subtransaction's
    // wait; the next fire exits once lock_done is set.
    ArmLockTimeout(c);
  });
}

void Node::AcquireNextLock(ExecPtr ctx, std::function<void(bool)> done) {
  if (ctx->lock_done) return;  // already failed (cancelled)
  const size_t i = ctx->next_lock;
  if (i >= ctx->lock_needs.size()) {
    ctx->lock_done = true;
    done(true);
    return;
  }
  const auto& [key, mode] = ctx->lock_needs[i];
  Micros t0 = network_->Now();
  auto returned = std::make_shared<bool>(false);
  ExecPtr c = ctx;
  locks_.Acquire(key, mode, ctx->txn,
                 [this, c, done, t0, returned](bool granted) {
                   if (*returned) {
                     // Deferred grant: the subtransaction actually waited.
                     Micros waited = network_->Now() - t0;
                     if (metrics_ != nullptr) {
                       metrics_->lock_waits.fetch_add(
                           1, std::memory_order_relaxed);
                       metrics_->lock_wait_micros.fetch_add(
                           waited, std::memory_order_relaxed);
                     }
                     if (tracer_ != nullptr && tracer_->enabled()) {
                       tracer_->Instant(network_->Now(), options_.id,
                                        TraceOp::kLockWait, c->trace,
                                        /*msg_type=*/0, waited);
                     }
                   }
                   if (!granted) {
                     c->lock_done = true;
                     done(false);
                     return;
                   }
                   c->next_lock++;
                   AcquireNextLock(c, done);
                 });
  *returned = true;
}

std::vector<std::pair<std::string, LockMode>> Node::ComputeLockNeeds(
    const SubtxnPlan& plan, bool non_commuting) {
  std::map<std::string, LockMode> needs;
  for (const auto& op : plan.ops) {
    LockMode mode;
    if (OpWrites(op.kind)) {
      mode = non_commuting ? LockMode::kNCWrite : LockMode::kCommuteUpdate;
    } else {
      mode = non_commuting ? LockMode::kNCRead : LockMode::kCommuteRead;
    }
    auto it = needs.find(op.key);
    if (it == needs.end()) {
      needs.emplace(op.key, mode);
    } else if (LockSubsumes(mode, it->second)) {
      it->second = mode;
    }
  }
  // std::map iteration is key-sorted: deterministic acquisition order
  // avoids local deadlocks between subtransactions of the same node.
  return {needs.begin(), needs.end()};
}

// ---------------------------------------------------------------------------
// Execution bodies
// ---------------------------------------------------------------------------

void Node::ExecuteBody(ExecPtr ctx) {
  std::map<std::string, Value> reads;
  std::vector<WalImage> images;
  for (const auto& op : ctx->plan.ops) {
    if (op.kind == OpKind::kGet) {
      // Read the maximum existing version not exceeding V(T); a key that
      // does not exist yet reads as an empty record (recording semantics),
      // which is exactly ReadInto's leave-unchanged-on-NotFound contract.
      store_.ReadInto(op.key, ctx->version, &reads[op.key]);
    } else if (op.kind == OpKind::kScan) {
      for (auto& [key, value] : store_.ScanPrefix(op.key, ctx->version)) {
        reads[key] = std::move(value);
      }
    } else {
      std::vector<std::pair<Version, Value>> after;
      store_.Update(op.key, ctx->version, op,
                    wal_ != nullptr ? &after : nullptr);
      for (auto& [v, value] : after) {
        images.push_back(WalImage{op.key, v, std::move(value)});
      }
    }
  }

  // Log before externalizing: no child request or completion notice may
  // leave this node before the redo images it depends on are durable.
  if (!images.empty()) {
    WalRecord rec;
    rec.type = WalRecordType::kUpdate;
    rec.version = ctx->version;
    rec.txn = ctx->txn;
    rec.images = std::move(images);
    LogRecord(rec);
  }

  std::vector<SubtxnId> child_ids;
  child_ids.reserve(ctx->plan.children.size());
  for (const auto& child : ctx->plan.children) {
    child_ids.push_back(SpawnChild(ctx, child, ctx->compensation));
  }

  // Failure injection (root update subtransactions only): abort after
  // executing and spawning, roll back local effects via inverse operations
  // and send compensating subtransactions down every child branch
  // (Section 3.2). Compensators are ordinary subtransactions: they bump
  // the same R/C counters, which is exactly what keeps the advancement
  // quiescence check honest while compensation traffic is in flight.
  if (ctx->is_root && !ctx->read_only && !ctx->compensation &&
      InjectAbort()) {
    std::vector<WalImage> inverse_images;
    for (auto it = ctx->plan.ops.rbegin(); it != ctx->plan.ops.rend(); ++it) {
      Operation inv;
      if (it->kind != OpKind::kGet && it->Invert(inv)) {
        std::vector<std::pair<Version, Value>> after;
        store_.Update(inv.key, ctx->version, inv,
                      wal_ != nullptr ? &after : nullptr);
        for (auto& [v, value] : after) {
          inverse_images.push_back(WalImage{inv.key, v, std::move(value)});
        }
      }
    }
    if (!inverse_images.empty()) {
      WalRecord rec;
      rec.type = WalRecordType::kUpdate;
      rec.version = ctx->version;
      rec.txn = ctx->txn;
      rec.images = std::move(inverse_images);
      LogRecord(rec);
    }
    for (const auto& child : ctx->plan.children) {
      Result<SubtxnPlan> comp = MakeCompensationPlan(child);
      if (comp.ok()) {
        child_ids.push_back(SpawnChild(ctx, *comp, /*compensation=*/true));
        if (metrics_ != nullptr) {
          metrics_->compensations_sent.fetch_add(1,
                                                 std::memory_order_relaxed);
        }
      }
    }
    FinishExecution(ctx, Status::Aborted("injected abort"),
                    std::move(child_ids), {});
    return;
  }

  FinishExecution(ctx, Status::Ok(), std::move(child_ids), std::move(reads));
}

void Node::ExecuteBodyNC(ExecPtr ctx) {
  std::map<std::string, Value> reads;
  std::vector<UndoEntry> undo_local;
  std::vector<WalImage> nc_images;
  Status failure;
  for (const auto& op : ctx->plan.ops) {
    if (op.kind == OpKind::kGet) {
      store_.ReadInto(op.key, ctx->version, &reads[op.key]);
      continue;
    }
    if (op.kind == OpKind::kScan) {
      // Scans are rejected by TxnSpec::Validate for non-read-only
      // transactions; handle defensively as a plain read-out.
      for (auto& [key, value] : store_.ScanPrefix(op.key, ctx->version)) {
        reads[key] = std::move(value);
      }
      continue;
    }
    UndoEntry undo;
    Value after;
    Status s = store_.UpdateExact(op.key, ctx->version, op, &undo,
                                  wal_ != nullptr ? &after : nullptr);
    if (!s.ok()) {
      // Section 5 step 4: the item exists in a newer version - abort.
      failure = s;
      break;
    }
    if (wal_ != nullptr) {
      nc_images.push_back(WalImage{op.key, ctx->version, std::move(after)});
    }
    undo_local.push_back(std::move(undo));
  }

  // The full participant state - redo images, undo entries, the deferred
  // completion pair - goes to the log before any child request or
  // completion notice leaves this node: a restarted participant re-enters
  // 2PC with exactly this record.
  {
    WalRecord rec;
    rec.type = WalRecordType::kNcExecute;
    rec.version = ctx->version;
    rec.peer = ctx->source;
    rec.txn = ctx->txn;
    rec.failed = !failure.ok();
    rec.images = std::move(nc_images);
    rec.undo = undo_local;
    LogRecord(rec);
  }

  std::vector<SubtxnId> child_ids;
  if (failure.ok()) {
    for (const auto& child : ctx->plan.children) {
      child_ids.push_back(SpawnChild(ctx, child, /*compensation=*/false));
    }
  }

  NcTxnState& st = nc_txns_[ctx->txn];
  for (auto& u : undo_local) st.undo.push_back(std::move(u));
  st.completions.emplace_back(ctx->version, ctx->source);
  if (!failure.ok()) st.failed = true;

  FinishExecution(ctx, failure, std::move(child_ids), std::move(reads));
}

SubtxnId Node::SpawnChild(const ExecPtr& ctx, const SubtxnPlan& child,
                          bool compensation) {
  SubtxnId sid = NewSubtxnId();
  // Section 4.1 step 5: increment R(v)[here][target] *before* sending.
  counters_.IncR(ctx->version, child.node);
  LogCounter(ctx->version, /*is_r=*/true, child.node);
  Message m;
  m.type = MsgType::kSubtxnRequest;
  m.from = options_.id;
  m.txn = ctx->txn;
  m.subtxn = sid;
  m.parent_subtxn = ctx->subtxn;
  m.version = ctx->version;
  m.flag = ctx->read_only;
  m.compensation = compensation;
  m.klass = static_cast<uint8_t>(ctx->klass);
  m.plan = child;
  // Child requests carry this subtransaction's span so the remote
  // kSubtxn span parents under it.
  m.trace = ctx->trace;
  Send(child.node, std::move(m));
  return sid;
}

void Node::FinishExecution(const ExecPtr& ctx, Status status,
                           std::vector<SubtxnId> child_ids,
                           std::map<std::string, Value> reads) {
  if (metrics_ != nullptr) {
    metrics_->subtxns_executed.fetch_add(1, std::memory_order_relaxed);
  }
  PendingSubtxn rec;
  static_cast<SubtxnHeader&>(rec) = *ctx;
  rec.outstanding = child_ids.size();
  rec.reads = std::move(reads);
  rec.status = std::move(status);
  rec.participants.insert(options_.id);
  if (rec.outstanding == 0) {
    CompleteSubtxn(std::move(rec));
    return;
  }
  pending_.emplace(rec.subtxn, std::move(rec));
}

// ---------------------------------------------------------------------------
// Hierarchical completion
// ---------------------------------------------------------------------------

void Node::OnCompletionNotice(const Message& msg) {
  auto it = pending_.find(msg.parent_subtxn);
  if (it == pending_.end()) {
    THREEV_LOG(kWarn) << "node " << options_.id
                      << ": completion notice for unknown parent subtxn "
                      << msg.parent_subtxn;
    return;
  }
  PendingSubtxn& rec = it->second;
  THREEV_CHECK(rec.outstanding > 0);
  rec.outstanding--;
  for (const auto& [key, value] : msg.reads) {
    rec.reads.emplace(key, value);
  }
  rec.participants.insert(msg.participants.begin(), msg.participants.end());
  if (msg.status_code != StatusCode::kOk && rec.status.ok()) {
    rec.status = Status(msg.status_code, msg.status_msg);
  }
  if (rec.outstanding > 0) return;
  PendingSubtxn completed = std::move(rec);
  pending_.erase(it);
  CompleteSubtxn(std::move(completed));
}

void Node::CompleteSubtxn(PendingSubtxn rec) {
  // Section 4.1 step 6: the completion counter increments when the
  // subtransaction terminates - which, per the paper's Table 1, is when its
  // whole subtree has completed. For non-commuting transactions the
  // increment is deferred to the 2PC decision (Section 5 step 6).
  if (rec.klass != TxnClass::kNonCommuting) {
    if (options_.test_skip_first_completion && !test_completion_skipped_) {
      test_completion_skipped_ = true;
      // Injected protocol bug (see NodeOptions): lose exactly one
      // completion-counter increment so the fuzz oracle battery has a
      // known-bad target to catch.
    } else {
      counters_.IncC(rec.version, rec.source);
      LogCounter(rec.version, /*is_r=*/false, rec.source);
    }
  }
  if (rec.is_root) {
    ResolveRoot(std::move(rec));
    return;
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The subtransaction terminates (paper's sense: whole subtree done).
    tracer_->EndSpan(network_->Now(), options_.id, TraceOp::kSubtxn,
                     rec.trace, static_cast<int64_t>(rec.subtxn));
  }
  Message m;
  m.type = MsgType::kCompletionNotice;
  m.from = options_.id;
  m.txn = rec.txn;
  m.subtxn = rec.subtxn;
  m.parent_subtxn = rec.parent_subtxn;
  m.version = rec.version;
  m.trace = rec.trace;
  for (const auto& [key, value] : rec.reads) m.reads.emplace_back(key, value);
  m.participants.assign(rec.participants.begin(), rec.participants.end());
  m.status_code = rec.status.code();
  m.status_msg = rec.status.message();
  Send(rec.source, std::move(m));
}

void Node::ResolveRoot(PendingSubtxn rec) {
  if (rec.klass == TxnClass::kWellBehaved) {
    // Asynchronous commute-lock clean-up (Section 5): only relevant in
    // NC3V mode and only for update transactions (reads take no locks).
    if (options_.mode == NodeMode::kNC3V && !rec.read_only) {
      for (NodeId p : rec.participants) {
        Message m;
        m.type = MsgType::kLockCleanup;
        m.from = options_.id;
        m.txn = rec.txn;
        m.trace = rec.trace;
        Send(p, std::move(m));
      }
    }
    FinishRoot(rec, rec.status);
    return;
  }

  // Non-commuting root: run two-phase commit over the participants. The
  // root record stays in pending_ until the round's last ack. Presumed
  // abort: if a subtransaction already failed, skip the vote and
  // distribute the abort directly.
  TwopcRound round;
  round.type = rec.status.ok() ? MsgType::kPrepare : MsgType::kDecision;
  round.commit = rec.status.ok();
  round.awaiting = rec.participants;
  round.root = rec.subtxn;
  if (!round.commit) {
    // The abort is logged before it goes out, so a restarted root
    // re-drives it instead of forgetting the transaction.
    WalRecord wrec;
    wrec.type = WalRecordType::kNcRootDecision;
    wrec.txn = rec.txn;
    wrec.flag = false;
    LogRecord(wrec, /*force=*/true);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The round gets its own span under the transaction span; it closes
    // with the round's last ack.
    round.trace =
        tracer_->BeginSpan(network_->Now(), options_.id, TraceOp::kTwopc,
                           rec.trace, static_cast<int64_t>(rec.txn));
  }
  const TxnId txn = rec.txn;
  pending_.emplace(rec.subtxn, std::move(rec));
  OpenTwopcRound(txn, std::move(round));
}

void Node::FinishRoot(PendingSubtxn& rec, Status status) {
  Micros now = network_->Now();
  bool committed = status.ok();
  if (metrics_ != nullptr) {
    if (committed) {
      metrics_->txns_committed.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_->txns_aborted.fetch_add(1, std::memory_order_relaxed);
    }
    Micros latency = now - rec.submit_time;
    if (rec.read_only) {
      metrics_->read_latency.Record(latency);
      auto it = frozen_time_.find(rec.version);
      if (it != frozen_time_.end()) {
        metrics_->staleness.Record(now - it->second);
      }
    } else {
      metrics_->update_latency.Record(latency);
    }
  }
  if (history_ != nullptr) {
    history_->RecordComplete(rec.txn, committed, rec.version, rec.reads, now);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->EndSpan(now, options_.id, TraceOp::kTxn, rec.trace,
                     committed ? 1 : 0);
  }
  Message m;
  m.type = MsgType::kClientResult;
  m.from = options_.id;
  m.txn = rec.txn;
  m.seq = rec.client_seq;
  m.version = rec.version;
  for (const auto& [key, value] : rec.reads) m.reads.emplace_back(key, value);
  m.status_code = status.code();
  m.status_msg = status.message();
  m.trace = rec.trace;
  Send(rec.client, std::move(m));
}

// ---------------------------------------------------------------------------
// Two-phase commit (NC3V)
// ---------------------------------------------------------------------------

void Node::OpenTwopcRound(TxnId txn, TwopcRound round) {
  SendTwopc(txn, twopc_.emplace(txn, std::move(round)).first->second);
  ArmTwopcRetry(txn);
}

void Node::SendTwopc(TxnId txn, const TwopcRound& round) {
  for (NodeId p : round.awaiting) {
    Message m;
    m.type = round.type;
    m.from = options_.id;
    m.txn = txn;
    m.flag = round.type == MsgType::kDecision && round.commit;
    m.trace = round.trace;
    Send(p, std::move(m));
  }
}

void Node::ArmTwopcRetry(TxnId txn) {
  if (options_.twopc_retry_interval <= 0) return;
  timers_.Arm(options_.twopc_retry_interval, [this, txn] {
    auto it = twopc_.find(txn);
    if (it == twopc_.end()) return;  // the round ended: its timer dies
    if (metrics_ != nullptr) {
      metrics_->twopc_retransmits.fetch_add(
          static_cast<int64_t>(it->second.awaiting.size()),
          std::memory_order_relaxed);
    }
    SendTwopc(txn, it->second);
    ArmTwopcRetry(txn);
  });
}

void Node::OnPrepare(const Message& msg) {
  // No participant state: either this node crashed before the
  // subtransaction's kNcExecute record was durable (its effects are gone,
  // so commit would be wrong) or the decision was already applied here and
  // this is a stale retransmitted prepare (the root has decided, so the
  // no-vote is ignored). Either way: vote no.
  auto it = nc_txns_.find(msg.txn);
  const bool vote = it != nc_txns_.end() && !it->second.failed;
  if (vote) {
    // The yes-vote is a durable promise: after a reboot this node must
    // still be able to honor a commit decision, which requires the
    // prepared state (and its log records) to survive.
    WalRecord rec;
    rec.type = WalRecordType::kNcPrepared;
    rec.txn = msg.txn;
    LogRecord(rec, /*force=*/true);
  }
  Message m;
  m.type = MsgType::kVote;
  m.from = options_.id;
  m.txn = msg.txn;
  m.flag = vote;
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
}

void Node::OnVote(const Message& msg) {
  auto it = twopc_.find(msg.txn);
  if (it == twopc_.end() || it->second.type != MsgType::kPrepare) return;
  TwopcRound& round = it->second;
  if (round.awaiting.erase(msg.from) == 0) return;  // duplicate vote
  if (!msg.flag) round.commit = false;
  if (!round.awaiting.empty()) return;
  // Force the decision record before the first decision message leaves:
  // presumed abort on recovery is sound only if a logged decision is the
  // sole possible source of a delivered commit.
  WalRecord rec;
  rec.type = WalRecordType::kNcRootDecision;
  rec.txn = msg.txn;
  rec.flag = round.commit;
  LogRecord(rec, /*force=*/true);
  round.type = MsgType::kDecision;
  round.awaiting = pending_.at(round.root).participants;
  SendTwopc(msg.txn, round);
}

void Node::OnDecision(const Message& msg) {
  NcTxnState st;
  bool known = false;
  if (auto it = nc_txns_.find(msg.txn); it != nc_txns_.end()) {
    known = true;
    st = std::move(it->second);
    nc_txns_.erase(it);
  }
  // Durable before applied: replay re-derives the undo application from
  // the still-logged kNcExecute state, and the completion increments
  // follow as their own kCounter records below.
  if (known) {
    WalRecord rec;
    rec.type = WalRecordType::kNcDecision;
    rec.txn = msg.txn;
    rec.flag = msg.flag;
    LogRecord(rec, /*force=*/true);
  }
  if (!msg.flag) {
    for (auto it = st.undo.rbegin(); it != st.undo.rend(); ++it) {
      store_.Undo(*it);
    }
  }
  // "The completion counter is incremented atomically together with
  // commitment" - and symmetrically with the abort, which also terminates
  // the transaction for quiescence-detection purposes.
  for (const auto& [version, source] : st.completions) {
    counters_.IncC(version, source);
    LogCounter(version, /*is_r=*/false, source);
  }
  locks_.CancelWaits(msg.txn);
  locks_.ReleaseAll(msg.txn);
  Message m;
  m.type = MsgType::kDecisionAck;
  m.from = options_.id;
  m.txn = msg.txn;
  m.flag = msg.flag;
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
}

void Node::OnDecisionAck(const Message& msg) {
  auto it = twopc_.find(msg.txn);
  if (it == twopc_.end() || it->second.type != MsgType::kDecision) return;
  if (it->second.awaiting.erase(msg.from) == 0) return;  // duplicate ack
  if (!it->second.awaiting.empty()) return;
  const TwopcRound round = std::move(it->second);
  twopc_.erase(it);
  // A recovered round only re-drove a logged decision: nobody to answer.
  if (round.root == 0) return;
  auto pit = pending_.find(round.root);
  THREEV_CHECK(pit != pending_.end());
  PendingSubtxn rec = std::move(pit->second);
  pending_.erase(pit);
  if (round.trace.valid() && tracer_ != nullptr && tracer_->enabled()) {
    tracer_->EndSpan(network_->Now(), options_.id, TraceOp::kTwopc,
                     round.trace, round.commit ? 1 : 0);
  }
  Status status = round.commit
                      ? Status::Ok()
                      : (rec.status.ok() ? Status::Aborted("2pc abort")
                                         : rec.status);
  FinishRoot(rec, status);
}

void Node::OnLockCleanup(const Message& msg) {
  locks_.ReleaseAll(msg.txn);
}

// ---------------------------------------------------------------------------
// Version advancement participation (Section 4.3)
// ---------------------------------------------------------------------------

void Node::AdvanceUpdateVersion(Version v, const TraceContext& trace) {
  Micros now = network_->Now();
  frozen_time_[vu()] = now;
  vu_.store(v, std::memory_order_relaxed);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(now, options_.id, TraceOp::kVersionSwitch, trace,
                     /*msg_type=*/0, static_cast<int64_t>(v));
  }
  // Counter rows for the new version are created lazily on first touch.
  WalRecord rec;
  rec.type = WalRecordType::kVersionSwitch;
  rec.version = v;
  rec.flag = true;  // vu
  LogRecord(rec);
}

void Node::OnStartAdvancement(const Message& msg) {
  if (msg.version > vu()) AdvanceUpdateVersion(msg.version, msg.trace);
  Message m;
  m.type = MsgType::kStartAdvancementAck;
  m.from = options_.id;
  m.version = msg.version;
  m.seq = msg.seq;
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
}

void Node::OnCounterRead(const Message& msg) {
  Message m;
  m.type = MsgType::kCounterReadReply;
  m.from = options_.id;
  m.version = msg.version;
  m.seq = msg.seq;
  m.flag = msg.flag;
  if (msg.flag) {
    m.counters_r = counters_.SnapshotR(msg.version);
  } else {
    m.counters_c = counters_.SnapshotC(msg.version);
  }
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
}

void Node::OnReadVersionAdvance(const Message& msg) {
  if (msg.version > vr()) {
    vr_.store(msg.version, std::memory_order_relaxed);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant(network_->Now(), options_.id,
                       TraceOp::kReadVersionSwitch, msg.trace,
                       /*msg_type=*/0, static_cast<int64_t>(msg.version));
    }
    WalRecord rec;
    rec.type = WalRecordType::kVersionSwitch;
    rec.version = msg.version;
    rec.flag = false;  // vr
    LogRecord(rec);
  }
  Message m;
  m.type = MsgType::kReadVersionAdvanceAck;
  m.from = options_.id;
  m.version = msg.version;
  m.seq = msg.seq;
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
  WakeVersionGateWaiters();
}

void Node::WakeVersionGateWaiters() {
  // Collected first: a woken continuation may queue a new waiter.
  std::vector<std::function<void()>> runnable;
  for (auto it = gate_waiters_.begin(); it != gate_waiters_.end();) {
    if (VersionGateOpen(it->first, vr())) {
      runnable.push_back(std::move(it->second));
      it = gate_waiters_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fn : runnable) fn();
}

void Node::OnGarbageCollect(const Message& msg) {
  // Durable before applied (and before the ack): replay re-runs the same
  // GC over the reconstructed store, which is idempotent.
  WalRecord rec;
  rec.type = WalRecordType::kGarbageCollect;
  rec.version = msg.version;
  LogRecord(rec);
  store_.GarbageCollect(msg.version);
  counters_.DropBelow(msg.version);
  frozen_time_.erase(frozen_time_.begin(),
                     frozen_time_.lower_bound(msg.version));
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(network_->Now(), options_.id, TraceOp::kGarbageCollect,
                     msg.trace, /*msg_type=*/0,
                     static_cast<int64_t>(msg.version));
  }
  Message m;
  m.type = MsgType::kGarbageCollectAck;
  m.from = options_.id;
  m.version = msg.version;
  m.seq = msg.seq;
  m.trace = msg.trace;
  Send(msg.from, std::move(m));
}

// ---------------------------------------------------------------------------
// Protocol introspection (DESIGN.md section 12)
// ---------------------------------------------------------------------------

void Node::OnAdminInspect(const Message& msg) {
  Message m = MakeInspectReply(msg, options_.id);
  InspectPutNum(&m, "vu", vu());
  InspectPutNum(&m, "vr", vr());
  InspectPutNum(&m, "pending_subtxns", static_cast<int64_t>(pending_.size()));
  InspectPutNum(&m, "nc_txns", static_cast<int64_t>(nc_txns_.size()));
  InspectPutNum(&m, "gate_waiters", static_cast<int64_t>(gate_waiters_.size()));
  // Counter rows for the probed version. flag=true marks the version field
  // as explicit even when it is 0 (version 0 carries real read traffic
  // before the first advancement); otherwise 0 defaults to the current
  // update version.
  const Version counter_version =
      msg.flag || msg.version != 0 ? msg.version : vu();
  InspectPutStr(&m, "mode",
                options_.mode == NodeMode::kPure3V ? "pure3v" : "nc3v");
  InspectPutNum(&m, "locks_held",
                static_cast<int64_t>(locks_.HeldCount()));
  InspectPutNum(&m, "lock_waiters",
                static_cast<int64_t>(locks_.WaiterCount()));
  InspectPutNum(&m, "store_keys", static_cast<int64_t>(store_.KeyCount()));
  // Fuzz-oracle surface (DESIGN.md section 13): the paper's <=3-versions
  // bound as this store observed it, and which counter-matrix rows are
  // still live (comma-separated versions) so an external prober knows the
  // exact set of versions to re-probe for conservation - all without
  // touching node internals.
  InspectPutNum(&m, "max_versions_observed",
                static_cast<int64_t>(store_.MaxVersionsObserved()));
  {
    std::string active;
    for (Version v : counters_.ActiveVersions()) {
      if (!active.empty()) active.push_back(',');
      active += std::to_string(v);
    }
    InspectPutStr(&m, "active_versions", active);
  }
  if (wal_ != nullptr) {
    InspectPutNum(&m, "wal_segment",
                  static_cast<int64_t>(wal_->current_segment()));
    InspectPutNum(&m, "wal_bytes", static_cast<int64_t>(wal_->bytes_appended()));
  }
  InspectPutNum(&m, "counters_version", counter_version);
  m.counters_r = counters_.SnapshotR(counter_version);
  m.counters_c = counters_.SnapshotC(counter_version);
  Send(msg.from, std::move(m));
}

}  // namespace threev
