#ifndef THREEV_CORE_COORDINATOR_H_
#define THREEV_CORE_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/common/status.h"
#include "threev/core/owner_thread.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/trace/trace.h"

namespace threev {

struct CoordinatorOptions {
  NodeId id = 0;          // endpoint id of the coordinator
  size_t num_nodes = 1;   // database nodes are endpoints 0..num_nodes-1
  // Delay between quiescence-check rounds in phases 2 and 4.
  Micros poll_interval = 2000;
  // Re-send the current stage's message to nodes that have not replied yet
  // (tolerates crashed-and-restarted nodes and the dropped messages that
  // come with them; node-side handlers are idempotent). 0 disables.
  Micros retry_interval = 10'000;
  // Stop re-sending after this many timer fires per stage: a node that
  // stays down longer than retry_interval * max_stage_retries stalls the
  // advancement (restart-based recovery is expected well within that
  // window; a stall is logged and shows in the kAdminInspect reply), and a
  // bounded timer chain keeps event-loop drains finite for tests that hold
  // messages manually.
  size_t max_stage_retries = 50;
  // Observability (DESIGN.md section 12): when set, each advancement runs
  // under a kAdvancement span with one kAdvancePhase child per phase, and
  // stage messages carry the phase's trace context. Unowned, may be null.
  Tracer* tracer = nullptr;
};

// The version advancement process (Section 4.3). A single instance runs at
// a time (the paper assumes distributed mutual exclusion; we designate one
// coordinator, which satisfies the same assumption).
//
// Phases:
//   1. Switch update version: broadcast start-advancement(vu_new); await
//      acks. After the last ack, no new root can be assigned the old
//      update version anywhere.
//   2. Updates phase-out: detect quiescence of version vu_old via the
//      two-wave asynchronous counter read (below).
//   3. Switch read version: broadcast read-version(vr_new); await acks.
//   4. Drain old reads (same quiescence check on vr_old), then broadcast
//      garbage-collect(vr_new); await acks.
//
// Quiescence check (see DESIGN.md section 5 for the soundness argument):
// wave 1 reads every completion counter C(v)[p][q]; only after all replies
// arrive does wave 2 read every request counter R(v)[p][q]. If R == C for
// every ordered pair the version is quiescent; otherwise the coordinator
// sleeps poll_interval and repeats. Neither wave blocks any user
// transaction - nodes answer from their local counters.
//
// Threading (DESIGN.md section 6): like a Node, the coordinator belongs to
// the thread that runs its endpoint's handler, and its timers (stage
// retransmit, quiescence poll, auto-advance tick) arrive there as kTimer
// messages, so its state takes no lock. Other threads may call
// StartAdvancement, Enable/DisableAutoAdvance and the four getters.
class AdvanceCoordinator {
 public:
  using DoneCallback = std::function<void(Status)>;

  AdvanceCoordinator(const CoordinatorOptions& options, Network* network,
                     Metrics* metrics);

  ~AdvanceCoordinator();

  AdvanceCoordinator(const AdvanceCoordinator&) = delete;
  AdvanceCoordinator& operator=(const AdvanceCoordinator&) = delete;

  // Network entry point; register with Network::RegisterEndpoint.
  void HandleMessage(const Message& msg);

  // Kicks off one advancement. Returns false (and does nothing) if one is
  // already in flight. `done` fires after phase 4 completes. Any thread:
  // the call claims the coordinator, and phase 1 begins on the owner
  // thread when a zero-delay owned timer arrives there.
  bool StartAdvancement(DoneCallback done = nullptr);

  // Ticks every `period` on the owner thread. A tick that finds the
  // coordinator idle evaluates `when` (null means true) and, when it holds,
  // begins an advancement, unless a StartAdvancement claimed the
  // coordinator first. These are the paper's "desired solution" triggers
  // (DESIGN.md section 8): the period alone advances "every hour", a
  // predicate over Metrics::txns_committed "after N transactions", one over
  // data values on drift, and StartAdvancement from a transaction's
  // callback "after a particular transaction". `when` runs on the owner
  // thread, so it may read only what any thread may (atomics such as the
  // Metrics counters, Node::vu()/vr()); state it keeps is its own.
  // Enabling while enabled swaps in the new period and `when` at the
  // running chain's next tick.
  void EnableAutoAdvance(Micros period, std::function<bool()> when = nullptr);
  void DisableAutoAdvance();

  bool running() const { return claimed_.load(std::memory_order_acquire); }
  // Coordinator's view of the versions (authoritative between
  // advancements, since only the coordinator changes them).
  Version vu() const { return vu_view_.load(std::memory_order_acquire); }
  Version vr() const { return vr_view_.load(std::memory_order_acquire); }
  uint64_t completed_count() const {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  // One EnableAutoAdvance call's settings.
  struct AutoAdvance {
    Micros period;
    std::function<bool()> when;
  };

  // In this order in OnAdminInspect's phase names.
  enum class Phase {
    kIdle,
    kSwitchUpdate,   // phase 1
    kPhaseOut,       // phase 2
    kSwitchRead,     // phase 3
    kDrainReads,     // phase 4 (quiescence part)
    kGarbageCollect  // phase 4 (gc broadcast part)
  };

  // Phase 1, on the owner thread, once the caller holds the claim.
  void BeginAdvancement();
  // Opens a stage awaiting one reply per node: records the retransmit
  // template, marks every node as awaited, sends to all, arms the timer.
  void BeginStage(MsgType type, Version version, bool flag, uint64_t seq);
  // Sends the current stage's message to every node still awaited.
  void SendStage();
  // Arms the one retransmit timer to fire after `delay`.
  void ArmRetransmit(Micros delay);
  // Re-sends the current stage once its deadline has passed.
  void OnRetransmitTimer();
  // Takes one node's ack of the stage `phase` opened; true once every node
  // has acked.
  bool LastAck(Phase phase, const Message& msg);
  // Protocol introspection probe (see trace/introspect.h).
  void OnAdminInspect(const Message& msg);
  // Closes the current kAdvancePhase span and opens the next one
  // (phase_index 1..4; 0 closes without opening).
  void SwitchPhaseSpan(Micros ts, int64_t ended, int64_t started);
  // Starts a quiescence round for check_version_ (wave 1: completion
  // counters).
  void BeginRound();
  void SendWave(bool r_wave);
  void OnCounterReply(const Message& msg);
  // All replies of the R wave arrived: compare matrices.
  void EvaluateRound();
  // Transition after a phase's condition is met.
  void AdvancePhase();
  void FinishAdvancement();
  // One tick of the auto-advance chain armed under `token`.
  void AutoTick(uint64_t token);
  uint64_t WaveSeq(bool r_wave) const;

  CoordinatorOptions options_;
  Network* network_;
  Metrics* metrics_;
  Tracer* tracer_;  // unowned, may be null (tracing disabled)

  // --- shared with other threads ---
  // Held from a won StartAdvancement (or auto tick) until the advancement
  // finishes.
  std::atomic<bool> claimed_{false};
  // The claim winner's callback. Only the thread that won claimed_ writes
  // it; the owner thread takes it out before releasing the claim.
  DoneCallback done_;
  // The zero-delay timer that carries a StartAdvancement to the owner.
  const uint64_t start_token_ = OwnedTimers::NewToken();
  // Token of the live auto-advance chain, fresh per EnableAutoAdvance so
  // an older chain's tick matches nothing; 0 while disabled.
  std::atomic<uint64_t> auto_token_{0};
  // The latest settings the owner thread has not taken yet. Whichever
  // thread exchanges a record out of this slot owns it, so no lock guards
  // the predicate. (Not std::atomic<std::shared_ptr>: libstdc++ 12's load
  // unlocks with a relaxed fetch_sub, which tsan reports as a race with
  // the next store.)
  std::atomic<AutoAdvance*> auto_next_{nullptr};
  // Written only by the owner thread.
  std::atomic<Version> vu_view_{1};
  std::atomic<Version> vr_view_{0};
  std::atomic<uint64_t> completed_{0};
  // Set while a thread runs HandleMessage (HandlerScope).
  std::atomic<bool> in_handler_{false};

  // --- owner thread only ---
  OwnedTimers timers_;
  // The auto-advance settings taken last (null until the first tick).
  std::unique_ptr<AutoAdvance> auto_;
  Phase phase_ = Phase::kIdle;
  // One per advancement, tags all messages.
  uint64_t epoch_ = 0;
  // Version being quiesced in phases 2/4.
  Version check_version_ = 0;
  // Nodes whose reply for the current stage is still outstanding, plus the
  // template needed to re-send that stage to them.
  std::set<NodeId> awaiting_;
  MsgType stage_type_ = MsgType::kStartAdvancement;
  Version stage_version_ = 0;
  bool stage_flag_ = false;
  uint64_t stage_seq_ = 0;
  // When the current stage is next re-sent.
  Micros stage_deadline_ = 0;
  // The one armed retransmit timer, 0 when none is. A stage that ends
  // leaves it armed: the next stage takes it over and, when it fires
  // before that stage's deadline, it re-arms for the rest. So a kTimer
  // reaches the coordinator about once per retry_interval, not once per
  // stage.
  uint64_t retransmit_token_ = 0;
  size_t stage_retries_ = 0;
  // The stage used up max_stage_retries with nodes still awaited.
  bool stalled_ = false;
  uint64_t round_ = 0;
  bool r_wave_ = false;
  // Collected matrices, num_nodes x num_nodes, [p][q].
  std::vector<int64_t> c_matrix_;
  std::vector<int64_t> r_matrix_;
  Micros start_time_ = 0;
  // Spans of the running advancement / its current phase (invalid when
  // idle or tracing is off).
  TraceContext adv_trace_;
  TraceContext phase_trace_;
};

}  // namespace threev

#endif  // THREEV_CORE_COORDINATOR_H_
