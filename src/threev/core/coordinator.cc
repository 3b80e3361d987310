#include "threev/core/coordinator.h"

#include <string>
#include <utility>

#include "threev/common/logging.h"
#include "threev/trace/introspect.h"

namespace threev {

AdvanceCoordinator::AdvanceCoordinator(const CoordinatorOptions& options,
                                       Network* network, Metrics* metrics)
    : options_(options),
      network_(network),
      metrics_(metrics),
      tracer_(options.tracer),
      timers_(network, options.id),
      c_matrix_(options.num_nodes * options.num_nodes, 0),
      r_matrix_(options.num_nodes * options.num_nodes, 0) {}

AdvanceCoordinator::~AdvanceCoordinator() { delete auto_next_.load(); }

uint64_t AdvanceCoordinator::WaveSeq(bool r_wave) const {
  // Tags a counter-read wave uniquely within an epoch so stale replies
  // from earlier rounds are discarded.
  return epoch_ * 1'000'000 + round_ * 2 + (r_wave ? 1 : 0);
}

bool AdvanceCoordinator::StartAdvancement(DoneCallback done) {
  if (claimed_.exchange(true, std::memory_order_acq_rel)) return false;
  done_ = std::move(done);
  network_->ScheduleTimer(options_.id, 0, start_token_);
  return true;
}

void AdvanceCoordinator::BeginAdvancement() {
  ++epoch_;
  phase_ = Phase::kSwitchUpdate;
  start_time_ = network_->Now();
  if (tracer_ != nullptr && tracer_->enabled()) {
    adv_trace_ = tracer_->BeginSpan(start_time_, options_.id,
                                    TraceOp::kAdvancement, TraceContext{},
                                    static_cast<int64_t>(epoch_));
    phase_trace_ = tracer_->BeginSpan(start_time_, options_.id,
                                      TraceOp::kAdvancePhase, adv_trace_,
                                      /*arg=*/1);
  }
  BeginStage(MsgType::kStartAdvancement, NextVersion(vu()), /*flag=*/false,
             epoch_);
}

void AdvanceCoordinator::BeginStage(MsgType type, Version version, bool flag,
                                    uint64_t seq) {
  awaiting_.clear();
  for (NodeId n = 0; n < options_.num_nodes; ++n) awaiting_.insert(n);
  stage_type_ = type;
  stage_version_ = version;
  stage_flag_ = flag;
  stage_seq_ = seq;
  stage_retries_ = 0;
  stalled_ = false;
  SendStage();
  stage_deadline_ = network_->Now() + options_.retry_interval;
  if (retransmit_token_ == 0) ArmRetransmit(options_.retry_interval);
}

void AdvanceCoordinator::SendStage() {
  for (NodeId n : awaiting_) {
    Message m;
    m.type = stage_type_;
    m.from = options_.id;
    m.version = stage_version_;
    m.flag = stage_flag_;
    m.seq = stage_seq_;
    m.trace = phase_trace_;
    network_->Send(n, std::move(m));
  }
}

void AdvanceCoordinator::ArmRetransmit(Micros delay) {
  if (options_.retry_interval <= 0) return;
  retransmit_token_ = timers_.Arm(delay, [this] { OnRetransmitTimer(); });
}

void AdvanceCoordinator::OnRetransmitTimer() {
  retransmit_token_ = 0;
  if (awaiting_.empty()) return;  // the next stage arms a new timer
  const Micros now = network_->Now();
  if (now < stage_deadline_) {
    // Armed for an earlier stage: wait out the rest of this one's.
    ArmRetransmit(stage_deadline_ - now);
    return;
  }
  if (stage_retries_ >= options_.max_stage_retries) {
    stalled_ = true;
    std::string nodes;
    for (NodeId n : awaiting_) nodes += " " + std::to_string(n);
    THREEV_LOG(kWarn) << "coordinator: " << MsgTypeName(stage_type_)
                      << " stage stalled after " << stage_retries_
                      << " retransmits; still awaiting nodes" << nodes;
    return;
  }
  ++stage_retries_;
  if (metrics_ != nullptr) {
    metrics_->advancement_retransmits.fetch_add(
        static_cast<int64_t>(awaiting_.size()), std::memory_order_relaxed);
  }
  SendStage();
  stage_deadline_ = now + options_.retry_interval;
  ArmRetransmit(options_.retry_interval);
}

bool AdvanceCoordinator::LastAck(Phase phase, const Message& msg) {
  if (phase_ != phase || msg.seq != epoch_) return false;
  awaiting_.erase(msg.from);
  return awaiting_.empty();
}

void AdvanceCoordinator::SwitchPhaseSpan(Micros ts, int64_t ended,
                                         int64_t started) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->EndSpan(ts, options_.id, TraceOp::kAdvancePhase, phase_trace_,
                   ended);
  phase_trace_ = TraceContext{};
  if (started != 0) {
    phase_trace_ = tracer_->BeginSpan(ts, options_.id, TraceOp::kAdvancePhase,
                                      adv_trace_, started);
  }
}

void AdvanceCoordinator::HandleMessage(const Message& msg) {
  HandlerScope owner(in_handler_, "coordinator", options_.id);
  switch (msg.type) {
    case MsgType::kStartAdvancementAck:
      if (!LastAck(Phase::kSwitchUpdate, msg)) break;
      // Every node now assigns vu_new to new roots; version vu_old can
      // only shrink. Move to phase 2.
      vu_view_.store(NextVersion(vu()), std::memory_order_release);
      phase_ = Phase::kPhaseOut;
      check_version_ = PrevVersion(vu());
      SwitchPhaseSpan(network_->Now(), /*ended=*/1, /*started=*/2);
      BeginRound();
      break;
    case MsgType::kCounterReadReply:
      OnCounterReply(msg);
      break;
    case MsgType::kReadVersionAdvanceAck:
      if (!LastAck(Phase::kSwitchRead, msg)) break;
      vr_view_.store(NextVersion(vr()), std::memory_order_release);
      phase_ = Phase::kDrainReads;
      check_version_ = PrevVersion(vr());
      SwitchPhaseSpan(network_->Now(), /*ended=*/3, /*started=*/4);
      BeginRound();
      break;
    case MsgType::kGarbageCollectAck:
      if (LastAck(Phase::kGarbageCollect, msg)) FinishAdvancement();
      break;
    case MsgType::kAdminInspect:
      OnAdminInspect(msg);
      break;
    case MsgType::kTimer:
      if (msg.seq == start_token_) {
        BeginAdvancement();
      } else if (msg.seq == auto_token_.load(std::memory_order_acquire)) {
        AutoTick(msg.seq);
      } else {
        timers_.Fire(msg);
      }
      break;
    default:
      THREEV_LOG(kWarn) << "coordinator: unexpected " << msg.ToString();
  }
}

void AdvanceCoordinator::BeginRound() {
  ++round_;
  std::fill(c_matrix_.begin(), c_matrix_.end(), 0);
  std::fill(r_matrix_.begin(), r_matrix_.end(), 0);
  SendWave(/*r_wave=*/false);
}

void AdvanceCoordinator::SendWave(bool r_wave) {
  r_wave_ = r_wave;
  BeginStage(MsgType::kCounterRead, check_version_, r_wave, WaveSeq(r_wave));
}

void AdvanceCoordinator::OnCounterReply(const Message& msg) {
  if (phase_ != Phase::kPhaseOut && phase_ != Phase::kDrainReads) return;
  if (msg.seq != WaveSeq(r_wave_) || msg.flag != r_wave_) return;
  if (awaiting_.erase(msg.from) == 0) return;  // duplicate reply
  size_t n = options_.num_nodes;
  if (r_wave_) {
    // msg.counters_r: R(version)[msg.from][q] for every q.
    for (const auto& [q, count] : msg.counters_r) {
      if (q < n) r_matrix_[msg.from * n + q] = count;
    }
  } else {
    // msg.counters_c: C(version)[o][msg.from] for every o.
    for (const auto& [o, count] : msg.counters_c) {
      if (o < n) c_matrix_[o * n + msg.from] = count;
    }
  }
  if (!awaiting_.empty()) return;
  if (!r_wave_) {
    // Wave 1 complete; only now may wave 2 start (the strict ordering the
    // soundness argument depends on).
    SendWave(/*r_wave=*/true);
    return;
  }
  EvaluateRound();
}

void AdvanceCoordinator::EvaluateRound() {
  if (metrics_ != nullptr) {
    metrics_->quiescence_rounds.fetch_add(1, std::memory_order_relaxed);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(network_->Now(), options_.id, TraceOp::kQuiescenceWave,
                     phase_trace_, /*msg_type=*/0,
                     static_cast<int64_t>(round_));
  }
  if (r_matrix_ == c_matrix_) {
    AdvancePhase();
    return;
  }
  // Try again after a beat; user transactions keep flowing meanwhile.
  timers_.Arm(options_.poll_interval, [this] { BeginRound(); });
}

void AdvanceCoordinator::AdvancePhase() {
  if (phase_ == Phase::kPhaseOut) {
    // Version vu_old is consistent across all nodes: expose it to reads.
    phase_ = Phase::kSwitchRead;
    SwitchPhaseSpan(network_->Now(), /*ended=*/2, /*started=*/3);
    BeginStage(MsgType::kReadVersionAdvance, NextVersion(vr()),
               /*flag=*/false, epoch_);
  } else if (phase_ == Phase::kDrainReads) {
    // All queries on vr_old have terminated: garbage-collect.
    phase_ = Phase::kGarbageCollect;
    BeginStage(MsgType::kGarbageCollect, vr(), /*flag=*/false, epoch_);
  }
}

void AdvanceCoordinator::FinishAdvancement() {
  phase_ = Phase::kIdle;
  awaiting_.clear();
  const Micros now = network_->Now();
  SwitchPhaseSpan(now, /*ended=*/4, /*started=*/0);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->EndSpan(now, options_.id, TraceOp::kAdvancement, adv_trace_,
                     static_cast<int64_t>(vu()));
  }
  adv_trace_ = TraceContext{};
  completed_.store(completed_count() + 1, std::memory_order_release);
  if (metrics_ != nullptr) {
    metrics_->advancements_completed.fetch_add(1, std::memory_order_relaxed);
    metrics_->advancement_latency.Record(now - start_time_);
  }
  DoneCallback done = std::exchange(done_, nullptr);
  claimed_.store(false, std::memory_order_release);
  if (done) done(Status::Ok());
}

void AdvanceCoordinator::OnAdminInspect(const Message& msg) {
  Message m = MakeInspectReply(msg, options_.id);
  InspectPutNum(&m, "epoch", static_cast<int64_t>(epoch_));
  InspectPutNum(&m, "phase", static_cast<int64_t>(phase_));
  InspectPutNum(&m, "round", static_cast<int64_t>(round_));
  InspectPutNum(&m, "vu_view", vu());
  InspectPutNum(&m, "vr_view", vr());
  InspectPutNum(&m, "advancements", static_cast<int64_t>(completed_count()));
  InspectPutNum(&m, "auto_advance",
                auto_token_.load(std::memory_order_acquire) != 0 ? 1 : 0);
  InspectPutNum(&m, "counters_version", check_version_);
  InspectPutNum(&m, "stage_retries", static_cast<int64_t>(stage_retries_));
  InspectPutNum(&m, "stalled", stalled_ ? 1 : 0);
  static constexpr const char* kPhaseNames[] = {
      "idle",        "switch_update", "phase_out",
      "switch_read", "drain_reads",   "garbage_collect"};
  InspectPutStr(&m, "phase_name", kPhaseNames[static_cast<int>(phase_)]);
  network_->Send(msg.from, std::move(m));
}

void AdvanceCoordinator::EnableAutoAdvance(Micros period,
                                           std::function<bool()> when) {
  // Publish the settings before the token, so a tick that sees the token
  // finds them.
  delete auto_next_.exchange(new AutoAdvance{period, std::move(when)},
                             std::memory_order_acq_rel);
  uint64_t disabled = 0;
  const uint64_t token = OwnedTimers::NewToken();
  if (!auto_token_.compare_exchange_strong(disabled, token,
                                           std::memory_order_acq_rel)) {
    return;  // the running chain takes the new settings at its next tick
  }
  network_->ScheduleTimer(options_.id, period, token);
}

void AdvanceCoordinator::DisableAutoAdvance() {
  auto_token_.store(0, std::memory_order_release);
}

void AdvanceCoordinator::AutoTick(uint64_t token) {
  if (AutoAdvance* next =
          auto_next_.exchange(nullptr, std::memory_order_acq_rel)) {
    auto_.reset(next);
  }
  // The tick already runs on the owner thread, so it begins phase 1 inline
  // when it wins the claim, and skips a tick that would overlap.
  if (!running() && (!auto_->when || auto_->when()) &&
      !claimed_.exchange(true, std::memory_order_acq_rel)) {
    BeginAdvancement();
  }
  network_->ScheduleTimer(options_.id, auto_->period, token);
}

}  // namespace threev
