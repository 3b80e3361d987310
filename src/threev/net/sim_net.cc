#include "threev/net/sim_net.h"

#include "threev/common/logging.h"
#include "threev/net/wire.h"

namespace threev {

SimNet::SimNet(SimNetOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics), rng_(options.seed) {}

void SimNet::RegisterEndpoint(NodeId id, MessageHandler handler) {
  handlers_[id] = std::move(handler);
  liveness_.try_emplace(id);  // starts up, incarnation 0
}

void SimNet::SetEndpointUp(NodeId id, bool up) {
  Liveness& l = liveness_[id];
  if (l.up == up) return;
  l.up = up;
  // A revival is a new incarnation: messages addressed to the previous one
  // are dead even if their delivery event has not fired yet.
  if (up) ++l.incarnation;
}

bool SimNet::EndpointUp(NodeId id) const {
  auto it = liveness_.find(id);
  return it == liveness_.end() || it->second.up;
}

bool SimNet::DeliverableTo(NodeId to, uint64_t sent_incarnation) const {
  auto it = liveness_.find(to);
  if (it == liveness_.end()) return true;
  return it->second.up && it->second.incarnation == sent_incarnation;
}

void SimNet::DropMessage() {
  if (metrics_ != nullptr) {
    metrics_->messages_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void SimNet::DispatchNow(NodeId to, Message msg, uint64_t sent_incarnation) {
  if (!DeliverableTo(to, sent_incarnation)) {
    DropMessage();
    return;
  }
  if (tap_) {
    tap_(to, msg);
    // The tap may have killed the destination; this message dies with it.
    if (!DeliverableTo(to, sent_incarnation)) {
      DropMessage();
      return;
    }
  }
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->Instant(Now(), to, TraceOp::kMsgRecv, msg.trace,
                             static_cast<uint8_t>(msg.type));
  }
  auto it = handlers_.find(to);
  THREEV_CHECK(it != handlers_.end()) << "no endpoint " << to;
  it->second(msg);
}

void SimNet::Send(NodeId to, Message msg) {
  if (metrics_ != nullptr) {
    metrics_->messages_sent.fetch_add(1, std::memory_order_relaxed);
    metrics_->bytes_sent.fetch_add(
        static_cast<int64_t>(EncodedMessageSize(msg)),
        std::memory_order_relaxed);
  }
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->Instant(Now(), msg.from, TraceOp::kMsgSend, msg.trace,
                             static_cast<uint8_t>(msg.type));
  }
  uint64_t incarnation = 0;
  if (auto it = liveness_.find(to); it != liveness_.end()) {
    if (!it->second.up) {
      DropMessage();
      return;
    }
    incarnation = it->second.incarnation;
  }
  if (options_.manual) {
    uint64_t id = next_held_id_++;
    held_.emplace(id, PendingMessage{id, to, std::move(msg), incarnation});
    return;
  }
  FaultDecision fault;
  if (injector_) fault = injector_(to, msg);
  if (fault.drop) {
    if (metrics_ != nullptr) {
      metrics_->fault_injected_drops.fetch_add(1, std::memory_order_relaxed);
    }
    DropMessage();
    return;
  }
  Micros delay = options_.min_delay +
                 static_cast<Micros>(
                     rng_.Exponential(static_cast<double>(
                         options_.mean_extra_delay > 0
                             ? options_.mean_extra_delay
                             : 1)));
  if (options_.mean_extra_delay == 0) delay = options_.min_delay;
  if (fault.extra_delay > 0) {
    delay += fault.extra_delay;
    if (metrics_ != nullptr) {
      metrics_->fault_injected_delays.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Micros when = loop_.Now() + delay;
  if (options_.fifo_channels && !fault.bypass_fifo) {
    uint64_t channel = (static_cast<uint64_t>(msg.from) << 32) | to;
    Micros& watermark = channel_watermark_[channel];
    if (when <= watermark) when = watermark + 1;
    watermark = when;
  }
  loop_.ScheduleAt(when, [this, to, incarnation, m = std::move(msg)]() mutable {
    DispatchNow(to, std::move(m), incarnation);
  });
}

void SimNet::ScheduleAfter(Micros delay, std::function<void()> fn) {
  loop_.ScheduleAfter(delay, std::move(fn));
}

void SimNet::ScheduleTimer(NodeId owner, Micros delay, uint64_t token) {
  loop_.ScheduleAfter(delay, [this, owner, token] {
    auto it = handlers_.find(owner);
    THREEV_CHECK(it != handlers_.end()) << "no endpoint " << owner;
    it->second(TimerMessage(owner, token));
  });
}

std::vector<SimNet::PendingMessage> SimNet::Pending() const {
  std::vector<PendingMessage> out;
  out.reserve(held_.size());
  for (const auto& [id, pm] : held_) out.push_back(pm);
  return out;
}

bool SimNet::Deliver(uint64_t id) {
  auto it = held_.find(id);
  if (it == held_.end()) return false;
  PendingMessage pm = std::move(it->second);
  held_.erase(it);
  DispatchNow(pm.to, std::move(pm.msg), pm.sent_incarnation);
  return true;
}

uint64_t SimNet::DeliverMatching(int from, int to, int type) {
  for (auto& [id, pm] : held_) {
    if ((from < 0 || pm.msg.from == static_cast<NodeId>(from)) &&
        (to < 0 || pm.to == static_cast<NodeId>(to)) &&
        (type < 0 || pm.msg.type == static_cast<MsgType>(type))) {
      uint64_t found = id;
      Deliver(found);
      return found;
    }
  }
  return 0;
}

void SimNet::DeliverAll() {
  while (!held_.empty()) {
    Deliver(held_.begin()->first);
  }
}

}  // namespace threev
