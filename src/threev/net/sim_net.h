#ifndef THREEV_NET_SIM_NET_H_
#define THREEV_NET_SIM_NET_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "threev/common/random.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/sim/event_loop.h"
#include "threev/trace/trace.h"

namespace threev {

struct SimNetOptions {
  uint64_t seed = 1;
  // One-way delivery delay = min_delay + Exponential(mean_extra_delay).
  Micros min_delay = 200;
  Micros mean_extra_delay = 300;
  // Enforce per-(from,to) FIFO delivery (delays never reorder a channel).
  bool fifo_channels = true;
  // Manual mode: messages are held in a pending list until the test calls
  // Deliver()/DeliverAll(). Used by the Table 1 replay to reproduce the
  // paper's exact interleaving.
  bool manual = false;
  // Observability: records kMsgSend/kMsgRecv instants carrying each
  // message's trace context. Unowned, may be null.
  Tracer* tracer = nullptr;
};

// Deterministic discrete-event network. All endpoints run inside one
// EventLoop; a whole multi-node cluster simulates on one OS thread.
//
// Concurrency model: single-threaded by construction - Send/ScheduleAfter/
// Deliver and every handler run from EventLoop callbacks on the driving
// thread, so this class deliberately has no mutex and no GUARDED_BY
// members. tools/threev_lint.py's nondeterminism rule (no wall clocks, no
// ambient randomness) is what protects this file's determinism instead.
class SimNet : public Network {
 public:
  explicit SimNet(SimNetOptions options = {}, Metrics* metrics = nullptr);

  void RegisterEndpoint(NodeId id, MessageHandler handler) override;
  void Send(NodeId to, Message msg) override;
  void ScheduleAfter(Micros delay, std::function<void()> fn) override;
  // Calls `owner`'s handler at the deadline, on the loop: no delivery
  // delay, no fault, no liveness filter, no tap and no accounting, so it
  // schedules exactly what a plain ScheduleAfter would.
  void ScheduleTimer(NodeId owner, Micros delay, uint64_t token) override;
  Micros Now() const override { return loop_.Now(); }

  // Crash-fault injection. Bringing an endpoint down drops new sends to it
  // immediately and discards in-flight messages at delivery time; bringing
  // it back up starts a new incarnation, so messages sent to the previous
  // incarnation stay dead even if their delivery time is still ahead.
  void SetEndpointUp(NodeId id, bool up) override;
  bool EndpointUp(NodeId id) const override;

  // Test hook invoked just before each message is dispatched to its
  // handler (after liveness filtering). The tap may itself call
  // SetEndpointUp(to, false) to model a crash triggered by this exact
  // message: liveness is re-checked after the tap, so the message is then
  // dropped instead of delivered. Pass nullptr to clear.
  using DeliveryTap = std::function<void(NodeId to, const Message& msg)>;
  void SetDeliveryTap(DeliveryTap tap) { tap_ = std::move(tap); }

  // Schedule-exploration fault injection (fuzz subsystem, DESIGN.md
  // section 13). Consulted once per automatic-mode Send, after liveness
  // filtering: the injector may silently lose the message, stretch its
  // delivery delay, or exempt it from the per-channel FIFO clamp (the
  // channel watermark is neither consulted nor advanced, so one bypassed
  // message can overtake - or be overtaken by - its channel neighbours
  // while everything else stays FIFO). Pass nullptr to clear. Decisions
  // must be deterministic functions of the message stream for runs to stay
  // bit-reproducible.
  struct FaultDecision {
    bool drop = false;
    Micros extra_delay = 0;
    bool bypass_fifo = false;
  };
  using FaultInjector = std::function<FaultDecision(NodeId to, const Message&)>;
  void SetFaultInjector(FaultInjector injector) {
    injector_ = std::move(injector);
  }

  EventLoop& loop() { return loop_; }

  // --- manual mode ---------------------------------------------------

  struct PendingMessage {
    uint64_t id;
    NodeId to;
    Message msg;
    // Destination incarnation at send time; a held message is discarded at
    // Deliver if the endpoint died (or died and revived) in the interim.
    uint64_t sent_incarnation = 0;
  };

  // Messages currently held (manual mode only), in send order.
  std::vector<PendingMessage> Pending() const;

  // Delivers one held message now. Returns false if the id is unknown.
  bool Deliver(uint64_t id);

  // Delivers the oldest held message matching (from, to, type); any field
  // can be wildcarded with -1. Returns the delivered message id or 0.
  uint64_t DeliverMatching(int from, int to, int type);

  // Delivers all held messages in send order (repeatedly, until none).
  void DeliverAll();

  size_t pending_count() const { return held_.size(); }

 private:
  struct Liveness {
    bool up = true;
    uint64_t incarnation = 0;
  };

  void DispatchNow(NodeId to, Message msg, uint64_t sent_incarnation);
  bool DeliverableTo(NodeId to, uint64_t sent_incarnation) const;
  void DropMessage();

  SimNetOptions options_;
  Metrics* metrics_;  // unowned, may be null
  EventLoop loop_;
  Rng rng_;
  std::unordered_map<NodeId, MessageHandler> handlers_;
  std::unordered_map<NodeId, Liveness> liveness_;
  DeliveryTap tap_;
  FaultInjector injector_;
  // Per-channel watermark for FIFO enforcement: (from<<32|to) -> last
  // scheduled delivery time.
  std::unordered_map<uint64_t, Micros> channel_watermark_;
  // Manual mode.
  uint64_t next_held_id_ = 1;
  std::map<uint64_t, PendingMessage> held_;
};

}  // namespace threev

#endif  // THREEV_NET_SIM_NET_H_
