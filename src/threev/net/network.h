#ifndef THREEV_NET_NETWORK_H_
#define THREEV_NET_NETWORK_H_

#include <functional>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/net/message.h"

namespace threev {

// Invoked when a message arrives at an endpoint. One endpoint's handler
// never runs on two threads at once: SimNet runs every handler on its one
// thread, ThreadNet/TcpNet run each endpoint's handler on that endpoint's
// own worker. Handlers of different endpoints do run concurrently there, so
// state shared between endpoints needs its own synchronization.
using MessageHandler = std::function<void(const Message&)>;

// The kTimer message an owned timer delivers (see Network::ScheduleTimer).
Message TimerMessage(NodeId owner, uint64_t token);

// Transport abstraction. Three implementations:
//   SimNet    - deterministic discrete-event simulation (virtual time).
//   ThreadNet - one mailbox thread per endpoint, real time.
//   TcpNet    - length-prefixed frames over TCP between processes; local
//               delivery and timers run on an embedded ThreadNet.
//
// Contract, relied on by the protocol code:
//  * Send() never executes the destination handler synchronously in the
//    caller's stack (no re-entrancy; a node may Send to itself).
//  * Channels are FIFO per (from, to) pair. The compensation model
//    (Section 3.2) and the completion-notice bookkeeping do not strictly
//    require FIFO, but the Table 1 replay and several tests do.
//  * Messages are never duplicated, and never lost while both endpoints
//    stay up (the paper assumes a reliable network). Crash faults are
//    injected via SetEndpointUp: messages to a down endpoint - including
//    ones already in flight when it went down - are silently dropped, so
//    protocol layers that must survive crashes retransmit (see DESIGN.md
//    section 9).
class Network {
 public:
  virtual ~Network() = default;

  // Registers the handler for endpoint `id`. Must be called before any
  // traffic to that endpoint. Not thread-safe vs. Send. Re-registering an
  // id replaces the handler (a restarted node takes over its endpoint).
  virtual void RegisterEndpoint(NodeId id, MessageHandler handler) = 0;

  // Crash-fault injection: while an endpoint is down, sends to it are
  // dropped immediately and messages already in flight are discarded at
  // delivery time - they are never queued for the next incarnation.
  // Default is a no-op (transports without fault support deliver normally).
  virtual void SetEndpointUp(NodeId id, bool up) { (void)id; (void)up; }
  virtual bool EndpointUp(NodeId id) const { (void)id; return true; }

  // Sends `msg` (whose `from` field identifies the sender) to `to`.
  virtual void Send(NodeId to, Message msg) = 0;

  // Runs `fn` after `delay` on a thread of the transport's choosing (the
  // timer thread on ThreadNet/TcpNet), where it may call Send but must not
  // touch an endpoint's handler-owned state. Used only by the
  // manual-versioning baseline and the test and fuzz drivers, which guard
  // their own state; protocol endpoints use ScheduleTimer (lint rule
  // node-owned).
  virtual void ScheduleAfter(Micros delay, std::function<void()> fn) = 0;

  // Owned timer: after `delay`, runs `owner`'s handler with
  // TimerMessage(owner, token), on the thread that runs its other messages,
  // so the owner's state stays single-threaded. The owner maps the token to
  // its callback (core/owner_thread.h). The default sends the message when
  // a ScheduleAfter timer fires, which is correct on every transport;
  // SimNet and ThreadNet override it to skip the send path's accounting.
  virtual void ScheduleTimer(NodeId owner, Micros delay, uint64_t token);

  // Time source: virtual under SimNet, steady-clock otherwise.
  virtual Micros Now() const = 0;
};

}  // namespace threev

#endif  // THREEV_NET_NETWORK_H_
