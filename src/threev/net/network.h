#ifndef THREEV_NET_NETWORK_H_
#define THREEV_NET_NETWORK_H_

#include <functional>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/net/message.h"

namespace threev {

// Invoked when a message arrives at an endpoint. Handlers may be invoked
// concurrently from multiple threads (ThreadNet/TcpNet); endpoints protect
// their own state.
using MessageHandler = std::function<void(const Message&)>;

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

  // Runs `fn` after `delay`, in a context where it is safe to call Send and
  // to touch endpoint state (endpoints use internal locking). Used for
  // coordinator polling and lock timeouts.
  virtual void ScheduleAfter(Micros delay, std::function<void()> fn) = 0;

  // Time source: virtual under SimNet, steady-clock otherwise.
  virtual Micros Now() const = 0;
};

}  // namespace threev

#endif  // THREEV_NET_NETWORK_H_
