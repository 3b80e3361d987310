#ifndef THREEV_NET_THREAD_NET_H_
#define THREEV_NET_THREAD_NET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "threev/common/clock.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/trace/trace.h"

namespace threev {

struct ThreadNetOptions {
  // Observability: records kMsgSend/kMsgRecv instants carrying each
  // message's trace context. Unowned, may be null.
  Tracer* tracer = nullptr;
  // Called on an endpoint's worker, with its id, at the end of each turn
  // (see ThreadNet); TcpNet writes the turn's corked frames here. May be
  // empty.
  std::function<void(NodeId)> end_turn;
};

// One mailbox + worker thread per endpoint, and no other thread: every
// handler of an endpoint, its owned timers (ScheduleTimer) included, runs on
// its worker. Real concurrency on real threads - used by stress and
// integration tests to shake out races, and as the engine room of TcpNet,
// which registers its local endpoints here.
//
// A worker owns all of its endpoint's input. Each turn it drains the
// mailbox in one swap, runs the handler on every message, then reads the
// inbound TCP connections it was handed (AdoptConnection): one recv per
// ready socket, every whole frame decoded and handled on the spot. It also
// keeps the endpoint's timers in a deadline map of its own: an arm, from
// any thread, is pushed under the mailbox lock like a message, and the
// timers that fell due run inside the turn, an owned timer as a kTimer
// message straight to the handler. When there is nothing to do it parks in
// epoll_pwait2 on an eventfd plus those sockets, with the nearest deadline
// as its timeout, so a frame goes from the kernel to its handler with one
// wakeup, and a local Deliver or arm writes the eventfd only when the
// worker is parked. An endpoint that was handed no connection never polls
// its (empty) socket set while busy, and one with no timer reads no clock.
// A turn is one mailbox batch, the due timers and one epoll round of socket
// frames; ThreadNetOptions::end_turn runs at the end of each, and a worker
// parks only after a turn that ran nothing.
class ThreadNet : public Network {
 public:
  explicit ThreadNet(ThreadNetOptions options = {}, Metrics* metrics = nullptr);
  ~ThreadNet() override;

  ThreadNet(const ThreadNet&) = delete;
  ThreadNet& operator=(const ThreadNet&) = delete;

  void RegisterEndpoint(NodeId id, MessageHandler handler) override;
  // Counts and traces the send, then delivers; `to` must be registered.
  void Send(NodeId to, Message msg) override;
  // Runs `fn` on the calling worker when it is one of this net's, else on
  // the worker of the lowest registered endpoint.
  void ScheduleAfter(Micros delay, std::function<void()> fn) override;
  // Runs `owner`'s handler with the kTimer message on its worker, with no
  // send accounting. `owner` must be registered.
  void ScheduleTimer(NodeId owner, Micros delay, uint64_t token) override;
  Micros Now() const override;

  // Enqueues `msg` on `to`'s mailbox with no send-side accounting. Returns
  // false, leaving `msg` untouched, when `to` is not a registered endpoint.
  // After Stop() a known endpoint's message is dropped (and true returned).
  bool Deliver(NodeId to, Message&& msg);

  // Hands `owner`'s worker an inbound connection that carries TcpNet frames
  // (wire.h): a connected socket `fd` and the `size` bytes already read
  // from it, which start at a frame boundary. The worker reads the socket
  // from then on; a frame for another local endpoint goes to it through
  // Deliver, one for an unknown endpoint or one that does not decode is
  // logged and dropped, and the connection closes at end of stream, on a
  // read error or on a length over kMaxFramePayload. Returns false, with
  // `fd` untouched, when `owner` is not a registered endpoint; otherwise
  // the fd belongs to this ThreadNet (closed at once if it has stopped).
  bool AdoptConnection(NodeId owner, int fd, const uint8_t* data, size_t size);

  // Has the worker of the lowest registered endpoint accept connections on
  // the non-blocking listening socket `fd`. Each accepted connection is
  // read like an adopted one, except that until a frame header names a
  // local endpoint it is unrouted: the first header that names the
  // acceptor keeps it, and one that names another local endpoint hands it,
  // unread bytes included, to that endpoint (AdoptConnection). Call before
  // Start(); the fd belongs to this ThreadNet, which closes it in Stop().
  void Listen(int fd);

  // True, setting `*self`, when the caller runs on the worker of this
  // ThreadNet's endpoint `*self`, so end_turn runs before it parks.
  bool OnWorker(NodeId* self) const;

  // Starts worker threads. Call after all endpoints are registered.
  void Start();

  // Drains mailboxes and joins all threads; no handler runs after it
  // returns, and timers not yet due never fire. Safe to call twice (and
  // from a different thread than Start's caller - the flags are atomic).
  void Stop();

 private:
  struct InboundConn;
  struct Endpoint;
  // A ScheduleAfter callback, or an owned timer's token when `fn` is empty.
  struct Timer {
    uint64_t token = 0;
    std::function<void()> fn;
  };

  // Pushes a timer onto `self`'s arm list; its worker takes it in its next
  // turn. Dropped after Stop().
  void Arm(NodeId self, Micros delay, Timer timer);

  void WorkerLoop(NodeId self, Endpoint* e);
  // Traces the receipt and runs the handler.
  void Dispatch(NodeId self, Endpoint* e, const Message& msg);
  // Handles every whole frame buffered in `conn`, routing an unrouted one
  // first. Returns false when `conn` leaves this worker: it must close
  // (oversized frame), or it went to another endpoint (fd now -1).
  bool HandleFrames(NodeId self, Endpoint* e, InboundConn& conn);
  // One recv into `conn`'s buffer, then HandleFrames. Returns false when
  // the connection must close.
  bool ReadConnection(NodeId self, Endpoint* e, InboundConn& conn);

  ThreadNetOptions options_;
  Metrics* metrics_;  // unowned, may be null
  // Written only before Start(); read-only (and thus lock-free) afterwards.
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  // The lowest registered endpoint: it accepts on the listening socket and
  // runs the ScheduleAfter callbacks armed off the workers.
  NodeId home_ = 0;
  // Set by Listen() before Start() and closed by Stop() after the workers,
  // which read it, have exited.
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace threev

#endif  // THREEV_NET_THREAD_NET_H_
