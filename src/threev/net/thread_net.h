#ifndef THREEV_NET_THREAD_NET_H_
#define THREEV_NET_THREAD_NET_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "threev/common/clock.h"
#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
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

// One mailbox + worker thread per endpoint; a dedicated timer thread serves
// ScheduleAfter, and for an owned timer (ScheduleTimer) only pushes the
// kTimer message into the owner's mailbox, so every handler of an endpoint
// runs on its worker. Real concurrency on real threads - used by stress and
// integration tests to shake out races, and as the engine room of TcpNet,
// which registers its local endpoints here.
//
// A worker owns all of its endpoint's input. Each turn it drains the
// mailbox in one swap, runs the handler on every message, then reads the
// inbound TCP connections it was handed (AdoptConnection): one recv per
// ready socket, every whole frame decoded and handled on the spot. When
// there is nothing to do it parks in epoll_wait on an eventfd plus those
// sockets, so a frame goes from the kernel to its handler with one wakeup,
// and a local Deliver writes the eventfd only when the worker is parked.
// An endpoint that was handed no connection never polls its (empty)
// socket set while busy. A turn is one mailbox batch plus one epoll round
// of socket frames; ThreadNetOptions::end_turn runs at the end of each,
// and a worker parks only after a turn that ran nothing.
class ThreadNet : public Network {
 public:
  explicit ThreadNet(ThreadNetOptions options = {}, Metrics* metrics = nullptr);
  ~ThreadNet() override;

  ThreadNet(const ThreadNet&) = delete;
  ThreadNet& operator=(const ThreadNet&) = delete;

  void RegisterEndpoint(NodeId id, MessageHandler handler) override;
  // Counts and traces the send, then delivers; `to` must be registered.
  void Send(NodeId to, Message msg) override;
  void ScheduleAfter(Micros delay, std::function<void()> fn) override
      EXCLUDES(timer_mu_);
  // The timer thread only Delivers the kTimer message to `owner`'s mailbox
  // (no send accounting); the handler runs on `owner`'s worker.
  void ScheduleTimer(NodeId owner, Micros delay, uint64_t token) override
      EXCLUDES(timer_mu_);
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

  // True, setting `*self`, when the caller runs on the worker of this
  // ThreadNet's endpoint `*self`, so end_turn runs before it parks.
  bool OnWorker(NodeId* self) const;

  // Starts worker threads. Call after all endpoints are registered.
  void Start();

  // Drains mailboxes and joins all threads; no handler runs after it
  // returns. Safe to call twice (and from a different thread than Start's
  // caller - the flags are atomic).
  void Stop() EXCLUDES(timer_mu_);

 private:
  struct InboundConn;
  struct Endpoint;

  void WorkerLoop(NodeId self, Endpoint* e);
  // Traces the receipt and runs the handler.
  void Dispatch(NodeId self, Endpoint* e, const Message& msg);
  // Handles every whole frame buffered in `conn`. Returns false when the
  // connection must close (oversized frame).
  bool HandleFrames(NodeId self, Endpoint* e, InboundConn& conn);
  // One recv into `conn`'s buffer, then HandleFrames. Returns false when
  // the connection must close.
  bool ReadConnection(NodeId self, Endpoint* e, InboundConn& conn);
  void TimerLoop() EXCLUDES(timer_mu_);

  ThreadNetOptions options_;
  Metrics* metrics_;  // unowned, may be null
  // Written only before Start(); read-only (and thus lock-free) afterwards.
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Timer state.
  Mutex timer_mu_;
  CondVar timer_cv_;
  std::multimap<Micros, std::function<void()>> timers_ GUARDED_BY(timer_mu_);
  bool timer_stop_ GUARDED_BY(timer_mu_) = false;
  std::thread timer_thread_;
};

}  // namespace threev

#endif  // THREEV_NET_THREAD_NET_H_
