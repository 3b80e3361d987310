#ifndef THREEV_NET_THREAD_NET_H_
#define THREEV_NET_THREAD_NET_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "threev/common/clock.h"
#include "threev/common/mutex.h"
#include "threev/common/queue.h"
#include "threev/common/thread_annotations.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/trace/trace.h"

namespace threev {

struct ThreadNetOptions {
  // Observability: records kMsgSend/kMsgRecv instants carrying each
  // message's trace context. Unowned, may be null.
  Tracer* tracer = nullptr;
};

// One mailbox + worker thread per endpoint; a dedicated timer thread serves
// ScheduleAfter. Real concurrency on real threads - used by stress and
// integration tests to shake out races, and as the engine room of the
// TcpNet gateway, which hands every local send and every inbound frame to
// Deliver().
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
  Micros Now() const override;

  // Enqueues `msg` on `to`'s mailbox with no send-side accounting. Returns
  // false, leaving `msg` untouched, when `to` is not a registered endpoint.
  // After Stop() a known endpoint's message is dropped (and true returned).
  bool Deliver(NodeId to, Message&& msg);

  // Starts worker threads. Call after all endpoints are registered.
  void Start();

  // Drains mailboxes and joins all threads. Safe to call twice (and from
  // a different thread than Start's caller - the flags are atomic).
  void Stop() EXCLUDES(timer_mu_);

 private:
  struct Endpoint {
    MessageHandler handler;
    BlockingQueue<Message> mailbox;
    std::thread worker;
  };

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
