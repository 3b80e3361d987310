#include "threev/net/thread_net.h"

#include <chrono>
#include <deque>

#include "threev/common/logging.h"
#include "threev/net/wire.h"

namespace threev {

ThreadNet::ThreadNet(ThreadNetOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics) {}

ThreadNet::~ThreadNet() { Stop(); }

Micros ThreadNet::Now() const { return RealClock::Instance().Now(); }

void ThreadNet::RegisterEndpoint(NodeId id, MessageHandler handler) {
  THREEV_CHECK(!started_.load(std::memory_order_acquire))
      << "register endpoints before Start()";
  auto ep = std::make_unique<Endpoint>();
  ep->handler = std::move(handler);
  endpoints_[id] = std::move(ep);
}

void ThreadNet::Start() {
  THREEV_CHECK(!started_.exchange(true, std::memory_order_acq_rel));
  Tracer* tracer = options_.tracer;
  for (auto& [id, ep] : endpoints_) {
    Endpoint* e = ep.get();
    const NodeId self = id;
    // Drain the mailbox in batches: one wakeup and one lock round trip
    // serve an entire burst of messages, and handler execution stays
    // serialized per endpoint.
    e->worker = std::thread([e, tracer, self] {
      for (;;) {
        std::deque<Message> batch = e->mailbox.PopAll();
        if (batch.empty()) return;  // closed and drained
        for (auto& msg : batch) {
          if (tracer != nullptr && tracer->enabled()) {
            tracer->Instant(RealClock::Instance().Now(), self,
                            TraceOp::kMsgRecv, msg.trace,
                            static_cast<uint8_t>(msg.type));
          }
          e->handler(msg);
        }
      }
    });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

void ThreadNet::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (auto& [id, ep] : endpoints_) ep->mailbox.Close();
  for (auto& [id, ep] : endpoints_) {
    if (ep->worker.joinable()) ep->worker.join();
  }
}

void ThreadNet::Send(NodeId to, Message msg) {
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
  THREEV_CHECK(Deliver(to, std::move(msg))) << "no endpoint " << to;
}

bool ThreadNet::Deliver(NodeId to, Message&& msg) {
  auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return false;
  it->second->mailbox.Push(std::move(msg));
  return true;
}

void ThreadNet::ScheduleAfter(Micros delay, std::function<void()> fn) {
  bool new_front;
  {
    MutexLock lock(timer_mu_);
    if (timer_stop_) return;
    auto it = timers_.emplace(Now() + delay, std::move(fn));
    new_front = (it == timers_.begin());
  }
  // Only a timer that becomes the new earliest deadline changes what the
  // timer thread should be sleeping toward; a later one is picked up when
  // the thread wakes for the earlier deadline.
  if (new_front) timer_cv_.notify_all();
}

void ThreadNet::TimerLoop() {
  MutexLock lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    Micros next = timers_.begin()->first;
    Micros now = Now();
    if (now < next) {
      timer_cv_.wait_for(lock, std::chrono::microseconds(next - now));
      continue;
    }
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    lock.unlock();
    fn();
    lock.lock();
  }
}

}  // namespace threev
