#include "threev/net/thread_net.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <map>
#include <thread>
#include <utility>

#include "threev/common/logging.h"
#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
#include "threev/net/wire.h"

namespace threev {

namespace {

// A connection's receive buffer starts this small and grows only to the
// largest frame it has to hold.
constexpr size_t kInitialConnBuffer = 4096;
// Ready descriptors taken per epoll_pwait2.
constexpr int kMaxEvents = 64;

// epoll data of the listening socket; the eventfd carries null and an
// inbound socket its InboundConn.
char listener_tag;
void* const kListener = &listener_tag;

// The ThreadNet, and its endpoint, whose worker runs on this thread.
thread_local const ThreadNet* tl_worker_net = nullptr;
thread_local NodeId tl_worker_self = 0;

void WakeFd(int fd) {
  const uint64_t one = 1;
  // Cannot fail short of a counter overflow, which would leave it readable
  // anyway; the return value carries nothing to act on.
  (void)!::write(fd, &one, sizeof(one));
}

}  // namespace

// An inbound socket owned by one worker; buf[begin, end) holds bytes
// received but not yet handled, starting at a frame boundary. A connection
// the worker accepted itself is unrouted until a frame header names a
// local endpoint; fd is -1 once it was handed to another worker.
struct ThreadNet::InboundConn {
  // Room for `size` bytes, which the caller fills.
  InboundConn(int fd_in, bool routed_in, size_t size)
      : fd(fd_in),
        routed(routed_in),
        cap(std::max(kInitialConnBuffer, size)),
        buf(new uint8_t[cap]),
        end(size) {}
  ~InboundConn() {
    if (fd >= 0) ::close(fd);
  }
  InboundConn(const InboundConn&) = delete;
  InboundConn& operator=(const InboundConn&) = delete;

  int fd;
  bool routed;
  size_t cap;
  std::unique_ptr<uint8_t[]> buf;  // default-initialized: no zero fill
  size_t begin = 0;
  size_t end;
};

struct ThreadNet::Endpoint {
  Endpoint()
      : wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
        epoll_fd(::epoll_create1(EPOLL_CLOEXEC)) {
    THREEV_CHECK(wake_fd >= 0 && epoll_fd >= 0)
        << "eventfd/epoll_create1 failed: " << std::strerror(errno);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // null marks the eventfd; sockets carry a conn
    THREEV_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) == 0);
  }
  ~Endpoint() {
    ::close(epoll_fd);
    ::close(wake_fd);
  }

  MessageHandler handler;
  Mutex mu;  // the mailbox lock
  std::vector<Message> mailbox GUARDED_BY(mu);
  std::vector<std::unique_ptr<InboundConn>> adopted GUARDED_BY(mu);
  // Timers armed since the worker's last turn, with their deadlines.
  std::vector<std::pair<Micros, Timer>> arms GUARDED_BY(mu);
  bool closed GUARDED_BY(mu) = false;
  // Called by a producer after it pushed under `mu`. Loads `parked`
  // (seq_cst; see WorkerLoop) and writes the eventfd only for a parked
  // worker; the exchange lets one of several racing producers pay for
  // the write.
  void WakeIfParked() {
    if (parked.load() && parked.exchange(false)) WakeFd(wake_fd);
  }

  // Set by the worker just before it blocks in epoll_pwait2; see
  // WorkerLoop for the protocol.
  std::atomic<bool> parked{false};
  const int wake_fd;
  const int epoll_fd;
  std::thread worker;
};

ThreadNet::ThreadNet(ThreadNetOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics) {}

ThreadNet::~ThreadNet() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Micros ThreadNet::Now() const { return RealClock::Instance().Now(); }

void ThreadNet::RegisterEndpoint(NodeId id, MessageHandler handler) {
  THREEV_CHECK(!started_.load(std::memory_order_acquire))
      << "register endpoints before Start()";
  auto ep = std::make_unique<Endpoint>();
  ep->handler = std::move(handler);
  if (endpoints_.empty() || id < home_) home_ = id;
  endpoints_[id] = std::move(ep);
}

void ThreadNet::Listen(int fd) {
  THREEV_CHECK(!started_.load(std::memory_order_acquire))
      << "listen before Start()";
  listen_fd_ = fd;
}

void ThreadNet::Start() {
  THREEV_CHECK(!started_.exchange(true, std::memory_order_acq_rel));
  for (auto& [id, ep] : endpoints_) {
    ep->worker = std::thread(
        [this, self = id, e = ep.get()] { WorkerLoop(self, e); });
  }
}

void ThreadNet::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& [id, ep] : endpoints_) {
    {
      MutexLock lock(ep->mu);
      ep->closed = true;
    }
    WakeFd(ep->wake_fd);
  }
  for (auto& [id, ep] : endpoints_) {
    if (ep->worker.joinable()) ep->worker.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
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
  Endpoint* e = it->second.get();
  {
    MutexLock lock(e->mu);
    if (e->closed) return true;
    e->mailbox.push_back(std::move(msg));
  }
  e->WakeIfParked();
  return true;
}

bool ThreadNet::AdoptConnection(NodeId owner, int fd, const uint8_t* data,
                                size_t size) {
  auto it = endpoints_.find(owner);
  if (it == endpoints_.end()) return false;
  Endpoint* e = it->second.get();
  auto conn = std::make_unique<InboundConn>(fd, /*routed=*/true, size);
  if (size > 0) std::memcpy(conn->buf.get(), data, size);
  {
    MutexLock lock(e->mu);
    // After Stop() `conn` dies here and closes the fd.
    if (e->closed) return true;
    e->adopted.push_back(std::move(conn));
  }
  e->WakeIfParked();
  return true;
}

bool ThreadNet::OnWorker(NodeId* self) const {
  if (tl_worker_net != this) return false;
  *self = tl_worker_self;
  return true;
}

void ThreadNet::Dispatch(NodeId self, Endpoint* e, const Message& msg) {
  Tracer* tracer = options_.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Instant(RealClock::Instance().Now(), self, TraceOp::kMsgRecv,
                    msg.trace, static_cast<uint8_t>(msg.type));
  }
  e->handler(msg);
}

void ThreadNet::ScheduleAfter(Micros delay, std::function<void()> fn) {
  NodeId self = 0;
  if (!OnWorker(&self)) self = home_;
  Arm(self, delay, Timer{.token = 0, .fn = std::move(fn)});
}

void ThreadNet::ScheduleTimer(NodeId owner, Micros delay, uint64_t token) {
  Arm(owner, delay, Timer{.token = token, .fn = nullptr});
}

void ThreadNet::Arm(NodeId self, Micros delay, Timer timer) {
  auto it = endpoints_.find(self);
  THREEV_CHECK(it != endpoints_.end()) << "no endpoint " << self;
  Endpoint* e = it->second.get();
  const Micros deadline = Now() + delay;
  {
    MutexLock lock(e->mu);
    if (e->closed) return;
    e->arms.emplace_back(deadline, std::move(timer));
  }
  e->WakeIfParked();
}

void ThreadNet::WorkerLoop(NodeId self, Endpoint* e) {
  tl_worker_net = this;
  tl_worker_self = self;
  // Swapped with the mailbox each turn, so these vectors keep their
  // capacity and a steady stream of messages does not allocate.
  std::vector<Message> batch;
  std::vector<std::unique_ptr<InboundConn>> fresh;
  std::vector<std::pair<Micros, Timer>> armed;
  // This endpoint's timers by deadline; equal deadlines fire in arm order.
  std::multimap<Micros, Timer> timers;
  // The sockets this worker owns; their fds close when the loop returns.
  std::vector<std::unique_ptr<InboundConn>> conns;
  auto drop = [&](InboundConn* conn) {
    if (conn->fd >= 0) {
      ::epoll_ctl(e->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    }
    auto it = std::find_if(conns.begin(), conns.end(),
                           [conn](const auto& c) { return c.get() == conn; });
    std::swap(*it, conns.back());
    conns.pop_back();
  };
  auto watch = [&](std::unique_ptr<InboundConn> conn) {
    InboundConn* c = conn.get();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (::epoll_ctl(e->epoll_fd, EPOLL_CTL_ADD, c->fd, &ev) != 0) {
      THREEV_LOG(kWarn) << "cannot watch inbound connection: "
                        << std::strerror(errno);
      return;
    }
    conns.push_back(std::move(conn));
    if (!HandleFrames(self, e, *c)) drop(c);
  };
  const bool listening = self == home_ && listen_fd_ >= 0;
  if (listening) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = kListener;
    THREEV_CHECK(::epoll_ctl(e->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) == 0)
        << "cannot watch the listening socket: " << std::strerror(errno);
  }
  epoll_event events[kMaxEvents];
  for (;;) {
    bool closed = false;
    {
      MutexLock lock(e->mu);
      batch.swap(e->mailbox);
      fresh.swap(e->adopted);
      armed.swap(e->arms);
      closed = e->closed;
    }
    bool worked = !batch.empty() || !fresh.empty();
    for (auto& arm : armed) timers.insert(std::move(arm));
    armed.clear();
    for (auto& conn : fresh) watch(std::move(conn));
    fresh.clear();
    for (const Message& msg : batch) Dispatch(self, e, msg);
    batch.clear();
    if (!timers.empty()) {
      const Micros now = Now();
      while (!timers.empty() && timers.begin()->first <= now) {
        Timer timer = std::move(timers.begin()->second);
        timers.erase(timers.begin());
        if (timer.fn) {
          timer.fn();
        } else {
          Dispatch(self, e, TimerMessage(self, timer.token));
        }
        worked = true;
      }
    }
    // Everything pushed before Stop() closed the mailbox was in this batch.
    if (closed) {
      if (options_.end_turn) options_.end_turn(self);
      return;
    }

    timespec wait{};  // zero: look at the sockets without blocking
    const timespec* timeout = &wait;
    if (!worked) {
      // Park; nothing ran since the last end_turn, so nothing is corked.
      // The worker stores `parked` and then re-checks the mailbox; a
      // producer pushes and then loads `parked` (Endpoint::WakeIfParked).
      // Both sides are seq_cst, and the re-check and the push take the
      // mailbox lock, so one of the two sees the other: if the push came
      // first the re-check finds the item and the worker does not block;
      // otherwise the store to `parked` precedes the producer's load, the
      // producer sees true and writes the eventfd, and epoll_pwait2
      // returns. A stale write (the worker woke for a socket or a deadline
      // meanwhile) only costs one spurious turn.
      e->parked.store(true);
      bool pending = false;
      {
        MutexLock lock(e->mu);
        pending = !e->mailbox.empty() || !e->adopted.empty() ||
                  !e->arms.empty() || e->closed;
      }
      if (pending) {
        e->parked.store(false);
        continue;
      }
      if (timers.empty()) {
        timeout = nullptr;  // no deadline: block until woken
      } else {
        const Micros left = timers.begin()->first - Now();
        if (left > 0) {
          wait.tv_sec = static_cast<time_t>(left / 1'000'000);
          wait.tv_nsec = static_cast<long>(left % 1'000'000) * 1000;
        }
      }
    } else if (conns.empty() && !listening) {
      if (options_.end_turn) options_.end_turn(self);
      continue;  // busy, and no socket to look at
    }
    const int n =
        ::epoll_pwait2(e->epoll_fd, events, kMaxEvents, timeout, nullptr);
    if (!worked) e->parked.store(false);
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == nullptr) {
        uint64_t count = 0;
        (void)!::read(e->wake_fd, &count, sizeof(count));
      } else if (tag == kListener) {
        for (;;) {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;  // EAGAIN once the backlog is empty
          watch(std::make_unique<InboundConn>(fd, /*routed=*/false, 0));
        }
      } else if (auto* conn = static_cast<InboundConn*>(tag);
                 !ReadConnection(self, e, *conn)) {
        drop(conn);
      }
    }
    if (options_.end_turn) options_.end_turn(self);
  }
}

bool ThreadNet::ReadConnection(NodeId self, Endpoint* e, InboundConn& conn) {
  // Move the unhandled tail (at most one partial frame) to the front.
  if (conn.begin > 0) {
    std::memmove(conn.buf.get(), conn.buf.get() + conn.begin,
                 conn.end - conn.begin);
    conn.end -= conn.begin;
    conn.begin = 0;
  }
  const ssize_t n =
      ::recv(conn.fd, conn.buf.get() + conn.end, conn.cap - conn.end, 0);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  if (n == 0) return false;  // end of stream
  conn.end += static_cast<size_t>(n);
  return HandleFrames(self, e, conn);
}

bool ThreadNet::HandleFrames(NodeId self, Endpoint* e, InboundConn& conn) {
  while (conn.end - conn.begin >= kFrameHeaderBytes) {
    const uint8_t* frame = conn.buf.get() + conn.begin;
    const FrameHeader h = ParseFrameHeader(frame);
    if (h.length > kMaxFramePayload) return false;
    if (!conn.routed && h.dest != self && endpoints_.contains(h.dest)) {
      // The connection belongs to the endpoint its first routable frame
      // names: hand it over, with the bytes not yet handled.
      ::epoll_ctl(e->epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
      AdoptConnection(h.dest, conn.fd, frame, conn.end - conn.begin);
      conn.fd = -1;
      return false;
    }
    conn.routed = conn.routed || h.dest == self;
    const size_t need = kFrameHeaderBytes + h.length;
    if (conn.end - conn.begin < need) {
      if (need > conn.cap) {
        // Grow to exactly the frame that does not fit.
        const size_t have = conn.end - conn.begin;
        std::unique_ptr<uint8_t[]> bigger(new uint8_t[need]);
        std::memcpy(bigger.get(), frame, have);
        conn.buf = std::move(bigger);
        conn.cap = need;
        conn.begin = 0;
        conn.end = have;
      }
      return true;
    }
    conn.begin += need;
    Result<Message> msg = DecodeMessage(frame + kFrameHeaderBytes, h.length);
    if (!msg.ok()) {
      THREEV_LOG(kWarn) << "dropping malformed frame: "
                        << msg.status().ToString();
    } else if (h.dest == self) {
      Dispatch(self, e, *msg);
    } else if (!Deliver(h.dest, std::move(*msg))) {
      // An unknown destination is outside input, not a local bug: log and
      // keep reading this connection.
      THREEV_LOG(kWarn) << "dropping frame for unknown endpoint " << h.dest;
    }
  }
  if (conn.begin == conn.end) conn.begin = conn.end = 0;
  return true;
}

}  // namespace threev
