#include "threev/net/tcp_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "threev/common/logging.h"
#include "threev/net/wire.h"

namespace threev {

namespace {

// An outbox buffer that grew past this (a burst or a huge frame) is freed
// after its flush rather than kept.
constexpr size_t kMaxKeptOutbox = 64 << 10;

// Parses "host:port"; host must be a dotted-quad (or "localhost").
bool ParseAddress(const std::string& addr, sockaddr_in* out) {
  auto colon = addr.rfind(':');
  if (colon == std::string::npos) return false;
  std::string host = addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  if (host == "localhost") host = "127.0.0.1";
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

// Writes all `size` bytes at `data`, counting each successful send into
// `*writes`.
bool SendAll(int fd, const uint8_t* data, size_t size, int64_t* writes) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    ++*writes;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

TcpNet::Conn::~Conn() { ::close(fd); }

TcpNet::TcpNet(TcpNetOptions options, Metrics* metrics)
    : options_(std::move(options)),
      metrics_(metrics),
      local_(ThreadNetOptions{
          .tracer = options_.tracer,
          .end_turn = [this](NodeId worker) { EndTurn(worker); }}) {}

TcpNet::~TcpNet() { Stop(); }

Micros TcpNet::Now() const { return local_.Now(); }

void TcpNet::RegisterEndpoint(NodeId id, MessageHandler handler) {
  local_.RegisterEndpoint(id, std::move(handler));
  corked_[id];
}

void TcpNet::ScheduleAfter(Micros delay, std::function<void()> fn) {
  local_.ScheduleAfter(delay, std::move(fn));
}

void TcpNet::ScheduleTimer(NodeId owner, Micros delay, uint64_t token) {
  local_.ScheduleTimer(owner, delay, token);
}

Status TcpNet::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.listen_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind() failed on port " +
                           std::to_string(options_.listen_port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  local_.Listen(fd);
  local_.Start();
  return Status::Ok();
}

void TcpNet::Stop() {
  if (stopping_.exchange(true)) return;
  {
    MutexLock lock(conn_mu_);
    // A thread blocked writing one of these wakes with an error; each
    // socket closes when its last holder lets go.
    for (auto& [id, conn] : connections_) ::shutdown(conn->fd, SHUT_RDWR);
    connections_.clear();
  }
  // Drains the local mailboxes; handlers that send to a remote endpoint
  // now find no connection and drop the message, and frames still corked
  // fail to write and are dropped with their socket. The workers close
  // the inbound connections they own as they exit, and then the listening
  // socket closes.
  local_.Stop();
}

std::shared_ptr<TcpNet::Conn> TcpNet::ConnectionTo(NodeId to) {
  {
    MutexLock lock(conn_mu_);
    auto it = connections_.find(to);
    if (it != connections_.end()) return it->second;
  }
  auto peer = options_.peers.find(to);
  if (peer == options_.peers.end()) return nullptr;
  sockaddr_in addr;
  if (!ParseAddress(peer->second, &addr)) return nullptr;

  Micros deadline = Now() + options_.connect_timeout;
  while (!stopping_.load() && Now() < deadline) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>(to, fd);
      MutexLock lock(conn_mu_);
      // If another thread raced us, use theirs; ours closes on return.
      return connections_.emplace(to, std::move(conn)).first->second;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return nullptr;
}

void TcpNet::DropConn(const Conn& conn) {
  MutexLock lock(conn_mu_);
  auto it = connections_.find(conn.to);
  if (it != connections_.end() && it->second.get() == &conn) {
    connections_.erase(it);
  }
}

void TcpNet::Flush(Conn& conn) {
  MutexLock lock(conn.mu);
  // A thread already writing conn writes these frames too.
  if (conn.flushing) return;
  conn.flushing = true;
  while (!conn.outbox.empty()) {
    conn.outbox.swap(conn.spare);
    lock.unlock();
    int64_t writes = 0;
    const bool sent =
        SendAll(conn.fd, conn.spare.data(), conn.spare.size(), &writes);
    if (metrics_ != nullptr) {
      metrics_->net_writes.fetch_add(writes, std::memory_order_relaxed);
    }
    conn.spare.clear();
    if (conn.spare.capacity() > kMaxKeptOutbox) {
      std::vector<uint8_t>().swap(conn.spare);
    }
    if (!sent) {
      THREEV_LOG(kWarn) << "write to endpoint " << conn.to << " failed";
      DropConn(conn);
    }
    lock.lock();
    if (!sent) conn.outbox.clear();  // connection is gone; drop the rest
  }
  conn.flushing = false;
}

void TcpNet::EndTurn(NodeId worker) {
  std::vector<std::shared_ptr<Conn>>& dirty = corked_.find(worker)->second;
  for (const std::shared_ptr<Conn>& conn : dirty) Flush(*conn);
  dirty.clear();
}

void TcpNet::Send(NodeId to, Message msg) {
  if (metrics_ != nullptr) {
    metrics_->messages_sent.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->Instant(Now(), msg.from, TraceOp::kMsgSend, msg.trace,
                             static_cast<uint8_t>(msg.type));
  }
  // Local endpoint: skip the wire, but still go through its mailbox so the
  // no-synchronous-delivery contract holds.
  if (local_.Deliver(to, std::move(msg))) return;
  const size_t frame_size = kFrameHeaderBytes + EncodedMessageSize(msg);
  if (metrics_ != nullptr) {
    // Real bytes handed to the socket for this message, header included.
    metrics_->bytes_sent.fetch_add(static_cast<int64_t>(frame_size),
                                   std::memory_order_relaxed);
  }
  std::shared_ptr<Conn> conn = ConnectionTo(to);
  if (conn == nullptr) {
    THREEV_LOG(kWarn) << "cannot reach endpoint " << to << ", dropping "
                      << MsgTypeName(msg.type);
    return;
  }
  {
    MutexLock lock(conn->mu);
    // The exact-size pre-pass lets the length prefix go first, with no
    // patching and no second buffer.
    const size_t start = conn->outbox.size();
    {
      WireWriter w(&conn->outbox, start);
      w.Reserve(frame_size);
      w.U32(static_cast<uint32_t>(frame_size - kFrameHeaderBytes));
      w.U32(to);
      EncodeMessageTo(w, msg);
    }
    // The length header was written before the payload, so the size
    // pre-pass must be exact or the receiver mis-frames the stream.
    THREEV_CHECK(conn->outbox.size() - start == frame_size);
  }
  NodeId worker = 0;
  if (!local_.OnWorker(&worker)) {
    Flush(*conn);
    return;
  }
  // Corked: the worker writes it at the end of this turn.
  std::vector<std::shared_ptr<Conn>>& dirty = corked_.find(worker)->second;
  if (std::find(dirty.begin(), dirty.end(), conn) == dirty.end()) {
    dirty.push_back(std::move(conn));
  }
}

}  // namespace threev
