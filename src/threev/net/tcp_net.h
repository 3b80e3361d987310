#ifndef THREEV_NET_TCP_NET_H_
#define THREEV_NET_TCP_NET_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/net/thread_net.h"
#include "threev/net/wire.h"
#include "threev/trace/trace.h"

namespace threev {

struct TcpNetOptions {
  // Endpoint id -> "host:port". Endpoints co-located in one process share
  // that process's address. Every process lists the full map.
  std::map<NodeId, std::string> peers;
  // Port this process listens on (the port in `peers` for local endpoints).
  uint16_t listen_port = 0;
  // How long Send() keeps retrying the initial connection to a peer that
  // has not started yet.
  Micros connect_timeout = 10'000'000;
  // Observability: records kMsgSend/kMsgRecv instants carrying each
  // message's trace context. Unowned, may be null.
  Tracer* tracer = nullptr;
};

// TCP transport for genuine multi-process deployments ("manual networking
// plumbing"). Frame format: u32 length, u32 destination endpoint id
// (little-endian), EncodeMessage payload (wire.h). Delivery and timers run
// on an embedded ThreadNet: local endpoints register there, and a send to
// a local endpoint goes straight to its mailbox.
//
// Inbound sockets belong to the destination's worker. A sender keeps one
// connection per destination endpoint (ConnectionTo), so every connection
// has one natural owner: the accept thread reads a new connection, without
// blocking, until the first frame header that names a local endpoint
// (dropping any earlier frames for unknown endpoints), then hands the
// socket and the bytes read so far to that endpoint's ThreadNet worker
// (ThreadNet::AdoptConnection). From then on the worker reads and decodes
// the socket itself, so a frame reaches its handler with one wakeup and no
// thread exists per connection. Handlers are serialized per endpoint
// exactly as on ThreadNet.
//
// Outbound frames use a combining flush per connection: senders enqueue an
// encoded frame under the connection's lock, and whichever sender finds
// the connection idle becomes the flusher, draining every queued frame
// into a single scatter-gather syscall. Concurrent senders to one peer
// coalesce instead of serializing on a process-wide write lock, and the
// frame buffers recycle through an EncodeBufferPool so steady-state sends
// do not allocate.
class TcpNet : public Network {
 public:
  explicit TcpNet(TcpNetOptions options, Metrics* metrics = nullptr);
  ~TcpNet() override;

  TcpNet(const TcpNet&) = delete;
  TcpNet& operator=(const TcpNet&) = delete;

  void RegisterEndpoint(NodeId id, MessageHandler handler) override;
  void Send(NodeId to, Message msg) override EXCLUDES(conn_mu_);
  void ScheduleAfter(Micros delay, std::function<void()> fn) override;
  // `owner` must be a local endpoint; its embedded ThreadNet delivers.
  void ScheduleTimer(NodeId owner, Micros delay, uint64_t token) override;
  Micros Now() const override;

  // Binds the listen socket, then starts the local endpoints' workers, the
  // timer and the accept thread. Register every local endpoint first.
  Status Start();
  // Stops accepting, closes every connection and stops the embedded
  // ThreadNet; no handler runs after it returns. Idempotent.
  void Stop() EXCLUDES(conn_mu_);

 private:
  // One outbound TCP connection. `pending` holds fully framed buffers
  // (header + payload); `flushing` marks that some sender is draining the
  // queue, so others just enqueue and leave.
  struct Conn {
    int fd = -1;
    Mutex mu;
    std::vector<std::vector<uint8_t>> pending GUARDED_BY(mu);
    bool flushing GUARDED_BY(mu) = false;
  };

  // An accepted connection that has not yet named a local endpoint.
  struct Unrouted {
    int fd;
    std::vector<uint8_t> buf;  // read, not yet consumed
    size_t skip = 0;  // payload bytes of a dropped frame still to discard
  };

  // Polls the listen socket and the unrouted connections together, so a
  // silent peer never delays another.
  void AcceptLoop();
  // One non-blocking read on `u`. Returns true while `u` stays unrouted;
  // false once its fd was handed to a worker or closed.
  bool RouteStep(Unrouted& u);
  // Returns the cached (or freshly established) connection to `to`.
  std::shared_ptr<Conn> ConnectionTo(NodeId to) EXCLUDES(conn_mu_);
  // Drains conn->pending with sendmsg() until another flusher takes over
  // or the queue is empty. Called by the sender that set `flushing`.
  void FlushConn(const std::shared_ptr<Conn>& conn, NodeId to)
      EXCLUDES(conn_mu_);
  // Closes and forgets a broken connection (if still current).
  void DropConn(NodeId to, const std::shared_ptr<Conn>& conn)
      EXCLUDES(conn_mu_);

  TcpNetOptions options_;
  Metrics* metrics_;
  // Local endpoints' mailboxes and workers (which also read the inbound
  // sockets handed to them), and the timer thread. Carries no Metrics:
  // Send() does the accounting for both paths.
  ThreadNet local_;

  std::atomic<bool> stopping_{false};
  // Both set by Start() and closed by Stop() after the accept thread,
  // their only other user, has exited. Stop() wakes it through the
  // eventfd.
  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  std::thread accept_thread_;

  Mutex conn_mu_;
  std::unordered_map<NodeId, std::shared_ptr<Conn>> connections_
      GUARDED_BY(conn_mu_);
  // Recycles encoded frame buffers across sends.
  EncodeBufferPool frame_pool_;
};

}  // namespace threev

#endif  // THREEV_NET_TCP_NET_H_
