#ifndef THREEV_NET_TCP_NET_H_
#define THREEV_NET_TCP_NET_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
#include "threev/metrics/metrics.h"
#include "threev/net/network.h"
#include "threev/net/thread_net.h"
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
// (little-endian), EncodeMessage payload (wire.h). Delivery, timers and
// accepts run on an embedded ThreadNet: local endpoints register there, a
// send to a local endpoint goes straight to its mailbox, and the process
// runs no thread besides the local endpoints' workers.
//
// Inbound sockets belong to the destination's worker. A sender keeps one
// connection per destination endpoint (ConnectionTo), so every connection
// has one natural owner. The listening socket sits in the epoll set of the
// lowest local endpoint's worker (ThreadNet::Listen), which accepts each
// connection and reads it until the first frame header that names a local
// endpoint (frames before it for unknown endpoints are logged and
// dropped); it keeps a connection that names itself and hands any other,
// with the bytes read so far, to the named endpoint's worker
// (ThreadNet::AdoptConnection). From then on that worker reads and decodes
// the socket itself, so a frame reaches its handler with one wakeup and no
// thread exists per connection. Handlers are serialized per endpoint
// exactly as on ThreadNet.
//
// Outbound frames are encoded straight into their connection's outbox,
// one byte buffer. A send made on one of this net's workers is corked
// until the end of the worker's turn (ThreadNetOptions::end_turn), which
// writes each connection the turn touched with one send(2); a send from
// any other thread writes at once. Writing is a combining flush: the
// thread that finds the connection idle writes everything queued, frames
// appended meanwhile included, while others only append (the client and
// coordinator workers share connections). Appending under the
// connection's lock keeps each (from, to) pair in send order.
class TcpNet : public Network {
 public:
  explicit TcpNet(TcpNetOptions options, Metrics* metrics = nullptr);
  ~TcpNet() override;

  TcpNet(const TcpNet&) = delete;
  TcpNet& operator=(const TcpNet&) = delete;

  void RegisterEndpoint(NodeId id, MessageHandler handler) override;
  void Send(NodeId to, Message msg) override EXCLUDES(conn_mu_);
  // Timers fire on a local worker of the embedded ThreadNet; an owned
  // timer's `owner` must be a local endpoint.
  void ScheduleAfter(Micros delay, std::function<void()> fn) override;
  void ScheduleTimer(NodeId owner, Micros delay, uint64_t token) override;
  Micros Now() const override;

  // Binds the listen socket, hands it to the embedded ThreadNet and starts
  // the local endpoints' workers. Register every local endpoint first.
  Status Start();
  // Closes every connection and stops the embedded ThreadNet, which stops
  // accepting; no handler runs after it returns. Idempotent.
  void Stop() EXCLUDES(conn_mu_);

 private:
  // One outbound TCP connection. The socket closes with the last owner,
  // so a late writer never reaches a reused fd. `outbox` holds whole
  // frames not yet written. While `flushing`, the writing thread owns
  // `spare`: it swaps the outbox into it and writes it with no lock held,
  // so both buffers keep their capacity.
  struct Conn {
    Conn(NodeId to_in, int fd_in) : to(to_in), fd(fd_in) {}
    ~Conn();  // closes fd; `mu` makes Conn neither copyable nor movable

    const NodeId to;
    const int fd;
    Mutex mu;
    std::vector<uint8_t> outbox GUARDED_BY(mu);
    bool flushing GUARDED_BY(mu) = false;
    std::vector<uint8_t> spare;
  };

  // Returns the cached (or freshly established) connection to `to`.
  std::shared_ptr<Conn> ConnectionTo(NodeId to) EXCLUDES(conn_mu_);
  // Writes conn's outbox until it is empty, unless another thread is
  // already doing so.
  void Flush(Conn& conn) EXCLUDES(conn_mu_);
  // Flushes the connections `worker` corked this turn (end_turn hook).
  void EndTurn(NodeId worker) EXCLUDES(conn_mu_);
  // Forgets a broken connection (if still current).
  void DropConn(const Conn& conn) EXCLUDES(conn_mu_);

  TcpNetOptions options_;
  Metrics* metrics_;
  // Local endpoints' mailboxes, timers and workers (which also accept and
  // read the inbound sockets). Carries no Metrics: Send() does the
  // accounting for both paths.
  ThreadNet local_;

  std::atomic<bool> stopping_{false};

  Mutex conn_mu_;
  std::unordered_map<NodeId, std::shared_ptr<Conn>> connections_
      GUARDED_BY(conn_mu_);
  // Per local endpoint, the connections its worker corked this turn. The
  // map is filled by RegisterEndpoint and read-only once Start() ran; each
  // list is touched only by its endpoint's worker.
  std::unordered_map<NodeId, std::vector<std::shared_ptr<Conn>>> corked_;
};

}  // namespace threev

#endif  // THREEV_NET_TCP_NET_H_
