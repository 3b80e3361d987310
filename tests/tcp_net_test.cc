// "Manual networking plumbing": the protocol over real TCP sockets. Each
// TcpNet instance plays one process; here three share this test process
// (node 0, node 1, and a coordinator+client host) and speak the length-
// prefixed frame protocol over loopback.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <netinet/tcp.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "threev/common/wait_group.h"
#include "threev/core/cluster.h"
#include "threev/net/tcp_net.h"
#include "threev/net/wire.h"
#include "test_ports.h"
#include "test_threads.h"

namespace threev {
namespace {

// Appends one wire frame: u32 length, u32 destination, encoded message.
void AppendFrame(std::vector<uint8_t>* out, NodeId dest, const Message& m) {
  std::vector<uint8_t> payload = EncodeMessage(m);
  std::vector<uint8_t> header;
  {
    WireWriter w(&header);
    w.U32(static_cast<uint32_t>(payload.size()));
    w.U32(dest);
  }
  out->insert(out->end(), header.begin(), header.end());
  out->insert(out->end(), payload.begin(), payload.end());
}

// A raw client socket connected to a loopback port, with Nagle off so each
// send() leaves as its own segment.
int ConnectRaw(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAllRaw(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

Message SeqMessage(uint64_t seq) {
  Message m;
  m.type = MsgType::kClientSubmit;
  m.seq = seq;
  return m;
}

class TcpClusterTest : public ::testing::Test {
 protected:
  static constexpr NodeId kNode0 = 0, kNode1 = 1, kCoord = 2, kClient = 3;

  void SetUp() override {
    ports_ = FreePorts(3);
    std::map<NodeId, std::string> peers = {
        {kNode0, "127.0.0.1:" + std::to_string(ports_[0])},
        {kNode1, "127.0.0.1:" + std::to_string(ports_[1])},
        {kCoord, "127.0.0.1:" + std::to_string(ports_[2])},
        {kClient, "127.0.0.1:" + std::to_string(ports_[2])},
    };
    net0_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = ports_[0]}, &metrics_);
    net1_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = ports_[1]}, &metrics_);
    net2_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = ports_[2]}, &metrics_);

    NodeOptions n0;
    n0.id = kNode0;
    n0.num_nodes = 2;
    node0_ = std::make_unique<Node>(n0, net0_.get(), &metrics_);
    net0_->RegisterEndpoint(kNode0, [this](const Message& m) {
      node0_->HandleMessage(m);
    });

    NodeOptions n1;
    n1.id = kNode1;
    n1.num_nodes = 2;
    node1_ = std::make_unique<Node>(n1, net1_.get(), &metrics_);
    net1_->RegisterEndpoint(kNode1, [this](const Message& m) {
      node1_->HandleMessage(m);
    });

    CoordinatorOptions copts;
    copts.id = kCoord;
    copts.num_nodes = 2;
    copts.poll_interval = 5'000;
    coordinator_ =
        std::make_unique<AdvanceCoordinator>(copts, net2_.get(), &metrics_);
    net2_->RegisterEndpoint(kCoord, [this](const Message& m) {
      coordinator_->HandleMessage(m);
    });
    client_ = std::make_unique<Client>(kClient, net2_.get());
    net2_->RegisterEndpoint(kClient, [this](const Message& m) {
      client_->HandleMessage(m);
    });

    ASSERT_TRUE(net0_->Start().ok());
    ASSERT_TRUE(net1_->Start().ok());
    ASSERT_TRUE(net2_->Start().ok());
  }

  void TearDown() override {
    net0_->Stop();
    net1_->Stop();
    net2_->Stop();
  }

  std::vector<uint16_t> ports_;  // node 0, node 1, coordinator + client
  Metrics metrics_;
  std::unique_ptr<TcpNet> net0_, net1_, net2_;
  std::unique_ptr<Node> node0_, node1_;
  std::unique_ptr<AdvanceCoordinator> coordinator_;
  std::unique_ptr<Client> client_;
};

TEST_F(TcpClusterTest, DistributedTransactionOverSockets) {
  WaitGroup wg;
  wg.Add(1);
  TxnResult result;
  client_->Submit(kNode0,
                  TxnBuilder(kNode0)
                      .Add("a", 10)
                      .Child(kNode1, {OpAdd("b", 20)})
                      .Build(),
                  [&](const TxnResult& r) {
                    result = r;
                    wg.Done();
                  });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.version, 1u);
  EXPECT_EQ(node0_->store().Read("a", 1)->num, 10);
  EXPECT_EQ(node1_->store().Read("b", 1)->num, 20);
}

TEST_F(TcpClusterTest, AdvancementAndReadOverSockets) {
  WaitGroup wg;
  wg.Add(1);
  client_->Submit(kNode0,
                  TxnBuilder(kNode0)
                      .Add("x", 5)
                      .Child(kNode1, {OpAdd("y", 6)})
                      .Build(),
                  [&](const TxnResult&) { wg.Done(); });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));

  WaitGroup adv;
  adv.Add(1);
  ASSERT_TRUE(coordinator_->StartAdvancement([&](Status) { adv.Done(); }));
  ASSERT_TRUE(adv.WaitFor(std::chrono::milliseconds(15'000)));
  EXPECT_EQ(node0_->vr(), 1u);
  EXPECT_EQ(node1_->vr(), 1u);

  WaitGroup rd;
  rd.Add(1);
  TxnResult read;
  client_->Submit(kNode1,
                  TxnBuilder(kNode1)
                      .Get("y")
                      .Child(kNode0, {OpGet("x")})
                      .Build(),
                  [&](const TxnResult& r) {
                    read = r;
                    rd.Done();
                  });
  ASSERT_TRUE(rd.WaitFor(std::chrono::milliseconds(15'000)));
  EXPECT_EQ(read.version, 1u);
  EXPECT_EQ(read.reads.at("x").num, 5);
  EXPECT_EQ(read.reads.at("y").num, 6);
}

TEST_F(TcpClusterTest, SurvivesGarbageConnection) {
  // An unrelated client connects to node 0's port and sends byte soup; the
  // node must drop that connection and keep serving real traffic.
  uint16_t port = ports_[0];
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Frame claiming an absurd length, then junk.
  uint8_t junk[32];
  uint32_t bogus_len = 0xff000000;
  memcpy(junk, &bogus_len, 4);
  for (size_t i = 4; i < sizeof(junk); ++i) junk[i] = static_cast<uint8_t>(i);
  ASSERT_GT(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL), 0);
  ::close(fd);

  // A short malformed-but-plausible frame: 8-byte header + truncated body.
  int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  uint32_t small_len = 4, dest = 0;
  uint8_t frame[12];
  memcpy(frame, &small_len, 4);
  memcpy(frame + 4, &dest, 4);
  memset(frame + 8, 0xab, 4);
  ASSERT_GT(::send(fd2, frame, sizeof(frame), MSG_NOSIGNAL), 0);
  ::close(fd2);

  // Real traffic still works.
  WaitGroup wg;
  wg.Add(1);
  TxnResult result;
  client_->Submit(kNode0, TxnBuilder(kNode0).Add("g", 1).Build(),
                  [&](const TxnResult& r) {
                    result = r;
                    wg.Done();
                  });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));
  EXPECT_TRUE(result.status.ok());
}

TEST_F(TcpClusterTest, PipelinedLoadOverSockets) {
  constexpr int kTotal = 60;
  WaitGroup wg;
  wg.Add(kTotal);
  std::atomic<int> committed{0};
  for (int i = 0; i < kTotal; ++i) {
    NodeId origin = i % 2 == 0 ? kNode0 : kNode1;
    NodeId other = origin == kNode0 ? kNode1 : kNode0;
    client_->Submit(origin,
                    TxnBuilder(origin)
                        .Add("cnt@" + std::to_string(origin), 1)
                        .Child(other, {OpAdd("cnt@" + std::to_string(other),
                                             1)})
                        .Build(),
                    [&](const TxnResult& r) {
                      if (r.status.ok()) committed.fetch_add(1);
                      wg.Done();
                    });
  }
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(30'000)));
  EXPECT_EQ(committed.load(), kTotal);
  EXPECT_EQ(node0_->store().Read("cnt@0", 1)->num, kTotal);
  EXPECT_EQ(node1_->store().Read("cnt@1", 1)->num, kTotal);
}

// A well-formed frame for an endpoint this process does not host is outside
// input: the reader drops it and keeps the connection, so the next valid
// frame on the same socket is still delivered.
TEST(TcpNetTest, FrameForUnknownEndpointIsDroppedAndConnectionSurvives) {
  uint16_t port = FreePorts(1)[0];
  TcpNet net(TcpNetOptions{
      .peers = {{0, "127.0.0.1:" + std::to_string(port)}},
      .listen_port = port});
  std::atomic<uint64_t> got{0};
  WaitGroup wg;
  wg.Add(1);
  net.RegisterEndpoint(0, [&](const Message& m) {
    got.store(m.seq);
    wg.Done();
  });
  ASSERT_TRUE(net.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Message stray;
  stray.type = MsgType::kClientSubmit;
  stray.seq = 1;
  Message valid = stray;
  valid.seq = 2;
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, /*dest=*/99, stray);
  AppendFrame(&bytes, /*dest=*/0, valid);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));
  ::close(fd);
  net.Stop();
  EXPECT_EQ(got.load(), 2u);
}

// Remote sends charge the real frame: 8 header bytes plus the exact encoded
// message. Local deliveries never touch a socket and charge no bytes.
TEST(TcpNetTest, BytesSentIsFrameSizeForRemoteSends) {
  std::vector<uint16_t> ports = FreePorts(2);
  std::map<NodeId, std::string> peers = {
      {0, "127.0.0.1:" + std::to_string(ports[0])},
      {1, "127.0.0.1:" + std::to_string(ports[1])},
  };
  Metrics sender_metrics;
  TcpNet sender(TcpNetOptions{.peers = peers, .listen_port = ports[0]},
                &sender_metrics);
  TcpNet receiver(TcpNetOptions{.peers = peers, .listen_port = ports[1]});
  WaitGroup wg;
  wg.Add(4);
  sender.RegisterEndpoint(0, [&](const Message&) { wg.Done(); });
  receiver.RegisterEndpoint(1, [&](const Message&) { wg.Done(); });
  ASSERT_TRUE(sender.Start().ok());
  ASSERT_TRUE(receiver.Start().ok());

  int64_t expected = 0;
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MsgType::kCompletionNotice;
    m.from = 0;
    m.participants.assign(static_cast<size_t>(i) + 1, 0);
    m.reads.emplace_back("k" + std::to_string(i), Value{});
    expected += 8 + static_cast<int64_t>(EncodedMessageSize(m));
    sender.Send(1, m);
  }
  Message local;
  local.type = MsgType::kClientSubmit;
  sender.Send(0, local);
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));
  sender.Stop();
  receiver.Stop();
  EXPECT_EQ(sender_metrics.messages_sent.load(), 4);
  EXPECT_EQ(sender_metrics.bytes_sent.load(), expected);
}

// A single-endpoint TcpNet on a free loopback port whose handler appends
// each message's seq to `seqs` (read it only after Stop(), which joins the
// worker) and counts arrivals in `wg`. Tests stop the net before closing
// their raw sockets, so TIME_WAIT lands on the net's side and not on an
// ephemeral client port that TcpClusterTest might later want to bind.
class TcpReceiveTest : public ::testing::Test {
 protected:
  void StartNet(std::vector<NodeId> endpoints, int expected) {
    port_ = FreePorts(1)[0];
    std::map<NodeId, std::string> peers;
    for (NodeId id : endpoints) {
      peers[id] = "127.0.0.1:" + std::to_string(port_);
    }
    net_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = port_});
    wg_.Add(expected);
    for (NodeId id : endpoints) {
      net_->RegisterEndpoint(id, [this, id](const Message& m) {
        {
          MutexLock lock(mu_);
          seqs_[id].push_back(m.seq);
        }
        wg_.Done();
      });
    }
    ASSERT_TRUE(net_->Start().ok());
  }

  bool Arrived() { return wg_.WaitFor(std::chrono::milliseconds(15'000)); }

  std::vector<uint64_t> Seqs(NodeId id) {
    MutexLock lock(mu_);
    return seqs_[id];
  }

  uint16_t port_ = 0;
  std::unique_ptr<TcpNet> net_;
  WaitGroup wg_;
  Mutex mu_;
  std::map<NodeId, std::vector<uint64_t>> seqs_;
};

// Frames cut into one-byte segments are reassembled both before the
// connection is routed (the accepting worker's header read) and after (the
// owner's buffer).
TEST_F(TcpReceiveTest, FrameSentOneBytePerSendIsReassembled) {
  StartNet({0}, 2);
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, 0, SeqMessage(1));
  AppendFrame(&bytes, 0, SeqMessage(2));
  int fd = ConnectRaw(port_);
  for (uint8_t b : bytes) {
    ASSERT_EQ(::send(fd, &b, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(Arrived());
  net_->Stop();
  ::close(fd);
  EXPECT_EQ(Seqs(0), (std::vector<uint64_t>{1, 2}));
}

TEST_F(TcpReceiveTest, ThousandFramesInOneSendArriveInOrder) {
  constexpr uint64_t kFrames = 1000;
  StartNet({0}, kFrames);
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> want;
  for (uint64_t seq = 1; seq <= kFrames; ++seq) {
    AppendFrame(&bytes, 0, SeqMessage(seq));
    want.push_back(seq);
  }
  int fd = ConnectRaw(port_);
  SendAllRaw(fd, bytes);
  ASSERT_TRUE(Arrived());
  net_->Stop();
  ::close(fd);
  EXPECT_EQ(Seqs(0), want);
}

// A frame far larger than a connection's initial receive buffer grows the
// buffer to fit, before routing and after.
TEST_F(TcpReceiveTest, FramesLargerThanTheReceiveBufferAreDelivered) {
  StartNet({0}, 3);
  Message big = SeqMessage(1);
  Value v;
  v.str.assign(200'000, 'x');
  big.reads.emplace_back("k", v);
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, 0, big);
  AppendFrame(&bytes, 0, SeqMessage(2));
  big.seq = 3;
  big.reads[0].second.str.assign(300'000, 'y');
  AppendFrame(&bytes, 0, big);
  int fd = ConnectRaw(port_);
  SendAllRaw(fd, bytes);
  ASSERT_TRUE(Arrived());
  net_->Stop();
  ::close(fd);
  EXPECT_EQ(Seqs(0), (std::vector<uint64_t>{1, 2, 3}));
}

// The accepting worker waits on every unrouted connection at once: a peer
// that connects and never speaks holds up nobody.
TEST_F(TcpReceiveTest, SilentConnectionDoesNotDelayAnotherPeer) {
  StartNet({0}, 1);
  int silent = ConnectRaw(port_);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int fd = ConnectRaw(port_);
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, 0, SeqMessage(7));
  SendAllRaw(fd, bytes);
  ASSERT_TRUE(Arrived());
  net_->Stop();
  ::close(fd);
  ::close(silent);
  EXPECT_EQ(Seqs(0), (std::vector<uint64_t>{7}));
}

// A connection belongs to the endpoint its first frame names; a later
// frame on it for another local endpoint still reaches that endpoint.
TEST_F(TcpReceiveTest, FrameForAnotherLocalEndpointOnRoutedConnection) {
  StartNet({0, 1}, 3);
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, 0, SeqMessage(1));
  AppendFrame(&bytes, 1, SeqMessage(2));
  AppendFrame(&bytes, 0, SeqMessage(3));
  int fd = ConnectRaw(port_);
  SendAllRaw(fd, bytes);
  ASSERT_TRUE(Arrived());
  net_->Stop();
  ::close(fd);
  EXPECT_EQ(Seqs(0), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(Seqs(1), (std::vector<uint64_t>{2}));
}

// No thread per connection: the destination's worker reads its sockets. A
// started TcpNet runs exactly one thread per local endpoint: accepts and
// timers run on the workers too.
TEST_F(TcpReceiveTest, ThreadCountDoesNotGrowWithInboundConnections) {
  constexpr int kConns = 8;
  const size_t before = ThreadsAtRest();
  StartNet({0, 1}, kConns);
  const size_t idle = ThreadsInProcess();
  EXPECT_EQ(idle, before + 2);
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    fds.push_back(ConnectRaw(port_));
    std::vector<uint8_t> bytes;
    AppendFrame(&bytes, i % 2, SeqMessage(static_cast<uint64_t>(i)));
    SendAllRaw(fds.back(), bytes);
  }
  ASSERT_TRUE(Arrived());
  EXPECT_EQ(ThreadsInProcess(), idle);
  net_->Stop();
  for (int fd : fds) ::close(fd);
  EXPECT_EQ(Seqs(0).size() + Seqs(1).size(), static_cast<size_t>(kConns));
}

// A sending TcpNet that hosts the endpoints `senders` and a receiving
// TcpNet that hosts kSink, which records each frame's seq by sender (read
// it with Got after both nets stopped, or once Arrived). The sending net
// counts into metrics_, so net_writes counts only its socket writes.
class TcpCorkTest : public ::testing::Test {
 protected:
  static constexpr NodeId kSink = 9;
  using Handler = std::function<void(NodeId self, const Message& msg)>;

  void Start(const std::vector<NodeId>& senders, int expected,
             Handler handler) {
    const std::vector<uint16_t> ports = FreePorts(2);
    std::map<NodeId, std::string> peers;
    for (NodeId id : senders) {
      peers[id] = "127.0.0.1:" + std::to_string(ports[0]);
    }
    peers[kSink] = "127.0.0.1:" + std::to_string(ports[1]);
    sender_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = ports[0]}, &metrics_);
    sink_ = std::make_unique<TcpNet>(
        TcpNetOptions{.peers = peers, .listen_port = ports[1]});
    for (NodeId id : senders) {
      sender_->RegisterEndpoint(
          id, [handler, id](const Message& m) { handler(id, m); });
    }
    wg_.Add(expected);
    sink_->RegisterEndpoint(kSink, [this](const Message& m) {
      {
        MutexLock lock(mu_);
        got_[m.from].push_back(m.seq);
      }
      wg_.Done();
    });
    ASSERT_TRUE(sink_->Start().ok());
    ASSERT_TRUE(sender_->Start().ok());
  }

  void TearDown() override {
    if (sender_ != nullptr) sender_->Stop();
    if (sink_ != nullptr) sink_->Stop();
  }

  // Sends `seq` from `from` to the sink.
  void SendToSink(NodeId from, uint64_t seq) {
    Message m = SeqMessage(seq);
    m.from = from;
    sender_->Send(kSink, std::move(m));
  }

  // Runs `self`'s handler with `seq` on its worker.
  void Kick(NodeId self, uint64_t seq) {
    Message m = SeqMessage(seq);
    m.from = self;
    sender_->Send(self, std::move(m));
  }

  bool Arrived() { return wg_.WaitFor(std::chrono::milliseconds(15'000)); }

  std::vector<uint64_t> Got(NodeId from) {
    MutexLock lock(mu_);
    return got_[from];
  }

  static std::vector<uint64_t> OneTo(uint64_t n) {
    std::vector<uint64_t> seqs;
    for (uint64_t seq = 1; seq <= n; ++seq) seqs.push_back(seq);
    return seqs;
  }

  Metrics metrics_;
  std::unique_ptr<TcpNet> sender_;
  std::unique_ptr<TcpNet> sink_;
  WaitGroup wg_;
  Mutex mu_;
  std::map<NodeId, std::vector<uint64_t>> got_;
};

// The frames one handler turn sends to a peer leave in one write, in order.
TEST_F(TcpCorkTest, FramesOfOneTurnLeaveInOneWrite) {
  constexpr uint64_t kFrames = 8;
  Start({0}, kFrames, [this](NodeId self, const Message&) {
    for (uint64_t seq = 1; seq <= kFrames; ++seq) SendToSink(self, seq);
  });
  Kick(0, 0);
  ASSERT_TRUE(Arrived());
  sender_->Stop();  // the worker counts its write after the sink has it
  EXPECT_EQ(metrics_.net_writes.load(), 1);
  EXPECT_EQ(Got(0), OneTo(kFrames));
}

// A send from a thread that is no worker of the net is written before Send
// returns, and reaches the parked sink with no turn on the sender.
TEST_F(TcpCorkTest, SendOffTheWorkersLeavesAtOnce) {
  std::atomic<int> turns{0};
  Start({0}, 1, [&turns](NodeId, const Message&) { turns.fetch_add(1); });
  SendToSink(0, 7);
  EXPECT_EQ(metrics_.net_writes.load(), 1);
  ASSERT_TRUE(Arrived());
  EXPECT_EQ(turns.load(), 0);
  EXPECT_EQ(Got(0), (std::vector<uint64_t>{7}));
}

// Corked sends from endpoint 0's turns and sends made for it on a thread
// that is no worker, which write at once, interleave on one connection;
// the sink still sees them in send order.
TEST_F(TcpCorkTest, TurnAndForeignThreadSendsKeepTheirOrder) {
  constexpr uint64_t kRounds = 20;
  Start({0}, 3 * kRounds, [this](NodeId self, const Message& kick) {
    const uint64_t round = kick.seq;
    SendToSink(self, 3 * round + 1);  // corked
    std::thread([&] {
      SendToSink(self, 3 * round + 2);  // written at once, after the above
    }).join();
    SendToSink(self, 3 * round + 3);  // corked until the turn ends
    if (round + 1 < kRounds) Kick(self, round + 1);
  });
  Kick(0, 0);
  ASSERT_TRUE(Arrived());
  EXPECT_EQ(Got(0), OneTo(3 * kRounds));
}

// Stop() shuts the connection while a handler has a frame corked and goes
// on sending: the frames are dropped, and Stop() returns.
TEST_F(TcpCorkTest, StopWithFramesCorkedReturns) {
  WaitGroup corked;
  corked.Add(1);
  std::atomic<bool> stopping{false};
  Start({0}, 0, [&](NodeId self, const Message&) {
    SendToSink(self, 1);
    corked.Done();
    while (!stopping.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    SendToSink(self, 2);
  });
  Kick(0, 0);
  ASSERT_TRUE(corked.WaitFor(std::chrono::milliseconds(15'000)));
  const auto begin = std::chrono::steady_clock::now();
  stopping.store(true);
  sender_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));
  sink_->Stop();
  EXPECT_LE(Got(0).size(), 1u);
}

// Two workers of one TcpNet send bursts to one peer at the same time, so
// their turn-end flushes race on one connection (the combining flush):
// every frame arrives exactly once, in its sender's order. Labelled
// `stress` (tests/CMakeLists.txt).
class TcpNetStressTest : public TcpCorkTest {};

TEST_F(TcpNetStressTest, TwoWorkersBurstToOnePeer) {
  constexpr uint64_t kTurns = 300;
  constexpr uint64_t kPerTurn = 5;
  Start({0, 1}, 2 * kTurns * kPerTurn, [this](NodeId self, const Message& m) {
    for (uint64_t i = 1; i <= kPerTurn; ++i) {
      SendToSink(self, m.seq * kPerTurn + i);
    }
    if (m.seq + 1 < kTurns) Kick(self, m.seq + 1);
  });
  Kick(0, 0);
  Kick(1, 0);
  ASSERT_TRUE(Arrived());
  sender_->Stop();
  sink_->Stop();
  EXPECT_EQ(Got(0), OneTo(kTurns * kPerTurn));
  EXPECT_EQ(Got(1), OneTo(kTurns * kPerTurn));
}

}  // namespace
}  // namespace threev
