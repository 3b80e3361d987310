#include "deployment.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "threev/common/logging.h"

namespace perfbench {

namespace {

// `n` distinct loopback ports that were free a moment ago: all are bound to
// port 0 at once, so the kernel hands out different ones, then released for
// the TcpNets to bind.
std::vector<uint16_t> FreeLoopbackPorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    THREEV_CHECK(fd >= 0) << "socket() failed";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    THREEV_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
                 ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
                     0)
        << "cannot reserve a loopback port";
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace

TcpRouter::TcpRouter(size_t num_nodes, threev::Metrics* metrics,
                     threev::Tracer* tracer) {
  // One TcpNet per database node, plus one shared by the coordinator
  // (endpoint num_nodes) and the client (num_nodes + 1).
  const size_t num_nets = num_nodes + 1;
  std::vector<uint16_t> ports = FreeLoopbackPorts(num_nets);
  std::map<threev::NodeId, std::string> peers;
  for (size_t e = 0; e < num_nodes + 2; ++e) {
    peers[static_cast<threev::NodeId>(e)] =
        "127.0.0.1:" + std::to_string(ports[std::min(e, num_nets - 1)]);
  }
  for (size_t i = 0; i < num_nets; ++i) {
    threev::TcpNetOptions options;
    options.peers = peers;
    options.listen_port = ports[i];
    options.connect_timeout = 2'000'000;
    options.tracer = tracer;
    nets_.push_back(std::make_unique<threev::TcpNet>(options, metrics));
  }
}

threev::Status TcpRouter::Start() {
  for (auto& net : nets_) {
    threev::Status s = net->Start();
    if (!s.ok()) return s;
  }
  return threev::Status::Ok();
}

void TcpRouter::Stop() {
  for (auto& net : nets_) net->Stop();
}

Deployment::Deployment(const DeploymentOptions& options,
                       const std::vector<std::string>& seed_keys) {
  threev::Network* net = nullptr;
  if (options.tcp) {
    tcp_ = std::make_unique<TcpRouter>(kNodes, &metrics_,
                                       options.tracer);
    net = tcp_.get();
  } else {
    threev::ThreadNetOptions net_options;
    net_options.tracer = options.tracer;
    thread_net_ = std::make_unique<threev::ThreadNet>(net_options, &metrics_);
    net = thread_net_.get();
  }
  if (options.tracer != nullptr) {
    probe_ = std::make_unique<ProbeNet>(net, kNodes);
    net = probe_.get();
  }

  threev::ClusterOptions cluster_options;
  cluster_options.num_nodes = kNodes;
  cluster_options.seed = options.seed;
  cluster_options.wal_dir = options.wal_dir;
  cluster_options.fsync = kWalFsync;
  cluster_options.tracer = options.tracer;
  cluster_ = std::make_unique<threev::Cluster>(cluster_options, net, &metrics_);

  for (const std::string& key : seed_keys) {
    size_t at = key.rfind('@');
    THREEV_CHECK(at != std::string::npos) << "key without a home node: " << key;
    size_t node = std::strtoul(key.c_str() + at + 1, nullptr, 10);
    THREEV_CHECK(node < kNodes) << "bad home node in " << key;
    cluster_->node(node).store().Seed(key, threev::Value{}, /*version=*/0);
  }
}

threev::Status Deployment::Start() {
  if (tcp_ != nullptr) return tcp_->Start();
  thread_net_->Start();
  return threev::Status::Ok();
}

void Deployment::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (tcp_ != nullptr) tcp_->Stop();
  if (thread_net_ != nullptr) thread_net_->Stop();
}

}  // namespace perfbench
