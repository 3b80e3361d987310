// One benchmark deployment: a 3V Cluster on ThreadNet, or on one TcpNet per
// database node plus one for the coordinator and client over loopback, all in
// this process. Optionally wrapped in a ProbeNet for the traced run.
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "probe_net.h"
#include "threev/common/status.h"
#include "threev/core/cluster.h"
#include "threev/metrics/metrics.h"
#include "threev/net/tcp_net.h"
#include "threev/net/thread_net.h"
#include "threev/trace/trace.h"

namespace perfbench {

// Database nodes of every deployment.
constexpr size_t kNodes = 3;
// Flush policy of the WAL, and of the replay probe that times its appends:
// flush to the OS, no fsync. It must be the same on both sides of any
// comparison.
constexpr threev::FsyncPolicy kWalFsync = threev::FsyncPolicy::kNone;

struct DeploymentOptions {
  bool tcp = false;
  // Empty disables the WAL; otherwise node i logs under <wal_dir>/node-<i>.
  std::string wal_dir;
  uint64_t seed = 1;
  // Non-null turns on the library's tracer and the ProbeNet. Unowned.
  threev::Tracer* tracer = nullptr;
};

// Presents the per-endpoint TcpNets as one Network: a message leaves through
// its sender's TcpNet, so every hop between two endpoints crosses a loopback
// socket (coordinator <-> client stays inside their shared TcpNet).
class TcpRouter : public threev::Network {
 public:
  TcpRouter(size_t num_nodes, threev::Metrics* metrics,
            threev::Tracer* tracer);

  void RegisterEndpoint(threev::NodeId id,
                        threev::MessageHandler handler) override {
    NetFor(id).RegisterEndpoint(id, std::move(handler));
  }
  void Send(threev::NodeId to, threev::Message msg) override {
    NetFor(msg.from).Send(to, std::move(msg));
  }
  void ScheduleAfter(threev::Micros delay, std::function<void()> fn) override {
    nets_.back()->ScheduleAfter(delay, std::move(fn));
  }
  threev::Micros Now() const override { return nets_.back()->Now(); }

  threev::Status Start();
  void Stop();

 private:
  threev::TcpNet& NetFor(threev::NodeId id) {
    return *nets_[std::min<size_t>(id, nets_.size() - 1)];
  }

  std::vector<std::unique_ptr<threev::TcpNet>> nets_;
};

class Deployment {
 public:
  // Builds the transport and the cluster and seeds every key of `seed_keys`
  // ("...@<node>") with value 0 at version 0 on its home node. Start() then
  // starts the transport.
  Deployment(const DeploymentOptions& options,
             const std::vector<std::string>& seed_keys);
  ~Deployment() { Stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  threev::Status Start();
  // Stops the transport and joins its threads. Idempotent.
  void Stop();

  threev::Cluster& cluster() { return *cluster_; }
  threev::Metrics& metrics() { return metrics_; }
  ProbeNet* probe() { return probe_.get(); }

 private:
  threev::Metrics metrics_;
  std::unique_ptr<threev::ThreadNet> thread_net_;
  std::unique_ptr<TcpRouter> tcp_;
  std::unique_ptr<ProbeNet> probe_;
  std::unique_ptr<threev::Cluster> cluster_;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
