// Network decorator that times the transport and the endpoint handlers from
// outside the library, at the layer boundaries: every Send is stamped and the
// stamp is matched at the start of the destination handler through a
// per-(from, to) FIFO (channels are FIFO and lose nothing in a healthy run,
// see net/network.h). It wraps the real transport and every registered
// handler; the library code is unchanged.
#ifndef PERFBENCH_PROBE_NET_H_
#define PERFBENCH_PROBE_NET_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "stats.h"
#include "threev/common/mutex.h"
#include "threev/net/network.h"

namespace perfbench {

// Handler classes of a database node, by message type.
enum class NodeWork { kSubmit, kSubtxn, kCompletion, kAdvance, kGc, kOther };
constexpr size_t kNodeWorkKinds = 6;

class ProbeNet : public threev::Network {
 public:
  // Endpoints 0..num_nodes-1 are database nodes, num_nodes the coordinator
  // and num_nodes+1 the client (the Cluster layout).
  ProbeNet(threev::Network* inner, size_t num_nodes);

  ProbeNet(const ProbeNet&) = delete;
  ProbeNet& operator=(const ProbeNet&) = delete;

  void RegisterEndpoint(threev::NodeId id,
                        threev::MessageHandler handler) override;
  void SetEndpointUp(threev::NodeId id, bool up) override {
    inner_->SetEndpointUp(id, up);
  }
  bool EndpointUp(threev::NodeId id) const override {
    return inner_->EndpointUp(id);
  }
  void Send(threev::NodeId to, threev::Message msg) override;
  void ScheduleAfter(threev::Micros delay, std::function<void()> fn) override {
    inner_->ScheduleAfter(delay, std::move(fn));
  }
  threev::Micros Now() const override { return inner_->Now(); }

  // Called from the client's result callback (it runs inside the client's
  // handler): closes the transaction's critical path and books the part of
  // the client-observed latency, submit_ns to result_ns, that no hop covers.
  void OnClientResult(int64_t submit_ns, int64_t result_ns);

  // Zeroes every counter and histogram (start of the measured window).
  void ResetCounters();

  // --- readings -----------------------------------------------------------
  int64_t user_msgs() const { return user_msgs_.load(); }
  int64_t adv_msgs() const { return adv_msgs_.load(); }
  int64_t all_msgs() const { return all_msgs_.load(); }
  // Sum of EncodedMessageSize over every sent message (payload, no frame
  // header), the same figure on every transport.
  int64_t encoded_bytes() const { return encoded_bytes_.load(); }
  const NsHistogram& send_ns() const { return send_ns_; }
  const NsHistogram& deliver_ns() const { return deliver_ns_; }
  const NsHistogram& node_ns(NodeWork w) const {
    return node_ns_[static_cast<size_t>(w)];
  }
  // Handler time of the busiest database node.
  int64_t max_node_busy_ns() const;
  // Means over the transactions whose critical path was closed.
  double mean_latency_us() const;
  double mean_unaccounted_us() const;

 private:
  struct Channel {
    threev::Mutex mu;
    std::deque<int64_t> stamps GUARDED_BY(mu);
  };

  Channel& ChannelFor(threev::NodeId from, threev::NodeId to);
  void Deliver(threev::NodeId self, const threev::MessageHandler& handler,
               const threev::Message& msg);
  // Adds `ns` to the critical path of transaction `trace_id`.
  void AddToPath(uint64_t trace_id, int64_t ns);

  threev::Network* inner_;  // unowned
  const size_t num_nodes_;
  const size_t num_endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [from * n + to]

  std::atomic<int64_t> user_msgs_{0};
  std::atomic<int64_t> adv_msgs_{0};
  std::atomic<int64_t> all_msgs_{0};
  std::atomic<int64_t> encoded_bytes_{0};
  NsHistogram send_ns_;
  NsHistogram deliver_ns_;
  std::array<NsHistogram, kNodeWorkKinds> node_ns_;
  std::vector<std::atomic<int64_t>> busy_ns_;  // per endpoint

  mutable threev::Mutex path_mu_;
  // Critical-path time booked so far per open transaction, keyed by the
  // trace id every hop of the transaction carries.
  std::unordered_map<uint64_t, int64_t> path_ns_ GUARDED_BY(path_mu_);
  int64_t path_txns_ GUARDED_BY(path_mu_) = 0;
  int64_t latency_sum_ns_ GUARDED_BY(path_mu_) = 0;
  int64_t unaccounted_sum_ns_ GUARDED_BY(path_mu_) = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_NET_H_
