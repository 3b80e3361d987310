#include "probe_net.h"

#include <algorithm>
#include <utility>

#include "threev/common/logging.h"
#include "threev/net/wire.h"

namespace perfbench {

using threev::Message;
using threev::MsgType;
using threev::MutexLock;
using threev::NodeId;

namespace {

bool IsUserMsg(MsgType t) {
  switch (t) {
    case MsgType::kSubtxnRequest:
    case MsgType::kCompletionNotice:
    case MsgType::kPrepare:
    case MsgType::kVote:
    case MsgType::kDecision:
    case MsgType::kDecisionAck:
    case MsgType::kLockCleanup:
    case MsgType::kClientSubmit:
    case MsgType::kClientResult:
      return true;
    default:
      return false;
  }
}

bool IsAdvanceMsg(MsgType t) {
  return t >= MsgType::kStartAdvancement && t <= MsgType::kGarbageCollectAck;
}

NodeWork WorkOf(MsgType t) {
  switch (t) {
    case MsgType::kClientSubmit:
      return NodeWork::kSubmit;
    case MsgType::kSubtxnRequest:
      return NodeWork::kSubtxn;
    case MsgType::kCompletionNotice:
      return NodeWork::kCompletion;
    case MsgType::kStartAdvancement:
    case MsgType::kCounterRead:
    case MsgType::kReadVersionAdvance:
      return NodeWork::kAdvance;
    case MsgType::kGarbageCollect:
      return NodeWork::kGc;
    default:
      return NodeWork::kOther;
  }
}

// The handler running on this thread, if it serves a user transaction whose
// critical path has not yet left it.
struct Hop {
  bool open = false;
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
};
thread_local Hop tls_hop;

}  // namespace

ProbeNet::ProbeNet(threev::Network* inner, size_t num_nodes)
    : inner_(inner),
      num_nodes_(num_nodes),
      num_endpoints_(num_nodes + 2),
      busy_ns_(num_nodes + 2) {
  for (size_t i = 0; i < num_endpoints_ * num_endpoints_; ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
}

ProbeNet::Channel& ProbeNet::ChannelFor(NodeId from, NodeId to) {
  THREEV_CHECK(from < num_endpoints_ && to < num_endpoints_)
      << "unexpected endpoint pair " << from << " -> " << to;
  return *channels_[from * num_endpoints_ + to];
}

void ProbeNet::RegisterEndpoint(NodeId id, threev::MessageHandler handler) {
  inner_->RegisterEndpoint(
      id, [this, id, h = std::move(handler)](const Message& msg) {
        Deliver(id, h, msg);
      });
}

void ProbeNet::AddToPath(uint64_t trace_id, int64_t ns) {
  MutexLock lock(path_mu_);
  path_ns_[trace_id] += ns;
}

void ProbeNet::Send(NodeId to, Message msg) {
  const bool user = IsUserMsg(msg.type);
  all_msgs_.fetch_add(1, std::memory_order_relaxed);
  if (user) user_msgs_.fetch_add(1, std::memory_order_relaxed);
  if (IsAdvanceMsg(msg.type)) adv_msgs_.fetch_add(1, std::memory_order_relaxed);
  encoded_bytes_.fetch_add(
      static_cast<int64_t>(threev::EncodedMessageSize(msg)),
      std::memory_order_relaxed);

  const int64_t start = NowNs();
  // The first message a handler sends for its own transaction carries the
  // transaction on: the handler's time up to here is on the critical path.
  // Booked before the send, so it lands before the next hop can close the
  // path.
  const uint64_t trace_id = msg.trace.trace_id;
  if (user && tls_hop.open && trace_id != 0 && trace_id == tls_hop.trace_id) {
    tls_hop.open = false;
    AddToPath(trace_id, start - tls_hop.start_ns);
  }
  {
    // Held across the inner Send so stamps queue in the channel's send order
    // even when two threads send as the same endpoint (the client, the
    // coordinator).
    Channel& ch = ChannelFor(msg.from, to);
    MutexLock lock(ch.mu);
    ch.stamps.push_back(start);
    inner_->Send(to, std::move(msg));
  }
  send_ns_.Record(NowNs() - start);
}

void ProbeNet::Deliver(NodeId self, const threev::MessageHandler& handler,
                       const Message& msg) {
  const int64_t arrive = NowNs();
  int64_t stamp = 0;
  {
    Channel& ch = ChannelFor(msg.from, self);
    MutexLock lock(ch.mu);
    THREEV_CHECK(!ch.stamps.empty())
        << "delivery without a send on " << msg.from << " -> " << self;
    stamp = ch.stamps.front();
    ch.stamps.pop_front();
  }
  deliver_ns_.Record(arrive - stamp);
  const uint64_t trace_id = msg.trace.trace_id;
  const bool user = IsUserMsg(msg.type) && trace_id != 0;
  if (user) AddToPath(trace_id, arrive - stamp);

  tls_hop = Hop{user, trace_id, NowNs()};
  handler(msg);
  const int64_t busy = NowNs() - tls_hop.start_ns;
  tls_hop.open = false;
  busy_ns_[self].fetch_add(busy, std::memory_order_relaxed);
  if (self < num_nodes_) {
    node_ns_[static_cast<size_t>(WorkOf(msg.type))].Record(busy);
  }
}

void ProbeNet::OnClientResult(int64_t submit_ns, int64_t result_ns) {
  const Hop hop = tls_hop;
  tls_hop.open = false;
  if (hop.trace_id == 0) return;
  MutexLock lock(path_mu_);
  int64_t path = result_ns - hop.start_ns;
  auto it = path_ns_.find(hop.trace_id);
  if (it != path_ns_.end()) {
    path += it->second;
    path_ns_.erase(it);
  }
  ++path_txns_;
  latency_sum_ns_ += result_ns - submit_ns;
  unaccounted_sum_ns_ += (result_ns - submit_ns) - path;
}

void ProbeNet::ResetCounters() {
  user_msgs_.store(0);
  adv_msgs_.store(0);
  all_msgs_.store(0);
  encoded_bytes_.store(0);
  send_ns_.Reset();
  deliver_ns_.Reset();
  for (auto& h : node_ns_) h.Reset();
  for (auto& b : busy_ns_) b.store(0);
  MutexLock lock(path_mu_);
  path_txns_ = 0;
  latency_sum_ns_ = 0;
  unaccounted_sum_ns_ = 0;
}

int64_t ProbeNet::max_node_busy_ns() const {
  int64_t best = 0;
  for (size_t i = 0; i < num_nodes_; ++i) best = std::max(best, busy_ns_[i].load());
  return best;
}

double ProbeNet::mean_latency_us() const {
  MutexLock lock(path_mu_);
  return path_txns_ == 0 ? 0.0
                         : static_cast<double>(latency_sum_ns_) / 1e3 /
                               static_cast<double>(path_txns_);
}

double ProbeNet::mean_unaccounted_us() const {
  MutexLock lock(path_mu_);
  return path_txns_ == 0 ? 0.0
                         : static_cast<double>(unaccounted_sum_ns_) / 1e3 /
                               static_cast<double>(path_txns_);
}

}  // namespace perfbench
