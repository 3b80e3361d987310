#ifndef THREEV_NET_MESSAGE_H_
#define THREEV_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "threev/common/ids.h"
#include "threev/common/status.h"
#include "threev/trace/trace_context.h"
#include "threev/txn/plan.h"

namespace threev {

// Every protocol data unit exchanged between endpoints (nodes, the
// advancement coordinator, remote clients). One tagged struct keeps the
// transports generic; unused fields stay empty.
enum class MsgType : uint8_t {
  // --- user transactions (Sections 4.1 / 4.2) ---
  kSubtxnRequest = 0,    // execute a subtransaction (root or descendant)
  kCompletionNotice,     // subtxn terminated: participants + read results

  // --- version advancement (Section 4.3) ---
  kStartAdvancement,     // phase 1: new update version
  kStartAdvancementAck,
  kCounterRead,          // phases 2/4: read one wave of counters
  kCounterReadReply,
  kReadVersionAdvance,   // phase 3: new read version
  kReadVersionAdvanceAck,
  kGarbageCollect,       // phase 4 trailer
  kGarbageCollectAck,

  // --- NC3V / two-phase commit (Section 5) ---
  kPrepare,
  kVote,
  kDecision,             // flag=true commit / false abort
  kDecisionAck,
  kLockCleanup,          // release commute locks after tree completion

  // --- remote client protocol (TcpNet deployments) ---
  kClientSubmit,
  kClientResult,

  // --- protocol introspection (observability, DESIGN.md section 12) ---
  kAdminInspect,       // ask an endpoint for its protocol state
  kAdminInspectReply,  // stat map in `reads`, counter rows in counters_r/c
};

const char* MsgTypeName(MsgType type);

struct Message {
  MsgType type = MsgType::kSubtxnRequest;
  NodeId from = 0;

  TxnId txn = 0;
  SubtxnId subtxn = 0;
  SubtxnId parent_subtxn = 0;
  Version version = 0;
  // Generic sequence: advancement epoch for advancement messages, wave id
  // for counter reads, request id for client submissions.
  uint64_t seq = 0;
  // Generic flag: read_only for kSubtxnRequest; commit/abort for kDecision
  // and kVote.
  bool flag = false;
  uint8_t klass = 0;  // TxnClass of the owning transaction
  // kSubtxnRequest: the subtransaction compensates an aborted one
  // (Section 3.2), so it never injects an abort of its own.
  bool compensation = false;

  // Causal trace context (all-zero when tracing is off). Carried on every
  // message and across the TCP wire so one transaction's or advancement's
  // spans chain across nodes; see src/threev/trace/.
  TraceContext trace;

  SubtxnPlan plan;  // kSubtxnRequest / kClientSubmit

  // kCompletionNotice: every node the finished subtree executed on.
  std::vector<NodeId> participants;
  // Named values returned to the requester: read results on notices and
  // client results, the stat map on kAdminInspectReply.
  std::vector<std::pair<std::string, Value>> reads;
  // kCounterReadReply: R row (peer -> count) and C column (source -> count)
  // for `version` at the replying node.
  std::vector<std::pair<NodeId, int64_t>> counters_r;
  std::vector<std::pair<NodeId, int64_t>> counters_c;

  StatusCode status_code = StatusCode::kOk;  // notice / vote / client result
  std::string status_msg;

  std::string ToString() const;  // one-line debug form
};

}  // namespace threev

#endif  // THREEV_NET_MESSAGE_H_
