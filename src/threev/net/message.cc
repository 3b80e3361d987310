#include "threev/net/message.h"

#include <sstream>

namespace threev {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kSubtxnRequest:
      return "SubtxnRequest";
    case MsgType::kCompletionNotice:
      return "CompletionNotice";
    case MsgType::kStartAdvancement:
      return "StartAdvancement";
    case MsgType::kStartAdvancementAck:
      return "StartAdvancementAck";
    case MsgType::kCounterRead:
      return "CounterRead";
    case MsgType::kCounterReadReply:
      return "CounterReadReply";
    case MsgType::kReadVersionAdvance:
      return "ReadVersionAdvance";
    case MsgType::kReadVersionAdvanceAck:
      return "ReadVersionAdvanceAck";
    case MsgType::kGarbageCollect:
      return "GarbageCollect";
    case MsgType::kGarbageCollectAck:
      return "GarbageCollectAck";
    case MsgType::kPrepare:
      return "Prepare";
    case MsgType::kVote:
      return "Vote";
    case MsgType::kDecision:
      return "Decision";
    case MsgType::kDecisionAck:
      return "DecisionAck";
    case MsgType::kLockCleanup:
      return "LockCleanup";
    case MsgType::kClientSubmit:
      return "ClientSubmit";
    case MsgType::kClientResult:
      return "ClientResult";
    case MsgType::kAdminInspect:
      return "AdminInspect";
    case MsgType::kAdminInspectReply:
      return "AdminInspectReply";
  }
  return "?";
}

std::string Message::ToString() const {
  std::ostringstream os;
  os << MsgTypeName(type) << "{from=" << from;
  if (txn) os << " txn=" << txn;
  if (subtxn) os << " subtxn=" << subtxn;
  os << " v=" << version;
  if (flag) os << " flag";
  os << "}";
  return os.str();
}

}  // namespace threev
