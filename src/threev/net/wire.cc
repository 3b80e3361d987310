#include "threev/net/wire.h"

#include <algorithm>
#include <cstring>

namespace threev {

bool WireReader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  const uint8_t* p = data_ + pos_;
  v = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
      static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
  pos_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  const uint8_t* p = data_ + pos_;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::string WireReader::Str() {
  uint32_t n = U32();
  if (!Need(n)) return "";
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Value DecodeValue(WireReader& r) {
  Value v;
  v.num = r.I64();
  uint32_t n = r.U32();
  // Allocation bound: each id takes 8 bytes on the wire, so a count the
  // remaining frame cannot hold is malformed - reserve at most what could
  // actually be present, and let the read loop fail on truncation.
  v.ids.reserve(std::min<size_t>(n, r.remaining() / 8));
  for (uint32_t i = 0; i < n && r.ok(); ++i) v.ids.push_back(r.U64());
  v.str = r.Str();
  return v;
}

namespace {

void EncodePlan(WireWriter& w, const SubtxnPlan& plan) {
  w.U32(plan.node);
  w.U32(static_cast<uint32_t>(plan.ops.size()));
  for (const auto& op : plan.ops) {
    w.U8(static_cast<uint8_t>(op.kind));
    w.Str(op.key);
    w.I64(op.arg);
    w.Str(op.payload);
  }
  w.U32(static_cast<uint32_t>(plan.children.size()));
  for (const auto& c : plan.children) EncodePlan(w, c);
}

SubtxnPlan DecodePlan(WireReader& r, int depth = 0) {
  SubtxnPlan plan;
  if (depth > 64) return plan;  // malformed recursion guard
  plan.node = r.U32();
  uint32_t nops = r.U32();
  // Minimum encoded op: kind(1) + key len(4) + arg(8) + payload len(4).
  plan.ops.reserve(std::min<size_t>(nops, r.remaining() / 17));
  for (uint32_t i = 0; i < nops && r.ok(); ++i) {
    Operation op;
    op.kind = static_cast<OpKind>(r.U8());
    op.key = r.Str();
    op.arg = r.I64();
    op.payload = r.Str();
    plan.ops.push_back(std::move(op));
  }
  uint32_t nchildren = r.U32();
  // Minimum encoded child plan: node(4) + nops(4) + nchildren(4).
  plan.children.reserve(std::min<size_t>(nchildren, r.remaining() / 12));
  for (uint32_t i = 0; i < nchildren && r.ok(); ++i) {
    plan.children.push_back(DecodePlan(r, depth + 1));
  }
  return plan;
}

size_t EncodedPlanSize(const SubtxnPlan& plan) {
  size_t n = 4 + 4 + 4;  // node + op count + child count
  for (const auto& op : plan.ops) {
    n += 1 + 4 + op.key.size() + 8 + 4 + op.payload.size();
  }
  for (const auto& c : plan.children) n += EncodedPlanSize(c);
  return n;
}

}  // namespace

size_t EncodedMessageSize(const Message& msg) {
  // 68 fixed header bytes (type..compensation + 24-byte TraceContext) +
  // status_code + status_msg length prefix. TcpNet writes this as the frame
  // length, so it must be exact.
  size_t n = 68 + 1 + 4;
  n += EncodedPlanSize(msg.plan);
  n += 4 + 4 * msg.participants.size();
  n += 4;
  for (const auto& [key, value] : msg.reads) {
    n += 4 + key.size() + EncodedValueSize(value);
  }
  n += 4 + 12 * msg.counters_r.size();
  n += 4 + 12 * msg.counters_c.size();
  n += msg.status_msg.size();
  return n;
}

void EncodeMessageTo(WireWriter& w, const Message& msg) {
  // Exact-size pre-pass: the walk below touches only lengths (no payload
  // bytes), and makes the encode itself a single allocation - or none at
  // all when the buffer is a reused one that has already grown to size.
  w.Reserve(EncodedMessageSize(msg));
  w.U8(static_cast<uint8_t>(msg.type));
  w.U32(msg.from);
  w.U64(msg.txn);
  w.U64(msg.subtxn);
  w.U64(msg.parent_subtxn);
  w.U32(msg.version);
  w.U64(msg.seq);
  w.Bool(msg.flag);
  w.U8(msg.klass);
  w.Bool(msg.compensation);
  w.U64(msg.trace.trace_id);
  w.U64(msg.trace.span_id);
  w.U64(msg.trace.parent_span_id);
  EncodePlan(w, msg.plan);
  w.U32(static_cast<uint32_t>(msg.participants.size()));
  for (NodeId id : msg.participants) w.U32(id);
  w.U32(static_cast<uint32_t>(msg.reads.size()));
  for (const auto& [key, value] : msg.reads) {
    w.Str(key);
    EncodeValue(w, value);
  }
  w.U32(static_cast<uint32_t>(msg.counters_r.size()));
  for (const auto& [node, count] : msg.counters_r) {
    w.U32(node);
    w.I64(count);
  }
  w.U32(static_cast<uint32_t>(msg.counters_c.size()));
  for (const auto& [node, count] : msg.counters_c) {
    w.U32(node);
    w.I64(count);
  }
  w.U8(static_cast<uint8_t>(msg.status_code));
  w.Str(msg.status_msg);
}

void EncodeMessageInto(const Message& msg, std::vector<uint8_t>* out) {
  WireWriter w(out);
  EncodeMessageTo(w, msg);
}

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  std::vector<uint8_t> out;
  EncodeMessageInto(msg, &out);
  return out;
}

Result<Message> DecodeMessage(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  Message msg;
  msg.type = static_cast<MsgType>(r.U8());
  msg.from = r.U32();
  msg.txn = r.U64();
  msg.subtxn = r.U64();
  msg.parent_subtxn = r.U64();
  msg.version = r.U32();
  msg.seq = r.U64();
  msg.flag = r.Bool();
  msg.klass = r.U8();
  msg.compensation = r.Bool();
  msg.trace.trace_id = r.U64();
  msg.trace.span_id = r.U64();
  msg.trace.parent_span_id = r.U64();
  msg.plan = DecodePlan(r);
  uint32_t nparticipants = r.U32();
  msg.participants.reserve(std::min<size_t>(nparticipants, r.remaining() / 4));
  for (uint32_t i = 0; i < nparticipants && r.ok(); ++i) {
    msg.participants.push_back(r.U32());
  }
  uint32_t nreads = r.U32();
  // Minimum encoded read: key len(4) + num(8) + ids len(4) + str len(4).
  msg.reads.reserve(std::min<size_t>(nreads, r.remaining() / 20));
  for (uint32_t i = 0; i < nreads && r.ok(); ++i) {
    std::string key = r.Str();
    msg.reads.emplace_back(std::move(key), DecodeValue(r));
  }
  uint32_t nr = r.U32();
  msg.counters_r.reserve(std::min<size_t>(nr, r.remaining() / 12));
  for (uint32_t i = 0; i < nr && r.ok(); ++i) {
    NodeId node = r.U32();
    int64_t count = r.I64();
    msg.counters_r.emplace_back(node, count);
  }
  uint32_t nc = r.U32();
  msg.counters_c.reserve(std::min<size_t>(nc, r.remaining() / 12));
  for (uint32_t i = 0; i < nc && r.ok(); ++i) {
    NodeId node = r.U32();
    int64_t count = r.I64();
    msg.counters_c.emplace_back(node, count);
  }
  msg.status_code = static_cast<StatusCode>(r.U8());
  msg.status_msg = r.Str();
  if (!r.ok()) return Status::IoError("truncated message");
  if (!r.AtEnd()) return Status::IoError("trailing bytes in message");
  return msg;
}

}  // namespace threev
