#include "threev/trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "threev/common/logging.h"
#include "threev/net/message.h"

namespace threev {

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kClientRequest:
      return "client_request";
    case TraceOp::kTxn:
      return "txn";
    case TraceOp::kSubtxn:
      return "subtxn";
    case TraceOp::kTwopc:
      return "twopc";
    case TraceOp::kAdvancement:
      return "advancement";
    case TraceOp::kAdvancePhase:
      return "advance_phase";
    case TraceOp::kQuiescenceWave:
      return "quiescence_wave";
    case TraceOp::kVersionSwitch:
      return "version_switch";
    case TraceOp::kReadVersionSwitch:
      return "read_version_switch";
    case TraceOp::kGarbageCollect:
      return "garbage_collect";
    case TraceOp::kMsgSend:
      return "msg_send";
    case TraceOp::kMsgRecv:
      return "msg_recv";
    case TraceOp::kWalFsync:
      return "wal_fsync";
    case TraceOp::kCheckpoint:
      return "checkpoint";
    case TraceOp::kLockWait:
      return "lock_wait";
    case TraceOp::kCompensation:
      return "compensation";
    case TraceOp::kTask:
      return "task";
  }
  return "?";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The four advancement phases get their protocol names in the dump so a
// trace reads like Section 4.3 (arg = AdvanceCoordinator phase index).
const char* AdvancePhaseName(int64_t phase) {
  switch (phase) {
    case 1:
      return "phase1_switch_update";
    case 2:
      return "phase2_phase_out";
    case 3:
      return "phase3_switch_read";
    case 4:
      return "phase4_drain_gc";
    default:
      return "advance_phase";
  }
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : mask_(RoundUpPow2(std::max<size_t>(capacity, 64)) - 1),
      slots_(new Slot[mask_ + 1]) {}

Tracer::~Tracer() { delete[] slots_; }

void Tracer::Record(Micros ts, NodeId node, TraceOp op, TraceKind kind,
                    const TraceContext& ctx, uint8_t msg_type, int64_t arg) {
  if (!enabled()) return;
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Seqlock publish (DESIGN.md section 12): odd marks the overwrite in
  // progress, the release fence orders it before the payload, the final
  // release store publishes. Snapshot() skips any slot whose seq is odd or
  // moved - a lapped writer tears only the record being replaced, which was
  // already the oldest in the ring.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts.store(ts, std::memory_order_relaxed);
  slot.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  slot.span_id.store(ctx.span_id, std::memory_order_relaxed);
  slot.parent_span_id.store(ctx.parent_span_id, std::memory_order_relaxed);
  slot.meta.store(static_cast<uint64_t>(node) |
                      static_cast<uint64_t>(static_cast<uint8_t>(op)) << 32 |
                      static_cast<uint64_t>(static_cast<uint8_t>(kind)) << 40 |
                      static_cast<uint64_t>(msg_type) << 48,
                  std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

TraceContext Tracer::BeginSpan(Micros ts, NodeId node, TraceOp op,
                               const TraceContext& parent, int64_t arg) {
  if (!enabled()) return TraceContext{};
  TraceContext ctx = parent.valid() ? parent.Child(NewId()) : StartTrace();
  Record(ts, node, op, TraceKind::kBegin, ctx, 0, arg);
  return ctx;
}

void Tracer::EndSpan(Micros ts, NodeId node, TraceOp op,
                     const TraceContext& ctx, int64_t arg) {
  if (!ctx.valid()) return;
  Record(ts, node, op, TraceKind::kEnd, ctx, 0, arg);
}

void Tracer::Instant(Micros ts, NodeId node, TraceOp op,
                     const TraceContext& ctx, uint8_t msg_type, int64_t arg) {
  Record(ts, node, op, TraceKind::kInstant, ctx, msg_type, arg);
}

void Tracer::SetTrackName(NodeId node, const std::string& name) {
  MutexLock lock(mu_);
  track_names_[node] = name;
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const size_t live = std::min<uint64_t>(head, mask_ + 1);
  std::vector<TraceRecord> out;
  out.reserve(live);
  for (size_t i = 0; i < mask_ + 1; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1)) continue;  // never written, or mid-overwrite
    TraceRecord rec;
    rec.ticket = s1 / 2 - 1;
    rec.ts = slot.ts.load(std::memory_order_relaxed);
    rec.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    rec.span_id = slot.span_id.load(std::memory_order_relaxed);
    rec.parent_span_id = slot.parent_span_id.load(std::memory_order_relaxed);
    const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    rec.node = static_cast<NodeId>(meta & 0xffffffffu);
    rec.op = static_cast<TraceOp>((meta >> 32) & 0xffu);
    rec.kind = static_cast<TraceKind>((meta >> 40) & 0xffu);
    rec.msg_type = static_cast<uint8_t>((meta >> 48) & 0xffu);
    rec.arg = slot.arg.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
    out.push_back(rec);
  }
  return out;
}

uint64_t Tracer::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  return head > mask_ + 1 ? head - (mask_ + 1) : 0;
}

namespace {

std::string Hex(uint64_t v) {
  char buf[19];
  int n = std::snprintf(buf, sizeof(buf), "0x%llx",
                        static_cast<unsigned long long>(v));
  return std::string(buf, n);
}

// One pre-sorted dump event; serialization is a straight walk afterwards.
struct DumpEvent {
  Micros ts;
  uint64_t order;  // ticket, for a stable sort under equal timestamps
  char ph;         // 'b' / 'e' / 'i'
  NodeId tid;
  std::string name;
  uint64_t id;  // span id for b/e, 0 for instants
  uint64_t trace_id;
  uint64_t parent;
  uint8_t msg_type;
  int64_t arg;
  bool has_arg;
};

void AppendEventJson(std::ostringstream& os, const DumpEvent& e) {
  os << "{\"ph\":\"" << e.ph << "\",\"cat\":\"threev\",\"name\":\"" << e.name
     << "\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":" << e.ts;
  if (e.ph == 'b' || e.ph == 'e') os << ",\"id\":\"" << Hex(e.id) << "\"";
  if (e.ph == 'i') os << ",\"s\":\"t\"";
  os << ",\"args\":{";
  bool first = true;
  auto field = [&](const char* k, const std::string& v) {
    if (!first) os << ",";
    first = false;
    os << "\"" << k << "\":" << v;
  };
  if (e.trace_id) field("trace", "\"" + Hex(e.trace_id) + "\"");
  if (e.parent) field("parent", "\"" + Hex(e.parent) + "\"");
  if (e.msg_type) {
    field("msg", "\"" + std::string(MsgTypeName(
                            static_cast<MsgType>(e.msg_type))) + "\"");
  }
  if (e.has_arg) field("arg", std::to_string(e.arg));
  os << "}}";
}

}  // namespace

std::string Tracer::ChromeJson() const {
  std::vector<TraceRecord> records = Snapshot();
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.ticket < b.ticket;
            });

  Micros min_ts = 0, max_ts = 0;
  if (!records.empty()) {
    min_ts = records.front().ts;
    max_ts = records.back().ts;
  }

  // Span bookkeeping so the emitted file always balances: a begin whose end
  // fell out of the ring (or has not happened yet) gets a synthetic end at
  // the dump horizon; an end whose begin was overwritten gets a synthetic
  // begin at the dump's start. check_trace_json.py enforces this shape.
  struct SpanEdges {
    bool has_begin = false;
    bool has_end = false;
  };
  std::unordered_map<uint64_t, SpanEdges> spans;
  for (const TraceRecord& r : records) {
    if (r.kind == TraceKind::kBegin) spans[r.span_id].has_begin = true;
    if (r.kind == TraceKind::kEnd) spans[r.span_id].has_end = true;
  }

  std::vector<DumpEvent> events;
  events.reserve(records.size() + 16);
  uint64_t synth_order = 0;  // orders synthetic edges around real ones
  for (const TraceRecord& r : records) {
    DumpEvent e;
    e.ts = r.ts;
    e.order = (r.ticket + 1) * 2;
    e.tid = r.node;
    e.id = r.span_id;
    e.trace_id = r.trace_id;
    e.parent = r.parent_span_id;
    e.msg_type = r.msg_type;
    e.arg = r.arg;
    e.has_arg = r.arg != 0;
    e.name = r.op == TraceOp::kAdvancePhase ? AdvancePhaseName(r.arg)
                                            : TraceOpName(r.op);
    switch (r.kind) {
      case TraceKind::kInstant:
        e.ph = 'i';
        e.id = 0;
        break;
      case TraceKind::kBegin:
        e.ph = 'b';
        break;
      case TraceKind::kEnd:
        e.ph = 'e';
        if (!spans[r.span_id].has_begin) {
          DumpEvent synth = e;
          synth.ph = 'b';
          synth.ts = min_ts;
          synth.order = 0;  // before every real event (real orders are >= 2)
          events.push_back(synth);
        }
        break;
    }
    events.push_back(e);
    if (r.kind == TraceKind::kBegin && !spans[r.span_id].has_end) {
      DumpEvent synth = e;
      synth.ph = 'e';
      synth.ts = max_ts;
      synth.order = (records.empty() ? 0 : (records.back().ticket + 2) * 2) +
                    ++synth_order;  // after every real event
      events.push_back(synth);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const DumpEvent& a, const DumpEvent& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
            });

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  {
    MutexLock lock(mu_);
    for (const auto& [tid, name] : track_names_) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name
         << "\"}}";
    }
  }
  for (const DumpEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    AppendEventJson(os, e);
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << dropped() << "}}";
  return os.str();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    THREEV_LOG(kError) << "trace: cannot open " << path;
    return false;
  }
  out << ChromeJson();
  out.flush();
  if (!out) {
    THREEV_LOG(kError) << "trace: write failed for " << path;
    return false;
  }
  return true;
}

}  // namespace threev
