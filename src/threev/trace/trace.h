#ifndef THREEV_TRACE_TRACE_H_
#define THREEV_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
#include "threev/trace/trace_context.h"

namespace threev {

// What a trace record describes. One enum for the whole system so a record
// is a fixed-width word; the dump layer owns the presentation names.
enum class TraceOp : uint8_t {
  kClientRequest = 0,  // span: client Submit -> result callback
  kTxn,                // span: root transaction at its home node
  kSubtxn,             // span: one subtransaction execution at a node
  kTwopc,              // span: NC3V prepare -> decision fully acked
  kAdvancement,        // span: coordinator, full 4-phase advancement
  kAdvancePhase,       // span: coordinator, one phase (arg = phase index)
  kQuiescenceWave,     // instant: one R/C wave evaluated (arg = round)
  kVersionSwitch,      // instant: node switched vu (arg = new vu)
  kReadVersionSwitch,  // instant: node switched vr (arg = new vr)
  kGarbageCollect,     // instant: node discarded a version (arg = version)
  kMsgSend,            // instant: transport accepted a message (msg_type set)
  kMsgRecv,            // instant: transport delivered a message
  kWalFsync,           // instant: WAL fsync completed (arg = bytes synced)
  kCheckpoint,         // instant: checkpoint written (arg = bytes)
  kLockWait,           // instant: lock acquisition blocked (arg = micros)
  kCompensation,       // instant: compensating subtransaction issued
  kTask,               // span: generic tool work (bench rows, CLI phases)
};

const char* TraceOpName(TraceOp op);

// Whether a record opens a span, closes one, or stands alone.
enum class TraceKind : uint8_t { kBegin = 0, kEnd, kInstant };

// Decoded, validated snapshot of one ring slot (see Tracer::Snapshot).
struct TraceRecord {
  uint64_t ticket = 0;  // ring sequence number; ties in ts sort by this
  Micros ts = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  NodeId node = 0;  // track: node id, or the coordinator/client endpoint id
  TraceOp op = TraceOp::kTask;
  TraceKind kind = TraceKind::kInstant;
  uint8_t msg_type = 0;  // MsgType for kMsgSend/kMsgRecv, else 0
  int64_t arg = 0;
};

// Per-process lock-free flight recorder: a fixed-size ring of fixed-width
// records, written with relaxed atomics and a per-slot seqlock, so tracing
// can stay on in production without a mutex anywhere near the hot path.
//
// Concurrency model (a per-slot seqlock, see DESIGN.md section 12): every
// cell of a slot is a std::atomic, so concurrent access
// is UB-free and tsan-clean by construction. A writer claims a ticket with
// one fetch_add, marks its slot odd, stores the payload, then publishes the
// even sequence with release order. Snapshot() re-validates each slot's
// sequence around the payload loads and simply skips slots that were mid-
// overwrite - a wrapped ring loses the OLDEST records, never tears a
// surviving one. There is no capability to GUARDED_BY on the hot path; the
// track-name table is cold and takes mu_.
//
// Cost when disabled: Record() is one relaxed load and a branch; the
// intended call-site idiom `if (tracer && tracer->enabled())` keeps even
// argument evaluation off the hot path. Compile-time removal: build with
// -DTHREEV_TRACE_DISABLED to turn enabled() into a constant false that dead-
// codes every instrumentation site.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;  // 64 B/slot -> 4 MiB

  // `capacity` is rounded up to a power of two (ring indexing by mask).
  explicit Tracer(size_t capacity = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Run-time gate, checked (relaxed) by every instrumentation site.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const {
#ifdef THREEV_TRACE_DISABLED
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }

  // Fresh non-zero id for a trace or span. Deterministic (a process-local
  // counter, no ambient randomness) so SimNet runs trace identically.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Starts a new root trace: trace_id == span_id, no parent.
  TraceContext StartTrace() {
    uint64_t id = NewId();
    return TraceContext{id, id, 0};
  }

  // Appends one record. `ts` comes from the caller's Network::Now() (virtual
  // under SimNet) so one dump never mixes clock domains on a track.
  void Record(Micros ts, NodeId node, TraceOp op, TraceKind kind,
              const TraceContext& ctx, uint8_t msg_type = 0, int64_t arg = 0);

  // Convenience span protocol: BeginSpan derives a child context, records
  // the opening edge, and returns the context the caller must hold and pass
  // to EndSpan (and stamp onto outgoing messages in between).
  TraceContext BeginSpan(Micros ts, NodeId node, TraceOp op,
                         const TraceContext& parent, int64_t arg = 0);
  void EndSpan(Micros ts, NodeId node, TraceOp op, const TraceContext& ctx,
               int64_t arg = 0);
  void Instant(Micros ts, NodeId node, TraceOp op, const TraceContext& ctx,
               uint8_t msg_type = 0, int64_t arg = 0);

  // Human name for a track (Chrome "thread_name" metadata); cold path.
  void SetTrackName(NodeId node, const std::string& name);

  // Validated copy of every live slot, unsorted. Safe to call while writers
  // run; slots being overwritten at that instant are skipped.
  std::vector<TraceRecord> Snapshot() const;

  // Records overwritten by ring wrap (lower bound; 0 until the ring laps).
  uint64_t dropped() const;

  // Chrome trace_event / Perfetto JSON ("traceEvents" array form). Spans
  // whose opposite edge fell out of the ring (or has not happened yet) are
  // closed/opened synthetically at the dump's time bounds so the file is
  // always well-formed (see tools/check_trace_json.py). Events are sorted
  // by timestamp, so per-track timestamps are monotone in file order.
  std::string ChromeJson() const;

  // Writes ChromeJson() to `path`; false (with a log line) on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  // One cache line: seq + 7 payload words, all atomic (seqlock protocol).
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 empty; odd in-progress; even = done
    std::atomic<int64_t> ts{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span_id{0};
    std::atomic<uint64_t> meta{0};  // node | op<<32 | kind<<40 | msg<<48
    std::atomic<int64_t> arg{0};
  };

  const size_t mask_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> head_{0};  // next ticket to claim
  Slot* slots_;                    // fixed array, owned

  mutable Mutex mu_;
  std::unordered_map<NodeId, std::string> track_names_ GUARDED_BY(mu_);
};

}  // namespace threev

#endif  // THREEV_TRACE_TRACE_H_
