#ifndef THREEV_DURABILITY_WAL_H_
#define THREEV_DURABILITY_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "threev/common/ids.h"
#include "threev/common/status.h"
#include "threev/metrics/metrics.h"
#include "threev/storage/versioned_store.h"
#include "threev/trace/trace.h"

namespace threev {

// Typed redo records of the per-node write-ahead log.
//
// The log is *physical* for data (after-images per version copy) and
// *logical* for protocol state (counter deltas, version switches, 2PC
// outcomes). Physical data records make replay idempotent: re-applying an
// after-image is a plain overwrite, so a torn recovery that is retried, or
// a whole log replayed twice, converges to the same store state. Counter
// deltas are not idempotent on their own; replay never overlaps them with
// checkpointed counters because a checkpoint always starts a fresh segment
// (see checkpoint.h).
enum class WalRecordType : uint8_t {
  // After-images written by one well-behaved subtransaction (a straggler
  // dual-write produces one image per touched version copy).
  kUpdate = 1,
  // vu (flag=true) or vr (flag=false) advanced to `version`.
  kVersionSwitch = 2,
  // R (flag=true) or C (flag=false) counter delta: (version, peer) += delta.
  kCounter = 3,
  // NC3V subtransaction executed here: after-images + undo entries + the
  // deferred completion pair (version, peer=source). Kept until the 2PC
  // decision; a recovered node re-enters 2PC with exactly this state.
  kNcExecute = 4,
  // Participant voted yes for `txn` (must be durable before the vote is
  // sent - the prepared state survives reboot).
  kNcPrepared = 5,
  // Participant-side decision applied for `txn` (flag=commit).
  kNcDecision = 6,
  // Root-side decision for `txn` (flag=commit), forced *before* any
  // decision message is sent: presumed abort is sound only if a logged
  // decision is the one possible source of a delivered commit.
  kNcRootDecision = 7,
  // Phase-4 garbage collection at `version` was applied.
  kGarbageCollect = 8,
  // Transaction/subtransaction sequence numbers below `seq` may have been
  // handed out; a restarted node resumes above the reserved block so ids
  // never collide across incarnations.
  kSeqReserve = 9,
};

const char* WalRecordTypeName(WalRecordType type);

// One redo after-image: key(version) := value.
struct WalImage {
  std::string key;
  Version version = 0;
  Value value;

  friend bool operator==(const WalImage& a, const WalImage& b) {
    return a.key == b.key && a.version == b.version && a.value == b.value;
  }
};

struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  Version version = 0;  // switch target / counter row / GC / NC version
  bool flag = false;    // switch: is-vu; counter: is-R; decision: commit
  NodeId peer = 0;      // counter peer / NC source node
  TxnId txn = 0;        // NC records
  uint64_t seq = 0;     // kSeqReserve bound
  bool failed = false;  // kNcExecute: the execution aborted locally
  std::vector<WalImage> images;  // kUpdate / kNcExecute
  std::vector<UndoEntry> undo;   // kNcExecute

  std::string ToString() const;
};

// Frame codec (exposed for fuzzing): payload is the wire encoding of one
// record; a frame is [u32 length][u32 crc32(payload)][payload].
std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec);
Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size);

uint32_t WalCrc32(const uint8_t* data, size_t size);

// When to force the OS to persist committed frames.
enum class FsyncPolicy : uint8_t {
  kNone = 0,         // hand commits to the OS only (process-crash durable)
  kBatch = 1,        // fsync at forced records (2PC) and rotation
  kEveryRecord = 2,  // fsync after every commit
};

struct WalOptions {
  std::string dir;  // segment files live here ("wal-<seq>.log")
  FsyncPolicy fsync = FsyncPolicy::kNone;
  size_t segment_bytes = 4u << 20;  // rotate past this size
  // Observability (DESIGN.md section 12): kWalFsync instants land on
  // `node`'s track with timestamps from `now`, so the trace stays in the
  // owning node's clock domain (virtual under SimNet). Optional.
  Tracer* tracer = nullptr;
  NodeId node = 0;
  std::function<Micros()> now;
};

// Append-only segmented redo log for one node, with group commit.
//
// Append encodes a CRC frame into an in-memory batch; Commit hands the
// whole batch to the OS with one write(2) on an O_APPEND descriptor. Staged
// frames are invisible to ReadAll, and lost in a process crash, until they
// are committed, so the owner must commit before it externalizes anything
// that depends on them: Node commits before every message it sends and at
// the end of every handler and timer callback (DESIGN.md section 9). A
// failed write is fail-stop: the batch is dropped, and every later Append
// or Commit returns the same error. Not thread-safe: only the owning
// Node's thread stages and commits.
class WriteAheadLog {
 public:
  // Creates `options.dir` if needed and starts a segment after the highest
  // existing one (never appends behind a possibly-torn tail).
  static Result<std::unique_ptr<WriteAheadLog>> Open(const WalOptions& options,
                                                     Metrics* metrics = nullptr);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Stages one CRC-framed record in the batch (no system call unless the
  // segment fills and rotates). `force` commits the batch at once and, under
  // kBatch, fsyncs it: 2PC prepare/decision records must hit the platter
  // before the message that depends on them.
  Status Append(const WalRecord& rec, bool force = false);

  // Writes every staged frame with one write(2), then fsyncs under
  // kEveryRecord. No-op when nothing is staged.
  Status Commit();

  // Drops every staged frame unwritten, as a process crash would. A halted
  // node's log calls this so that its destructor commits nothing.
  void DiscardStaged();

  // Commits, then closes the current segment and starts the next one
  // (checkpoint entry).
  Status RotateSegment();

  // Deletes segments with sequence < `seg` (the checkpoint covers them).
  Status TruncateBefore(uint64_t seg);

  uint64_t current_segment() const { return segment_; }
  uint64_t bytes_appended() const { return bytes_appended_; }

  // Reads every record of every segment >= from_seg, in order. A torn or
  // corrupt frame ends that segment's replay cleanly (the tail was never
  // acknowledged); `bytes_read` reports how much log was scanned.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& dir,
                                                uint64_t from_seg,
                                                uint64_t* bytes_read = nullptr);

  // Existing segment sequence numbers in `dir`, ascending.
  static std::vector<uint64_t> ListSegments(const std::string& dir);

  static std::string SegmentPath(const std::string& dir, uint64_t seg);

 private:
  WriteAheadLog(const WalOptions& options, Metrics* metrics)
      : options_(options), metrics_(metrics) {}

  Status OpenSegment(uint64_t seg);
  Status SyncNow();

  WalOptions options_;
  Metrics* metrics_;  // unowned, may be null
  int fd_ = -1;
  std::vector<uint8_t> batch_;  // staged frames, reused across commits
  Status failed_;               // first write error; sticky
  uint64_t segment_ = 0;
  size_t segment_size_ = 0;  // committed plus staged bytes
  uint64_t bytes_appended_ = 0;
  uint64_t bytes_since_sync_ = 0;  // kWalFsync instant arg
};

}  // namespace threev

#endif  // THREEV_DURABILITY_WAL_H_
