#include "threev/durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "threev/common/logging.h"
#include "threev/net/wire.h"

namespace threev {

namespace fs = std::filesystem;

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kUpdate: return "Update";
    case WalRecordType::kVersionSwitch: return "VersionSwitch";
    case WalRecordType::kCounter: return "Counter";
    case WalRecordType::kNcExecute: return "NcExecute";
    case WalRecordType::kNcPrepared: return "NcPrepared";
    case WalRecordType::kNcDecision: return "NcDecision";
    case WalRecordType::kNcRootDecision: return "NcRootDecision";
    case WalRecordType::kGarbageCollect: return "GarbageCollect";
    case WalRecordType::kSeqReserve: return "SeqReserve";
  }
  return "?";
}

std::string WalRecord::ToString() const {
  std::string out = WalRecordTypeName(type);
  out += " v" + std::to_string(version);
  if (txn != 0) out += " txn=" + std::to_string(txn);
  if (!images.empty()) out += " images=" + std::to_string(images.size());
  if (!undo.empty()) out += " undo=" + std::to_string(undo.size());
  return out;
}

uint32_t WalCrc32(const uint8_t* data, size_t size) {
  // Standard CRC-32 (IEEE 802.3), small table built on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

namespace {

void EncodeWalValue(WireWriter& w, const Value& v) {
  w.I64(v.num);
  w.U32(static_cast<uint32_t>(v.ids.size()));
  for (uint64_t id : v.ids) w.U64(id);
  w.Str(v.str);
}

Value DecodeWalValue(WireReader& r) {
  Value v;
  v.num = r.I64();
  uint32_t n = r.U32();
  if (n > (1u << 24)) n = 0;  // malformed length must not over-allocate
  v.ids.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) v.ids.push_back(r.U64());
  v.str = r.Str();
  return v;
}

size_t WalValueSize(const Value& v) {
  return 8 + 4 + 8 * v.ids.size() + 4 + v.str.size();
}

// Exact payload size of EncodeWalPayload's output: staging reserves it in
// one step, so the batch buffer never doubles under a frame.
size_t WalPayloadSize(const WalRecord& rec) {
  size_t n = 1 + 4 + 1 + 4 + 8 + 8 + 1 + 4 + 4;
  for (const auto& img : rec.images) {
    n += 4 + img.key.size() + 4 + WalValueSize(img.value);
  }
  for (const auto& u : rec.undo) {
    n += 4 + u.key.size() + 4 + 1 + WalValueSize(u.prior);
  }
  return n;
}

void EncodeWalPayload(WireWriter& w, const WalRecord& rec) {
  w.U8(static_cast<uint8_t>(rec.type));
  w.U32(rec.version);
  w.Bool(rec.flag);
  w.U32(rec.peer);
  w.U64(rec.txn);
  w.U64(rec.seq);
  w.Bool(rec.failed);
  w.U32(static_cast<uint32_t>(rec.images.size()));
  for (const auto& img : rec.images) {
    w.Str(img.key);
    w.U32(img.version);
    EncodeWalValue(w, img.value);
  }
  w.U32(static_cast<uint32_t>(rec.undo.size()));
  for (const auto& u : rec.undo) {
    w.Str(u.key);
    w.U32(u.version);
    w.Bool(u.created);
    EncodeWalValue(w, u.prior);
  }
}

}  // namespace

std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec) {
  WireWriter w;
  w.Reserve(WalPayloadSize(rec));
  EncodeWalPayload(w, rec);
  return w.Take();
}

Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(r.U8());
  rec.version = r.U32();
  rec.flag = r.Bool();
  rec.peer = r.U32();
  rec.txn = r.U64();
  rec.seq = r.U64();
  rec.failed = r.Bool();
  uint32_t nimages = r.U32();
  if (nimages > (1u << 20)) nimages = 0;
  for (uint32_t i = 0; i < nimages && r.ok(); ++i) {
    WalImage img;
    img.key = r.Str();
    img.version = r.U32();
    img.value = DecodeWalValue(r);
    rec.images.push_back(std::move(img));
  }
  uint32_t nundo = r.U32();
  if (nundo > (1u << 20)) nundo = 0;
  for (uint32_t i = 0; i < nundo && r.ok(); ++i) {
    UndoEntry u;
    u.key = r.Str();
    u.version = r.U32();
    u.created = r.Bool();
    u.prior = DecodeWalValue(r);
    rec.undo.push_back(std::move(u));
  }
  if (!r.ok()) return Status::IoError("truncated wal record");
  if (!r.AtEnd()) return Status::IoError("trailing bytes in wal record");
  return rec;
}

std::string WriteAheadLog::SegmentPath(const std::string& dir, uint64_t seg) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(seg));
  return (fs::path(dir) / name).string();
}

std::vector<uint64_t> WriteAheadLog::ListSegments(const std::string& dir) {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seg = 0;
    if (std::sscanf(name.c_str(), "wal-%llu.log", &seg) == 1) {
      out.push_back(seg);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const WalOptions& options, Metrics* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal dir is empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("create " + options.dir + ": " + ec.message());
  }
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(options, metrics));
  std::vector<uint64_t> segments = ListSegments(options.dir);
  // Never append to an existing segment: its tail may be a torn frame from
  // the previous incarnation, and replay stops at the first torn frame -
  // anything appended after it would be unreachable.
  uint64_t seg = segments.empty() ? 1 : segments.back() + 1;
  Status s = wal->OpenSegment(seg);
  if (!s.ok()) return s;
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  (void)Commit();
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::OpenSegment(uint64_t seg) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = SegmentPath(options_.dir, seg);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  segment_ = seg;
  off_t end = ::lseek(fd_, 0, SEEK_END);
  segment_size_ = end > 0 ? static_cast<size_t>(end) : 0;
  return Status::Ok();
}

Status WriteAheadLog::SyncNow() {
  if (::fsync(fd_) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  if (metrics_ != nullptr) {
    metrics_->wal_fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.tracer != nullptr && options_.tracer->enabled() &&
      options_.now) {
    options_.tracer->Instant(options_.now(), options_.node, TraceOp::kWalFsync,
                             TraceContext{}, 0,
                             static_cast<int64_t>(bytes_since_sync_));
  }
  bytes_since_sync_ = 0;
  return Status::Ok();
}

Status WriteAheadLog::Append(const WalRecord& rec, bool force) {
  if (!failed_.ok()) return failed_;
  // Frame [u32 len][u32 crc][payload], encoded in place at the batch's end;
  // the header is filled in once the payload (and so its CRC) is there.
  const size_t start = batch_.size();
  {
    WireWriter w(&batch_, start);
    w.Reserve(8 + WalPayloadSize(rec));
    w.U32(0);
    w.U32(0);
    EncodeWalPayload(w, rec);
  }
  const size_t frame = batch_.size() - start;
  const uint32_t len = static_cast<uint32_t>(frame - 8);
  const uint32_t crc = WalCrc32(batch_.data() + start + 8, len);
  for (int i = 0; i < 4; ++i) {
    batch_[start + i] = static_cast<uint8_t>(len >> (8 * i));
    batch_[start + 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  segment_size_ += frame;
  bytes_appended_ += frame;
  bytes_since_sync_ += frame;
  if (metrics_ != nullptr) {
    metrics_->wal_records.fetch_add(1, std::memory_order_relaxed);
    metrics_->wal_bytes.fetch_add(static_cast<int64_t>(frame),
                                  std::memory_order_relaxed);
    metrics_->wal_record_bytes.Record(static_cast<int64_t>(frame));
  }
  if (force) {
    Status s = Commit();
    if (!s.ok()) return s;
    // kEveryRecord already synced inside Commit.
    if (options_.fsync == FsyncPolicy::kBatch) {
      s = SyncNow();
      if (!s.ok()) return s;
    }
  }
  if (segment_size_ >= options_.segment_bytes) {
    return RotateSegment();
  }
  return Status::Ok();
}

Status WriteAheadLog::Commit() {
  if (!failed_.ok()) return failed_;
  if (batch_.empty()) return Status::Ok();
  // Recovery reads through the filesystem, so once write(2) returns, a
  // process crash (the common fault) can no longer lose these frames. The
  // fsync policy only governs power loss.
  const uint8_t* p = batch_.data();
  size_t left = batch_.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      // The kernel may have taken part of the batch, and replay stops at
      // the torn frame it left, so nothing may be appended after it.
      failed_ = Status::IoError(std::string("wal write: ") +
                                std::strerror(errno));
      batch_.clear();
      if (metrics_ != nullptr) {
        metrics_->wal_commit_failures.fetch_add(1, std::memory_order_relaxed);
      }
      return failed_;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  batch_.clear();
  if (metrics_ != nullptr) {
    metrics_->wal_commits.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.fsync == FsyncPolicy::kEveryRecord) return SyncNow();
  return Status::Ok();
}

void WriteAheadLog::DiscardStaged() {
  segment_size_ -= batch_.size();
  batch_.clear();
}

Status WriteAheadLog::RotateSegment() {
  Status s = Commit();
  if (!s.ok()) return s;
  if (options_.fsync != FsyncPolicy::kNone && segment_size_ > 0) {
    s = SyncNow();
    if (!s.ok()) return s;
  }
  return OpenSegment(segment_ + 1);
}

Status WriteAheadLog::TruncateBefore(uint64_t seg) {
  for (uint64_t old : ListSegments(options_.dir)) {
    if (old >= seg) break;
    std::error_code ec;
    fs::remove(SegmentPath(options_.dir, old), ec);
    if (ec) {
      return Status::IoError("remove segment " + std::to_string(old) + ": " +
                             ec.message());
    }
  }
  return Status::Ok();
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(const std::string& dir,
                                                      uint64_t from_seg,
                                                      uint64_t* bytes_read) {
  std::vector<WalRecord> out;
  uint64_t bytes = 0;
  for (uint64_t seg : ListSegments(dir)) {
    if (seg < from_seg) continue;
    const std::string path = SegmentPath(dir, seg);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IoError("open " + path + ": " + std::strerror(errno));
    }
    std::vector<uint8_t> payload;
    for (;;) {
      uint8_t header[8];
      size_t n = std::fread(header, 1, sizeof(header), f);
      if (n != sizeof(header)) break;  // clean end or torn header
      uint32_t len = 0, crc = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<uint32_t>(header[i]) << (8 * i);
        crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
      }
      if (len > (64u << 20)) break;  // implausible frame: treat as torn
      payload.resize(len);
      if (std::fread(payload.data(), 1, len, f) != len) break;  // torn tail
      if (WalCrc32(payload.data(), len) != crc) break;  // corrupt frame
      Result<WalRecord> rec = DecodeWalRecord(payload.data(), len);
      if (!rec.ok()) break;  // CRC-valid but undecodable: stop replay here
      bytes += sizeof(header) + len;
      out.push_back(*std::move(rec));
    }
    std::fclose(f);
  }
  if (bytes_read != nullptr) *bytes_read = bytes;
  return out;
}

}  // namespace threev
