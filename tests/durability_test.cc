// Durability subsystem: WAL framing and replay, checkpoint files, and the
// recovery path that rebuilds node state from checkpoint + log.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "threev/core/cluster.h"
#include "threev/core/counters.h"
#include "threev/durability/checkpoint.h"
#include "threev/durability/recovery.h"
#include "threev/durability/wal.h"
#include "threev/net/sim_net.h"
#include "threev/storage/versioned_store.h"

namespace threev {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory.
std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("threev_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

WalRecord UpdateRecord(const std::string& key, Version v, int64_t num,
                       TxnId txn = 7) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.version = v;
  rec.txn = txn;
  WalImage img;
  img.key = key;
  img.version = v;
  img.value.num = num;
  rec.images.push_back(std::move(img));
  return rec;
}

TEST(WalCodecTest, RecordRoundTripsAllFields) {
  WalRecord rec;
  rec.type = WalRecordType::kNcExecute;
  rec.version = 3;
  rec.flag = true;
  rec.peer = 2;
  rec.txn = (uint64_t{5} << 40) | 123;
  rec.seq = 4096;
  rec.failed = true;
  WalImage img;
  img.key = "acct@1";
  img.version = 3;
  img.value.num = -42;
  img.value.ids = {9, 8, 7};
  img.value.str = "s";
  rec.images.push_back(img);
  UndoEntry undo;
  undo.key = "acct@1";
  undo.version = 3;
  undo.created = true;
  undo.prior.num = 1;
  rec.undo.push_back(undo);

  std::vector<uint8_t> buf = EncodeWalRecord(rec);
  Result<WalRecord> back = DecodeWalRecord(buf.data(), buf.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(EncodeWalRecord(*back), buf);
  EXPECT_EQ(back->type, rec.type);
  EXPECT_EQ(back->txn, rec.txn);
  EXPECT_TRUE(back->failed);
  ASSERT_EQ(back->images.size(), 1u);
  EXPECT_EQ(back->images[0], rec.images[0]);
  ASSERT_EQ(back->undo.size(), 1u);
  EXPECT_EQ(back->undo[0].prior.num, 1);
}

// Lowercase hex of `bytes`, for comparing against a pinned encoding.
std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Value PinValue(int64_t num, std::vector<uint64_t> ids, std::string str) {
  Value v;
  v.num = num;
  v.ids = std::move(ids);
  v.str = std::move(str);
  return v;
}

// The on-disk formats are pinned byte for byte: a round trip cannot see a
// change made to the encoder and the decoder together, and such a change
// makes every existing log and checkpoint unreadable.
TEST(WalCodecTest, UpdateRecordBytesArePinned) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.version = 3;
  rec.txn = (uint64_t{2} << 40) | 17;
  rec.images.push_back(
      WalImage{"acct@1", 3, PinValue(-1234, {7, uint64_t{1} << 33}, "memo")});
  rec.images.push_back(WalImage{"acct@1", 4, PinValue(5, {}, "")});
  EXPECT_EQ(Hex(EncodeWalRecord(rec)),
            "0103000000000000000011000000000200000000000000000000000200000006"
            "000000616363744031030000002efbffffffffffff0200000007000000000000"
            "000000000002000000040000006d656d6f060000006163637440310400000005"
            "00000000000000000000000000000000000000");
}

TEST(WalCodecTest, NcExecuteRecordBytesArePinned) {
  WalRecord rec;
  rec.type = WalRecordType::kNcExecute;
  rec.version = 2;
  rec.peer = 1;
  rec.txn = (uint64_t{1} << 40) | 9;
  rec.images.push_back(WalImage{"doc", 2, PinValue(0, {}, "v1")});
  UndoEntry prior;
  prior.key = "doc";
  prior.version = 2;
  prior.prior = PinValue(9, {3}, "old");
  rec.undo.push_back(prior);
  UndoEntry created;
  created.key = "new";
  created.version = 2;
  created.created = true;
  rec.undo.push_back(created);
  EXPECT_EQ(Hex(EncodeWalRecord(rec)),
            "0402000000000100000009000000000100000000000000000000000100000003"
            "000000646f630200000000000000000000000000000002000000763102000000"
            "03000000646f6302000000000900000000000000010000000300000000000000"
            "030000006f6c64030000006e6577020000000100000000000000000000000000"
            "000000");
}

TEST(CheckpointTest, FileBytesArePinned) {
  const std::string dir = TestDir("ckpt_pinned");
  CheckpointData ck;
  ck.vu = 3;
  ck.vr = 2;
  ck.seq_floor = 8192;
  ck.wal_segment = 5;
  ck.store.push_back(WalImage{"a@0", 2, PinValue(17, {4, 5}, "x")});
  ck.store.push_back(WalImage{"b@1", 3, PinValue(-1, {}, "")});
  CheckpointData::CounterRow row;
  row.version = 2;
  row.r = {1, 2, 3};
  row.c = {3, 2, 1};
  ck.counters.push_back(row);
  ASSERT_TRUE(WriteCheckpointFile(dir, ck).ok());

  const fs::path path = fs::path(dir) / "checkpoint-00000005.ckpt";
  std::vector<uint8_t> bytes(fs::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  EXPECT_EQ(Hex(bytes),
            "434b563303000000020000000020000000000000050000000000000002000000"
            "0300000061403002000000110000000000000002000000040000000000000005"
            "0000000000000001000000780300000062403103000000ffffffffffffffff00"
            "0000000000000001000000020000000300000001000000000000000200000000"
            "0000000300000000000000030000000300000000000000020000000000000001"
            "00000000000000103fe24e");
}

TEST(WalTest, AppendThenReadAllInOrder) {
  const std::string dir = TestDir("wal_append");
  WalOptions opts;
  opts.dir = dir;
  auto wal = WriteAheadLog::Open(opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, i)).ok());
  }
  ASSERT_TRUE((*wal)->Commit().ok());
  uint64_t bytes = 0;
  auto records = WriteAheadLog::ReadAll(dir, 1, &bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ((*records)[i].images[0].value.num, i);
  }
  EXPECT_EQ(bytes, (*wal)->bytes_appended());
}

TEST(WalTest, TornTailEndsReplayCleanly) {
  const std::string dir = TestDir("wal_torn");
  WalOptions opts;
  opts.dir = dir;
  {
    auto wal = WriteAheadLog::Open(opts);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, i)).ok());
    }
  }
  // Simulate a crash mid-append: a frame header promising more payload
  // than the file holds.
  std::FILE* f = std::fopen(
      WriteAheadLog::SegmentPath(dir, 1).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint8_t torn[8] = {0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4};
  ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
  std::fclose(f);

  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 5u) << "torn tail must not abort recovery";
}

TEST(WalTest, CorruptFrameStopsSegmentReplay) {
  const std::string dir = TestDir("wal_corrupt");
  WalOptions opts;
  opts.dir = dir;
  {
    auto wal = WriteAheadLog::Open(opts);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, i)).ok());
    }
  }
  // Flip one payload byte in the middle of the segment: replay keeps the
  // prefix and discards everything from the corrupt frame on.
  const std::string path = WriteAheadLog::SegmentPath(dir, 1);
  auto size = fs::file_size(path);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  EXPECT_LT(records->size(), 5u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].images[0].value.num, static_cast<int64_t>(i));
  }
}

TEST(WalTest, RotationAndTruncation) {
  const std::string dir = TestDir("wal_rotate");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_bytes = 128;  // force frequent rotation
  auto wal = WriteAheadLog::Open(opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*wal)->Append(UpdateRecord("key", 1, i)).ok());
  }
  std::vector<uint64_t> segs = WriteAheadLog::ListSegments(dir);
  ASSERT_GT(segs.size(), 2u);
  uint64_t cut = segs[segs.size() / 2];

  auto all = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 30u);
  auto tail = WriteAheadLog::ReadAll(dir, cut);
  ASSERT_TRUE(tail.ok());

  ASSERT_TRUE((*wal)->TruncateBefore(cut).ok());
  EXPECT_EQ(WriteAheadLog::ListSegments(dir).front(), cut);
  auto after = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(after.ok());
  // Truncation only removed what the cut no longer needs.
  EXPECT_EQ(after->size(), tail->size());
}

TEST(WalTest, ReopenNeverAppendsBehindATornTail) {
  const std::string dir = TestDir("wal_reopen");
  WalOptions opts;
  opts.dir = dir;
  uint64_t first_seg;
  {
    auto wal = WriteAheadLog::Open(opts);
    ASSERT_TRUE(wal.ok());
    first_seg = (*wal)->current_segment();
    ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 1)).ok());
  }
  // Torn frame at the tail of the first incarnation's segment.
  std::FILE* f = std::fopen(
      WriteAheadLog::SegmentPath(dir, first_seg).c_str(), "ab");
  const uint8_t garbage[3] = {0xde, 0xad, 0xbe};
  ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), f), sizeof(garbage));
  std::fclose(f);

  auto wal2 = WriteAheadLog::Open(opts);
  ASSERT_TRUE(wal2.ok());
  EXPECT_GT((*wal2)->current_segment(), first_seg)
      << "appending behind a torn tail would make new records unreachable";
  ASSERT_TRUE((*wal2)->Append(UpdateRecord("k", 1, 2)).ok());
  ASSERT_TRUE((*wal2)->Commit().ok());

  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].images[0].value.num, 2);
}

TEST(WalTest, StagedFramesInvisibleUntilCommit) {
  const std::string dir = TestDir("wal_staged");
  Metrics metrics;
  WalOptions opts;
  opts.dir = dir;
  auto wal = WriteAheadLog::Open(opts, &metrics);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, i)).ok());
  }
  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty()) << "staged frames reached the file";
  EXPECT_EQ(metrics.wal_records.load(), 3);
  EXPECT_EQ(metrics.wal_commits.load(), 0);

  ASSERT_TRUE((*wal)->Commit().ok());
  records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].images[0].value.num, 2);
  // Nothing staged: no write.
  ASSERT_TRUE((*wal)->Commit().ok());
  EXPECT_EQ(metrics.wal_commits.load(), 1);
}

TEST(WalTest, OneCommitOfManyRecordsIsOneWrite) {
  const std::string dir = TestDir("wal_group");
  Metrics metrics;
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kEveryRecord;
  auto wal = WriteAheadLog::Open(opts, &metrics);
  ASSERT_TRUE(wal.ok());
  constexpr int kRecords = 25;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, i)).ok());
  }
  EXPECT_EQ(fs::file_size(WriteAheadLog::SegmentPath(dir, 1)), 0u);
  ASSERT_TRUE((*wal)->Commit().ok());
  EXPECT_EQ(metrics.wal_commits.load(), 1);
  EXPECT_EQ(metrics.wal_fsyncs.load(), 1) << "kEveryRecord syncs per commit";
  EXPECT_EQ(fs::file_size(WriteAheadLog::SegmentPath(dir, 1)),
            (*wal)->bytes_appended());
  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), static_cast<size_t>(kRecords));
}

TEST(WalTest, ForcedRecordUnderBatchCommitsAndSyncsAtOnce) {
  const std::string dir = TestDir("wal_forced");
  Metrics metrics;
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kBatch;
  auto wal = WriteAheadLog::Open(opts, &metrics);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 1)).ok());
  ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 2)).ok());
  EXPECT_EQ(metrics.wal_fsyncs.load(), 0);
  WalRecord prepared;
  prepared.type = WalRecordType::kNcPrepared;
  prepared.txn = 9;
  ASSERT_TRUE((*wal)->Append(prepared, /*force=*/true).ok());
  EXPECT_EQ(metrics.wal_commits.load(), 1);
  EXPECT_EQ(metrics.wal_fsyncs.load(), 1);
  // The forced record carried the unforced ones staged before it.
  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].type, WalRecordType::kNcPrepared);
}

TEST(WalTest, RotationCommitsBeforeOpeningNextSegment) {
  const std::string dir = TestDir("wal_rotate_commit");
  Metrics metrics;
  WalOptions opts;
  opts.dir = dir;
  auto wal = WriteAheadLog::Open(opts, &metrics);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 1)).ok());
  ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 2)).ok());
  ASSERT_TRUE((*wal)->RotateSegment().ok());
  EXPECT_EQ((*wal)->current_segment(), 2u);
  EXPECT_EQ(metrics.wal_commits.load(), 1);
  auto first = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 2u) << "staged frames must land in the old segment";
  ASSERT_TRUE((*wal)->Append(UpdateRecord("k", 1, 3)).ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  EXPECT_EQ(WriteAheadLog::ReadAll(dir, 2)->size(), 1u);
  EXPECT_EQ(fs::file_size(WriteAheadLog::SegmentPath(dir, 1)) +
                fs::file_size(WriteAheadLog::SegmentPath(dir, 2)),
            (*wal)->bytes_appended());
}

TEST(CheckpointTest, RoundTrip) {
  const std::string dir = TestDir("ckpt_roundtrip");
  CheckpointData ck;
  ck.vu = 4;
  ck.vr = 3;
  ck.seq_floor = 8192;
  ck.wal_segment = 6;
  WalImage img;
  img.key = "a@0";
  img.version = 3;
  img.value.num = 17;
  ck.store.push_back(img);
  CheckpointData::CounterRow row;
  row.version = 4;
  row.r = {1, 2, 3};
  row.c = {4, 5, 6};
  ck.counters.push_back(row);

  ASSERT_TRUE(WriteCheckpointFile(dir, ck).ok());
  auto back = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->vu, 4u);
  EXPECT_EQ(back->vr, 3u);
  EXPECT_EQ(back->seq_floor, 8192u);
  EXPECT_EQ(back->wal_segment, 6u);
  ASSERT_EQ(back->store.size(), 1u);
  EXPECT_EQ(back->store[0], img);
  ASSERT_EQ(back->counters.size(), 1u);
  EXPECT_EQ(back->counters[0].r, row.r);
  EXPECT_EQ(back->counters[0].c, row.c);
}

TEST(CheckpointTest, CorruptLatestFallsBackToOlder) {
  const std::string dir = TestDir("ckpt_fallback");
  CheckpointData old_ck;
  old_ck.vu = 2;
  old_ck.vr = 1;
  old_ck.wal_segment = 3;
  ASSERT_TRUE(WriteCheckpointFile(dir, old_ck).ok());

  CheckpointData new_ck = old_ck;
  new_ck.vu = 3;
  new_ck.wal_segment = 9;
  ASSERT_TRUE(WriteCheckpointFile(dir, new_ck).ok());
  // Writing the newer checkpoint superseded (deleted) the older one;
  // restore it to model a crash between write and cleanup, then corrupt
  // the newer file.
  ASSERT_TRUE(WriteCheckpointFile(dir, old_ck).ok());
  std::string latest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().string();
    if (name.find("00000009") != std::string::npos) latest = name;
  }
  ASSERT_FALSE(latest.empty());
  std::FILE* f = std::fopen(latest.c_str(), "rb+");
  std::fseek(f, 10, SEEK_SET);
  std::fputc(0x5a, f);
  std::fclose(f);

  auto back = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(back.ok()) << "corrupt checkpoint must fall back, not fail";
  EXPECT_EQ(back->vu, 2u);
  EXPECT_EQ(back->wal_segment, 3u);
}

TEST(RecoveryTest, ReplaySameLogTwiceYieldsIdenticalState) {
  const std::string dir = TestDir("recovery_idempotent");
  {
    WalOptions opts;
    opts.dir = dir;
    auto wal = WriteAheadLog::Open(opts);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(UpdateRecord("x@0", 1, 10)).ok());
    ASSERT_TRUE((*wal)->Append(UpdateRecord("y@0", 1, 20)).ok());
    WalRecord sw;
    sw.type = WalRecordType::kVersionSwitch;
    sw.version = 2;
    sw.flag = true;
    ASSERT_TRUE((*wal)->Append(sw).ok());
    WalRecord cnt;
    cnt.type = WalRecordType::kCounter;
    cnt.version = 2;
    cnt.flag = true;
    cnt.peer = 1;
    ASSERT_TRUE((*wal)->Append(cnt).ok());
    ASSERT_TRUE((*wal)->Append(UpdateRecord("x@0", 2, 15)).ok());
    WalRecord seq;
    seq.type = WalRecordType::kSeqReserve;
    seq.seq = 4096;
    ASSERT_TRUE((*wal)->Append(seq).ok());
  }

  auto recover = [&dir](VersionedStore* store, CounterTable* counters) {
    auto state = RecoverNodeState(dir, store, counters);
    EXPECT_TRUE(state.ok());
    return *state;
  };
  VersionedStore s1, s2;
  CounterTable c1(3), c2(3);
  RecoveredState r1 = recover(&s1, &c1);
  RecoveredState r2 = recover(&s2, &c2);

  EXPECT_EQ(r1.vu, 2u);
  EXPECT_EQ(r1.vr, 0u);
  EXPECT_EQ(r1.seq_floor, 4096u);
  EXPECT_EQ(r1.vu, r2.vu);
  EXPECT_EQ(r1.seq_floor, r2.seq_floor);
  EXPECT_EQ(s1.DumpAll(), s2.DumpAll());
  EXPECT_EQ(c1.SnapshotR(2), c2.SnapshotR(2));
  EXPECT_EQ(c1.R(2, 1), 1);

  // Physical after-images are individually idempotent: re-applying the
  // whole image stream on top of an already-recovered store is a no-op.
  auto records = WriteAheadLog::ReadAll(dir, 1);
  ASSERT_TRUE(records.ok());
  RecoveredState scratch;
  CounterTable dummy(3);
  for (const auto& rec : *records) {
    if (rec.type == WalRecordType::kUpdate) {
      ApplyWalRecord(rec, &s1, &dummy, &scratch);
    }
  }
  EXPECT_EQ(s1.DumpAll(), s2.DumpAll());
}

// A checkpoint taken between two GCs, while some records hold a second
// copy and others have sat untouched through several GCs, plus a WAL tail
// that repeats one kGarbageCollect and carries a stale one: recovery must
// rebuild exactly the live store, labels included.
TEST(RecoveryTest, CheckpointBetweenGcsAndRepeatedGcTailMatchLiveStore) {
  const std::string dir = TestDir("recovery_lazy_gc");
  VersionedStore live;
  for (int i = 0; i < 40; ++i) {
    Value v;
    v.num = i;
    live.Seed("k" + std::to_string(i), v, 0);
  }
  // Round r writes keys r..r+2 at version r + 1 (a second copy on each),
  // then collects version r. Keys 9 and up are never written.
  auto write_round = [&live](Version r, WriteAheadLog* wal) {
    for (int i = 0; i < 3; ++i) {
      const std::string key = "k" + std::to_string(r + i);
      std::vector<std::pair<Version, Value>> images;
      ASSERT_TRUE(live.Update(key, r + 1, OpAdd(key, 10), &images).ok());
      if (wal == nullptr) continue;
      WalRecord rec;
      rec.type = WalRecordType::kUpdate;
      rec.version = r + 1;
      for (auto& [v, value] : images) {
        rec.images.push_back(WalImage{key, v, std::move(value)});
      }
      ASSERT_TRUE(wal->Append(rec).ok());
    }
  };
  auto collect = [&live](Version vr_new, WriteAheadLog* wal) {
    live.GarbageCollect(vr_new);
    WalRecord rec;
    rec.type = WalRecordType::kGarbageCollect;
    rec.version = vr_new;
    ASSERT_TRUE(wal->Append(rec).ok());
  };

  WalOptions opts;
  opts.dir = dir;
  auto wal = WriteAheadLog::Open(opts);
  ASSERT_TRUE(wal.ok());
  for (Version r = 1; r <= 3; ++r) {
    write_round(r, nullptr);
    live.GarbageCollect(r);
  }
  write_round(4, nullptr);  // checkpointed with second copies at version 5

  CheckpointData ck;
  ck.vu = 5;
  ck.vr = 3;
  ck.wal_segment = (*wal)->current_segment();
  for (auto& [key, version, value] : live.DumpAll()) {
    ck.store.push_back(WalImage{key, version, value});
  }
  ASSERT_TRUE(WriteCheckpointFile(dir, ck).ok());

  collect(4, wal->get());
  write_round(5, wal->get());
  collect(5, wal->get());
  collect(5, wal->get());  // retransmitted
  collect(3, wal->get());  // stale
  write_round(6, wal->get());
  wal->reset();

  VersionedStore recovered;
  CounterTable counters(1);
  auto state = RecoverNodeState(dir, &recovered, &counters);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->checkpoint_images, ck.store.size());
  EXPECT_EQ(recovered.DumpAll(), live.DumpAll());
  EXPECT_EQ(recovered.VersionsOf("k30"), (std::vector<Version>{5}));
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (Version v = 0; v <= 8; ++v) {
      Result<Value> want = live.Read(key, v);
      Result<Value> got = recovered.Read(key, v);
      ASSERT_EQ(got.ok(), want.ok()) << key << " v" << v;
      if (got.ok()) {
        EXPECT_EQ(*got, *want) << key << " v" << v;
      }
    }
  }
}

TEST(RecoveryTest, EmptyDirRecoversToInitialState) {
  const std::string dir = TestDir("recovery_empty");
  VersionedStore store;
  CounterTable counters(2);
  auto state = RecoverNodeState(dir, &store, &counters);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->vu, 1u);
  EXPECT_EQ(state->vr, 0u);
  EXPECT_EQ(state->seq_floor, 1u);
  EXPECT_EQ(store.KeyCount(), 0u);
  EXPECT_TRUE(state->in_doubt.empty());
}

// End-to-end: a single-node cluster runs traffic, checkpoints (which
// truncates the log), is killed and restarted, and the recovered store
// serves every acknowledged write.
TEST(RecoveryTest, CheckpointRestartRoundTrip) {
  const std::string dir = TestDir("recovery_cluster");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5}, &metrics);
  ClusterOptions options;
  options.num_nodes = 1;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);

  size_t done = 0;
  for (int i = 0; i < 10; ++i) {
    cluster.Submit(0, TxnBuilder(0).Add("acct", 5).Build(),
                   [&done](const TxnResult& r) {
                     EXPECT_TRUE(r.status.ok());
                     ++done;
                   });
  }
  net.loop().RunUntil([&] { return done == 10; });

  ASSERT_TRUE(cluster.CheckpointAll().ok());
  uint64_t ckpt_seg = cluster.node(0).wal()->current_segment();
  EXPECT_GE(WriteAheadLog::ListSegments(dir + "/node-0").front(), ckpt_seg)
      << "checkpoint must truncate covered segments";
  EXPECT_EQ(metrics.checkpoints_written.load(), 1);

  // A couple more (logged but not checkpointed) writes, then crash.
  done = 0;
  for (int i = 0; i < 3; ++i) {
    cluster.Submit(0, TxnBuilder(0).Add("acct", 1).Build(),
                   [&done](const TxnResult&) { ++done; });
  }
  net.loop().RunUntil([&] { return done == 3; });
  cluster.KillNode(0);
  cluster.RestartNode(0);

  EXPECT_EQ(metrics.recoveries.load(), 2);  // initial open + restart
  Result<Value> v = cluster.node(0).store().Read("acct", 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->num, 53);

  // The restarted node is fully operational.
  done = 0;
  cluster.Submit(0, TxnBuilder(0).Add("acct", 7).Build(),
                 [&done](const TxnResult& r) {
                   EXPECT_TRUE(r.status.ok());
                   ++done;
                 });
  net.loop().RunUntil([&] { return done == 1; });
  v = cluster.node(0).store().Read("acct", 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->num, 60);
}

TEST(RecoveryTest, CheckpointRefusedWhileSubtxnsPending) {
  const std::string dir = TestDir("recovery_busy");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 2, .manual = true}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);

  bool done = false;
  cluster.Submit(
      0, TxnBuilder(0).Add("a", 1).Child(1, {OpAdd("b", 1)}).Build(),
      [&done](const TxnResult&) { done = true; });
  // Deliver the submit but hold the child subtransaction in flight: node 0
  // has an open tree and must refuse to checkpoint.
  net.DeliverMatching(-1, 0, static_cast<int>(MsgType::kClientSubmit));
  Status s = cluster.node(0).WriteCheckpoint();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();

  net.DeliverAll();
  net.loop().RunUntil([&] { return done; });
  EXPECT_TRUE(cluster.CheckpointAll().ok());
}

// Group commit, counted exactly: after warm-up (the id block is reserved),
// a root on node 0 with one child on node 1 logs R(self), kUpdate and
// R(child) before the child request leaves (commit 1); the child logs
// kUpdate and C before its completion notice (commit 2); the root logs C
// before the client result (commit 3). Six records, three writes.
TEST(GroupCommitTest, TwoSubtxnUpdateIsSixRecordsInThreeCommits) {
  const std::string dir = TestDir("group_commit_counts");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 3}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);

  auto run_one = [&] {
    bool done = false;
    cluster.Submit(0, TxnBuilder(0).Add("a", 1).Child(1, {OpAdd("b", 1)}).Build(),
                   [&done](const TxnResult& r) {
                     EXPECT_TRUE(r.status.ok());
                     done = true;
                   });
    net.loop().RunUntil([&] { return done; });
    ASSERT_TRUE(done);
  };
  run_one();  // warm-up
  const int64_t records = metrics.wal_records.load();
  const int64_t commits = metrics.wal_commits.load();
  run_one();
  EXPECT_EQ(metrics.wal_records.load() - records, 6);
  EXPECT_EQ(metrics.wal_commits.load() - commits, 3);
  EXPECT_EQ(metrics.wal_commit_failures.load(), 0);
  // Between events nothing is staged: every record is on disk.
  int64_t on_disk = 0;
  for (int i = 0; i < 2; ++i) {
    auto recs = WriteAheadLog::ReadAll(dir + "/node-" + std::to_string(i), 1);
    ASSERT_TRUE(recs.ok());
    on_disk += static_cast<int64_t>(recs->size());
  }
  EXPECT_EQ(on_disk, metrics.wal_records.load());
}

// Handlers that log and then wait without sending (an NC3V root held at the
// version gate, a commuting update queued behind an NC lock) still commit on
// exit: at every delivery the segment files hold every byte staged so far.
TEST(GroupCommitTest, NothingStagedBetweenEvents) {
  const std::string dir = TestDir("group_commit_between_events");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 9}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.mode = NodeMode::kNC3V;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);
  auto bytes_on_disk = [&dir] {
    int64_t total = 0;
    for (int i = 0; i < 3; ++i) {
      const std::string node_dir = dir + "/node-" + std::to_string(i);
      for (uint64_t seg : WriteAheadLog::ListSegments(node_dir)) {
        total += static_cast<int64_t>(
            fs::file_size(WriteAheadLog::SegmentPath(node_dir, seg)));
      }
    }
    return total;
  };
  int64_t checked = 0;
  net.SetDeliveryTap([&](NodeId, const Message&) {
    ASSERT_EQ(bytes_on_disk(), metrics.wal_bytes.load());
    ++checked;
  });
  int done = 0;
  constexpr int kTxns = 60;
  for (int i = 0; i < kTxns; ++i) {
    const NodeId a = i % 3;
    const NodeId b = (a + 1) % 3;
    TxnBuilder builder(a);
    if (i % 3 == 0) {
      builder.Put("hot", std::to_string(i)).Child(b, {OpPut("hot2", "x")});
    } else {
      builder.Add("hot", 1).Child(b, {OpAdd("hot2", 1)});
    }
    cluster.Submit(a, builder.Build(), [&done](const TxnResult&) { ++done; });
    if (i % 10 == 5) cluster.coordinator().StartAdvancement();
    net.loop().RunFor(300);
  }
  net.loop().RunUntil([&] { return done == kTxns; });
  EXPECT_EQ(done, kTxns);
  EXPECT_GT(checked, 0);
  EXPECT_GT(metrics.version_gate_waits.load() + metrics.lock_waits.load(), 0)
      << "the load never made a handler wait after logging";
}

// A write the OS refuses (here EFBIG: the file-size limit is lowered to the
// segment's current size for this process only) halts the node before the
// message that depended on the lost records can leave. The root spawns two
// children, so the same handler stages a record and sends again after the
// failure: the failed log must refuse that commit too.
TEST(GroupCommitTest, FailedCommitHaltsNodeAndDropsTheMessage) {
  const std::string dir = TestDir("group_commit_failure");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 4}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);

  int results = 0;
  auto submit = [&] {
    cluster.Submit(0,
                   TxnBuilder(0)
                       .Add("acct", 5)
                       .Child(1, {OpAdd("x", 1)})
                       .Child(1, {OpAdd("y", 1)})
                       .Build(),
                   [&results](const TxnResult&) { ++results; });
  };
  submit();  // warm-up: the node logs and answers normally
  net.loop().RunFor(1'000'000);
  ASSERT_EQ(results, 1);
  ASSERT_EQ(metrics.wal_commit_failures.load(), 0);

  const std::string segment = WriteAheadLog::SegmentPath(
      dir + "/node-0", cluster.node(0).wal()->current_segment());
  const auto size = static_cast<rlim_t>(fs::file_size(segment));
  const int64_t records_on_disk =
      static_cast<int64_t>(WriteAheadLog::ReadAll(dir + "/node-0", 1)->size());
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  auto* saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lowered = saved;
  lowered.rlim_cur = size;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);

  submit();
  const int64_t sent_before = metrics.messages_sent.load();
  net.loop().RunFor(1'000'000);

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_TRUE(cluster.node(0).halted());
  EXPECT_EQ(metrics.wal_commit_failures.load(), 1);
  EXPECT_EQ(metrics.messages_sent.load(), sent_before)
      << "a message left after its log records failed to commit";
  EXPECT_EQ(results, 1);
  EXPECT_EQ(fs::file_size(segment), size);
  EXPECT_EQ(static_cast<int64_t>(
                WriteAheadLog::ReadAll(dir + "/node-0", 1)->size()),
            records_on_disk);
}

// A node that halted itself on a failed commit is dead to the cluster: it
// is not alive, RestartNode buries it as KillNode would (one crash
// counted), and the new incarnation recovers the committed state from its
// log and commits again.
TEST(GroupCommitTest, NodeHaltedByFailedCommitRestartsFromItsLog) {
  const std::string dir = TestDir("group_commit_restart");
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 4}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  options.wal_dir = dir;
  Cluster cluster(options, &net, &metrics);

  int ok_results = 0;
  auto submit = [&](int64_t amount) {
    cluster.Submit(0,
                   TxnBuilder(0)
                       .Add("acct", amount)
                       .Child(1, {OpAdd("x", 1)})
                       .Build(),
                   [&ok_results](const TxnResult& r) {
                     if (r.status.ok()) ++ok_results;
                   });
  };
  submit(5);
  net.loop().RunFor(1'000'000);
  ASSERT_EQ(ok_results, 1);

  const std::string segment = WriteAheadLog::SegmentPath(
      dir + "/node-0", cluster.node(0).wal()->current_segment());
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  auto* saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(fs::file_size(segment));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  submit(100);  // its records never reach the disk
  net.loop().RunFor(1'000'000);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  ASSERT_TRUE(cluster.node(0).halted());
  EXPECT_FALSE(cluster.node_alive(0));
  EXPECT_EQ(metrics.node_crashes.load(), 0);
  const int64_t recoveries = metrics.recoveries.load();

  cluster.RestartNode(0);
  EXPECT_TRUE(cluster.node_alive(0));
  EXPECT_FALSE(cluster.node(0).halted());
  EXPECT_EQ(metrics.node_crashes.load(), 1);
  EXPECT_EQ(metrics.recoveries.load(), recoveries + 1);
  EXPECT_EQ(cluster.node(0).store().Read("acct", 1)->num, 5);

  submit(7);
  net.loop().RunFor(1'000'000);
  EXPECT_EQ(ok_results, 2);
  EXPECT_EQ(cluster.node(0).store().Read("acct", 1)->num, 12);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

}  // namespace
}  // namespace threev
