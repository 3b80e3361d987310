// Robustness fuzzing of the wire codec: random truncations, mutations and
// raw byte soup must never crash, over-allocate, or decode to trailing
// garbage - a TCP peer can feed arbitrary frames.
#include <gtest/gtest.h>

#include <algorithm>

#include "threev/common/random.h"
#include "threev/durability/wal.h"
#include "threev/net/wire.h"

namespace threev {
namespace {

Message RandomMessage(Rng& rng) {
  Message m;
  m.type = static_cast<MsgType>(rng.Uniform(19));
  m.from = static_cast<NodeId>(rng.Uniform(16));
  m.txn = rng.Next();
  m.subtxn = rng.Next();
  m.version = static_cast<Version>(rng.Uniform(5));
  m.seq = rng.Next();
  m.flag = rng.Bernoulli(0.5);
  m.klass = static_cast<uint8_t>(rng.Uniform(2));
  m.compensation = rng.Bernoulli(0.5);
  m.plan.node = static_cast<NodeId>(rng.Uniform(16));
  size_t nops = rng.Uniform(5);
  for (size_t i = 0; i < nops; ++i) {
    switch (rng.Uniform(4)) {
      case 0:
        m.plan.ops.push_back(OpAdd("k" + std::to_string(rng.Uniform(9)),
                                   rng.UniformRange(-100, 100)));
        break;
      case 1:
        m.plan.ops.push_back(OpGet("g" + std::to_string(rng.Uniform(9))));
        break;
      case 2:
        m.plan.ops.push_back(OpInsert("log", rng.Next() % 10000));
        break;
      default:
        m.plan.ops.push_back(
            OpPut("p", std::string(rng.Uniform(64), 'z')));
    }
  }
  if (rng.Bernoulli(0.4)) {
    SubtxnPlan child;
    child.node = static_cast<NodeId>(rng.Uniform(16));
    child.ops.push_back(OpAdd("c", 1));
    m.plan.children.push_back(child);
  }
  // Participant ids span the full u32 range: the wire form is u32, so a
  // truncating encoder shows up here.
  size_t nparticipants = rng.Uniform(4);
  for (size_t i = 0; i < nparticipants; ++i) {
    m.participants.push_back(static_cast<NodeId>(rng.Next()));
  }
  size_t nreads = rng.Uniform(3);
  for (size_t i = 0; i < nreads; ++i) {
    Value v;
    v.num = rng.UniformRange(-5, 5);
    size_t nids = rng.Uniform(4);
    for (size_t j = 0; j < nids; ++j) v.ids.push_back(rng.Next() % 100);
    // String payloads ride here too (kAdminInspectReply string stats such
    // as active_versions); they must round-trip alongside num/ids.
    if (rng.Bernoulli(0.3)) v.str = std::string(rng.Uniform(24), 'v');
    m.reads.emplace_back("r" + std::to_string(i), v);
  }
  size_t nc = rng.Uniform(4);
  for (size_t i = 0; i < nc; ++i) {
    m.counters_r.emplace_back(static_cast<NodeId>(i),
                              static_cast<int64_t>(rng.Uniform(1000)));
    m.counters_c.emplace_back(static_cast<NodeId>(i),
                              static_cast<int64_t>(rng.Uniform(1000)));
  }
  m.status_code = static_cast<StatusCode>(rng.Uniform(10));
  m.status_msg = std::string(rng.Uniform(32), 'e');
  // Half the messages carry a trace context (the all-zero case is the
  // tracing-off wire form and must round-trip too).
  if (rng.Bernoulli(0.5)) {
    m.trace.trace_id = rng.Next();
    m.trace.span_id = rng.Next();
    m.trace.parent_span_id = rng.Next();
  }
  return m;
}

TEST(WireFuzzTest, RandomMessagesRoundTrip) {
  Rng rng(101);
  std::vector<uint8_t> reused;
  for (int i = 0; i < 500; ++i) {
    Message m = RandomMessage(rng);
    std::vector<uint8_t> buf = EncodeMessage(m);
    // TcpNet writes EncodedMessageSize as the frame length before encoding
    // the payload, so the pre-pass must match the encoder byte-for-byte.
    ASSERT_EQ(buf.size(), EncodedMessageSize(m)) << "iteration " << i;
    // The buffer-reusing encode path must produce identical bytes.
    EncodeMessageInto(m, &reused);
    ASSERT_EQ(reused, buf) << "iteration " << i;
    Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << "iteration " << i;
    // Spot-check a few invariant fields.
    EXPECT_EQ(decoded->txn, m.txn);
    EXPECT_EQ(decoded->version, m.version);
    EXPECT_EQ(decoded->flag, m.flag);
    EXPECT_EQ(decoded->compensation, m.compensation);
    EXPECT_EQ(decoded->participants, m.participants);
    EXPECT_EQ(decoded->plan.ops.size(), m.plan.ops.size());
    ASSERT_EQ(decoded->reads.size(), m.reads.size());
    for (size_t r = 0; r < m.reads.size(); ++r) {
      EXPECT_EQ(decoded->reads[r].first, m.reads[r].first);
      EXPECT_TRUE(decoded->reads[r].second == m.reads[r].second)
          << "iteration " << i << " read " << r;
    }
    EXPECT_EQ(decoded->status_msg, m.status_msg);
    EXPECT_TRUE(decoded->trace == m.trace) << "iteration " << i;
  }
}

// The versioned admin probe (fuzz oracle's counter walk) rides on the
// version + flag fields of kAdminInspect, and its reply carries counter
// rows plus mixed numeric/string stats. Both directions must round-trip
// bit-exactly - version 0 with flag=true (the "explicitly version 0" probe)
// is the case a sloppy encoder would collapse into the default form.
TEST(WireFuzzTest, AdminInspectProbeFieldsRoundTrip) {
  Rng rng(4242);
  for (int i = 0; i < 100; ++i) {
    Message probe;
    probe.type = MsgType::kAdminInspect;
    probe.from = static_cast<NodeId>(rng.Uniform(8));
    probe.seq = rng.Next();
    probe.version = static_cast<Version>(rng.Uniform(3));  // often 0
    probe.flag = rng.Bernoulli(0.5);
    std::vector<uint8_t> buf = EncodeMessage(probe);
    Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << "iteration " << i;
    EXPECT_EQ(decoded->version, probe.version);
    EXPECT_EQ(decoded->flag, probe.flag);

    Message reply;
    reply.type = MsgType::kAdminInspectReply;
    reply.from = probe.from;
    reply.seq = probe.seq;
    reply.version = probe.version;
    Value mv;
    mv.num = static_cast<int64_t>(rng.Uniform(4));
    reply.reads.emplace_back("max_versions_observed", mv);
    Value av;
    av.str = std::to_string(rng.Uniform(5)) + "," +
             std::to_string(rng.Uniform(5));
    reply.reads.emplace_back("active_versions", av);
    size_t nc = 1 + rng.Uniform(4);
    for (size_t j = 0; j < nc; ++j) {
      reply.counters_r.emplace_back(static_cast<NodeId>(j),
                                    static_cast<int64_t>(rng.Uniform(500)));
      reply.counters_c.emplace_back(static_cast<NodeId>(j),
                                    static_cast<int64_t>(rng.Uniform(500)));
    }
    std::vector<uint8_t> rbuf = EncodeMessage(reply);
    Result<Message> rdec = DecodeMessage(rbuf.data(), rbuf.size());
    ASSERT_TRUE(rdec.ok()) << "iteration " << i;
    ASSERT_EQ(rdec->reads.size(), 2u);
    EXPECT_EQ(rdec->reads[0].second.num, mv.num);
    EXPECT_EQ(rdec->reads[1].second.str, av.str);
    EXPECT_TRUE(rdec->counters_r == reply.counters_r);
    EXPECT_TRUE(rdec->counters_c == reply.counters_c);
    EXPECT_EQ(EncodeMessage(*rdec), rbuf) << "iteration " << i;
  }
}

// The trace context must survive the wire byte-exactly: a span id with any
// byte pattern (including bytes that look like string lengths or counts to
// a misaligned decoder) comes back identical, and re-encoding the decoded
// message reproduces the original buffer bit-for-bit.
TEST(WireFuzzTest, TraceContextRoundTripsByteExact) {
  Rng rng(909);
  for (int i = 0; i < 200; ++i) {
    Message m = RandomMessage(rng);
    m.trace.trace_id = rng.Next();
    m.trace.span_id = rng.Next();
    m.trace.parent_span_id = rng.Next();
    std::vector<uint8_t> buf = EncodeMessage(m);
    ASSERT_EQ(buf.size(), EncodedMessageSize(m));
    Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << "iteration " << i;
    EXPECT_EQ(decoded->trace.trace_id, m.trace.trace_id);
    EXPECT_EQ(decoded->trace.span_id, m.trace.span_id);
    EXPECT_EQ(decoded->trace.parent_span_id, m.trace.parent_span_id);
    EXPECT_EQ(EncodeMessage(*decoded), buf) << "iteration " << i;
  }
}

// Regression: decoders used to reserve() whatever element count the frame
// declared. A frame claiming ~4 billion ids in a few dozen bytes must fail
// as truncated without attempting a multi-gigabyte allocation (reserves are
// now capped by remaining-bytes / min-element-size).
TEST(WireFuzzTest, HugeDeclaredCountNeverOverAllocates) {
  Message m;
  m.type = MsgType::kCompletionNotice;
  m.txn = 7;
  Value v;
  v.num = 42;
  v.ids = {1, 2, 3};
  m.reads.emplace_back("acct", v);
  std::vector<uint8_t> buf = EncodeMessage(m);

  // Locate the ids count prefix: u32 3 followed by u64 1, u64 2, u64 3.
  const uint8_t pattern[] = {3, 0, 0, 0,                          // count
                             1, 0, 0, 0, 0, 0, 0, 0,              // id 1
                             2, 0, 0, 0, 0, 0, 0, 0,              // id 2
                             3, 0, 0, 0, 0, 0, 0, 0};             // id 3
  auto it = std::search(buf.begin(), buf.end(), std::begin(pattern),
                        std::end(pattern));
  ASSERT_NE(it, buf.end());
  it[0] = 0xFF;
  it[1] = 0xFF;
  it[2] = 0xFF;
  it[3] = 0xFF;

  Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
  EXPECT_FALSE(decoded.ok());  // and did not try to reserve 32 GiB
}

TEST(WireFuzzTest, TruncationsNeverCrash) {
  Rng rng(202);
  for (int i = 0; i < 100; ++i) {
    Message m = RandomMessage(rng);
    std::vector<uint8_t> buf = EncodeMessage(m);
    for (size_t cut = 0; cut < buf.size(); cut += 1 + rng.Uniform(7)) {
      Result<Message> decoded = DecodeMessage(buf.data(), cut);
      EXPECT_FALSE(decoded.ok());
    }
  }
}

TEST(WireFuzzTest, MutationsNeverCrashOrOverAllocate) {
  Rng rng(303);
  for (int i = 0; i < 300; ++i) {
    Message m = RandomMessage(rng);
    std::vector<uint8_t> buf = EncodeMessage(m);
    // Flip a handful of random bytes; decode must not crash (result may
    // be ok with mangled fields or a clean error).
    for (int flips = 0; flips < 4; ++flips) {
      buf[rng.Uniform(buf.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
    (void)decoded;
  }
}

TEST(WireFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(404);
  for (int i = 0; i < 300; ++i) {
    size_t len = rng.Uniform(512);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
    (void)decoded;
  }
}

// --- WAL record codec: recovery reads these frames off disk, where a torn
// write or bit rot can hand the decoder anything. Same contract as the
// network codec: never crash, never over-allocate.

WalRecord RandomWalRecord(Rng& rng) {
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(1 + rng.Uniform(9));
  rec.version = static_cast<Version>(rng.Uniform(6));
  rec.flag = rng.Bernoulli(0.5);
  rec.peer = static_cast<NodeId>(rng.Uniform(8));
  rec.txn = rng.Next();
  rec.seq = rng.Next();
  rec.failed = rng.Bernoulli(0.2);
  size_t nimages = rng.Uniform(4);
  for (size_t i = 0; i < nimages; ++i) {
    WalImage img;
    img.key = "k" + std::to_string(rng.Uniform(9));
    img.version = static_cast<Version>(rng.Uniform(4));
    img.value.num = rng.UniformRange(-1000, 1000);
    size_t nids = rng.Uniform(3);
    for (size_t j = 0; j < nids; ++j) img.value.ids.push_back(rng.Next());
    img.value.str = std::string(rng.Uniform(48), 'w');
    rec.images.push_back(std::move(img));
  }
  size_t nundo = rng.Uniform(3);
  for (size_t i = 0; i < nundo; ++i) {
    UndoEntry u;
    u.key = "u" + std::to_string(rng.Uniform(9));
    u.version = static_cast<Version>(rng.Uniform(4));
    u.created = rng.Bernoulli(0.5);
    u.prior.num = rng.UniformRange(-9, 9);
    rec.undo.push_back(std::move(u));
  }
  return rec;
}

TEST(WalFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(505);
  for (int i = 0; i < 500; ++i) {
    WalRecord rec = RandomWalRecord(rng);
    std::vector<uint8_t> buf = EncodeWalRecord(rec);
    Result<WalRecord> back = DecodeWalRecord(buf.data(), buf.size());
    ASSERT_TRUE(back.ok()) << "iteration " << i;
    EXPECT_EQ(EncodeWalRecord(*back), buf) << "iteration " << i;
    EXPECT_EQ(back->txn, rec.txn);
    EXPECT_EQ(back->images.size(), rec.images.size());
    EXPECT_EQ(back->undo.size(), rec.undo.size());
  }
}

TEST(WalFuzzTest, TruncationsNeverCrash) {
  Rng rng(606);
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> buf = EncodeWalRecord(RandomWalRecord(rng));
    for (size_t cut = 0; cut < buf.size(); cut += 1 + rng.Uniform(5)) {
      Result<WalRecord> back = DecodeWalRecord(buf.data(), cut);
      EXPECT_FALSE(back.ok());
    }
  }
}

TEST(WalFuzzTest, MutationsNeverCrashOrOverAllocate) {
  Rng rng(707);
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> buf = EncodeWalRecord(RandomWalRecord(rng));
    for (int flips = 0; flips < 4; ++flips) {
      buf[rng.Uniform(buf.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    Result<WalRecord> back = DecodeWalRecord(buf.data(), buf.size());
    (void)back;  // ok-with-mangled-fields or clean error, never a crash
  }
}

TEST(WalFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(808);
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> buf(rng.Uniform(512));
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    Result<WalRecord> back = DecodeWalRecord(buf.data(), buf.size());
    (void)back;
  }
}

}  // namespace
}  // namespace threev
