#include "threev/net/wire.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace threev {
namespace {

TEST(WireTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.U8(7);
  w.U32(123456);
  w.U64(0xdeadbeefcafef00dull);
  w.I64(-42);
  w.Bool(true);
  w.Str("hello");
  std::vector<uint8_t> buf = w.Take();
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 123456u);
  EXPECT_EQ(r.U64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncationFailsCleanly) {
  WireWriter w;
  w.U64(1);
  std::vector<uint8_t> buf = w.Take();
  WireReader r(buf.data(), 4);  // truncated
  r.U64();
  EXPECT_FALSE(r.ok());
}

Message MakeFullMessage() {
  Message m;
  m.type = MsgType::kSubtxnRequest;
  m.from = 3;
  m.txn = 0x1234567890ull;
  m.subtxn = 42;
  m.parent_subtxn = 41;
  m.version = 7;
  m.seq = 99;
  m.flag = true;
  m.klass = 1;
  m.compensation = true;
  m.plan.node = 1;
  m.plan.ops = {OpAdd("bal/x", 50), OpInsert("rec/x", 77),
                OpPut("note", "payload")};
  SubtxnPlan child;
  child.node = 2;
  child.ops = {OpGet("bal/y")};
  m.plan.children.push_back(child);
  m.participants = {1, 2, 3};
  Value v;
  v.num = -5;
  v.ids = {1, 2, 3};
  v.str = "abc";
  m.reads.emplace_back("k1", v);
  m.counters_r = {{0, 5}, {1, 7}};
  m.counters_c = {{0, 5}, {1, 6}};
  m.status_code = StatusCode::kAborted;
  m.status_msg = "lock timeout";
  m.trace = TraceContext{0x1111222233334444ull, 0x5555666677778888ull,
                         0x9999aaaabbbbccccull};
  return m;
}

void ExpectMessagesEqual(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.subtxn, b.subtxn);
  EXPECT_EQ(a.parent_subtxn, b.parent_subtxn);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.flag, b.flag);
  EXPECT_EQ(a.klass, b.klass);
  EXPECT_EQ(a.compensation, b.compensation);
  EXPECT_EQ(a.plan.node, b.plan.node);
  ASSERT_EQ(a.plan.ops.size(), b.plan.ops.size());
  for (size_t i = 0; i < a.plan.ops.size(); ++i) {
    EXPECT_EQ(a.plan.ops[i], b.plan.ops[i]);
  }
  ASSERT_EQ(a.plan.children.size(), b.plan.children.size());
  EXPECT_EQ(a.participants, b.participants);
  ASSERT_EQ(a.reads.size(), b.reads.size());
  for (size_t i = 0; i < a.reads.size(); ++i) {
    EXPECT_EQ(a.reads[i].first, b.reads[i].first);
    EXPECT_EQ(a.reads[i].second, b.reads[i].second);
  }
  EXPECT_EQ(a.counters_r, b.counters_r);
  EXPECT_EQ(a.counters_c, b.counters_c);
  EXPECT_EQ(a.status_code, b.status_code);
  EXPECT_EQ(a.status_msg, b.status_msg);
  EXPECT_EQ(a.trace.trace_id, b.trace.trace_id);
  EXPECT_EQ(a.trace.span_id, b.trace.span_id);
  EXPECT_EQ(a.trace.parent_span_id, b.trace.parent_span_id);
}

TEST(WireTest, MessageRoundTrip) {
  Message m = MakeFullMessage();
  std::vector<uint8_t> buf = EncodeMessage(m);
  Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectMessagesEqual(m, *decoded);
}

TEST(WireTest, EmptyMessageRoundTrip) {
  Message m;
  std::vector<uint8_t> buf = EncodeMessage(m);
  Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok());
  ExpectMessagesEqual(m, *decoded);
}

TEST(WireTest, DeepPlanRoundTrip) {
  Message m;
  SubtxnPlan* cur = &m.plan;
  for (int i = 0; i < 10; ++i) {
    cur->node = i;
    cur->ops.push_back(OpAdd("k" + std::to_string(i), i));
    cur->children.emplace_back();
    cur = &cur->children.back();
  }
  std::vector<uint8_t> buf = EncodeMessage(m);
  Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok());
  const SubtxnPlan* p = &decoded->plan;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p->node, static_cast<NodeId>(i));
    ASSERT_FALSE(p->children.empty());
    p = &p->children[0];
  }
}

TEST(WireTest, TruncatedMessageRejected) {
  Message m = MakeFullMessage();
  std::vector<uint8_t> buf = EncodeMessage(m);
  for (size_t cut : {size_t{1}, buf.size() / 2, buf.size() - 1}) {
    Result<Message> decoded = DecodeMessage(buf.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  Message m;
  std::vector<uint8_t> buf = EncodeMessage(m);
  buf.push_back(0xff);
  EXPECT_FALSE(DecodeMessage(buf.data(), buf.size()).ok());
}

// Every MsgType - including the admin introspection pair - must have a real
// name (lint's wire-symmetry rule keys on the name table, and trace dumps
// label kMsgSend/kMsgRecv instants with it) and appear in ToString().
TEST(MessageTest, EveryMsgTypeHasDistinctNameAndToString) {
  constexpr int kNumMsgTypes =
      static_cast<int>(MsgType::kAdminInspectReply) + 1;
  std::set<std::string> names;
  for (int t = 0; t < kNumMsgTypes; ++t) {
    MsgType type = static_cast<MsgType>(t);
    EXPECT_STRNE(MsgTypeName(type), "?") << "type " << t;
    names.insert(MsgTypeName(type));
    Message m;
    m.type = type;
    m.from = 4;
    EXPECT_NE(m.ToString().find(MsgTypeName(type)), std::string::npos)
        << m.ToString();
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumMsgTypes));
  // One past the end hits the unknown arm, not out-of-bounds behaviour.
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(kNumMsgTypes)), "?");
}

// EncodedMessageSize is the one size model: the TcpNet frame length and
// every transport's bytes_sent. Pinning the empty message makes any change
// to the fixed header a deliberate one: 68 header bytes (type 1, from 4,
// txn/subtxn/parent 3x8, version 4, seq 8, flag/klass/compensation 3, trace
// 24), a 12-byte empty plan, four 4-byte section counts, status code 1 and
// the status string's 4-byte length.
TEST(WireTest, EncodedSizeIsPinned) {
  EXPECT_EQ(EncodedMessageSize(Message{}), 101u);
  EXPECT_EQ(EncodeMessage(Message{}).size(), 101u);
  Message m = MakeFullMessage();
  EXPECT_EQ(EncodedMessageSize(m), EncodeMessage(m).size());
}

}  // namespace
}  // namespace threev
