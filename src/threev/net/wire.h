#ifndef THREEV_NET_WIRE_H_
#define THREEV_NET_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "threev/common/status.h"
#include "threev/net/message.h"

namespace threev {

// Little-endian binary writer for the TCP wire format. Simple and
// self-describing enough for a homogeneous deployment: fields are written
// in a fixed order per message type; strings/vectors are length-prefixed.
//
// Fixed-width integers are appended as a single resize + store (not one
// push_back per byte), so the encode hot path is a handful of bulk writes.
// The writer can either own its buffer or append into a caller-provided
// vector, which lets callers reuse encode capacity across messages (see
// EncodeMessageInto).
class WireWriter {
 public:
  WireWriter() : buf_(&owned_) {}
  // Appends into `*buf` (cleared first), reusing its capacity. The caller
  // keeps ownership; Take() must not be used in this mode.
  explicit WireWriter(std::vector<uint8_t>* buf) : WireWriter(buf, 0) {}
  // Appends into `*buf` after its first `keep` bytes, which stay as they are
  // (the WAL stages many frames in one buffer this way).
  WireWriter(std::vector<uint8_t>* buf, size_t keep) : buf_(buf), pos_(keep) {
    buf_->resize(keep);
  }

  ~WireWriter() {
    if (!taken_) Finish();
  }
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void U8(uint8_t v) { *Grow(1) = v; }
  void U32(uint32_t v) {
    uint8_t* p = Grow(4);
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  }
  void U64(uint64_t v) {
    uint8_t* p = Grow(8);
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(Grow(s.size()), s.data(), s.size());
  }

  // Pre-grows storage for `n` more bytes, making every following append a
  // raw store (use with an exact size pre-pass, see EncodedMessageSize).
  void Reserve(size_t n) {
    if (buf_->size() < pos_ + n) buf_->resize(pos_ + n);
  }

  // Trims the underlying vector to the bytes actually written. Called
  // automatically by Take() and the destructor.
  void Finish() { buf_->resize(pos_); }

  const std::vector<uint8_t>& buffer() {
    Finish();
    return *buf_;
  }
  std::vector<uint8_t> Take() {
    Finish();
    taken_ = true;
    return std::move(*buf_);
  }

 private:
  // The writer appends through a position cursor and keeps the vector
  // over-sized while writing: one doubling grow amortizes all appends and
  // there is no per-field size bookkeeping. Finish() trims - cheap for a
  // trivially-destructible element type.
  uint8_t* Grow(size_t n) {
    if (buf_->size() < pos_ + n) {
      buf_->resize(std::max(buf_->size() * 2, pos_ + n));
    }
    uint8_t* p = buf_->data() + pos_;
    pos_ += n;
    return p;
  }

  std::vector<uint8_t>* buf_;
  std::vector<uint8_t> owned_;
  size_t pos_ = 0;
  bool taken_ = false;
};

// Matching reader. All methods fail (set !ok()) on truncation instead of
// reading out of bounds; callers check ok() once at the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  std::string Str();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  // Bytes left to read. Decoders bound every length-prefixed reserve() by
  // remaining()/min-element-size so an attacker-controlled count can never
  // allocate more than the frame it arrived in could possibly hold.
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Serializes a Message (including its plan tree and all payloads).
std::vector<uint8_t> EncodeMessage(const Message& msg);

// Exact encoded size of `msg`, computed without encoding. EncodeMessage
// uses it to size its buffer in one step; TcpNet uses it for real
// bytes-on-the-wire accounting.
size_t EncodedMessageSize(const Message& msg);

// As EncodeMessage, but encodes into `*out` (cleared first), reusing its
// capacity. The steady-state encode path performs no allocation once the
// buffer has grown to the working message size.
void EncodeMessageInto(const Message& msg, std::vector<uint8_t>* out);

// Appends the encoded form of `msg` to an existing writer. Lets callers
// prefix transport framing (length/destination headers) and encode the
// payload into the same buffer with no copy.
void EncodeMessageTo(WireWriter& w, const Message& msg);

// Deserializes; fails on truncated or malformed input.
Result<Message> DecodeMessage(const uint8_t* data, size_t size);

// TcpNet frame header: u32 payload length, u32 destination endpoint id,
// both little-endian like the payload that follows.
constexpr size_t kFrameHeaderBytes = 8;
// A header announcing a longer payload is garbage: the receiver closes the
// connection rather than buffer it.
constexpr uint32_t kMaxFramePayload = 64u << 20;

struct FrameHeader {
  uint32_t length;  // payload bytes after the header
  NodeId dest;
};

// Reads the header at `p`, which must hold kFrameHeaderBytes.
inline FrameHeader ParseFrameHeader(const uint8_t* p) {
  auto u32 = [](const uint8_t* q) {
    return static_cast<uint32_t>(q[0]) | static_cast<uint32_t>(q[1]) << 8 |
           static_cast<uint32_t>(q[2]) << 16 |
           static_cast<uint32_t>(q[3]) << 24;
  };
  return FrameHeader{u32(p), u32(p + 4)};
}

}  // namespace threev

#endif  // THREEV_NET_WIRE_H_
