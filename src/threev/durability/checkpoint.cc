#include "threev/durability/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "threev/net/wire.h"

namespace threev {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kCheckpointMagic = 0x33564b43;  // "CKV3"

std::string CheckpointPath(const std::string& dir, uint64_t n) {
  char name[40];
  std::snprintf(name, sizeof(name), "checkpoint-%08llu.ckpt",
                static_cast<unsigned long long>(n));
  return (fs::path(dir) / name).string();
}

std::vector<uint64_t> ListCheckpoints(const std::string& dir) {
  std::vector<uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long n = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%llu.ckpt", &n) == 1) {
      out.push_back(n);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Status WriteCheckpointFile(const std::string& dir,
                           const CheckpointData& data) {
  WireWriter w;
  w.U32(kCheckpointMagic);
  w.U32(data.vu);
  w.U32(data.vr);
  w.U64(data.seq_floor);
  w.U64(data.wal_segment);
  w.U32(static_cast<uint32_t>(data.store.size()));
  for (const auto& img : data.store) {
    w.Str(img.key);
    w.U32(img.version);
    EncodeValue(w, img.value);
  }
  w.U32(static_cast<uint32_t>(data.counters.size()));
  for (const auto& row : data.counters) {
    w.U32(row.version);
    w.U32(static_cast<uint32_t>(row.r.size()));
    for (int64_t v : row.r) w.I64(v);
    w.U32(static_cast<uint32_t>(row.c.size()));
    for (int64_t v : row.c) w.I64(v);
  }
  std::vector<uint8_t> payload = w.Take();
  uint32_t crc = WalCrc32(payload.data(), payload.size());

  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = CheckpointPath(dir, data.wal_segment);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("open " + tmp + ": " + std::strerror(errno));
  }
  uint8_t trailer[4];
  for (int i = 0; i < 4; ++i) trailer[i] = static_cast<uint8_t>(crc >> (8 * i));
  bool ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
                payload.size() &&
            std::fwrite(trailer, 1, sizeof(trailer), f) == sizeof(trailer) &&
            std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    fs::remove(tmp, ec);
    return Status::IoError("write " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("rename " + tmp + ": " + ec.message());
  }
  // Older checkpoints are fully superseded.
  for (uint64_t n : ListCheckpoints(dir)) {
    if (n < data.wal_segment) fs::remove(CheckpointPath(dir, n), ec);
  }
  return Status::Ok();
}

Result<CheckpointData> LoadLatestCheckpoint(const std::string& dir) {
  std::vector<uint64_t> ckpts = ListCheckpoints(dir);
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    const std::string path = CheckpointPath(dir, *it);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) continue;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 4) {
      std::fclose(f);
      continue;
    }
    std::vector<uint8_t> buf(static_cast<size_t>(size));
    bool read_ok = std::fread(buf.data(), 1, buf.size(), f) == buf.size();
    std::fclose(f);
    if (!read_ok) continue;
    size_t payload_size = buf.size() - 4;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(buf[payload_size + i]) << (8 * i);
    }
    if (WalCrc32(buf.data(), payload_size) != crc) continue;

    WireReader r(buf.data(), payload_size);
    if (r.U32() != kCheckpointMagic) continue;
    CheckpointData data;
    data.vu = r.U32();
    data.vr = r.U32();
    data.seq_floor = r.U64();
    data.wal_segment = r.U64();
    uint32_t nstore = r.U32();
    if (nstore > (1u << 24)) continue;
    for (uint32_t i = 0; i < nstore && r.ok(); ++i) {
      WalImage img;
      img.key = r.Str();
      img.version = r.U32();
      img.value = DecodeValue(r);
      data.store.push_back(std::move(img));
    }
    uint32_t nrows = r.U32();
    if (nrows > (1u << 20)) continue;
    for (uint32_t i = 0; i < nrows && r.ok(); ++i) {
      CheckpointData::CounterRow row;
      row.version = r.U32();
      uint32_t nr = r.U32();
      if (nr > (1u << 16)) nr = 0;
      for (uint32_t j = 0; j < nr && r.ok(); ++j) row.r.push_back(r.I64());
      uint32_t ncc = r.U32();
      if (ncc > (1u << 16)) ncc = 0;
      for (uint32_t j = 0; j < ncc && r.ok(); ++j) row.c.push_back(r.I64());
      data.counters.push_back(std::move(row));
    }
    if (!r.ok() || !r.AtEnd()) continue;
    return data;
  }
  return Status::NotFound("no checkpoint in " + dir);
}

}  // namespace threev
