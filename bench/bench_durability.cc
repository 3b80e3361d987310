// Experiment B-DUR: cost of durability. (a) WAL append throughput under
// each fsync policy, committing after every record and after every third
// record (the shape of a handler that logs R, kUpdate and R before it
// sends) - the per-update logging tax a node pays on the fast path; (b)
// recovery time as a function of log size - what a restart costs before
// the node can rejoin the protocol.
//
// Expected shape: kNone costs one encode into the batch plus one write(2)
// per commit (micros/record, less when a commit carries three records),
// kEveryRecord is dominated by the fsync each commit pays (orders of
// magnitude slower), kBatch sits at kNone for unforced records. Recovery
// replays at sequential-read speed, so time grows linearly with log bytes;
// a checkpoint cuts it to the post-checkpoint tail.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "threev/core/counters.h"
#include "threev/durability/recovery.h"
#include "threev/durability/wal.h"
#include "threev/storage/versioned_store.h"

using namespace threev;
using namespace threev::bench;

namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("threev_bench_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

WalRecord SampleRecord(int i) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.version = 1;
  rec.txn = static_cast<TxnId>(i);
  WalImage img;
  img.key = "acct" + std::to_string(i % 512) + "@3";
  img.version = 1;
  img.value.num = i;
  rec.images.push_back(std::move(img));
  return rec;
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  PrintHeader("B-DUR: WAL append + commit throughput per fsync policy");
  std::printf("%-14s %10s %10s %12s %12s %10s %10s\n", "policy", "per-commit",
              "records", "us/record", "MB/s", "commits", "fsyncs");
  const struct {
    FsyncPolicy policy;
    const char* name;
    int records;
  } kPolicies[] = {
      {FsyncPolicy::kNone, "none", 20000},
      {FsyncPolicy::kBatch, "batch", 20000},
      {FsyncPolicy::kEveryRecord, "every-record", 500},
  };
  for (const auto& p : kPolicies) {
    for (int per_commit : {1, 3}) {
      Metrics metrics;
      WalOptions opts;
      opts.dir = ScratchDir(std::string("wal_") + p.name);
      opts.fsync = p.policy;
      auto wal = WriteAheadLog::Open(opts, &metrics);
      if (!wal.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     wal.status().ToString().c_str());
        return 1;
      }
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < p.records; ++i) {
        (void)(*wal)->Append(SampleRecord(i));
        if ((i + 1) % per_commit == 0) (void)(*wal)->Commit();
      }
      (void)(*wal)->Commit();
      double us = MicrosSince(t0);
      double mbps = static_cast<double>((*wal)->bytes_appended()) / us;
      std::printf("%-14s %10d %10d %12.2f %12.1f %10lld %10lld\n", p.name,
                  per_commit, p.records, us / p.records, mbps,
                  static_cast<long long>(metrics.wal_commits.load()),
                  static_cast<long long>(metrics.wal_fsyncs.load()));
      fs::remove_all(opts.dir);
    }
  }

  PrintHeader("B-DUR: recovery time vs log size");
  std::printf("%10s %12s %12s %12s\n", "records", "log-KiB", "recover-ms",
              "MB/s");
  for (int records : {1000, 10000, 50000}) {
    const std::string dir = ScratchDir("recovery");
    {
      WalOptions opts;
      opts.dir = dir;
      auto wal = WriteAheadLog::Open(opts);
      for (int i = 0; i < records; ++i) (void)(*wal)->Append(SampleRecord(i));
    }
    VersionedStore store;
    CounterTable counters(8);
    auto t0 = std::chrono::steady_clock::now();
    auto state = RecoverNodeState(dir, &store, &counters);
    double us = MicrosSince(t0);
    if (!state.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   state.status().ToString().c_str());
      return 1;
    }
    std::printf("%10d %12.1f %12.2f %12.1f\n", records,
                static_cast<double>(state->wal_bytes) / 1024.0, us / 1000.0,
                static_cast<double>(state->wal_bytes) / us);
    fs::remove_all(dir);
  }
  return 0;
}
