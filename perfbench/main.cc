// Closed-loop wall-clock benchmark of a 3V cluster (see README.md).
//
// Usage: perfbench --workload <record|record_wal|audit_tcp> --seed <n>
//                  --seconds <s> --trace <0|1> --out-dir <dir>
//
// One process drives a Cluster from one client, keeping kDepth transactions
// in flight (each result callback submits the next job) while a ticker
// starts a version advancement every 20 ms. --trace 0 prints the end-to-end
// metrics; --trace 1 runs the workload untraced and then traced (library
// Tracer on, transport wrapped in a ProbeNet) and prints the per-layer
// metrics. Every run ends with a correctness gate. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "deployment.h"
#include "probe_net.h"
#include "stats.h"
#include "threev/common/mutex.h"
#include "threev/core/cluster.h"
#include "threev/durability/wal.h"
#include "threev/workload/workload.h"

namespace perfbench {
namespace {

using threev::CondVar;
using threev::Mutex;
using threev::MutexLock;
using threev::WalRecordType;

constexpr size_t kDepth = 16;  // transactions in flight
constexpr size_t kFanout = 2;
constexpr double kZipfTheta = 0.9;
constexpr auto kAdvancePeriod = std::chrono::milliseconds(20);
constexpr auto kWarmup = std::chrono::seconds(1);
constexpr int64_t kDrainNs = 5'000'000'000;
// An untraced run measures kRounds fresh deployments (fewer if --seconds is
// smaller), splitting --seconds between them, so that one unlucky placement
// of the deployment's threads does not set the run's result.
constexpr int kRounds = 4;
// Set-ups per round; setup_s is the median over all of a run's set-ups and
// the last one of each round is measured.
constexpr int kSetupsPerRound = 2;
// WAL segments left on disk while a run writes; older ones are deleted.
constexpr size_t kKeptSegments = 2;
// Records per node that the WAL replay probe appends to a scratch log.
constexpr size_t kProbeRecordsPerNode = 50'000;

struct Workload {
  const char* name;
  bool tcp;
  bool wal;
  uint64_t entities;
  double read_fraction;
};

constexpr Workload kWorkloads[] = {
    {"record", /*tcp=*/false, /*wal=*/false, 10'000, 0.2},
    {"record_wal", /*tcp=*/false, /*wal=*/true, 10'000, 0.2},
    {"audit_tcp", /*tcp=*/true, /*wal=*/false, 20'000, 0.8},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void RemoveAll(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// Sums the kAdd amounts of a plan tree into `out`, keyed by data key.
void BookAdds(const threev::SubtxnPlan& plan,
              std::unordered_map<std::string, int64_t>& out) {
  for (const threev::Operation& op : plan.ops) {
    if (op.kind == threev::OpKind::kAdd) out[op.key] += op.arg;
  }
  for (const threev::SubtxnPlan& child : plan.children) BookAdds(child, out);
}

// End-to-end figures of one second of a measured window. A result reports the
// median of each over all its slices, so one disturbed second does not move
// it.
struct SliceFigures {
  double txn_per_s = 0;
  double update_p50_us = 0;
  double update_p99_us = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
};

double MedianOf(const std::vector<SliceFigures>& slices,
                double SliceFigures::*field) {
  std::vector<double> v;
  for (const SliceFigures& s : slices) v.push_back(s.*field);
  return Median(std::move(v));
}

// ---------------------------------------------------------------------------
// Closed loop: kDepth slots, each resubmitted from its own result callback
// (on the client's handler thread). Latency runs from just before
// Client::Submit to the callback, on the steady clock.
class ClosedLoop {
 public:
  struct Summary {
    int64_t submitted = 0;
    int64_t resolved = 0;
    int64_t failed = 0;            // non-OK results
    int64_t window_committed = 0;  // OK results inside the window
    int64_t update_samples = 0;
    int64_t read_samples = 0;
    std::vector<SliceFigures> slices;
  };

  ClosedLoop(threev::Cluster& cluster, threev::WorkloadGenerator& gen,
             ProbeNet* probe, size_t depth)
      : cluster_(cluster), gen_(gen), probe_(probe), slots_(depth) {}

  void Start() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      {
        MutexLock lock(mu_);
        NextJobLocked(i);
      }
      SubmitSlot(i);
    }
  }

  // The measured window: `seconds` one-second slices from `start_ns`.
  void SetWindow(int64_t start_ns, int seconds) {
    MutexLock lock(mu_);
    window_start_ = start_ns;
    for (int i = 0; i < seconds; ++i) slices_.push_back(std::make_unique<Slice>());
  }

  // Stops resubmitting; waits until every submitted transaction resolved or
  // `deadline_ns` passed. True when all resolved.
  bool Drain(int64_t deadline_ns) {
    MutexLock lock(mu_);
    stopping_ = true;
    return drained_cv_.wait_for(
        lock, std::chrono::nanoseconds(std::max<int64_t>(0, deadline_ns - NowNs())),
        [&] { return resolved_ == submitted_; });
  }

  Summary Summarize() const {
    MutexLock lock(mu_);
    Summary s;
    s.submitted = submitted_;
    s.resolved = resolved_;
    s.failed = failed_;
    for (const auto& slice : slices_) {
      s.window_committed += slice->committed;
      s.update_samples += slice->update_ns.count();
      s.read_samples += slice->read_ns.count();
      s.slices.push_back(SliceFigures{
          static_cast<double>(slice->committed),
          slice->update_ns.PercentileNs(50) / 1e3,
          slice->update_ns.PercentileNs(99) / 1e3,
          slice->read_ns.PercentileNs(50) / 1e3,
          slice->read_ns.PercentileNs(99) / 1e3,
      });
    }
    return s;
  }
  std::unordered_map<std::string, int64_t> committed_adds() const {
    MutexLock lock(mu_);
    return committed_adds_;
  }
  const NsHistogram& next_ns() const { return next_ns_; }

 private:
  struct Slot {
    threev::TxnSpec spec;
    int64_t submit_ns = 0;
  };
  struct Slice {
    int64_t committed = 0;
    NsHistogram update_ns;
    NsHistogram read_ns;
  };

  void NextJobLocked(size_t i) REQUIRES(mu_) {
    const int64_t t = probe_ != nullptr ? NowNs() : 0;
    slots_[i].spec = gen_.Next().spec;
    if (probe_ != nullptr) next_ns_.Record(NowNs() - t);
    ++submitted_;
  }

  void SubmitSlot(size_t i) {
    Slot& slot = slots_[i];
    slot.submit_ns = NowNs();
    cluster_.Submit(slot.spec.root.node, slot.spec,
                    [this, i](const threev::TxnResult& r) { OnResult(i, r); });
  }

  void OnResult(size_t i, const threev::TxnResult& result) {
    const int64_t now = NowNs();
    Slot& slot = slots_[i];
    if (probe_ != nullptr) probe_->OnClientResult(slot.submit_ns, now);
    bool resubmit = false;
    {
      MutexLock lock(mu_);
      ++resolved_;
      const bool ok = result.status.ok();
      if (!ok) {
        ++failed_;
      } else if (!slot.spec.read_only) {
        BookAdds(slot.spec.root, committed_adds_);
      }
      const int64_t slice = (now - window_start_) / 1'000'000'000;
      if (ok && now >= window_start_ &&
          slice < static_cast<int64_t>(slices_.size())) {
        Slice& s = *slices_[static_cast<size_t>(slice)];
        ++s.committed;
        (slot.spec.read_only ? s.read_ns : s.update_ns).Record(now - slot.submit_ns);
      }
      resubmit = !stopping_;
      if (resubmit) NextJobLocked(i);
      if (resolved_ == submitted_) drained_cv_.notify_all();
    }
    if (resubmit) SubmitSlot(i);
  }

  threev::Cluster& cluster_;
  threev::WorkloadGenerator& gen_;  // guarded by mu_
  ProbeNet* probe_;                 // null in untraced runs
  // Slot i is touched only by the one transaction it holds at a time.
  std::vector<Slot> slots_;
  NsHistogram next_ns_;

  mutable Mutex mu_;
  CondVar drained_cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
  int64_t submitted_ GUARDED_BY(mu_) = 0;
  int64_t resolved_ GUARDED_BY(mu_) = 0;
  int64_t failed_ GUARDED_BY(mu_) = 0;
  int64_t window_start_ GUARDED_BY(mu_) = INT64_MAX;
  std::vector<std::unique_ptr<Slice>> slices_ GUARDED_BY(mu_);
  std::unordered_map<std::string, int64_t> committed_adds_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Starts an advancement every kAdvancePeriod, start to start; one that runs
// longer is followed at once by the next (rather than skipping a whole tick,
// which would halve the advancement rate at a threshold). Times each from
// StartAdvancement to its done callback.
class AdvanceTicker {
 public:
  explicit AdvanceTicker(threev::AdvanceCoordinator& coord)
      : coord_(coord), thread_([this] { Loop(); }) {}
  ~AdvanceTicker() { Stop(); }

  AdvanceTicker(const AdvanceTicker&) = delete;
  AdvanceTicker& operator=(const AdvanceTicker&) = delete;

  // Advancements started in [start_ns, end_ns) count toward the window.
  void SetWindow(int64_t start_ns, int64_t end_ns) {
    MutexLock lock(mu_);
    window_start_ = start_ns;
    window_end_ = end_ns;
  }

  // Stops ticking and waits for the callbacks of started advancements, up
  // to `deadline_ns`. True when none is left outstanding.
  bool Stop(int64_t deadline_ns = INT64_MAX) {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    MutexLock lock(mu_);
    return cv_.wait_for(
        lock,
        std::chrono::nanoseconds(std::max<int64_t>(
            0, std::min<int64_t>(deadline_ns - NowNs(), kDrainNs))),
        [&] { return finished_ == started_; });
  }

  std::vector<double> window_ms() const {
    MutexLock lock(mu_);
    return window_ms_;
  }
  int64_t failed() const {
    MutexLock lock(mu_);
    return failed_;
  }

 private:
  void Loop() {
    auto next = std::chrono::steady_clock::now() + kAdvancePeriod;
    MutexLock lock(mu_);
    while (!stop_) {
      if (cv_.wait_until(lock, next, [&] { return stop_; })) break;
      cv_.wait(lock, [&] { return stop_ || finished_ == started_; });
      if (stop_) break;
      next = std::chrono::steady_clock::now() + kAdvancePeriod;
      ++started_;
      lock.unlock();
      const int64_t t0 = NowNs();
      const bool started = coord_.StartAdvancement(
          [this, t0](threev::Status s) { OnDone(t0, s); });
      lock.lock();
      if (!started) --started_;
    }
  }

  void OnDone(int64_t t0, const threev::Status& s) {
    const int64_t now = NowNs();
    MutexLock lock(mu_);
    if (!s.ok()) ++failed_;
    if (t0 >= window_start_ && t0 < window_end_) {
      window_ms_.push_back(static_cast<double>(now - t0) / 1e6);
    }
    ++finished_;
    cv_.notify_all();
  }

  threev::AdvanceCoordinator& coord_;
  mutable Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  int64_t started_ GUARDED_BY(mu_) = 0;
  int64_t finished_ GUARDED_BY(mu_) = 0;
  int64_t failed_ GUARDED_BY(mu_) = 0;
  int64_t window_start_ GUARDED_BY(mu_) = INT64_MAX;
  int64_t window_end_ GUARDED_BY(mu_) = INT64_MAX;
  std::vector<double> window_ms_ GUARDED_BY(mu_);
  std::thread thread_;  // last: starts once the state above exists
};

// Runs one more advancement after the load stopped, so that vr covers every
// committed transaction. True once it completed OK.
bool FinalAdvance(threev::AdvanceCoordinator& coord, int64_t deadline_ns) {
  struct Done {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool ok GUARDED_BY(mu) = false;
  };
  auto state = std::make_shared<Done>();
  while (!coord.StartAdvancement([state](threev::Status s) {
    MutexLock lock(state->mu);
    state->done = true;
    state->ok = s.ok();
    state->cv.notify_all();
  })) {
    if (NowNs() > deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MutexLock lock(state->mu);
  state->cv.wait_for(
      lock, std::chrono::nanoseconds(std::max<int64_t>(0, deadline_ns - NowNs())),
      [&] { return state->done; });
  return state->done && state->ok;
}

// Deletes all but the newest kKeptSegments WAL segments of each node while
// the run writes, so disk and page-cache use stay bounded at any run length.
// Only closed segments go; nothing reads the log back during a run.
class WalPruner {
 public:
  explicit WalPruner(std::vector<std::string> dirs)
      : dirs_(std::move(dirs)), thread_([this] { Loop(); }) {}
  ~WalPruner() { Stop(); }

  WalPruner(const WalPruner&) = delete;
  WalPruner& operator=(const WalPruner&) = delete;

  void Stop() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      {
        MutexLock lock(mu_);
        if (cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [&] { return stop_; })) {
          return;
        }
      }
      for (const std::string& dir : dirs_) {
        std::vector<uint64_t> segs = threev::WriteAheadLog::ListSegments(dir);
        for (size_t k = 0; k + kKeptSegments < segs.size(); ++k) {
          std::error_code ec;
          std::filesystem::remove(
              threev::WriteAheadLog::SegmentPath(dir, segs[k]), ec);
        }
      }
    }
  }

  const std::vector<std::string> dirs_;
  Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

// WAL replay probe: reads each node's remaining log back with
// WriteAheadLog::ReadAll, counts records by type, and times Append of each
// record into a scratch log with the same FsyncPolicy.
struct WalProbe {
  std::map<WalRecordType, int64_t> by_type;
  int64_t records = 0;
  NsHistogram append_ns;
};

threev::Status ProbeWal(const std::vector<std::string>& dirs,
                        const std::string& scratch, WalProbe& out) {
  RemoveAll(scratch);
  for (size_t i = 0; i < dirs.size(); ++i) {
    std::vector<uint64_t> segs = threev::WriteAheadLog::ListSegments(dirs[i]);
    if (segs.empty()) continue;
    auto records = threev::WriteAheadLog::ReadAll(dirs[i], segs.front());
    if (!records.ok()) return records.status();
    threev::WalOptions options;
    options.dir = scratch + "/node-" + std::to_string(i);
    options.fsync = kWalFsync;
    auto wal = threev::WriteAheadLog::Open(options);
    if (!wal.ok()) return wal.status();
    size_t appended = 0;
    for (const threev::WalRecord& rec : records.value()) {
      ++out.by_type[rec.type];
      ++out.records;
      if (appended++ >= kProbeRecordsPerNode) continue;
      const int64_t t = NowNs();
      threev::Status s = wal.value()->Append(rec);
      out.append_ns.Record(NowNs() - t);
      if (!s.ok()) return s;
    }
  }
  RemoveAll(scratch);
  return threev::Status::Ok();
}

// ---------------------------------------------------------------------------

struct Counters {
  int64_t subtxns = 0, copies = 0, bytes_copied = 0, dual_writes = 0;
  int64_t advancements = 0, rounds = 0, lock_waits = 0, gate_waits = 0;
  int64_t wal_records = 0, wal_bytes = 0, wal_fsyncs = 0;

  static Counters Of(const threev::Metrics& m) {
    Counters c;
    c.subtxns = m.subtxns_executed.load();
    c.copies = m.version_copies.load();
    c.bytes_copied = m.bytes_copied.load();
    c.dual_writes = m.dual_version_writes.load();
    c.advancements = m.advancements_completed.load();
    c.rounds = m.quiescence_rounds.load();
    c.lock_waits = m.lock_waits.load();
    c.gate_waits = m.version_gate_waits.load();
    c.wal_records = m.wal_records.load();
    c.wal_bytes = m.wal_bytes.load();
    c.wal_fsyncs = m.wal_fsyncs.load();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters c;
    c.subtxns = subtxns - o.subtxns;
    c.copies = copies - o.copies;
    c.bytes_copied = bytes_copied - o.bytes_copied;
    c.dual_writes = dual_writes - o.dual_writes;
    c.advancements = advancements - o.advancements;
    c.rounds = rounds - o.rounds;
    c.lock_waits = lock_waits - o.lock_waits;
    c.gate_waits = gate_waits - o.gate_waits;
    c.wal_records = wal_records - o.wal_records;
    c.wal_bytes = wal_bytes - o.wal_bytes;
    c.wal_fsyncs = wal_fsyncs - o.wal_fsyncs;
    return c;
  }
};

struct RoundOutcome {
  std::vector<std::string> problems;  // empty = passed the correctness gate
  std::vector<double> setup_s;
  double window_s = 0;
  ClosedLoop::Summary loop;
  std::vector<Metric> layers;  // traced rounds only
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ValueOf(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// Per-layer metrics of a traced window.
std::vector<Metric> LayerMetrics(const ProbeNet& probe, const Counters& c,
                                 const ClosedLoop& loop, int64_t committed,
                                 double window_s,
                                 std::vector<double> advance_ms,
                                 threev::Cluster& cluster) {
  const double txns = static_cast<double>(committed);
  auto per_txn = [&](double v) { return Ratio(v, txns); };
  auto us = [](const NsHistogram& h, double p) { return h.PercentileNs(p) / 1e3; };
  double keys = 0;
  double max_versions = 0;
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    keys += static_cast<double>(cluster.node(i).store().KeyCount());
    max_versions = std::max(
        max_versions,
        static_cast<double>(cluster.node(i).store().MaxVersionsObserved()));
  }
  const NsHistogram& gc = probe.node_ns(NodeWork::kGc);
  return {
      {"net.msgs_per_txn", per_txn(probe.all_msgs()), "count"},
      {"net.user_msgs_per_txn", per_txn(probe.user_msgs()), "count"},
      {"net.adv_msgs_per_txn", per_txn(probe.adv_msgs()), "count"},
      {"net.bytes_per_txn", per_txn(probe.encoded_bytes()), "B"},
      {"net.send_us_p50", us(probe.send_ns(), 50), "us"},
      {"net.send_us_p99", us(probe.send_ns(), 99), "us"},
      {"net.deliver_us_p50", us(probe.deliver_ns(), 50), "us"},
      {"net.deliver_us_p99", us(probe.deliver_ns(), 99), "us"},
      {"node.submit_us_p50", us(probe.node_ns(NodeWork::kSubmit), 50), "us"},
      {"node.subtxn_us_p50", us(probe.node_ns(NodeWork::kSubtxn), 50), "us"},
      {"node.completion_us_p50", us(probe.node_ns(NodeWork::kCompletion), 50),
       "us"},
      {"node.adv_us_p99", us(probe.node_ns(NodeWork::kAdvance), 99), "us"},
      {"node.gc_us_p50", us(gc, 50), "us"},
      {"node.gc_us_max", static_cast<double>(gc.max_ns()) / 1e3, "us"},
      {"node.busy_frac_max",
       Ratio(static_cast<double>(probe.max_node_busy_ns()) / 1e9, window_s),
       "ratio"},
      {"node.subtxns_per_txn", per_txn(c.subtxns), "count"},
      {"coord.advance_ms_p50", Percentile(advance_ms, 50), "ms"},
      {"coord.advance_ms_p99", Percentile(advance_ms, 99), "ms"},
      {"coord.advances_per_s",
       Ratio(static_cast<double>(advance_ms.size()), window_s), "1/s"},
      {"coord.rounds_per_advance", Ratio(c.rounds, c.advancements), "count"},
      {"store.copies_per_txn", per_txn(c.copies), "count"},
      {"store.bytes_copied_per_txn", per_txn(c.bytes_copied), "B"},
      {"store.dual_writes_per_txn", per_txn(c.dual_writes), "count"},
      {"store.keys_per_node", keys / static_cast<double>(cluster.num_nodes()),
       "count"},
      {"store.max_versions", max_versions, "count"},
      {"wal.records_per_txn", per_txn(c.wal_records), "count"},
      {"wal.bytes_per_txn", per_txn(c.wal_bytes), "B"},
      {"wal.fsyncs_per_txn", per_txn(c.wal_fsyncs), "count"},
      {"lock.waits_per_txn", per_txn(c.lock_waits), "count"},
      {"gate.waits_per_txn", per_txn(c.gate_waits), "count"},
      {"loadgen.next_us_p50", us(loop.next_ns(), 50), "us"},
      {"client.latency_us_mean", probe.mean_latency_us(), "us"},
      {"client.unaccounted_us", probe.mean_unaccounted_us(), "us"},
  };
}

// The WAL replay probe's metrics; record types as shares of the records read
// back, scaled to the window's WAL records per transaction.
void AddWalProbeMetrics(const WalProbe& probe, std::vector<Metric>& layers) {
  const double records_per_txn = ValueOf(layers, "wal.records_per_txn");
  layers.push_back({"wal.append_us_p50", probe.append_ns.PercentileNs(50) / 1e3,
                    "us"});
  layers.push_back({"wal.append_us_p99", probe.append_ns.PercentileNs(99) / 1e3,
                    "us"});
  const std::pair<const char*, WalRecordType> kTypes[] = {
      {"wal.update_per_txn", WalRecordType::kUpdate},
      {"wal.counter_per_txn", WalRecordType::kCounter},
      {"wal.version_switch_per_txn", WalRecordType::kVersionSwitch},
      {"wal.gc_per_txn", WalRecordType::kGarbageCollect},
      {"wal.seq_reserve_per_txn", WalRecordType::kSeqReserve},
  };
  for (const auto& [name, type] : kTypes) {
    auto it = probe.by_type.find(type);
    const double n = it == probe.by_type.end() ? 0.0 : static_cast<double>(it->second);
    layers.push_back(
        {name, records_per_txn * Ratio(n, static_cast<double>(probe.records)),
         "count"});
  }
}

// One round on a fresh deployment: sets up kSetupsPerRound times (keeping the
// last), runs the closed loop for a warm-up plus `seconds` measured slices,
// drains, and checks the outcome.
RoundOutcome RunRound(const Args& args, bool traced, int round, int seconds) {
  const Workload& w = *args.workload;
  RoundOutcome out;
  auto fail = [&out](std::string why) { out.problems.push_back(std::move(why)); };

  threev::WorkloadOptions wopts;
  wopts.num_nodes = kNodes;
  wopts.num_entities = w.entities;
  wopts.zipf_theta = kZipfTheta;
  wopts.read_fraction = w.read_fraction;
  wopts.fanout = kFanout;
  // Without inserts every key's value stays one number, so per-transaction
  // cost does not grow with run length.
  wopts.with_inserts = false;
  wopts.seed = args.seed;

  // Outlives the deployment that records into it.
  std::optional<threev::Tracer> tracer;
  if (traced) tracer.emplace();
  const std::string tag = std::string(w.name) + (traced ? "-traced-" : "-") +
                          std::to_string(round);
  std::unique_ptr<threev::WorkloadGenerator> gen;
  std::vector<std::string> keys;
  std::unique_ptr<Deployment> dep;
  std::string wal_dir;
  for (int k = 0; k < kSetupsPerRound; ++k) {
    dep.reset();
    RemoveAll(wal_dir);
    if (w.wal) wal_dir = args.out_dir + "/wal-" + tag + "-" + std::to_string(k);
    RemoveAll(wal_dir);
    const int64_t t0 = NowNs();
    gen = std::make_unique<threev::WorkloadGenerator>(wopts);
    keys = gen->AllSummaryKeys();
    DeploymentOptions dopts;
    dopts.tcp = w.tcp;
    dopts.wal_dir = wal_dir;
    dopts.seed = args.seed;
    dopts.tracer = tracer ? &*tracer : nullptr;
    dep = std::make_unique<Deployment>(dopts, keys);
    threev::Status s = dep->Start();
    if (!s.ok()) {
      fail("transport start: " + s.ToString());
      return out;
    }
    out.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  threev::Cluster& cluster = dep->cluster();
  std::vector<std::string> node_wal_dirs;
  if (w.wal) {
    for (size_t i = 0; i < kNodes; ++i) {
      node_wal_dirs.push_back(wal_dir + "/node-" + std::to_string(i));
    }
  }
  std::optional<WalPruner> pruner;
  if (w.wal) pruner.emplace(node_wal_dirs);
  if (tracer) tracer->set_enabled(true);

  ClosedLoop loop(cluster, *gen, dep->probe(), kDepth);
  AdvanceTicker ticker(cluster.coordinator());
  loop.Start();
  std::this_thread::sleep_for(kWarmup);

  const int64_t start = NowNs();
  const int64_t end = start + int64_t{seconds} * 1'000'000'000;
  const Counters before = Counters::Of(dep->metrics());
  if (dep->probe() != nullptr) dep->probe()->ResetCounters();
  loop.SetWindow(start, seconds);
  ticker.SetWindow(start, end);
  std::this_thread::sleep_for(std::chrono::nanoseconds(end - NowNs()));
  out.window_s = static_cast<double>(NowNs() - start) / 1e9;
  const Counters during = Counters::Of(dep->metrics()) - before;

  const int64_t deadline = NowNs() + kDrainNs;
  const bool drained = loop.Drain(deadline);
  const bool ticker_done = ticker.Stop(deadline);
  out.loop = loop.Summarize();
  if (traced) {
    out.layers = LayerMetrics(*dep->probe(), during, loop,
                              out.loop.window_committed, out.window_s,
                              ticker.window_ms(), cluster);
  }

  // --- correctness gate ---------------------------------------------------
  if (!drained) {
    fail(std::to_string(out.loop.submitted - out.loop.resolved) +
         " transactions unresolved at the drain deadline");
  }
  if (out.loop.failed > 0) {
    fail(std::to_string(out.loop.failed) + " transactions failed");
  }
  if (!ticker_done || ticker.failed() > 0) fail("advancement did not finish OK");
  if (!FinalAdvance(cluster.coordinator(), NowNs() + kDrainNs)) {
    fail("final advancement did not complete");
  } else {
    // Conservation: each summary key at vr holds exactly the sum of the
    // committed kAdd amounts (every key was seeded with 0).
    const auto adds = loop.committed_adds();
    int64_t mismatches = 0;
    std::string first;
    for (const std::string& key : keys) {
      const size_t node = std::strtoul(key.c_str() + key.rfind('@') + 1,
                                       nullptr, 10);
      threev::Node& n = cluster.node(node);
      auto value = n.store().Read(key, n.vr());
      auto it = adds.find(key);
      const int64_t want = it == adds.end() ? 0 : it->second;
      if (!value.ok() || value.value().num != want) {
        if (mismatches++ == 0) first = key;
      }
    }
    if (mismatches > 0) {
      fail("conservation: " + std::to_string(mismatches) +
           " summary keys differ from the committed adds, first " + first);
    }
  }
  threev::Status inv = cluster.CheckInvariants();
  if (!inv.ok()) fail("invariants: " + inv.ToString());
  const threev::Metrics& m = dep->metrics();
  if (m.lock_waits.load() != 0 || m.version_gate_waits.load() != 0) {
    fail("pure 3V run waited: lock_waits=" + std::to_string(m.lock_waits.load()) +
         " version_gate_waits=" + std::to_string(m.version_gate_waits.load()));
  }

  if (pruner) pruner->Stop();
  if (tracer) {
    tracer->set_enabled(false);
    const std::string path = args.out_dir + "/trace-" + w.name + ".json";
    if (!tracer->WriteChromeJson(path)) fail("cannot write " + path);
  }
  dep.reset();
  if (traced) {
    WalProbe probe;
    threev::Status s = ProbeWal(
        node_wal_dirs, args.out_dir + "/wal-probe-" + std::string(w.name), probe);
    if (!s.ok()) fail("WAL replay probe: " + s.ToString());
    AddWalProbeMetrics(probe, out.layers);
  }
  RemoveAll(wal_dir);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void PrintRound(const Args& args, const char* phase, const RoundOutcome& r) {
  std::string rates, p99s;
  for (const SliceFigures& f : r.loop.slices) {
    rates += (rates.empty() ? "" : " ") + std::to_string(std::lround(f.txn_per_s));
    p99s += (p99s.empty() ? "" : " ") + std::to_string(std::lround(f.update_p99_us));
  }
  std::printf(
      "# %s seed=%llu %s: txn_per_s=%.0f per second [%s] update_p99_us per "
      "second [%s] update_samples=%lld read_samples=%lld submitted=%lld "
      "failed=%lld setup_s_median=%.4f\n",
      args.workload->name, static_cast<unsigned long long>(args.seed), phase,
      MedianOf(r.loop.slices, &SliceFigures::txn_per_s), rates.c_str(),
      p99s.c_str(),
      static_cast<long long>(r.loop.update_samples),
      static_cast<long long>(r.loop.read_samples),
      static_cast<long long>(r.loop.submitted),
      static_cast<long long>(r.loop.failed), Median(r.setup_s));
  for (const std::string& p : r.problems) std::printf("# FAIL: %s\n", p.c_str());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds >= 1 && args.seconds <= 60 &&
         !args.out_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload record|record_wal|audit_tcp "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  // Pooled over every round of the run.
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  std::vector<SliceFigures> slices;
  auto pool = [&](const RoundOutcome& r, const char* phase) {
    PrintRound(args, phase, r);
    correct = correct && r.problems.empty();
    attempted += r.loop.submitted;
    failed += r.loop.failed + (r.loop.submitted - r.loop.resolved);
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    slices.insert(slices.end(), r.loop.slices.begin(), r.loop.slices.end());
  };

  if (!args.trace) {
    const int rounds = std::min(kRounds, args.seconds);
    for (int i = 0; i < rounds; ++i) {
      const int seconds = args.seconds / rounds + (i < args.seconds % rounds);
      pool(RunRound(args, /*traced=*/false, i, seconds), "untraced");
    }
    PrintResult(correct, attempted, failed,
                {
                    {"txn_per_s", MedianOf(slices, &SliceFigures::txn_per_s), "1/s"},
                    {"update_p50_us", MedianOf(slices, &SliceFigures::update_p50_us), "us"},
                    {"update_p99_us", MedianOf(slices, &SliceFigures::update_p99_us), "us"},
                    {"read_p50_us", MedianOf(slices, &SliceFigures::read_p50_us), "us"},
                    {"read_p99_us", MedianOf(slices, &SliceFigures::read_p99_us), "us"},
                    {"setup_s", Median(setup_s), "s"},
                    {"peak_rss_mb", PeakRssMb(), "MB"},
                });
    return 0;
  }

  // Traced: one untraced round, then one traced round, each of --seconds.
  const RoundOutcome plain = RunRound(args, /*traced=*/false, 0, args.seconds);
  pool(plain, "untraced");
  const RoundOutcome traced = RunRound(args, /*traced=*/true, 0, args.seconds);
  pool(traced, "traced");
  std::vector<Metric> metrics = traced.layers;
  metrics.push_back({"trace.overhead_frac",
                     Ratio(MedianOf(plain.loop.slices, &SliceFigures::txn_per_s),
                           MedianOf(traced.loop.slices, &SliceFigures::txn_per_s)) -
                         1.0,
                     "ratio"});
  metrics.push_back({"fail_frac",
                     Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "ratio"});
  const double mean = ValueOf(metrics, "client.latency_us_mean");
  const double unaccounted = ValueOf(metrics, "client.unaccounted_us");
  std::printf("# critical path leaves %.2f us of %.2f us unaccounted (%.1f%%)\n",
              unaccounted, mean, 100 * Ratio(unaccounted, mean));
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
