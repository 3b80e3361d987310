// Hot-path microbenchmarks with machine-readable output: the per-PR perf
// trajectory for the versioned-store read path and garbage collection, the
// wire codec, WAL group commit, and one hop through each real transport.
// Unlike the google-benchmark targets (bench_micro), this harness emits
// BENCH_hotpath.json (schema checked by tools/check_bench_json.py) so CI can
// archive per-run numbers and future PRs can diff against the committed
// baseline (bench/BENCH_hotpath.baseline.json = pre-optimization seed code,
// bench/BENCH_hotpath.json = current tree).
//
// Usage: bench_hotpath [--quick] [--out FILE]
//   --quick   CI smoke mode: ~20x fewer iterations, same schema.
//   --out     output path (default BENCH_hotpath.json; "-" = stdout).
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "threev/common/random.h"
#include "threev/common/wait_group.h"
#include "threev/durability/wal.h"
#include "threev/metrics/histogram.h"
#include "threev/net/tcp_net.h"
#include "threev/net/thread_net.h"
#include "threev/net/wire.h"
#include "threev/storage/versioned_store.h"
#include "threev/trace/trace.h"

namespace threev {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Latency is sampled per batch of kBatch operations (cheap enough to not
// perturb the loop) and recorded as ns/op into a shared Histogram.
constexpr int kBatch = 64;

// Runs `body(thread_id)` on `threads` threads, where each body performs
// `batches` batches of kBatch operations and records per-op latency into
// `lat`. Returns the filled result row.
HotpathResult RunThreads(const std::string& name, size_t threads,
                         int64_t batches, Histogram& lat,
                         const std::function<void(size_t)>& body) {
  HotpathResult r;
  r.name = name;
  r.threads = threads;
  r.ops = static_cast<int64_t>(threads) * batches * kBatch;
  Clock::time_point start = Clock::now();
  if (threads == 1) {
    body(0);
  } else {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) workers.emplace_back(body, t);
    for (auto& w : workers) w.join();
  }
  r.elapsed_ns = ElapsedNs(start);
  r.p50_ns = lat.Percentile(50);
  r.p99_ns = lat.Percentile(99);
  return r;
}

// --- store-read ------------------------------------------------------------

// Pre-seeds `nkeys` single-version keys with small commuting-summary values
// (the paper's steady state between advancements: exactly one version).
void SeedStore(VersionedStore& store, size_t nkeys,
               std::vector<std::string>& keys) {
  for (size_t i = 0; i < nkeys; ++i) {
    keys.push_back("acct/" + std::to_string(i) + "@0");
    Value v;
    v.num = static_cast<int64_t>(i);
    store.Seed(keys.back(), std::move(v), /*version=*/1);
  }
}

// `threads` readers hammering a small hot key set: the frozen-vr read path.
// A node's store has one writer, its owner thread; concurrent const reads
// with no writer are safe and take no lock, so the row scales with threads.
HotpathResult BenchStoreReadHot(size_t threads, int64_t batches) {
  VersionedStore store;
  std::vector<std::string> keys;
  SeedStore(store, 64, keys);
  Histogram lat;
  auto body = [&](size_t tid) {
    Rng rng(1000 + tid);
    std::vector<size_t> order(1024);
    for (auto& i : order) i = rng.Uniform(keys.size());
    size_t pos = 0;
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      int64_t sink = 0;
      for (int i = 0; i < kBatch; ++i) {
        Result<Value> v = store.Read(keys[order[pos]], 1);
        if (v.ok()) sink += v->num;
        pos = (pos + 1) & 1023;
      }
      lat.Record(ElapsedNs(t0) / kBatch);
      if (sink == -1) std::abort();  // keep the reads observable
    }
  };
  return RunThreads("store_read_hot", threads, batches, lat, body);
}

// Same hot key set through ReadInto: the allocation-free entry point the
// protocol layer (node.cc kGet) actually uses. Reuses one Value across
// calls, so a hit on a value of stable shape does no heap work at all -
// this row is the honest end-to-end hot-path number; store_read_hot keeps
// the Read API comparable with the committed pre-optimization baseline.
HotpathResult BenchStoreReadIntoHot(size_t threads, int64_t batches) {
  VersionedStore store;
  std::vector<std::string> keys;
  SeedStore(store, 64, keys);
  Histogram lat;
  auto body = [&](size_t tid) {
    Rng rng(3000 + tid);
    std::vector<size_t> order(1024);
    for (auto& i : order) i = rng.Uniform(keys.size());
    size_t pos = 0;
    Value v;
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      int64_t sink = 0;
      for (int i = 0; i < kBatch; ++i) {
        if (store.ReadInto(keys[order[pos]], 1, &v).ok()) sink += v.num;
        pos = (pos + 1) & 1023;
      }
      lat.Record(ElapsedNs(t0) / kBatch);
      if (sink == -1) std::abort();
    }
  };
  return RunThreads("store_read_into_hot", threads, batches, lat, body);
}

// store_read_into_hot with a disabled Tracer consulted per op - the exact
// `tracer != nullptr && tracer->enabled()` idiom every instrumentation site
// in node.cc compiles to. The delta against store_read_into_hot is the
// whole cost of shipping tracing support (one relaxed load + branch);
// Main() asserts in-process that it stays within noise, so a regression
// here (e.g. an accidentally unconditional Record()) fails the run rather
// than silently taxing the hot path.
HotpathResult BenchStoreReadIntoTracedOff(size_t threads, int64_t batches) {
  VersionedStore store;
  std::vector<std::string> keys;
  SeedStore(store, 64, keys);
  Histogram lat;
  Tracer gate;  // never enabled: the disabled branch is the measurement
  Tracer* tracer = &gate;
  auto body = [&](size_t tid) {
    // Same seeds as store_read_into_hot: identical access pattern, so the
    // two rows differ only by the gate check.
    Rng rng(3000 + tid);
    std::vector<size_t> order(1024);
    for (auto& i : order) i = rng.Uniform(keys.size());
    size_t pos = 0;
    Value v;
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      int64_t sink = 0;
      for (int i = 0; i < kBatch; ++i) {
        if (store.ReadInto(keys[order[pos]], 1, &v).ok()) sink += v.num;
        if (tracer != nullptr && tracer->enabled()) {
          tracer->Instant(sink, 0, TraceOp::kTask, TraceContext{}, 0);
        }
        pos = (pos + 1) & 1023;
      }
      lat.Record(ElapsedNs(t0) / kBatch);
      if (sink == -1) std::abort();
    }
  };
  return RunThreads("store_read_into_traced_off", threads, batches, lat,
                    body);
}

// Single-threaded uniform reads over a larger key set: the per-read cost
// floor (hashing, lookup, value copy-out) without contention.
HotpathResult BenchStoreReadSpread(int64_t batches) {
  VersionedStore store;
  std::vector<std::string> keys;
  SeedStore(store, 512, keys);
  Histogram lat;
  auto body = [&](size_t) {
    Rng rng(7);
    std::vector<size_t> order(4096);
    for (auto& i : order) i = rng.Uniform(keys.size());
    size_t pos = 0;
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      int64_t sink = 0;
      for (int i = 0; i < kBatch; ++i) {
        Result<Value> v = store.Read(keys[order[pos]], 1);
        if (v.ok()) sink += v->num;
        pos = (pos + 1) & 4095;
      }
      lat.Record(ElapsedNs(t0) / kBatch);
      if (sink == -1) std::abort();
    }
  };
  return RunThreads("store_read_spread", 1, batches, lat, body);
}

// Phase-4 garbage collection at the audit_tcp shape: 13.3k keys per node,
// of which an advancement's worth (90) gained a second copy since the last
// GC. Each op is one GarbageCollect; the updates that dirty the store run
// between the timed GCs, so the row measures GC alone. Latency is per GC.
HotpathResult BenchStoreGc(int64_t rounds) {
  constexpr size_t kKeys = 13'300;
  constexpr int kDirtyPerGc = 90;
  VersionedStore store;
  std::vector<std::string> keys;
  SeedStore(store, kKeys, keys);
  Histogram lat;
  Rng rng(11);
  HotpathResult r;
  r.name = "store_gc";
  r.ops = rounds;
  for (int64_t round = 0; round < rounds; ++round) {
    const Version vu = static_cast<Version>(round) + 2;
    for (int i = 0; i < kDirtyPerGc; ++i) {
      const std::string& key = keys[rng.Uniform(keys.size())];
      (void)store.Update(key, vu, OpAdd(key, 1));
    }
    Clock::time_point t0 = Clock::now();
    store.GarbageCollect(vu);
    const int64_t ns = ElapsedNs(t0);
    lat.Record(ns);
    r.elapsed_ns += ns;
  }
  r.p50_ns = lat.Percentile(50);
  r.p99_ns = lat.Percentile(99);
  return r;
}

// --- wire codec ------------------------------------------------------------

// A representative protocol message: a completion notice carrying a plan
// and read results, roughly the median frame of a telecom workload run.
Message MakeWireMessage() {
  Message m;
  m.type = MsgType::kCompletionNotice;
  m.from = 3;
  m.txn = 123456789;
  m.subtxn = 42;
  m.parent_subtxn = 41;
  m.version = 7;
  m.seq = 99;
  m.flag = true;
  m.plan.node = 3;
  for (int i = 0; i < 4; ++i) {
    m.plan.ops.push_back(OpAdd("bal/entity" + std::to_string(i) + "@3", i));
  }
  m.participants = {3, 4};
  for (int i = 0; i < 4; ++i) {
    Value v;
    v.num = 1000 + i;
    v.ids = {1, 2, 3};
    m.reads.emplace_back("bal/entity" + std::to_string(i) + "@3",
                         std::move(v));
  }
  m.counters_r = {{0, 5}, {1, 7}};
  m.counters_c = {{0, 2}};
  m.status_msg = "ok";
  return m;
}

HotpathResult BenchWireEncode(int64_t batches) {
  Message m = MakeWireMessage();
  size_t frame = EncodeMessage(m).size();
  Histogram lat;
  auto body = [&](size_t) {
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        std::vector<uint8_t> buf = EncodeMessage(m);
        if (buf.size() != frame) std::abort();
      }
      lat.Record(ElapsedNs(t0) / kBatch);
    }
  };
  HotpathResult r = RunThreads("wire_encode", 1, batches, lat, body);
  r.messages = r.ops;
  r.bytes = r.ops * static_cast<int64_t>(frame);
  return r;
}

HotpathResult BenchWireDecode(int64_t batches) {
  Message m = MakeWireMessage();
  std::vector<uint8_t> buf = EncodeMessage(m);
  Histogram lat;
  auto body = [&](size_t) {
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        Result<Message> decoded = DecodeMessage(buf.data(), buf.size());
        if (!decoded.ok()) std::abort();
      }
      lat.Record(ElapsedNs(t0) / kBatch);
    }
  };
  HotpathResult r = RunThreads("wire_decode", 1, batches, lat, body);
  r.messages = r.ops;
  r.bytes = r.ops * static_cast<int64_t>(buf.size());
  return r;
}

// --- WAL group commit -------------------------------------------------------

// The handler shape under group commit: stage the three records a root logs
// before its child request leaves (R counter, kUpdate, R counter), then hand
// them to the OS with one write(2). FsyncPolicy::kNone, as perfbench's
// record_wal runs. One op = 3 stages + 1 commit; latency is per op.
HotpathResult BenchWalStageCommit(int64_t batches) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "threev_bench_hotpath_wal";
  fs::remove_all(dir);
  WalOptions opts;
  opts.dir = dir.string();
  auto wal = WriteAheadLog::Open(opts);
  if (!wal.ok()) std::abort();
  WalRecord counter;
  counter.type = WalRecordType::kCounter;
  counter.version = 7;
  counter.flag = true;
  counter.peer = 1;
  WalRecord update;
  update.type = WalRecordType::kUpdate;
  update.version = 7;
  update.txn = 123456789;
  Value value;
  value.num = 1000;
  update.images.push_back(WalImage{"bal/entity7@3", 7, value});
  Histogram lat;
  auto body = [&](size_t) {
    for (int64_t b = 0; b < batches; ++b) {
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        if (!(*wal)->Append(counter).ok() || !(*wal)->Append(update).ok() ||
            !(*wal)->Append(counter).ok() || !(*wal)->Commit().ok()) {
          std::abort();
        }
      }
      lat.Record(ElapsedNs(t0) / kBatch);
    }
  };
  HotpathResult r = RunThreads("wal_stage_commit", 1, batches, lat, body);
  r.bytes = static_cast<int64_t>((*wal)->bytes_appended());
  wal->reset();
  fs::remove_all(dir);
  return r;
}

// --- transport hop -----------------------------------------------------------

// Endpoint 0 (on `net0`) and endpoint 1 (on `net1`) bounce one message:
// each handler sends it on to the other endpoint through its own transport.
// The row is `hops` one-way hops (send to the other handler's entry) after
// a warm-up of kBatch hops that also opens any connections; latency is
// sampled per kBatch hops. `start` starts the transport(s), `stop` stops
// them before the handlers' captured state goes away.
HotpathResult BenchHop(const std::string& name, Network& net0, Network& net1,
                       const std::function<void()>& start,
                       const std::function<void()>& stop, int64_t hops) {
  const int64_t total = kBatch + hops;
  Histogram lat;
  // One message is in flight at a time, so the handlers run one after
  // another. The state they share is atomic all the same: over TcpNet
  // the handoff between them goes through the kernel, which the C++
  // memory model does not see.
  std::atomic<int64_t> done_hops{0};
  std::atomic<int64_t> t0_ns{0};
  std::atomic<int64_t> batch_ns{0};
  WaitGroup finished;
  finished.Add(1);
  Network* nets[2] = {&net0, &net1};
  for (NodeId self : {NodeId{0}, NodeId{1}}) {
    nets[self]->RegisterEndpoint(self, [&, self](const Message&) {
      const int64_t n = done_hops.fetch_add(1) + 1;
      const int64_t now = Clock::now().time_since_epoch().count();
      if (n == kBatch) {
        t0_ns.store(now);
        batch_ns.store(now);
      } else if (n > kBatch && (n - kBatch) % kBatch == 0) {
        lat.Record((now - batch_ns.exchange(now)) / kBatch);
      }
      if (n == total) {
        finished.Done();
        return;
      }
      Message out;
      out.type = MsgType::kClientSubmit;
      out.from = self;
      out.seq = static_cast<uint64_t>(n);
      nets[self]->Send(1 - self, std::move(out));
    });
  }
  start();
  Message first;
  first.type = MsgType::kClientSubmit;
  first.from = 0;
  net0.Send(1, std::move(first));
  finished.Wait();
  const int64_t end = Clock::now().time_since_epoch().count();
  stop();
  HotpathResult r;
  r.name = name;
  r.threads = 2;
  r.ops = hops;
  r.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::duration(end - t0_ns.load()))
                     .count();
  r.p50_ns = lat.Percentile(50);
  r.p99_ns = lat.Percentile(99);
  r.messages = hops;
  return r;
}

// `n` distinct loopback ports that were free a moment ago: all bound to
// port 0 at once, then released for the TcpNets to bind.
std::vector<uint16_t> FreeLoopbackPorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      std::abort();
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

// ThreadNet: a hop is a mailbox push and, when the other worker is parked,
// an eventfd wakeup.
HotpathResult BenchThreadNetHop(int64_t hops) {
  ThreadNet net;
  return BenchHop("threadnet_hop", net, net, [&] { net.Start(); },
                  [&] { net.Stop(); }, hops);
}

// TcpNet over loopback: a hop is a framed send on one socket and the
// destination worker's read of it.
HotpathResult BenchTcpNetHop(int64_t hops) {
  std::vector<uint16_t> ports = FreeLoopbackPorts(2);
  std::map<NodeId, std::string> peers = {
      {0, "127.0.0.1:" + std::to_string(ports[0])},
      {1, "127.0.0.1:" + std::to_string(ports[1])},
  };
  TcpNet net0(TcpNetOptions{.peers = peers, .listen_port = ports[0]});
  TcpNet net1(TcpNetOptions{.peers = peers, .listen_port = ports[1]});
  auto start = [&] {
    if (!net0.Start().ok() || !net1.Start().ok()) std::abort();
  };
  auto stop = [&] {
    net0.Stop();
    net1.Stop();
  };
  return BenchHop("tcpnet_hop", net0, net1, start, stop, hops);
}

// TcpNet over loopback, frames in bursts: endpoint 0's handler sends
// kBurst frames to endpoint 1 in one turn, so they leave in one write, and
// endpoint 1 answers the last frame of each burst, which starts the next.
// A burst's round trip, spread over its frames, is the cost of one frame.
HotpathResult BenchTcpNetBurst(int64_t bursts) {
  constexpr int kBurst = 8;
  constexpr int64_t kWarmup = 8;
  std::vector<uint16_t> ports = FreeLoopbackPorts(2);
  std::map<NodeId, std::string> peers = {
      {0, "127.0.0.1:" + std::to_string(ports[0])},
      {1, "127.0.0.1:" + std::to_string(ports[1])},
  };
  TcpNet net0(TcpNetOptions{.peers = peers, .listen_port = ports[0]});
  TcpNet net1(TcpNetOptions{.peers = peers, .listen_port = ports[1]});
  Histogram lat;
  // As in BenchHop, the handlers take turns through the kernel.
  std::atomic<int64_t> answers{0};
  std::atomic<int64_t> t0_ns{0};
  std::atomic<int64_t> burst_ns{0};
  WaitGroup finished;
  finished.Add(1);
  net0.RegisterEndpoint(0, [&](const Message&) {
    const int64_t n = answers.fetch_add(1);  // the kick is answer 0
    const int64_t now = Clock::now().time_since_epoch().count();
    if (n == kWarmup) {
      t0_ns.store(now);
      burst_ns.store(now);
    } else if (n > kWarmup) {
      lat.Record((now - burst_ns.exchange(now)) / kBurst);
    }
    if (n == kWarmup + bursts) {
      finished.Done();
      return;
    }
    for (int i = 0; i < kBurst; ++i) {
      Message out;
      out.type = MsgType::kClientSubmit;
      out.from = 0;
      out.seq = static_cast<uint64_t>(i);
      net0.Send(1, std::move(out));
    }
  });
  net1.RegisterEndpoint(1, [&](const Message& m) {
    if (m.seq + 1 != kBurst) return;
    Message answer;
    answer.type = MsgType::kClientSubmit;
    answer.from = 1;
    net1.Send(0, std::move(answer));
  });
  if (!net0.Start().ok() || !net1.Start().ok()) std::abort();
  Message kick;
  kick.type = MsgType::kClientSubmit;
  kick.from = 0;
  net0.Send(0, std::move(kick));
  finished.Wait();
  const int64_t end = Clock::now().time_since_epoch().count();
  net0.Stop();
  net1.Stop();
  HotpathResult r;
  r.name = "tcpnet_burst";
  r.threads = 2;
  r.ops = bursts * kBurst;
  r.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::duration(end - t0_ns.load()))
                     .count();
  r.p50_ns = lat.Percentile(50);
  r.p99_ns = lat.Percentile(99);
  r.messages = bursts * (kBurst + 1);
  return r;
}

void PrintRow(const HotpathResult& r) {
  std::printf("%-24s %2zu thr %12.0f ops/s   p50 %6lldns  p99 %6lldns\n",
              r.name.c_str(), r.threads, r.throughput_ops(),
              static_cast<long long>(r.p50_ns),
              static_cast<long long>(r.p99_ns));
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_hotpath.json";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE] "
                   "[--trace-out FILE]\n", argv[0]);
      return 2;
    }
  }

  const int64_t scale = quick ? 2'000 : 40'000;
  const size_t hw = std::thread::hardware_concurrency();
  const size_t read_threads = hw >= 4 ? 4 : (hw >= 2 ? 2 : 1);

  // With --trace-out each row runs inside a kTask span (args.arg = row
  // index), so the harness itself demos the flight recorder end-to-end and
  // CI archives a schema-checked trace alongside the bench JSON.
  Tracer tracer;
  tracer.set_enabled(!trace_out.empty());
  if (tracer.enabled()) tracer.SetTrackName(0, "bench_hotpath");

  PrintHeader(
      "hot-path microbenchmarks (store read / GC / wire codec / WAL / "
      "transport hop)");
  std::vector<HotpathResult> results;
  auto run = [&](const std::function<HotpathResult()>& fn) {
    TraceContext span;
    if (tracer.enabled()) {
      span = tracer.BeginSpan(NowMicros(), 0, TraceOp::kTask, TraceContext{},
                              static_cast<int64_t>(results.size()));
    }
    results.push_back(fn());
    if (tracer.enabled()) {
      tracer.EndSpan(NowMicros(), 0, TraceOp::kTask, span);
    }
    PrintRow(results.back());
  };
  run([&] { return BenchStoreReadHot(read_threads, scale); });
  run([&] { return BenchStoreReadIntoHot(read_threads, scale); });
  run([&] { return BenchStoreReadIntoTracedOff(read_threads, scale); });
  run([&] { return BenchStoreReadSpread(scale); });
  run([&] { return BenchStoreGc(scale / 40); });
  run([&] { return BenchWireEncode(scale / 4); });
  run([&] { return BenchWireDecode(scale / 4); });
  run([&] { return BenchWalStageCommit(scale / 40); });
  run([&] { return BenchThreadNetHop(scale / 4); });
  run([&] { return BenchTcpNetHop(scale / 4); });
  run([&] { return BenchTcpNetBurst(scale / 16); });

  if (!WriteHotpathJson(out_path, quick, results)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  if (!trace_out.empty()) {
    if (!tracer.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }

  // Disabled-tracing gate: the instrumented row may not fall outside noise
  // of the plain one. The enabled() check is one relaxed load + branch
  // (~1ns against a ~15ns read), so 2x throughput headroom is far beyond
  // shared-runner noise yet still catches an accidentally unconditional
  // Record() (ticket fetch_add + 8 atomic stores per op).
  const HotpathResult* plain = nullptr;
  const HotpathResult* gated = nullptr;
  for (const auto& r : results) {
    if (r.name == "store_read_into_hot") plain = &r;
    if (r.name == "store_read_into_traced_off") gated = &r;
  }
  if (plain != nullptr && gated != nullptr &&
      gated->throughput_ops() * 2.0 < plain->throughput_ops()) {
    std::fprintf(stderr,
                 "tracing overhead out of noise: store_read_into_traced_off "
                 "%.0f ops/s vs store_read_into_hot %.0f ops/s\n",
                 gated->throughput_ops(), plain->throughput_ops());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace threev

int main(int argc, char** argv) { return threev::bench::Main(argc, argv); }
