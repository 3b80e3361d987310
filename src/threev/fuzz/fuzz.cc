#include "threev/fuzz/fuzz.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <sstream>
#include <utility>

#include "threev/common/random.h"
#include "threev/core/cluster.h"
#include "threev/fuzz/fault_plan.h"
#include "threev/fuzz/oracle.h"
#include "threev/metrics/metrics.h"
#include "threev/net/sim_net.h"
#include "threev/verify/history.h"

namespace threev::fuzz {
namespace {

// Independent streams for the whole-run fault rules, salted off the plan
// seed so they never correlate with SimNet's delay stream.
constexpr uint64_t kDropSalt = 0xa0761d6478bd642fULL;
constexpr uint64_t kReorderSalt = 0xe7037ed1a0b428dbULL;

// Numbers the runs of this process, so that two runs of one seed (two
// threads, or two sweeps in two processes) never share a WAL directory.
std::atomic<uint64_t> next_run{0};

std::filesystem::path ScratchDir(const FuzzPlan& plan,
                                 const FuzzOptions& options) {
  if (!options.scratch_dir.empty()) {
    return std::filesystem::path(options.scratch_dir);
  }
  return std::filesystem::temp_directory_path() /
         ("threev_fuzz_" + std::to_string(plan.seed) +
          (plan.quick ? "_q_" : "_") + std::to_string(::getpid()) + "_" +
          std::to_string(next_run.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

std::string FuzzResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAIL") << " hash=" << std::hex << history_hash
     << std::dec << " committed=" << committed << " aborted=" << aborted
     << " orphans=" << orphans << " crashes=" << crashes
     << " drops=" << injected_drops << " delays=" << injected_delays
     << " events=" << events << " virtual_us=" << virtual_elapsed;
  for (const std::string& f : failures) os << "\n  - " << f;
  return os.str();
}

FuzzResult RunPlan(const FuzzPlan& plan, const FuzzOptions& options) {
  FuzzResult result;
  result.events = plan.EventCount();
  const FuzzProfile& prof = plan.profile;
  const size_t n = prof.num_nodes;

  std::filesystem::path scratch = ScratchDir(plan, options);
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::filesystem::create_directories(scratch, ec);

  Metrics metrics;
  HistoryRecorder history;

  SimNetOptions nopts;
  nopts.seed = plan.seed;
  nopts.min_delay = prof.min_delay;
  nopts.mean_extra_delay = prof.mean_extra_delay;
  SimNet net(nopts, &metrics);

  ClusterOptions copts;
  copts.num_nodes = n;
  copts.mode = prof.mode;
  copts.nc_lock_timeout = 50'000;
  copts.inject_abort_probability = prof.abort_probability;
  copts.coordinator_poll_interval = 1'000;
  copts.seed = plan.seed;
  copts.wal_dir = scratch.string();
  copts.twopc_retry_interval = 10'000;
  copts.coordinator_retry_interval = 5'000;
  if (options.injected_bug == FuzzOptions::InjectedBug::kSkipCompletionCounter) {
    copts.test_skip_completion_node = options.bug_node;
  }
  Cluster cluster(copts, &net, &metrics, &history);

  // ---- whole-run fault rules -> SimNet fault injector -------------------
  struct DropState {
    FaultSpec spec;
    uint32_t used = 0;
  };
  std::vector<DropState> drop_rules;
  std::vector<FaultSpec> delay_rules;
  std::vector<FaultSpec> reorder_rules;
  std::map<size_t, FaultSpec> crash_at_round;
  for (const FaultSpec& f : plan.faults) {
    switch (f.kind) {
      case FaultKind::kCrashAtMessage:
        crash_at_round[f.round] = f;  // the generator emits <= 1 per round
        break;
      case FaultKind::kDropRule:
        drop_rules.push_back({f, 0});
        break;
      case FaultKind::kDelayChannel:
        delay_rules.push_back(f);
        break;
      case FaultKind::kReorderChannel:
        reorder_rules.push_back(f);
        break;
    }
  }
  Rng drop_rng(plan.seed ^ kDropSalt);
  Rng reorder_rng(plan.seed ^ kReorderSalt);
  net.SetFaultInjector([&](NodeId to, const Message& msg) {
    SimNet::FaultDecision decision;
    for (DropState& rule : drop_rules) {
      if (msg.type == rule.spec.drop_type && rule.used < rule.spec.budget &&
          drop_rng.Bernoulli(rule.spec.probability)) {
        ++rule.used;
        decision.drop = true;
        return decision;
      }
    }
    for (const FaultSpec& rule : delay_rules) {
      if (msg.from == rule.from && to == rule.to) {
        decision.extra_delay += rule.extra_delay;
      }
    }
    for (const FaultSpec& rule : reorder_rules) {
      if (msg.from == rule.from && to == rule.to &&
          reorder_rng.Bernoulli(rule.probability)) {
        decision.bypass_fifo = true;
      }
    }
    return decision;
  });

  // ---- delivery tap: history hash + external counter tally --------------
  FaultPlan fault_plan(&net, &cluster);
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  auto mix = [&hash](uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ULL;  // FNV-1a prime
  };
  ExpectedMatrix expected;
  fault_plan.SetObserver([&](NodeId to, const Message& msg) {
    mix(static_cast<uint64_t>(net.loop().Now()));
    mix(to);
    mix(msg.from);
    mix(static_cast<uint64_t>(msg.type));
    mix(msg.txn);
    mix(msg.subtxn);
    mix(msg.version);
    mix(msg.seq);
    mix(msg.flag ? 1 : 0);
    mix(msg.compensation ? 1 : 0);
    mix(static_cast<uint64_t>(msg.status_code));
    // Off-diagonal R/C contributions all ride on a delivered subtxn
    // request (compensations included); roots self-count on the diagonal.
    if (msg.type == MsgType::kSubtxnRequest &&
        static_cast<size_t>(msg.from) < n && static_cast<size_t>(to) < n &&
        msg.from != to) {
      auto& row = expected[msg.version];
      if (row.empty()) row.assign(n * n, 0);
      row[static_cast<size_t>(msg.from) * n + to] += 1;
    }
  });

  // ---- run bookkeeping ---------------------------------------------------
  size_t scheduled = 0;  // submits planned so far (incl. not-yet-fired)
  size_t submitted = 0;
  size_t resolved = 0;
  std::vector<std::string> failures;
  std::vector<Status> advancement_statuses;

  auto submit = [&](NodeId origin, const TxnSpec& spec) {
    ++submitted;
    cluster.Submit(origin, spec, [&](const TxnResult& r) {
      ++resolved;
      if (r.status.ok()) {
        ++result.committed;
      } else {
        ++result.aborted;
      }
    });
  };

  // Drained: every planned submit has fired and every non-orphaned request
  // resolved, no advancement running, no incomplete subtransaction trees
  // anywhere. The `scheduled` check matters: a round's early transactions
  // can all resolve while later submits still sit in the event queue, and
  // opening a fault window then would let a kill orphan live trees.
  auto drained = [&] {
    return submitted == scheduled && resolved + result.orphans == submitted &&
           !cluster.coordinator().running() &&
           cluster.TotalPendingSubtxns() == 0 &&
           cluster.client().InFlight() == result.orphans;
  };

  auto drive_advancement = [&](const std::string& context, Micros cap) {
    Status s = DriveAdvancement(net, cluster, cap);
    advancement_statuses.push_back(s);
    if (!s.ok()) {
      failures.push_back("advancement (" + context + "): " + s.ToString());
    }
  };

  // ---- rounds: traffic window then fault window --------------------------
  for (size_t round = 0; round < prof.rounds; ++round) {
    // Traffic window: replay this round's submits at their planned gaps.
    Micros at = 0;
    for (const PlannedTxn& txn : plan.txns) {
      if (txn.round != round) continue;
      at += txn.gap;
      ++scheduled;
      const PlannedTxn* t = &txn;
      net.ScheduleAfter(at, [&submit, t] { submit(t->origin, t->spec); });
    }
    const bool mid_advance = round < plan.advance_during_traffic.size() &&
                             plan.advance_during_traffic[round];
    if (mid_advance) {
      // Overlap an advancement with live traffic, mid-window.
      net.ScheduleAfter(at / 2 + 1, [&cluster, &advancement_statuses] {
        if (cluster.coordinator().running()) return;
        cluster.coordinator().StartAdvancement(
            [&advancement_statuses](Status s) {
              advancement_statuses.push_back(s);
            });
      });
    }
    if (!RunUntilDeadline(net.loop(), net.loop().Now() + options.window_cap,
                          drained)) {
      failures.push_back("round " + std::to_string(round) +
                         ": traffic window never drained");
      break;  // the oracles will document the stuck state
    }

    // Fault window: operate on the drained cluster so a kill can never
    // orphan a well-behaved tree (subtxn requests have no retransmission);
    // 2PC crash points create their own crash-safe traffic via a dedicated
    // non-commuting probe transaction.
    auto crash_it = crash_at_round.find(round);
    if (crash_it != crash_at_round.end()) {
      const FaultSpec& f = crash_it->second;
      size_t armed = fault_plan.Arm(
          {f.at_type, f.victim, f.nth, f.downtime});
      bool root_killed = false;
      if (f.needs_nc_probe) {
        TxnBuilder b(f.probe_origin);
        std::string key = "nc_probe_" + std::to_string(round);
        b.Put(key, "round " + std::to_string(round));
        for (size_t p = 0; p < n; ++p) {
          if (p == f.probe_origin) continue;
          b.Child(static_cast<NodeId>(p),
                  {OpPut(key, "round " + std::to_string(round))});
        }
        root_killed = f.victim == f.probe_origin;
        ++scheduled;
        submit(f.probe_origin, b.Build());
        if (root_killed) {
          // The probe's root dies holding the client's request: presumed
          // abort cleans up the participants but nobody answers the client.
          ++result.orphans;
        }
      }
      drive_advancement("round " + std::to_string(round) + " crash window, " +
                            f.ToString(),
                        options.advancement_cap + f.downtime);
      // Let the victim's restart land and the probe (if any) resolve.
      if (!RunUntilDeadline(
              net.loop(), net.loop().Now() + options.window_cap, [&] {
                return fault_plan.Fired(armed) &&
                       cluster.node_alive(f.victim) && drained();
              })) {
        failures.push_back("round " + std::to_string(round) +
                           ": fault window never converged (" + f.ToString() +
                           ")");
        break;
      }
      if (!fault_plan.Fired(armed)) {
        failures.push_back("crash point never fired: " + f.ToString());
      }
    } else if (!mid_advance) {
      // No fault and no overlapped advancement: advance here anyway so
      // every round ends with fresh version churn.
      drive_advancement("round " + std::to_string(round),
                        options.advancement_cap);
    }
  }

  // ---- final quiescence --------------------------------------------------
  if (!RunUntilDeadline(net.loop(), net.loop().Now() + options.window_cap,
                        drained)) {
    failures.push_back("final drain never completed");
  }
  // Two clean advancements retire and garbage-collect the last versions
  // that carried traffic, so the conservation probe sees settled counters.
  drive_advancement("final #1", options.advancement_cap);
  drive_advancement("final #2", options.advancement_cap);

  // ---- history hash: delivered messages + final per-node state -----------
  for (size_t i = 0; i < n; ++i) {
    if (!cluster.node_alive(i)) {
      mix(0xdeadULL);
      continue;
    }
    Node& node = cluster.node(i);
    mix(node.vu());
    mix(node.vr());
    for (const auto& [key, version, value] : node.store().DumpAll()) {
      for (char c : key) mix(static_cast<uint8_t>(c));
      mix(version);
      mix(static_cast<uint64_t>(value.num));
      for (uint64_t id : value.ids) mix(id);
      for (char c : value.str) mix(static_cast<uint8_t>(c));
    }
  }
  mix(result.committed);
  mix(result.aborted);
  result.history_hash = hash;

  // ---- oracle battery ----------------------------------------------------
  OracleInput oin;
  oin.cluster = &cluster;
  oin.net = &net;
  oin.history = &history;
  oin.wal_dir = scratch.string();
  oin.kills_happened = metrics.node_crashes.load() > 0;
  oin.expected = std::move(expected);
  oin.num_nodes = n;
  OracleReport report = RunOracles(oin);
  for (std::string& f : report.failures) failures.push_back(std::move(f));

  result.failures = std::move(failures);
  result.ok = result.failures.empty();
  result.crashes = metrics.node_crashes.load();
  result.injected_drops = metrics.fault_injected_drops.load();
  result.injected_delays = metrics.fault_injected_delays.load();
  result.virtual_elapsed = net.loop().Now();

  std::filesystem::remove_all(scratch, ec);
  return result;
}

FuzzResult RunSeed(uint64_t seed, bool quick, const FuzzOptions& options) {
  return RunPlan(BuildPlan(seed, quick), options);
}

}  // namespace threev::fuzz
