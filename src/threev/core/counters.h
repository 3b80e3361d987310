#ifndef THREEV_CORE_COUNTERS_H_
#define THREEV_CORE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "threev/common/ids.h"

namespace threev {

// Per-node request/completion counters (Section 2.2 / 4 of the paper).
//
// For each active version v, node p keeps:
//   R(v)[p][q] - subtransaction requests node p sent to node q on version v
//                (q == p counts locally submitted roots);
//   C(v)[o][p] - subtransactions invoked from node o that completed here.
//
// R counters for pair (p,q) live at p; C counters for pair (o,p) live at p.
// The advancement coordinator assembles the global matrices from per-node
// snapshots and declares version-v quiescence when R(v)[p][q] == C(v)[p][q]
// for every pair (see AdvanceCoordinator and DESIGN.md section 5).
//
// The owning node's thread is the table's only user (DESIGN.md section 6),
// so every increment is trivially atomic - the paper's only concurrency
// assumption about these variables. Version rows are created lazily.
class CounterTable {
 public:
  explicit CounterTable(size_t num_nodes) : num_nodes_(num_nodes) {}

  CounterTable(const CounterTable&) = delete;
  CounterTable& operator=(const CounterTable&) = delete;

  // R(v)[me][to] += 1.
  void IncR(Version v, NodeId to);
  // C(v)[from][me] += 1.
  void IncC(Version v, NodeId from);

  int64_t R(Version v, NodeId to) const;
  int64_t C(Version v, NodeId from) const;

  // Snapshots for kCounterReadReply: (peer, count) for every peer.
  std::vector<std::pair<NodeId, int64_t>> SnapshotR(Version v) const;
  std::vector<std::pair<NodeId, int64_t>> SnapshotC(Version v) const;

  // Garbage-collects counters of versions < v (phase 4).
  void DropBelow(Version v);

  // Recovery: installs a checkpointed row wholesale (rows are truncated or
  // zero-padded to the table's node count). Subsequent WAL counter deltas
  // replay on top via IncR/IncC.
  void Restore(Version v, const std::vector<int64_t>& r,
               const std::vector<int64_t>& c);

  // Active version numbers with allocated counters (ascending).
  std::vector<Version> ActiveVersions() const;

 private:
  struct Row {
    std::vector<int64_t> r;
    std::vector<int64_t> c;
  };

  Row& RowFor(Version v);
  const Row* FindRow(Version v) const;

  size_t num_nodes_;
  std::map<Version, Row> rows_;
};

}  // namespace threev

#endif  // THREEV_CORE_COUNTERS_H_
