#include "threev/core/counters.h"

namespace threev {

CounterTable::Row& CounterTable::RowFor(Version v) {
  auto it = rows_.find(v);
  if (it == rows_.end()) {
    it = rows_.emplace(v, Row{std::vector<int64_t>(num_nodes_, 0),
                              std::vector<int64_t>(num_nodes_, 0)})
             .first;
  }
  return it->second;
}

const CounterTable::Row* CounterTable::FindRow(Version v) const {
  auto it = rows_.find(v);
  return it == rows_.end() ? nullptr : &it->second;
}

void CounterTable::IncR(Version v, NodeId to) {
  RowFor(v).r[to] += 1;
}

void CounterTable::IncC(Version v, NodeId from) {
  RowFor(v).c[from] += 1;
}

int64_t CounterTable::R(Version v, NodeId to) const {
  const Row* row = FindRow(v);
  return row == nullptr ? 0 : row->r[to];
}

int64_t CounterTable::C(Version v, NodeId from) const {
  const Row* row = FindRow(v);
  return row == nullptr ? 0 : row->c[from];
}

std::vector<std::pair<NodeId, int64_t>> CounterTable::SnapshotR(
    Version v) const {
  std::vector<std::pair<NodeId, int64_t>> out;
  const Row* row = FindRow(v);
  for (NodeId q = 0; q < num_nodes_; ++q) {
    out.emplace_back(q, row == nullptr ? 0 : row->r[q]);
  }
  return out;
}

std::vector<std::pair<NodeId, int64_t>> CounterTable::SnapshotC(
    Version v) const {
  std::vector<std::pair<NodeId, int64_t>> out;
  const Row* row = FindRow(v);
  for (NodeId o = 0; o < num_nodes_; ++o) {
    out.emplace_back(o, row == nullptr ? 0 : row->c[o]);
  }
  return out;
}

void CounterTable::Restore(Version v, const std::vector<int64_t>& r,
                           const std::vector<int64_t>& c) {
  Row& row = RowFor(v);
  for (size_t i = 0; i < num_nodes_; ++i) {
    row.r[i] = i < r.size() ? r[i] : 0;
    row.c[i] = i < c.size() ? c[i] : 0;
  }
}

void CounterTable::DropBelow(Version v) {
  rows_.erase(rows_.begin(), rows_.lower_bound(v));
}

std::vector<Version> CounterTable::ActiveVersions() const {
  std::vector<Version> out;
  for (const auto& [v, row] : rows_) out.push_back(v);
  return out;
}

}  // namespace threev
