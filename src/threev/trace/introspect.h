#ifndef THREEV_TRACE_INTROSPECT_H_
#define THREEV_TRACE_INTROSPECT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "threev/common/ids.h"
#include "threev/net/message.h"

namespace threev {

// Protocol introspection: a decoded kAdminInspectReply. The reply reuses
// the Message payload fields as a generic carrier - `reads` holds a
// string -> Value stat map (numeric stats in Value::num, text in
// Value::str), counters_r / counters_c hold one R row and C column of the
// replying node's counter matrix for the requested version - so the admin
// pair rides the existing wire codec unchanged.
//
// Well-known stat keys (nodes): vu, vr, mode, pending_subtxns, nc_txns,
// gate_waiters, locks_held, lock_waiters, wal_segment, wal_bytes,
// store_keys, max_versions_observed, active_versions (str, comma-separated
// versions whose counter rows are live - the fuzz invariant probe re-probes
// each of them via the request's `version` field).
// Coordinator replies use: epoch, phase, phase_name (str),
// round, vu_view, vr_view, auto_advance, stage_retries (retransmits of the
// current stage) and stalled (1 once that stage used up its retries). `counters_version` on both says
// which version the counter rows describe. Absent keys read as 0 / "".
struct NodeInspection {
  NodeId node = 0;
  std::vector<std::pair<std::string, Value>> stats;
  std::vector<std::pair<NodeId, int64_t>> counters_r;
  std::vector<std::pair<NodeId, int64_t>> counters_c;

  int64_t Stat(const std::string& key, int64_t fallback = 0) const;
  std::string StatStr(const std::string& key) const;
  bool HasStat(const std::string& key) const;

  // "node=2 vu=3 vr=2 pending=0 ..." one-line form for logs and the CLI.
  std::string ToString() const;
};

// Builders / parser shared by Node, AdvanceCoordinator and Client so the
// reply layout is defined in exactly one place.
void InspectPutNum(Message* reply, const std::string& key, int64_t value);
void InspectPutStr(Message* reply, const std::string& key,
                   const std::string& value);
NodeInspection InspectionFromReply(const Message& reply);

// Fills the envelope of a kAdminInspectReply for request `req` (echoes seq
// and trace context, addresses the reply). Callers append stats then Send.
Message MakeInspectReply(const Message& req, NodeId self);

}  // namespace threev

#endif  // THREEV_TRACE_INTROSPECT_H_
