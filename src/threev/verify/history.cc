#include "threev/verify/history.h"

namespace threev {

void HistoryRecorder::RecordSubmit(TxnId id, const TxnSpec& spec,
                                   Micros now) {
  MutexLock lock(mu_);
  TxnRecord& rec = txns_[id];
  rec.id = id;
  rec.submit_time = now;
  rec.read_only = spec.read_only;
  rec.klass = spec.klass;
  rec.spec = spec;
}

void HistoryRecorder::RecordComplete(
    TxnId id, bool committed, Version version,
    const std::map<std::string, Value>& reads, Micros now) {
  MutexLock lock(mu_);
  TxnRecord& rec = txns_[id];
  rec.id = id;
  rec.complete_time = now;
  rec.committed = committed;
  rec.version = version;
  rec.reads = reads;
}

std::vector<HistoryRecorder::TxnRecord> HistoryRecorder::Transactions()
    const {
  MutexLock lock(mu_);
  std::vector<TxnRecord> out;
  out.reserve(txns_.size());
  for (const auto& [id, rec] : txns_) out.push_back(rec);
  return out;
}

}  // namespace threev
