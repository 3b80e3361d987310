#ifndef THREEV_VERIFY_HISTORY_H_
#define THREEV_VERIFY_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"
#include "threev/txn/plan.h"

namespace threev {

// Append-only record of what the system did, consumed by the
// serializability checker (verify/checker.h). Engines call the Record*
// hooks; a null recorder pointer disables recording everywhere.
class HistoryRecorder {
 public:
  struct TxnRecord {
    TxnId id = 0;
    Micros submit_time = 0;
    Micros complete_time = 0;
    bool read_only = false;
    TxnClass klass = TxnClass::kWellBehaved;
    bool committed = false;     // false: aborted (or compensated away)
    Version version = 0;        // version the transaction executed in
    TxnSpec spec;               // the submitted plan
    std::map<std::string, Value> reads;  // what kGet ops observed
  };

  void RecordSubmit(TxnId id, const TxnSpec& spec, Micros now) EXCLUDES(mu_);
  void RecordComplete(TxnId id, bool committed, Version version,
                      const std::map<std::string, Value>& reads, Micros now)
      EXCLUDES(mu_);

  // Snapshot accessor (copies under lock; used after a run settles).
  std::vector<TxnRecord> Transactions() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<TxnId, TxnRecord> txns_ GUARDED_BY(mu_);
};

}  // namespace threev

#endif  // THREEV_VERIFY_HISTORY_H_
