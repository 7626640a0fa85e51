// Negative thread-safety fixture: MUST FAIL to compile under
//   clang++ -Wthread-safety -Werror=thread-safety-analysis
// (scripts/check_thread_safety.sh compiles it and asserts the failure).
//
// It reads TxnTable's slot counter without the registration mutex. If this
// file ever compiles cleanly under the analysis, the
// GUARDED_BY(register_mu_) on TxnTable::next_slot_ has been deleted or
// defeated — the compile-time lock-discipline guarantee for the
// transaction table's registration state is gone.
//
// Never add this file to the build; it exists only for -fsyntax-only.

#include <cstdint>

#include "txn/txn_table.h"

namespace mvstore {

struct TsaNegativeProbe {
  static uint32_t UnguardedTxnTableRead(TxnTable& table) {
    // No MutexLock on register_mu_: the analysis must reject this read of
    // the GUARDED_BY(register_mu_) counter.
    return table.next_slot_;
  }
};

}  // namespace mvstore
