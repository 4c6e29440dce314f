#ifndef DBG4ETH_ETH_LEDGER_BASE_H_
#define DBG4ETH_ETH_LEDGER_BASE_H_

#include <vector>

#include "eth/tx_index.h"
#include "eth/types.h"

namespace dbg4eth {
namespace eth {

/// \brief Read interface of a transaction ledger: the data source the
/// sampling / dataset pipeline consumes.
///
/// Implementations: LedgerSimulator (synthetic behavioural generator),
/// CsvLedger (transactions exported from a real chain, e.g. an Etherscan
/// dump) and AppendableLedger (a growable copy of either). All three keep
/// their per-account index in the shared TxIndex below, so the per-account
/// accessors behave the same for every ledger.
class Ledger {
 public:
  virtual ~Ledger() = default;

  virtual const std::vector<Account>& accounts() const = 0;

  /// All transactions, sorted by timestamp.
  virtual const std::vector<Transaction>& transactions() const = 0;

  /// Indices (into transactions()) of every transaction where `id` is
  /// sender or receiver, in timestamp order; a self-transfer is listed
  /// once. Aborts when `id` is not an account of this ledger (including a
  /// simulator before Generate).
  const std::vector<int>& TransactionsOf(AccountId id) const {
    return index_.TransactionsOf(id);
  }

  /// Parallel to TransactionsOf(id): entry j is the other endpoint of
  /// transaction j, or `id` itself for a self-transfer. Aborts like
  /// TransactionsOf on an out-of-range id.
  const std::vector<AccountId>& CounterpartiesOf(AccountId id) const {
    return index_.CounterpartiesOf(id);
  }

  /// The block-reward source account, when the ledger has one; -1
  /// otherwise. Excluded from negative sampling pools.
  virtual AccountId coinbase_id() const { return -1; }

  /// All account ids of the given class.
  std::vector<AccountId> AccountsOfClass(AccountClass cls) const {
    std::vector<AccountId> out;
    for (const Account& acc : accounts()) {
      if (acc.cls == cls) out.push_back(acc.id);
    }
    return out;
  }

 protected:
  /// Built by each implementation once its transactions are sorted.
  TxIndex index_;
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_LEDGER_BASE_H_
