#ifndef DBG4ETH_ETH_TX_INDEX_H_
#define DBG4ETH_ETH_TX_INDEX_H_

#include <cstddef>
#include <vector>

#include "eth/types.h"

namespace dbg4eth {
namespace eth {

/// \brief Per-account transaction index shared by every Ledger
/// implementation.
///
/// For each account it keeps two parallel lists: the indices (into the
/// ledger's timestamp-sorted transaction array) of every transaction the
/// account sends or receives, in timestamp order, and the counterparty of
/// each — the other endpoint, or the account itself for a self-transfer
/// (which is listed once). The counterparty list lets the sampler decide
/// whether a transaction stays inside a subgraph without loading the
/// transaction itself.
class TxIndex {
 public:
  /// Indexes `txs` for `num_accounts` accounts, replacing any previous
  /// contents. Every endpoint must be a valid account id. Each list is
  /// sized exactly (4 bytes per transaction endpoint, no growth slack).
  void Build(size_t num_accounts, const std::vector<Transaction>& txs);

  /// Indexes `tx`, stored at position `index` of the transaction array
  /// after every transaction indexed so far. Endpoints must be valid.
  void Append(int index, const Transaction& tx);

  /// Both accessors abort when `id` is not an account of the index.
  const std::vector<int>& TransactionsOf(AccountId id) const;
  /// Parallel to TransactionsOf(id).
  const std::vector<AccountId>& CounterpartiesOf(AccountId id) const;

 private:
  std::vector<std::vector<int>> txs_;
  std::vector<std::vector<AccountId>> peers_;
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_TX_INDEX_H_
