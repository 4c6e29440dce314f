#include "eth/tx_index.h"

#include "common/logging.h"

namespace dbg4eth {
namespace eth {

void TxIndex::Build(size_t num_accounts, const std::vector<Transaction>& txs) {
  const auto in_range = [num_accounts](AccountId id) {
    return id >= 0 && static_cast<size_t>(id) < num_accounts;
  };
  std::vector<int> degree(num_accounts, 0);
  for (const Transaction& tx : txs) {
    DBG4ETH_CHECK(in_range(tx.from) && in_range(tx.to))
        << "transaction endpoint outside the account table";
    ++degree[tx.from];
    if (tx.to != tx.from) ++degree[tx.to];
  }
  txs_.assign(num_accounts, {});
  peers_.assign(num_accounts, {});
  for (size_t id = 0; id < num_accounts; ++id) {
    txs_[id].reserve(degree[id]);
    peers_[id].reserve(degree[id]);
  }
  for (int i = 0; i < static_cast<int>(txs.size()); ++i) Append(i, txs[i]);
}

void TxIndex::Append(int index, const Transaction& tx) {
  txs_[tx.from].push_back(index);
  peers_[tx.from].push_back(tx.to);
  if (tx.to != tx.from) {
    txs_[tx.to].push_back(index);
    peers_[tx.to].push_back(tx.from);
  }
}

const std::vector<int>& TxIndex::TransactionsOf(AccountId id) const {
  DBG4ETH_CHECK(id >= 0 && static_cast<size_t>(id) < txs_.size())
      << "account id " << id << " out of range";
  return txs_[id];
}

const std::vector<AccountId>& TxIndex::CounterpartiesOf(AccountId id) const {
  DBG4ETH_CHECK(id >= 0 && static_cast<size_t>(id) < peers_.size())
      << "account id " << id << " out of range";
  return peers_[id];
}

}  // namespace eth
}  // namespace dbg4eth
