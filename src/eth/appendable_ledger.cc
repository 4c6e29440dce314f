#include "eth/appendable_ledger.h"

#include "common/string_util.h"

namespace dbg4eth {
namespace eth {

AppendableLedger::AppendableLedger(const Ledger& base)
    : accounts_(base.accounts()),
      transactions_(base.transactions()),
      coinbase_id_(base.coinbase_id()) {
  index_.Build(accounts_.size(), transactions_);
}

Status AppendableLedger::Append(const Transaction& tx) {
  const auto num_accounts = static_cast<AccountId>(accounts_.size());
  if (tx.from < 0 || tx.from >= num_accounts || tx.to < 0 ||
      tx.to >= num_accounts) {
    return Status::InvalidArgument(
        StrFormat("transaction endpoints (%d -> %d) outside the account "
                  "table of size %d",
                  tx.from, tx.to, num_accounts));
  }
  if (!transactions_.empty() &&
      tx.timestamp < transactions_.back().timestamp) {
    return Status::InvalidArgument(StrFormat(
        "appended timestamp %.3f precedes ledger tip %.3f", tx.timestamp,
        transactions_.back().timestamp));
  }
  const int index = static_cast<int>(transactions_.size());
  transactions_.push_back(tx);
  index_.Append(index, tx);
  return Status::OK();
}

}  // namespace eth
}  // namespace dbg4eth
