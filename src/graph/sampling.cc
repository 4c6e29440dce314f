#include "graph/sampling.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dbg4eth {
namespace graph {

namespace {

/// One ranked counterparty: the Eq. 2 keys, computed once per peer so the
/// comparator does no division.
struct PeerKey {
  double avg = 0.0;    ///< Average transaction value.
  double total = 0.0;  ///< Total transaction value.
  eth::AccountId id = -1;
  int count = 0;
};

/// Rank order of Section III-B1: average value, ties by total value, then
/// by id. A strict total order (ids are unique), so partial_sort selects
/// exactly the prefix a full sort would.
bool RanksBefore(const PeerKey& a, const PeerKey& b) {
  if (a.avg != b.avg) return a.avg > b.avg;
  if (a.total != b.total) return a.total > b.total;
  return a.id < b.id;
}

/// Per-thread scratch reused across SampleSubgraph calls. The cold serving
/// path samples one subgraph per request, and per-call hash sets (selected
/// nodes, local index map, per-node peer aggregation) dominated its cost.
/// Epoch-stamped marker arrays over the ledger's account id space make
/// every membership test one indexed load; bumping the epoch empties a
/// "set" in O(1), so the arrays are reused across calls without clearing.
struct SamplingScratch {
  std::vector<uint64_t> selected_epoch;  ///< Account id -> in selected set.
  std::vector<uint64_t> local_epoch;     ///< Account id -> has local index.
  std::vector<int> local_index;
  std::vector<uint64_t> peer_epoch;  ///< Account id -> seen by CollectPeers.
  std::vector<int> peer_slot;
  std::vector<PeerKey> peers;  ///< CollectPeers output, reused per node.
  uint64_t epoch = 0;

  /// Grows the marker arrays to the ledger's account id space. Stale
  /// entries keep old epochs (never equal to a fresh one), so no clearing
  /// is needed.
  void Prepare(size_t num_accounts) {
    if (selected_epoch.size() < num_accounts) {
      selected_epoch.resize(num_accounts, 0);
      local_epoch.resize(num_accounts, 0);
      local_index.resize(num_accounts, 0);
      peer_epoch.resize(num_accounts, 0);
      peer_slot.resize(num_accounts, 0);
    }
  }
};

SamplingScratch* ThreadScratch() {
  thread_local SamplingScratch scratch;
  return &scratch;
}

/// Aggregates `node`'s counterparties into scratch->peers, in first-touch
/// order (the order does not matter downstream: RanksBefore is a strict
/// total order).
void CollectPeers(const eth::Ledger& ledger, eth::AccountId node,
                  SamplingScratch* scratch) {
  const uint64_t epoch = ++scratch->epoch;
  std::vector<PeerKey>& peers = scratch->peers;
  peers.clear();
  const std::vector<int>& txs = ledger.TransactionsOf(node);
  const std::vector<eth::AccountId>& counterparties =
      ledger.CounterpartiesOf(node);
  for (size_t j = 0; j < txs.size(); ++j) {
    const eth::AccountId peer = counterparties[j];
    if (peer == node) continue;
    if (scratch->peer_epoch[peer] != epoch) {
      scratch->peer_epoch[peer] = epoch;
      scratch->peer_slot[peer] = static_cast<int>(peers.size());
      peers.push_back(PeerKey{0.0, 0.0, peer, 0});
    }
    PeerKey& key = peers[scratch->peer_slot[peer]];
    key.total += ledger.transactions()[txs[j]].value;
    ++key.count;
  }
  for (PeerKey& key : peers) key.avg = key.total / key.count;
}

}  // namespace

Result<eth::TxSubgraph> SampleSubgraph(const eth::Ledger& ledger,
                                       eth::AccountId center,
                                       const SamplingConfig& config) {
  if (config.hops < 1 || config.top_k < 1 || config.max_nodes < 2) {
    return Status::InvalidArgument("invalid sampling config");
  }
  if (center < 0 ||
      center >= static_cast<eth::AccountId>(ledger.accounts().size())) {
    return Status::InvalidArgument("center id out of range");
  }
  if (ledger.TransactionsOf(center).empty()) {
    return Status::NotFound("center account has no transactions");
  }

  SamplingScratch* scratch = ThreadScratch();
  scratch->Prepare(ledger.accounts().size());

  std::vector<eth::AccountId> nodes = {center};
  const uint64_t selected = ++scratch->epoch;
  scratch->selected_epoch[center] = selected;
  std::vector<eth::AccountId> frontier = {center};

  for (int hop = 0; hop < config.hops; ++hop) {
    std::vector<eth::AccountId> next_frontier;
    for (eth::AccountId v : frontier) {
      // Only the top K peers are consumed, so only they are ordered.
      CollectPeers(ledger, v, scratch);
      std::vector<PeerKey>& ranked = scratch->peers;
      const auto top = ranked.begin() + std::min<size_t>(
                                            config.top_k, ranked.size());
      std::partial_sort(ranked.begin(), top, ranked.end(), RanksBefore);
      for (auto it = ranked.begin(); it != top; ++it) {
        // Existing members count toward the per-node budget.
        if (scratch->selected_epoch[it->id] == selected) continue;
        if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
        scratch->selected_epoch[it->id] = selected;
        nodes.push_back(it->id);
        next_frontier.push_back(it->id);
      }
      if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }

  // Local index map.
  const uint64_t local = ++scratch->epoch;
  for (size_t i = 0; i < nodes.size(); ++i) {
    scratch->local_epoch[nodes[i]] = local;
    scratch->local_index[nodes[i]] = static_cast<int>(i);
  }

  // Induced transactions: every ledger tx with both endpoints selected.
  eth::TxSubgraph sub;
  sub.nodes = nodes;
  sub.center_index = 0;
  sub.center_class = ledger.accounts()[center].cls;
  sub.is_contract.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    sub.is_contract[i] =
        ledger.accounts()[nodes[i]].kind == eth::AccountKind::kContract;
  }
  // Each induced transaction is taken while scanning its lower-local-index
  // endpoint (a self-transfer from its only entry): the scan meets it there
  // first, so the push order is the first-seen order of a scan over every
  // incident transaction, and the unstable timestamp sort below sees the
  // same input. The counterparty list settles membership before the
  // transaction itself is loaded.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<int>& txs = ledger.TransactionsOf(nodes[i]);
    const std::vector<eth::AccountId>& counterparties =
        ledger.CounterpartiesOf(nodes[i]);
    for (size_t j = 0; j < txs.size(); ++j) {
      const eth::AccountId peer = counterparties[j];
      if (scratch->local_epoch[peer] != local ||
          scratch->local_index[peer] < static_cast<int>(i)) {
        continue;
      }
      const eth::Transaction& tx = ledger.transactions()[txs[j]];
      eth::LocalTransaction lt;
      lt.src = scratch->local_index[tx.from];
      lt.dst = scratch->local_index[tx.to];
      lt.value = tx.value;
      lt.timestamp = tx.timestamp;
      lt.gas_price = tx.gas_price;
      lt.gas_used = tx.gas_used;
      lt.is_contract_call = tx.is_contract_call;
      sub.txs.push_back(lt);
    }
  }
  std::sort(sub.txs.begin(), sub.txs.end(),
            [](const eth::LocalTransaction& a, const eth::LocalTransaction& b) {
              return a.timestamp < b.timestamp;
            });
  return sub;
}

}  // namespace graph
}  // namespace dbg4eth
