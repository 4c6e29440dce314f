#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eth/appendable_ledger.h"
#include "eth/csv_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "graph/sampling.h"

namespace dbg4eth {
namespace {

eth::LedgerConfig TestLedgerConfig() {
  eth::LedgerConfig config;
  config.num_normal = 600;
  config.num_exchange = 8;
  config.num_ico_wallet = 8;
  config.num_mining = 6;
  config.num_phish_hack = 10;
  config.num_bridge = 6;
  config.num_defi = 6;
  config.duration_days = 90.0;
  config.seed = 321;
  return config;
}

class SamplingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ledger_ = new eth::LedgerSimulator(TestLedgerConfig());
    ASSERT_TRUE(ledger_->Generate().ok());
  }
  static void TearDownTestSuite() {
    delete ledger_;
    ledger_ = nullptr;
  }
  static eth::LedgerSimulator* ledger_;
};

eth::LedgerSimulator* SamplingTest::ledger_ = nullptr;

// --- Reference sampler ---------------------------------------------------
//
// A verbatim copy of SampleSubgraph before it gained the counterparty index
// and top-k selection: it fully sorts every frontier node's peers and
// scans every incident transaction of every selected node, deduplicating
// with a per-transaction marker. The production sampler must return the
// same subgraph field for field — including the order of transactions
// with equal timestamps, which the final unstable sort takes from the
// push order.
namespace reference {

struct PeerStats {
  double total_value = 0.0;
  int count = 0;
  double avg() const { return count > 0 ? total_value / count : 0.0; }
};

struct SamplingScratch {
  std::vector<uint64_t> selected_epoch;
  std::vector<uint64_t> local_epoch;
  std::vector<int> local_index;
  std::vector<uint64_t> peer_epoch;
  std::vector<int> peer_slot;
  std::vector<uint64_t> tx_epoch;
  uint64_t epoch = 0;

  void Prepare(size_t num_accounts, size_t num_txs) {
    if (selected_epoch.size() < num_accounts) {
      selected_epoch.resize(num_accounts, 0);
      local_epoch.resize(num_accounts, 0);
      local_index.resize(num_accounts, 0);
      peer_epoch.resize(num_accounts, 0);
      peer_slot.resize(num_accounts, 0);
    }
    if (tx_epoch.size() < num_txs) tx_epoch.resize(num_txs, 0);
  }
};

SamplingScratch* ThreadScratch() {
  thread_local SamplingScratch scratch;
  return &scratch;
}

std::vector<std::pair<eth::AccountId, PeerStats>> CollectPeers(
    const eth::Ledger& ledger, eth::AccountId node,
    SamplingScratch* scratch) {
  const uint64_t epoch = ++scratch->epoch;
  std::vector<std::pair<eth::AccountId, PeerStats>> peers;
  for (int idx : ledger.TransactionsOf(node)) {
    const eth::Transaction& tx = ledger.transactions()[idx];
    const eth::AccountId peer = tx.from == node ? tx.to : tx.from;
    if (peer == node) continue;
    if (scratch->peer_epoch[peer] != epoch) {
      scratch->peer_epoch[peer] = epoch;
      scratch->peer_slot[peer] = static_cast<int>(peers.size());
      peers.push_back({peer, PeerStats{}});
    }
    PeerStats& st = peers[scratch->peer_slot[peer]].second;
    st.total_value += tx.value;
    ++st.count;
  }
  return peers;
}

Result<eth::TxSubgraph> SampleSubgraph(const eth::Ledger& ledger,
                                       eth::AccountId center,
                                       const graph::SamplingConfig& config) {
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
  scratch->Prepare(ledger.accounts().size(), ledger.transactions().size());

  std::vector<eth::AccountId> nodes = {center};
  const uint64_t selected = ++scratch->epoch;
  scratch->selected_epoch[center] = selected;
  std::vector<eth::AccountId> frontier = {center};

  for (int hop = 0; hop < config.hops; ++hop) {
    std::vector<eth::AccountId> next_frontier;
    for (eth::AccountId v : frontier) {
      auto ranked = CollectPeers(ledger, v, scratch);
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second.avg() != b.second.avg()) {
                    return a.second.avg() > b.second.avg();
                  }
                  if (a.second.total_value != b.second.total_value) {
                    return a.second.total_value > b.second.total_value;
                  }
                  return a.first < b.first;
                });
      int taken = 0;
      for (const auto& [peer, stats] : ranked) {
        if (taken >= config.top_k) break;
        ++taken;
        if (scratch->selected_epoch[peer] == selected) continue;
        if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
        scratch->selected_epoch[peer] = selected;
        nodes.push_back(peer);
        next_frontier.push_back(peer);
      }
      if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }

  const uint64_t local = ++scratch->epoch;
  for (size_t i = 0; i < nodes.size(); ++i) {
    scratch->local_epoch[nodes[i]] = local;
    scratch->local_index[nodes[i]] = static_cast<int>(i);
  }

  eth::TxSubgraph sub;
  sub.nodes = nodes;
  sub.center_index = 0;
  sub.center_class = ledger.accounts()[center].cls;
  sub.is_contract.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    sub.is_contract[i] =
        ledger.accounts()[nodes[i]].kind == eth::AccountKind::kContract;
  }
  const uint64_t seen_tx = ++scratch->epoch;
  for (eth::AccountId v : nodes) {
    for (int idx : ledger.TransactionsOf(v)) {
      if (scratch->tx_epoch[idx] == seen_tx) continue;
      scratch->tx_epoch[idx] = seen_tx;
      const eth::Transaction& tx = ledger.transactions()[idx];
      if (scratch->local_epoch[tx.from] != local ||
          scratch->local_epoch[tx.to] != local) {
        continue;
      }
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

}  // namespace reference

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Samples `center` with both samplers and requires identical results.
void ExpectSameAsReference(const eth::Ledger& ledger, eth::AccountId center,
                           const graph::SamplingConfig& config) {
  SCOPED_TRACE(testing::Message()
               << "center=" << center << " hops=" << config.hops
               << " top_k=" << config.top_k
               << " max_nodes=" << config.max_nodes);
  auto got = graph::SampleSubgraph(ledger, center, config);
  auto want = reference::SampleSubgraph(ledger, center, config);
  ASSERT_EQ(got.status().code(), want.status().code());
  if (!want.ok()) return;
  const eth::TxSubgraph& g = got.ValueOrDie();
  const eth::TxSubgraph& w = want.ValueOrDie();
  EXPECT_EQ(g.nodes, w.nodes);
  EXPECT_EQ(g.is_contract, w.is_contract);
  EXPECT_EQ(g.center_index, w.center_index);
  EXPECT_EQ(g.center_class, w.center_class);
  EXPECT_EQ(g.label, w.label);
  ASSERT_EQ(g.txs.size(), w.txs.size());
  for (size_t i = 0; i < g.txs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "tx " << i);
    EXPECT_EQ(g.txs[i].src, w.txs[i].src);
    EXPECT_EQ(g.txs[i].dst, w.txs[i].dst);
    EXPECT_TRUE(SameBits(g.txs[i].value, w.txs[i].value));
    EXPECT_TRUE(SameBits(g.txs[i].timestamp, w.txs[i].timestamp));
    EXPECT_TRUE(SameBits(g.txs[i].gas_price, w.txs[i].gas_price));
    EXPECT_TRUE(SameBits(g.txs[i].gas_used, w.txs[i].gas_used));
    EXPECT_EQ(g.txs[i].is_contract_call, w.txs[i].is_contract_call);
  }
}

// Library defaults, the serving shapes (top_k 6, max_nodes 48), and small
// budgets where top_k and max_nodes cut the ranking short.
std::vector<graph::SamplingConfig> EquivalenceConfigs() {
  std::vector<graph::SamplingConfig> configs;
  for (auto [hops, top_k, max_nodes] :
       std::vector<std::tuple<int, int, int>>{{2, 10, 512},
                                              {2, 6, 48},
                                              {1, 1, 2},
                                              {2, 2, 5},
                                              {2, 3, 7},
                                              {3, 4, 40}}) {
    graph::SamplingConfig config;
    config.hops = hops;
    config.top_k = top_k;
    config.max_nodes = max_nodes;
    configs.push_back(config);
  }
  return configs;
}

void ExpectLedgerMatchesReference(const eth::Ledger& ledger) {
  for (const graph::SamplingConfig& config : EquivalenceConfigs()) {
    for (const eth::Account& account : ledger.accounts()) {
      ExpectSameAsReference(ledger, account.id, config);
      if (testing::Test::HasFailure()) return;  // One report is enough.
    }
  }
}

TEST_F(SamplingTest, RejectsBadConfig) {
  graph::SamplingConfig bad;
  bad.top_k = 0;
  auto r = graph::SampleSubgraph(*ledger_, 1, bad);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  graph::SamplingConfig ok;
  auto r2 = graph::SampleSubgraph(*ledger_, -5, ok);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SamplingTest, CenterIsFirstNode) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  auto r = graph::SampleSubgraph(*ledger_, exchanges[0], config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const eth::TxSubgraph& sub = r.ValueOrDie();
  EXPECT_EQ(sub.center_index, 0);
  EXPECT_EQ(sub.nodes[0], exchanges[0]);
  EXPECT_EQ(sub.center_class, eth::AccountClass::kExchange);
}

TEST_F(SamplingTest, NodesAreUniqueAndTxsLocal) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  config.top_k = 8;
  auto sub = graph::SampleSubgraph(*ledger_, exchanges[1], config).ValueOrDie();
  std::unordered_set<eth::AccountId> unique(sub.nodes.begin(),
                                            sub.nodes.end());
  EXPECT_EQ(unique.size(), sub.nodes.size());
  ASSERT_EQ(sub.is_contract.size(), sub.nodes.size());
  for (const auto& tx : sub.txs) {
    EXPECT_GE(tx.src, 0);
    EXPECT_LT(tx.src, sub.num_nodes());
    EXPECT_GE(tx.dst, 0);
    EXPECT_LT(tx.dst, sub.num_nodes());
  }
  // Transactions sorted by timestamp.
  for (size_t i = 1; i < sub.txs.size(); ++i) {
    EXPECT_LE(sub.txs[i - 1].timestamp, sub.txs[i].timestamp);
  }
}

TEST_F(SamplingTest, RespectsMaxNodes) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  config.top_k = 50;
  config.max_nodes = 30;
  auto sub = graph::SampleSubgraph(*ledger_, exchanges[0], config).ValueOrDie();
  EXPECT_LE(sub.num_nodes(), 30);
}

TEST_F(SamplingTest, TopKLimitsGrowth) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig small;
  small.top_k = 3;
  graph::SamplingConfig big;
  big.top_k = 15;
  auto sub_small =
      graph::SampleSubgraph(*ledger_, exchanges[2], small).ValueOrDie();
  auto sub_big =
      graph::SampleSubgraph(*ledger_, exchanges[2], big).ValueOrDie();
  EXPECT_LT(sub_small.num_nodes(), sub_big.num_nodes());
  // 2 hops, K=3: at most 1 + 3 + 9 nodes.
  EXPECT_LE(sub_small.num_nodes(), 13);
}

TEST_F(SamplingTest, HighValuePeersPreferred) {
  // The top-1 sampled neighbor of a center must be its max-average-value
  // counterparty.
  const auto miners = ledger_->AccountsOfClass(eth::AccountClass::kMining);
  graph::SamplingConfig config;
  config.hops = 1;
  config.top_k = 1;
  auto sub = graph::SampleSubgraph(*ledger_, miners[0], config).ValueOrDie();
  ASSERT_EQ(sub.num_nodes(), 2);

  // Recompute best average by brute force.
  std::unordered_map<eth::AccountId, std::pair<double, int>> agg;
  for (int idx : ledger_->TransactionsOf(miners[0])) {
    const auto& tx = ledger_->transactions()[idx];
    const eth::AccountId peer = tx.from == miners[0] ? tx.to : tx.from;
    if (peer == miners[0]) continue;
    agg[peer].first += tx.value;
    agg[peer].second += 1;
  }
  double best_avg = -1.0;
  for (const auto& [peer, stats] : agg) {
    best_avg = std::max(best_avg, stats.first / stats.second);
  }
  const eth::AccountId chosen = sub.nodes[1];
  EXPECT_NEAR(agg[chosen].first / agg[chosen].second, best_avg, 1e-9);
}

TEST_F(SamplingTest, MatchesReferenceOnEverySimulatorAccount) {
  ExpectLedgerMatchesReference(*ledger_);
}

TEST(SamplingEquivalenceTest, CsvLedgerWithSelfTransfersAndTies) {
  // Ten accounts with few distinct values and timestamps: equal average
  // (and equal total) values exercise every rank tiebreak, self-transfers
  // sit in a single index entry, and runs of equal timestamps longer than
  // the sort's insertion-sort cutoff make the unstable timestamp sort
  // depend on the push order.
  std::stringstream csv;
  csv << "from,to,value,timestamp,gas_price,gas_used,to_is_contract\n";
  std::mt19937 gen(5);
  const double values[] = {1.0, 2.0, 3.0};
  for (int i = 0; i < 120; ++i) {
    const int from = static_cast<int>(gen() % 10);
    const int to = i % 7 == 0 ? from : static_cast<int>(gen() % 10);
    csv << "0x" << from << ",0x" << to << "," << values[gen() % 3] << ","
        << 100 * (i / 40) << ",1000000000," << (21000 + i) << ","
        << (to == 9 ? 1 : 0) << "\n";
  }
  auto parsed = eth::CsvLedger::FromCsv(&csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const eth::CsvLedger& ledger = *parsed.ValueOrDie();
  bool has_self_transfer = false;
  for (const eth::Transaction& tx : ledger.transactions()) {
    has_self_transfer |= tx.from == tx.to;
  }
  ASSERT_TRUE(has_self_transfer);
  ExpectLedgerMatchesReference(ledger);
  for (int top_k = 1; top_k <= 9; ++top_k) {
    for (int max_nodes = 2; max_nodes <= 11; ++max_nodes) {
      graph::SamplingConfig config;
      config.top_k = top_k;
      config.max_nodes = max_nodes;
      for (const eth::Account& account : ledger.accounts()) {
        ExpectSameAsReference(ledger, account.id, config);
      }
    }
  }
}

TEST_F(SamplingTest, MatchesReferenceOnAppendableLedgerAfterAppends) {
  eth::AppendableLedger growable(*ledger_);
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const double tip = growable.transactions().back().timestamp;
  // Appends at one timestamp between hubs and normal users, plus
  // self-transfers, all landing in already-populated index lists.
  for (int i = 0; i < 40; ++i) {
    eth::Transaction tx;
    tx.from = exchanges[i % exchanges.size()];
    tx.to = i % 5 == 0 ? tx.from : static_cast<eth::AccountId>(1 + 7 * i);
    tx.value = 0.5 * (1 + i % 4);
    tx.timestamp = tip + (i < 20 ? 0.0 : 1.0);
    ASSERT_TRUE(growable.Append(tx).ok());
  }
  ExpectLedgerMatchesReference(growable);
}

class DatasetTest : public SamplingTest {};

TEST_F(DatasetTest, BuildBinaryDataset) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kPhishHack;
  config.max_positives = 6;
  config.num_time_slices = 5;
  config.sampling.top_k = 6;
  auto result = eth::BuildDataset(*ledger_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ds = result.ValueOrDie();
  EXPECT_EQ(ds.target, eth::AccountClass::kPhishHack);
  EXPECT_GT(ds.num_positives(), 0);
  EXPECT_LE(ds.num_positives(), 6);
  // Roughly balanced.
  EXPECT_NEAR(ds.num_positives(), ds.num_graphs() - ds.num_positives(), 2);
  EXPECT_GT(ds.avg_nodes(), 3.0);
  EXPECT_GT(ds.avg_edges(), 2.0);
}

TEST_F(DatasetTest, InstancesCarryBothGraphViews) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kBridge;
  config.max_positives = 4;
  config.num_time_slices = 4;
  config.sampling.top_k = 5;
  auto ds = eth::BuildDataset(*ledger_, config).ValueOrDie();
  for (const auto& inst : ds.instances) {
    EXPECT_EQ(inst.ldg.size(), 4u);
    EXPECT_EQ(inst.gsg.node_features.rows(), inst.subgraph.num_nodes());
    EXPECT_EQ(inst.gsg.node_features.cols(), 15);
    EXPECT_EQ(inst.gsg.edge_features.cols(), 2);
    int ldg_edges = 0;
    for (const auto& slice : inst.ldg) {
      EXPECT_EQ(slice.num_nodes, inst.gsg.num_nodes);
      if (slice.num_edges() > 0) {
        EXPECT_EQ(slice.edge_features.cols(), 1);
      }
      ldg_edges += slice.num_edges();
    }
    // Slicing can only split merged edges further.
    EXPECT_GE(ldg_edges, inst.gsg.num_edges());
  }
}

TEST_F(DatasetTest, RejectsNormalTarget) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kNormal;
  auto result = eth::BuildDataset(*ledger_, config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetTest, StandardizeUsesFitSplit) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kExchange;
  config.max_positives = 5;
  config.sampling.top_k = 5;
  auto ds = eth::BuildDataset(*ledger_, config).ValueOrDie();
  ASSERT_GE(ds.num_graphs(), 4);
  std::vector<int> fit = {0, 1};
  eth::StandardizeDataset(&ds, fit);
  // Features are finite and LDG shares the standardized matrix.
  for (const auto& inst : ds.instances) {
    EXPECT_TRUE(inst.gsg.node_features.AllFinite());
    EXPECT_TRUE(AlmostEqual(inst.gsg.node_features,
                            inst.ldg.front().node_features));
  }
}

TEST_F(DatasetTest, DeterministicUnderSeed) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kMining;
  config.max_positives = 4;
  config.sampling.top_k = 5;
  auto a = eth::BuildDataset(*ledger_, config).ValueOrDie();
  auto b = eth::BuildDataset(*ledger_, config).ValueOrDie();
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  for (int i = 0; i < a.num_graphs(); ++i) {
    EXPECT_EQ(a.instances[i].label, b.instances[i].label);
    EXPECT_EQ(a.instances[i].subgraph.nodes, b.instances[i].subgraph.nodes);
  }
}

}  // namespace
}  // namespace dbg4eth
