// Set-up shared by every workload, the in-process oracle, and statistics.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "graph/sampling.h"
#include "ml/split.h"
#include "tracer.h"

namespace perfbench {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // Nearest rank.
  return (*values)[std::min(index, values->size() - 1)];
}

Latency Summarize(const std::vector<double>& samples_us) {
  Latency out;
  out.count = samples_us.size();
  std::vector<double> all = samples_us;
  out.p50_us = Quantile(&all, 0.50);
  out.windows = std::clamp<size_t>(out.count / 1000, 1, 5);
  const size_t size = out.count / out.windows;
  std::vector<double> p99s;
  out.beyond_p99 = out.count;
  for (size_t w = 0; w < out.windows; ++w) {
    std::vector<double> window(samples_us.begin() + w * size,
                               samples_us.begin() + (w + 1) * size);
    const double p99 = Quantile(&window, 0.99);
    p99s.push_back(p99);
    out.beyond_p99 = std::min<size_t>(
        out.beyond_p99,
        window.end() - std::upper_bound(window.begin(), window.end(), p99));
  }
  out.p99_us = Median(p99s);
  return out;
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double WindowedRate(const std::vector<double>& latencies_us) {
  std::vector<double> rates;
  double window_us = 0.0;
  int done = 0;
  for (double latency : latencies_us) {
    window_us += latency;
    ++done;
    if (window_us >= 1e6) {
      rates.push_back(done / (window_us / 1e6));
      window_us = 0.0;
      done = 0;
    }
  }
  if (rates.empty() && window_us > 0) rates.push_back(done / (window_us / 1e6));
  return Median(rates);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

int NumCpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

constexpr int kTrainRepeats = 2;

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

eth::LedgerConfig MakeLedgerConfig(uint64_t seed) {
  eth::LedgerConfig config;
  config.num_normal = 1500;
  config.num_exchange = 120;
  config.num_ico_wallet = 20;
  config.num_mining = 20;
  config.num_phish_hack = 40;
  config.num_bridge = 15;
  config.num_defi = 15;
  config.duration_days = 120.0;
  config.seed = seed;
  return config;
}

core::Dbg4EthConfig MakeModelConfig(const Shapes& shapes, int threads) {
  core::Dbg4EthConfig config;
  config.gsg.hidden_dim = 24;
  config.gsg.epochs = 5;
  config.gsg.num_threads = threads;
  config.ldg.hidden_dim = 24;
  config.ldg.epochs = 3;
  config.ldg.num_time_slices = shapes.num_time_slices;
  config.ldg.batch_size = 4;
  config.ldg.num_threads = threads;
  // A large held-out split keeps one graph's effect on F1 small.
  config.train_fraction = 0.5;
  config.val_fraction = 0.2;
  return config;
}

serve::InferenceServiceConfig MakeServiceConfig(const Fixture& fixture,
                                                const ServiceShape& shape) {
  serve::InferenceServiceConfig config;
  // Service workers plus the load-generating thread stay within nproc,
  // with a core to spare for the dispatcher, the HTTP threads and the OS.
  config.num_workers = std::max(1, fixture.nproc / 2);
  config.queue.max_batch = 8;
  config.queue.max_wait_us = 200;
  config.cache.capacity = shape.cache_capacity;
  config.sampling = fixture.shapes.sampling;
  config.num_time_slices = fixture.shapes.num_time_slices;
  return config;
}

void StopServing(Fixture* fixture) {
  if (fixture->server) fixture->server->Shutdown();
  fixture->app.reset();
  fixture->server.reset();
  if (fixture->service) fixture->service->Shutdown();
  fixture->service.reset();
}

}  // namespace

Fixture::~Fixture() { StopServing(this); }

dbg4eth::Result<std::unique_ptr<core::Dbg4Eth>> TrainModel(
    const Fixture& fixture, double* seconds) {
  eth::SubgraphDataset dataset = fixture.raw_dataset;
  auto model = std::make_unique<core::Dbg4Eth>(fixture.model_config);
  Span span("core.train");
  const int64_t start = NowNs();
  DBG4ETH_RETURN_NOT_OK(model->Train(&dataset, fixture.split));
  *seconds = SecondsSince(start);
  return model;
}

Status SetUp(const Options& options, const ServiceShape& shape, int repeats,
             Fixture* fixture) {
  fixture->options = options;
  fixture->nproc = NumCpus();
  // Two threads: a data-parallel run on every vCPU of a shared machine
  // waits at each gradient reduction for whichever vCPU the host stole.
  fixture->train_threads = std::min(2, fixture->nproc);
  fixture->model_config =
      MakeModelConfig(fixture->shapes, fixture->train_threads);

  std::vector<double> setup_s, dataset_s, load_ms;
  for (int rep = 0; rep < repeats; ++rep) {
    StopServing(fixture);
    fixture->ledger.reset();
    fixture->base_ledger.reset();

    // Ledger and dataset: the inputs, generated from the seed.
    int64_t start = NowNs();
    fixture->base_ledger = std::make_unique<eth::LedgerSimulator>(
        MakeLedgerConfig(options.seed));
    {
      Span span("eth.generate_ledger");
      DBG4ETH_RETURN_NOT_OK(fixture->base_ledger->Generate());
    }
    double seconds = SecondsSince(start);

    eth::DatasetConfig ds_config;
    ds_config.target = eth::AccountClass::kExchange;
    ds_config.max_positives = 120;
    ds_config.sampling = fixture->shapes.sampling;
    ds_config.num_time_slices = fixture->shapes.num_time_slices;
    ds_config.seed = options.seed;
    ds_config.num_threads = fixture->train_threads;
    start = NowNs();
    {
      Span span("eth.build_dataset");
      auto dataset = eth::BuildDataset(*fixture->base_ledger, ds_config);
      if (!dataset.ok()) return dataset.status();
      fixture->raw_dataset = std::move(dataset).ValueOrDie();
    }
    dataset_s.push_back(SecondsSince(start));
    seconds += dataset_s.back();

    if (rep < kTrainRepeats) {
      // Training is reported as train_s, not as set-up. Every training of
      // the same data must give the same checkpoint, byte for byte.
      dbg4eth::Rng rng(fixture->model_config.seed);
      fixture->split = dbg4eth::ml::StratifiedSplit(
          fixture->raw_dataset.labels(), fixture->model_config.train_fraction,
          fixture->model_config.val_fraction, &rng);
      double train_seconds = 0.0;
      auto trained = TrainModel(*fixture, &train_seconds);
      if (!trained.ok()) return trained.status();
      fixture->train_s.push_back(train_seconds);
      std::stringstream checkpoint;
      DBG4ETH_RETURN_NOT_OK(trained.ValueOrDie()->Save(&checkpoint));
      if (rep == 0) {
        fixture->checkpoint = checkpoint.str();
      } else {
        ++fixture->setup_checks;
        if (checkpoint.str() != fixture->checkpoint) {
          ++fixture->setup_mismatches;
        }
      }
    }

    // Serving: load the checkpoint and start the service (and server).
    start = NowNs();
    std::unique_ptr<core::Dbg4Eth> model;
    {
      Span span("core.load");
      std::stringstream checkpoint(fixture->checkpoint);
      auto loaded = core::Dbg4Eth::Load(&checkpoint);
      if (!loaded.ok()) return loaded.status();
      model = std::move(loaded).ValueOrDie();
    }
    load_ms.push_back(SecondsSince(start) * 1e3);
    fixture->ledger =
        std::make_unique<eth::AppendableLedger>(*fixture->base_ledger);
    fixture->service = std::make_unique<serve::InferenceService>(
        MakeServiceConfig(*fixture, shape), std::move(model),
        fixture->ledger.get());
    if (shape.http) {
      net::HttpServerConfig http;
      http.num_loops = 1;
      http.num_handler_threads = 1;
      fixture->server = std::make_unique<net::HttpServer>(http);
      fixture->app = std::make_unique<net::ScoringApp>(
          fixture->service.get(), fixture->server.get());
      DBG4ETH_RETURN_NOT_OK(fixture->server->Start());
    }
    seconds += SecondsSince(start);
    setup_s.push_back(seconds);
  }
  fixture->setup_s = Median(setup_s);
  fixture->build_dataset_s = Median(dataset_s);
  fixture->load_ms = Median(load_ms);

  // Test F1 of the served model, on the held-out split.
  std::stringstream checkpoint(fixture->checkpoint);
  auto oracle = core::Dbg4Eth::Load(&checkpoint);
  if (!oracle.ok()) return oracle.status();
  fixture->oracle = std::move(oracle).ValueOrDie();
  eth::SubgraphDataset test_set = fixture->raw_dataset;
  for (int index : fixture->split.test) {
    fixture->oracle->Normalize(&test_set.instances[index]);
  }
  fixture->test_f1 =
      fixture->oracle->Evaluate(test_set, fixture->split.test).metrics.f1;

  // Scoreable addresses in seeded order, with their oracle scores.
  std::vector<eth::AccountId> candidates;
  const eth::Ledger& ledger = *fixture->ledger;
  for (const eth::Account& account : ledger.accounts()) {
    if (account.id == ledger.coinbase_id()) continue;
    if (ledger.TransactionsOf(account.id).size() >= 2) {
      candidates.push_back(account.id);
    }
  }
  dbg4eth::Rng order(options.seed * 0x9e3779b97f4a7c15ULL + 11);
  order.Shuffle(&candidates);
  const size_t wanted = static_cast<size_t>(fixture->shapes.max_addresses);
  candidates.resize(std::min(candidates.size(), wanted + wanted / 4));
  std::vector<double> scores(candidates.size(), 0.0);
  std::vector<char> ok(candidates.size(), 0);
  ParallelFor(static_cast<int>(candidates.size()), fixture->nproc,
              [&](int i) {
                auto score = OracleScore(*fixture, candidates[i]);
                if (!score.ok()) return;
                scores[i] = score.ValueOrDie();
                ok[i] = 1;
              });
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!ok[i] || fixture->addresses.size() >= wanted) continue;
    fixture->addresses.push_back(candidates[i]);
    fixture->reference[candidates[i]] = scores[i];
  }
  if (fixture->addresses.size() < 100) {
    return Status::FailedPrecondition("too few scoreable addresses");
  }
  return Status::OK();
}

dbg4eth::Result<double> OracleScore(const Fixture& fixture,
                                    eth::AccountId address) {
  auto instance = eth::MaterializeInstance(*fixture.ledger, address,
                                           fixture.shapes.sampling,
                                           fixture.shapes.num_time_slices);
  if (!instance.ok()) return instance.status();
  fixture.oracle->Normalize(&instance.ValueOrDie());
  return fixture.oracle->PredictProba(instance.ValueOrDie());
}

bool ScoreMatches(Fixture* fixture, double served, double expected) {
  if (fixture->op_counter.fetch_add(1) == fixture->options.corrupt_op) {
    served = std::nextafter(served, 2.0);
  }
  return std::memcmp(&served, &expected, sizeof(double)) == 0;
}

Expansion Expand(const eth::Ledger& ledger, eth::AccountId center,
                 const dbg4eth::graph::SamplingConfig& sampling) {
  struct Peer {
    eth::AccountId id;
    double total = 0.0;
    int count = 0;
    double avg() const { return count > 0 ? total / count : 0.0; }
  };
  Expansion out;
  std::unordered_set<eth::AccountId> selected = {center};
  out.nodes = {center};
  std::vector<eth::AccountId> frontier = {center};
  const int max_nodes = sampling.max_nodes;
  for (int hop = 0; hop < sampling.hops; ++hop) {
    std::vector<eth::AccountId> next;
    for (eth::AccountId v : frontier) {
      out.expanded.push_back(v);
      std::unordered_map<eth::AccountId, size_t> slot;
      std::vector<Peer> peers;
      for (int idx : ledger.TransactionsOf(v)) {
        const eth::Transaction& tx = ledger.transactions()[idx];
        const eth::AccountId peer = tx.from == v ? tx.to : tx.from;
        if (peer == v) continue;
        auto [it, fresh] = slot.emplace(peer, peers.size());
        if (fresh) peers.push_back(Peer{peer});
        peers[it->second].total += tx.value;
        ++peers[it->second].count;
      }
      out.peers_ranked += peers.size();
      std::sort(peers.begin(), peers.end(), [](const Peer& a, const Peer& b) {
        if (a.avg() != b.avg()) return a.avg() > b.avg();
        if (a.total != b.total) return a.total > b.total;
        return a.id < b.id;
      });
      int taken = 0;
      for (const Peer& peer : peers) {
        if (taken >= sampling.top_k) break;
        ++taken;
        if (selected.count(peer.id)) continue;
        if (static_cast<int>(out.nodes.size()) >= max_nodes) break;
        selected.insert(peer.id);
        out.nodes.push_back(peer.id);
        next.push_back(peer.id);
      }
      if (static_cast<int>(out.nodes.size()) >= max_nodes) break;
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return out;
}

void FrontierReuse::Add(const eth::Ledger& ledger,
                        const dbg4eth::graph::SamplingConfig& sampling,
                        eth::AccountId center, uint64_t height) {
  for (eth::AccountId node : Expand(ledger, center, sampling).expanded) {
    ++expanded_;
    const uint64_t key = (height << 32) | static_cast<uint32_t>(node);
    if (!seen_.insert(key).second) ++reused_;
  }
}

}  // namespace perfbench
