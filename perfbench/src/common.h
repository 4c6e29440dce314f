// Shared pieces of the cold-score benchmark: options, the per-run result,
// the set-up fixture every workload starts from, and small statistics.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/dbg4eth.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "net/scoring_app.h"
#include "net/server.h"
#include "serve/inference_service.h"

namespace perfbench {

using dbg4eth::Status;
namespace core = dbg4eth::core;
namespace eth = dbg4eth::eth;
namespace net = dbg4eth::net;
namespace serve = dbg4eth::serve;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: the served score of this operation index is corrupted by
  /// one ulp before it is compared, so the run must report a mismatch.
  int64_t corrupt_op = -1;
  /// Where span dumps go (inside the checkout).
  std::string out_dir = ".bench_build";
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.
struct RunResult {
  uint64_t attempted = 0;
  /// Errors, sheds, deadline misses and score mismatches.
  uint64_t failed = 0;
  /// Scores that were not bit-identical to the in-process oracle.
  uint64_t mismatches = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Nearest-rank quantile of `values` (sorted in place).
double Quantile(std::vector<double>* values, double q);

/// Distribution summary of one latency sample set.
struct Latency {
  size_t count = 0;
  double p50_us = 0.0;
  /// Median over consecutive windows of >= 1000 samples (at most five) of
  /// each window's p99, so one disturbed stretch of a run cannot set it.
  double p99_us = 0.0;
  size_t windows = 0;
  /// Samples of the smallest window strictly above its p99 (>= 10).
  size_t beyond_p99 = 0;
};
/// `samples_us` in the order they were taken.
Latency Summarize(const std::vector<double>& samples_us);

double Median(std::vector<double> values);

/// Closed-loop throughput: the median, over the whole one-second windows of
/// a pass's busy time, of operations completed per second. `latencies_us`
/// are back to back in the order they ran. A stall of the machine that
/// stops a few operations for a long time moves one window, not the result.
double WindowedRate(const std::vector<double>& latencies_us);

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

/// Hardware threads available to this process.
int NumCpus();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Workload sizes shared by all workloads (the ROADMAP baseline shapes:
/// top_k 6, max_nodes 48, T = 6, hidden 24).
struct Shapes {
  dbg4eth::graph::SamplingConfig sampling;
  int num_time_slices = 6;
  int max_addresses = 1200;
  Shapes() {
    sampling.top_k = 6;
    sampling.max_nodes = 48;
  }
};

/// Everything a workload starts from: the generated ledger, the trained
/// checkpoint, the oracle model loaded from it, the running service (and
/// HTTP server for the HTTP workloads) and the scoreable address set.
struct Fixture {
  Fixture() = default;
  /// Stops the HTTP server before the app its handlers use, then the
  /// service, joining every thread they started.
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Options options;
  Shapes shapes;
  int nproc = 1;
  /// Training threads (fixed: min(2, nproc)).
  int train_threads = 1;

  std::unique_ptr<eth::LedgerSimulator> base_ledger;
  /// Served ledger; grows in cold_solo to move the ledger height.
  std::unique_ptr<eth::AppendableLedger> ledger;
  eth::SubgraphDataset raw_dataset;  ///< As built (raw log-scaled features).
  dbg4eth::ml::SplitIndices split;
  core::Dbg4EthConfig model_config;
  std::string checkpoint;
  /// In-process oracle: loaded from the same checkpoint the service runs.
  std::unique_ptr<core::Dbg4Eth> oracle;
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<net::HttpServer> server;
  std::unique_ptr<net::ScoringApp> app;

  /// Scoreable addresses in seeded order, and their oracle scores at the
  /// current ledger height.
  std::vector<eth::AccountId> addresses;
  std::unordered_map<eth::AccountId, double> reference;

  // Set-up measurements.
  double setup_s = 0.0;
  double build_dataset_s = 0.0;
  double load_ms = 0.0;
  std::vector<double> train_s;
  double test_f1 = 0.0;
  /// Retrainings in set-up, and those whose checkpoint differed from the
  /// first training's.
  uint64_t setup_checks = 0;
  uint64_t setup_mismatches = 0;

  /// Operation counter for the corruption self-test.
  std::atomic<int64_t> op_counter{0};
};

/// How the service of a workload is configured.
struct ServiceShape {
  size_t cache_capacity = 8192;
  bool http = false;  ///< Also start an HTTP server (one loop, one handler).
};

/// Builds the fixture; set-up is repeated `repeats` times and setup_s is
/// the median. The model is trained twice (train_s).
Status SetUp(const Options& options, const ServiceShape& shape, int repeats,
             Fixture* fixture);

/// Trains a fresh model on a copy of the raw dataset; returns its seconds.
dbg4eth::Result<std::unique_ptr<core::Dbg4Eth>> TrainModel(
    const Fixture& fixture, double* seconds);

/// Oracle score of `address` on the fixture's current ledger: materialize,
/// normalize and PredictProba in process, exactly the served computation.
dbg4eth::Result<double> OracleScore(const Fixture& fixture,
                                    eth::AccountId address);

/// Compares one served score with the oracle bit for bit (after the
/// self-test's deliberate corruption, if this is the chosen operation).
bool ScoreMatches(Fixture* fixture, double served, double expected);

/// The flood workload's fixed load shape. Rung k of the rate ladder sends
/// Poisson arrivals at round(ladder_base_rps * ladder_ratio^k) per second.
struct FloodShape {
  double zipf_exponent = 0.8;
  /// Result-cache capacity as a share of the scoreable address set.
  double cache_share = 1.0 / 16;
  double ladder_base_rps = 100.0;
  double ladder_ratio = 1.05;
  int ladder_rungs = 80;
  /// Rung whose p50/p99 the workload reports; it runs reference_samples
  /// arrivals so the p99 has plenty of samples beyond it.
  int reference_rung = 30;
  double reference_samples = 3000.0;
  /// p99 limit of a passing rung (also bounds the post-rung drain). It sits
  /// where p99 turns steeply upward, so the pass/fail line follows the
  /// service's capacity rather than run-to-run noise in the tail.
  double latency_limit_us = 100000.0;
  /// A search rung lasts min_rung_samples arrivals, and at least min_rung_s.
  double min_rung_samples = 1500.0;
  double min_rung_s = 0.8;
  /// Unmeasured warm-up at the reference rate (fills the cache).
  double warmup_s = 1.0;
  /// The generator sleeps until this long before an arrival is due and
  /// spins the rest, so timer slack does not become request latency.
  double spin_us = 200.0;

  double Rate(int k) const;
};
const FloodShape& Flood();

/// What one pass of a workload measured.
struct PhaseReport {
  Latency latency;  ///< Latency of the workload's operation.
  /// Operations per second; on flood the sustained ladder rate.
  double throughput_rps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  /// How late the load generator issued operations (p99, microseconds).
  double lag_p99_us = 0.0;
  /// Result-cache hits over requests, as the client observed them.
  double cache_hit_share = 0.0;
  /// Frontier reuse over the pass's cold requests (traced passes only).
  double frontier_reuse_share = 0.0;
  /// The number tracing overhead is judged on (p50, or train seconds).
  double primary = 0.0;
  /// Peak RSS when the pass fixes the point to read it (flood reads it
  /// before the rate search, whose reach depends on the machine); 0 means
  /// at the end of the run.
  double peak_rss_mb = 0.0;
};

/// The workloads: one measured pass each.
Status RunColdSolo(Fixture* fixture, PhaseReport* report);
Status RunWarmHttp(Fixture* fixture, PhaseReport* report);
Status RunFlood(Fixture* fixture, PhaseReport* report);
Status RunTrain(Fixture* fixture, PhaseReport* report);

/// Per-layer probes shared by every traced run (see probes.cc).
Status AddLayerProbes(Fixture* fixture, RunResult* result);

/// The sampler's expansion of one center, re-derived from the ledger's
/// counterparty lists with SampleSubgraph's ranking rule.
struct Expansion {
  /// Frontier nodes whose peers were ranked.
  std::vector<eth::AccountId> expanded;
  uint64_t peers_ranked = 0;             ///< Counterparties ranked over them.
  std::vector<eth::AccountId> nodes;     ///< Nodes kept, in selection order.
};
Expansion Expand(const eth::Ledger& ledger, eth::AccountId center,
                 const dbg4eth::graph::SamplingConfig& sampling);

/// Frontier reuse over a request stream: the share of expanded nodes that
/// an earlier request already expanded at the same ledger height.
class FrontierReuse {
 public:
  /// Adds one cold request; `ledger` must be at `height`.
  void Add(const eth::Ledger& ledger,
           const dbg4eth::graph::SamplingConfig& sampling,
           eth::AccountId center, uint64_t height);
  double share() const {
    return expanded_ > 0 ? static_cast<double>(reused_) / expanded_ : 0.0;
  }

 private:
  std::unordered_set<uint64_t> seen_;  ///< (height, node) keys.
  uint64_t expanded_ = 0;
  uint64_t reused_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
