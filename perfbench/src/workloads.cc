// The four workloads. Each runs one measured pass over inputs generated
// from the seed and checks every served score against the oracle.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>

#include "common.h"
#include "common/json_util.h"
#include "common/rng.h"
#include "net/client.h"
#include "tracer.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One POST /v1/score as the client saw it.
struct Served {
  bool ok = false;
  double score = 0.0;
  bool cache_hit = false;
  uint64_t height = 0;
};

Served PostScore(net::HttpClient* client, eth::AccountId address) {
  Served out;
  auto response = client->Post(
      "/v1/score", "{\"address\": " + std::to_string(address) + "}");
  if (!response.ok() || response.ValueOrDie().status != 200) return out;
  auto body = dbg4eth::json::ParseJson(response.ValueOrDie().body);
  if (!body.ok()) return out;
  const auto* score = body.ValueOrDie().Find("score");
  const auto* hit = body.ValueOrDie().Find("cache_hit");
  const auto* height = body.ValueOrDie().Find("ledger_height");
  if (score == nullptr || hit == nullptr || height == nullptr) return out;
  out.ok = true;
  out.score = score->number_value;
  out.cache_hit = hit->bool_value;
  out.height = static_cast<uint64_t>(height->number_value);
  return out;
}

/// One served cold request, kept until it is verified.
struct ColdRecord {
  eth::AccountId address = 0;
  Served served;
};

/// Verifies one epoch of cold_solo at the ledger height it was served at:
/// every score must be a miss, at the current height, and bit-identical
/// to the oracle.
void VerifyEpoch(Fixture* fixture, const std::vector<ColdRecord>& records,
                 PhaseReport* report, FrontierReuse* reuse) {
  const uint64_t height = fixture->service->ledger_height();
  std::vector<double> oracle(records.size(), 0.0);
  std::vector<char> oracle_ok(records.size(), 0);
  ParallelFor(static_cast<int>(records.size()), fixture->nproc, [&](int i) {
    auto score = OracleScore(*fixture, records[i].address);
    if (score.ok()) {
      oracle[i] = score.ValueOrDie();
      oracle_ok[i] = 1;
    }
  });
  for (size_t i = 0; i < records.size(); ++i) {
    const Served& served = records[i].served;
    if (!served.ok || !oracle_ok[i]) {
      ++report->failed;
      continue;
    }
    // A hit or another height would be a score served for the wrong key.
    if (served.cache_hit || served.height != height ||
        !ScoreMatches(fixture, served.score, oracle[i])) {
      ++report->failed;
      ++report->mismatches;
    }
    if (reuse != nullptr) {
      reuse->Add(*fixture->ledger, fixture->shapes.sampling,
                 records[i].address, height);
    }
  }
}

/// Moves the ledger to a new height: one more transaction at the tip.
Status AdvanceLedger(Fixture* fixture) {
  eth::Transaction tip = fixture->ledger->transactions().back();
  tip.timestamp += 1.0;
  DBG4ETH_RETURN_NOT_OK(fixture->ledger->Append(tip));
  fixture->service->RefreshLedgerHeight();
  return Status::OK();
}

}  // namespace

Status RunColdSolo(Fixture* fixture, PhaseReport* report) {
  net::HttpClient client("127.0.0.1", fixture->server->port());
  const bool traced = Tracer::Get().enabled();
  FrontierReuse reuse;
  std::vector<double> latencies;
  double busy_s = 0.0;
  size_t next = 0;
  // Every pass starts at a fresh height, so no key can be cached.
  if (fixture->service->StatsSnapshot().requests > 0) {
    DBG4ETH_RETURN_NOT_OK(AdvanceLedger(fixture));
  }
  std::vector<ColdRecord> epoch;
  while (busy_s < fixture->options.seconds) {
    const eth::AccountId address = fixture->addresses[next];
    const Clock::time_point start = Clock::now();
    Served served;
    {
      Span span("cold_solo.request");
      served = PostScore(&client, address);
    }
    const Clock::time_point end = Clock::now();
    busy_s += UsBetween(start, end) / 1e6;
    latencies.push_back(UsBetween(start, end));
    epoch.push_back(ColdRecord{address, served});
    ++report->attempted;
    if (++next == fixture->addresses.size()) {
      VerifyEpoch(fixture, epoch, report, traced ? &reuse : nullptr);
      epoch.clear();
      next = 0;
      DBG4ETH_RETURN_NOT_OK(AdvanceLedger(fixture));
    }
  }
  VerifyEpoch(fixture, epoch, report, traced ? &reuse : nullptr);
  report->latency = Summarize(latencies);
  report->throughput_rps = WindowedRate(latencies);
  report->primary = report->latency.p50_us;
  report->frontier_reuse_share = reuse.share();
  report->cache_hit_share = 0.0;  // Verified above: every request missed.
  return Status::OK();
}

Status RunWarmHttp(Fixture* fixture, PhaseReport* report) {
  const bool traced = Tracer::Get().enabled();
  // Fill the cache in process (these are the pass's only cold scores).
  FrontierReuse reuse;
  {
    // At most one request per worker in flight, so no packed batch (and
    // no batch-sized arena) forms in a pass that is about cache hits.
    const size_t in_flight = fixture->service->num_workers();
    std::vector<std::future<serve::ScoreResult>> fills;
    const uint64_t height = fixture->service->ledger_height();
    for (size_t i = 0; i < fixture->addresses.size(); ++i) {
      if (fills.size() == i) {
        for (size_t j = i;
             j < std::min(i + in_flight, fixture->addresses.size()); ++j) {
          fills.push_back(fixture->service->ScoreAsync(fixture->addresses[j]));
        }
      }
      const serve::ScoreResult result = fills[i].get();
      ++report->attempted;
      const double expected = fixture->reference.at(fixture->addresses[i]);
      if (!result.ok() || !ScoreMatches(fixture, result.probability,
                                        expected)) {
        ++report->failed;
        report->mismatches += result.ok() ? 1 : 0;
      }
      if (traced) {
        reuse.Add(*fixture->ledger, fixture->shapes.sampling,
                  fixture->addresses[i], height);
      }
    }
  }

  // One keep-alive connection: with more, client and server threads
  // contend for the vCPUs and the hit latency follows the machine's other
  // tenants more than the code.
  net::HttpClient client("127.0.0.1", fixture->server->port());
  const double seconds = fixture->options.seconds;
  std::vector<double> latencies;
  // Reserved up front so the sample buffer's growth does not show in peak
  // RSS (pages are only touched as samples arrive).
  latencies.reserve(static_cast<size_t>(seconds * 100000));
  uint64_t hits = 0;
  size_t next = 0;
  const Clock::time_point begin = Clock::now();
  while (UsBetween(begin, Clock::now()) < seconds * 1e6) {
    const eth::AccountId address = fixture->addresses[next];
    next = (next + 1) % fixture->addresses.size();
    const Clock::time_point start = Clock::now();
    Served served;
    {
      Span span("warm_http.request");
      served = PostScore(&client, address);
    }
    latencies.push_back(UsBetween(start, Clock::now()));
    ++report->attempted;
    hits += served.cache_hit ? 1 : 0;
    if (!served.ok || !served.cache_hit) {
      ++report->failed;
    } else if (!ScoreMatches(fixture, served.score,
                             fixture->reference.at(address))) {
      ++report->failed;
      ++report->mismatches;
    }
  }
  report->latency = Summarize(latencies);
  report->throughput_rps = WindowedRate(latencies);
  report->primary = report->latency.p50_us;
  report->cache_hit_share = static_cast<double>(hits) / latencies.size();
  report->frontier_reuse_share = reuse.share();
  return Status::OK();
}

// --- flood -----------------------------------------------------------------

const FloodShape& Flood() {
  static const FloodShape shape;
  return shape;
}

double FloodShape::Rate(int k) const {
  return std::round(ladder_base_rps * std::pow(ladder_ratio, k));
}

namespace {

/// Arrival schedule of one ladder rung: offsets from the rung start and
/// the address of each arrival.
struct Schedule {
  std::vector<double> offset_us;
  std::vector<eth::AccountId> address;
};

/// Zipf popularity over the scoreable addresses, in seeded rank order.
class ZipfPicker {
 public:
  ZipfPicker(const std::vector<eth::AccountId>& addresses, double exponent,
             uint64_t seed)
      : by_rank_(addresses) {
    dbg4eth::Rng rng(seed);
    rng.Shuffle(&by_rank_);
    double total = 0.0;
    for (size_t r = 0; r < by_rank_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  eth::AccountId Pick(double u) const {
    const size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                     cdf_.begin();
    return by_rank_[std::min(r, by_rank_.size() - 1)];
  }

 private:
  std::vector<eth::AccountId> by_rank_;
  std::vector<double> cdf_;
};

Schedule MakeSchedule(const ZipfPicker& zipf, double rate, double seconds,
                      uint64_t seed) {
  dbg4eth::Rng rng(seed);
  Schedule schedule;
  double t = 0.0;
  while (true) {
    t += rng.Exponential(rate) * 1e6;
    if (t > seconds * 1e6) break;
    schedule.offset_us.push_back(t);
    schedule.address.push_back(zipf.Pick(rng.Uniform()));
  }
  return schedule;
}

struct RungResult {
  double rate = 0.0;
  bool pass = false;
  Latency latency;
  double drain_us = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
};

/// Sends one rung's schedule from this thread (open loop) and waits for
/// every answer. Latency is timed from each arrival's scheduled send.
RungResult RunRung(Fixture* fixture, const Schedule& schedule, double rate,
                   PhaseReport* report, std::vector<double>* lags,
                   std::vector<eth::AccountId>* cold) {
  RungResult rung;
  rung.rate = rate;
  const size_t n = schedule.offset_us.size();
  std::vector<std::future<serve::ScoreResult>> futures;
  futures.reserve(n);
  std::vector<double> lag(n, 0.0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(
                 static_cast<int64_t>(schedule.offset_us[i] * 1e3));
    const Clock::time_point wake =
        due - std::chrono::nanoseconds(
                  static_cast<int64_t>(Flood().spin_us * 1e3));
    if (Clock::now() < wake) std::this_thread::sleep_until(wake);
    while (Clock::now() < due) {
    }
    lag[i] = UsBetween(due, Clock::now());
    Span span("flood.score_async");
    futures.push_back(fixture->service->ScoreAsync(schedule.address[i]));
  }
  std::vector<double> latencies;
  latencies.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const serve::ScoreResult result = futures[i].get();
    ++rung.attempted;
    latencies.push_back(lag[i] + result.latency_us);
    if (!result.ok()) {
      ++rung.failed;
      continue;
    }
    if (result.cache_hit) {
      ++rung.hits;
    } else if (cold != nullptr) {
      cold->push_back(schedule.address[i]);
    }
    if (!ScoreMatches(fixture, result.probability,
                      fixture->reference.at(schedule.address[i]))) {
      ++rung.failed;
      ++report->mismatches;
    }
  }
  const Clock::time_point last_due =
      t0 + std::chrono::nanoseconds(
               static_cast<int64_t>(schedule.offset_us.back() * 1e3));
  rung.drain_us = UsBetween(last_due, Clock::now());
  rung.latency = Summarize(latencies);
  const double limit = Flood().latency_limit_us;
  rung.pass = rung.failed == 0 && rung.latency.p99_us <= limit &&
              rung.drain_us <= limit;
  lags->insert(lags->end(), lag.begin(), lag.end());
  report->attempted += rung.attempted;
  report->failed += rung.failed;
  return rung;
}

}  // namespace

Status RunFlood(Fixture* fixture, PhaseReport* report) {
  const FloodShape& shape = Flood();
  const bool traced = Tracer::Get().enabled();
  const ZipfPicker zipf(fixture->addresses, shape.zipf_exponent,
                        fixture->options.seed * 31 + 5);
  // Every rung's schedule is generated up front from the seed.
  std::vector<Schedule> schedules;
  for (int k = 0; k < shape.ladder_rungs; ++k) {
    const double rate = shape.Rate(k);
    const double samples = k == shape.reference_rung
                               ? shape.reference_samples
                               : shape.min_rung_samples;
    const double seconds = std::max(shape.min_rung_s, samples / rate);
    schedules.push_back(
        MakeSchedule(zipf, rate, seconds, fixture->options.seed * 1009 + k));
  }
  const Schedule warmup =
      MakeSchedule(zipf, shape.Rate(shape.reference_rung), shape.warmup_s,
                   fixture->options.seed * 1009 + 999);

  std::vector<double> lags;
  std::vector<eth::AccountId> cold;
  uint64_t hits = 0, requests = 0;
  (void)RunRung(fixture, warmup, shape.Rate(shape.reference_rung), report,
                &lags, nullptr);
  lags.clear();

  auto probe = [&](int k) {
    RungResult rung = RunRung(fixture, schedules[k], shape.Rate(k), report,
                              &lags, traced ? &cold : nullptr);
    hits += rung.hits;
    requests += rung.attempted;
    std::fprintf(stderr,
                 "  flood rung %2d: %6.0f rps  p50 %8.0f us  p99 %8.0f us  "
                 "drain %7.0f us  %s\n",
                 k, rung.rate, rung.latency.p50_us, rung.latency.p99_us,
                 rung.drain_us, rung.pass ? "pass" : "FAIL");
    return rung;
  };
  // The reference rung gives p50/p99; then a galloping then bisecting
  // search over the fixed ladder finds the highest passing rung.
  const RungResult reference = probe(shape.reference_rung);
  report->peak_rss_mb = PeakRssMb();
  const Clock::time_point begin = Clock::now();
  int lo = reference.pass ? shape.reference_rung : -1;
  int hi = reference.pass ? shape.ladder_rungs : shape.reference_rung;
  int step = 4;
  auto out_of_time = [&] {
    return UsBetween(begin, Clock::now()) > fixture->options.seconds * 1e6;
  };
  while (lo >= 0 && hi == shape.ladder_rungs && lo + 1 < hi &&
         !out_of_time()) {
    const int k = std::min(lo + step, shape.ladder_rungs - 1);
    if (probe(k).pass) {
      lo = k;
      step *= 2;
    } else {
      hi = k;
    }
  }
  while (hi - lo > 1 && !out_of_time()) {
    const int k = lo < 0 ? hi / 2 : (lo + hi) / 2;
    if (probe(k).pass) {
      lo = k;
    } else {
      hi = k;
    }
    if (lo < 0 && k == 0) break;
  }

  report->latency = reference.latency;
  report->throughput_rps = lo >= 0 ? shape.Rate(lo) : 0.0;
  report->primary = reference.latency.p50_us;
  report->cache_hit_share =
      requests > 0 ? static_cast<double>(hits) / requests : 0.0;
  std::vector<double> lag_copy = lags;
  report->lag_p99_us = Quantile(&lag_copy, 0.99);
  if (traced) {
    FrontierReuse reuse;
    const uint64_t height = fixture->service->ledger_height();
    for (eth::AccountId address : cold) {
      reuse.Add(*fixture->ledger, fixture->shapes.sampling, address, height);
    }
    report->frontier_reuse_share = reuse.share();
  }
  return Status::OK();
}

// --- train -----------------------------------------------------------------

Status RunTrain(Fixture* fixture, PhaseReport* report) {
  // The operation is one Dbg4Eth::Train call on the dataset. The oracle's
  // scores of every dataset graph are the reference each retrained model
  // must reproduce bit for bit (training is deterministic).
  eth::SubgraphDataset reference_set = fixture->raw_dataset;
  std::vector<double> expected;
  for (eth::GraphInstance& instance : reference_set.instances) {
    fixture->oracle->Normalize(&instance);
    expected.push_back(fixture->oracle->PredictProba(instance));
  }

  std::vector<double> latencies;
  double busy_s = 0.0;
  while (busy_s < fixture->options.seconds) {
    double train_seconds = 0.0;
    auto trained = TrainModel(*fixture, &train_seconds);
    ++report->attempted;
    if (!trained.ok()) {
      ++report->failed;
      return trained.status();
    }
    busy_s += train_seconds;
    latencies.push_back(train_seconds * 1e6);
    fixture->train_s.push_back(train_seconds);

    const core::Dbg4Eth& model = *trained.ValueOrDie();
    eth::SubgraphDataset own_set = fixture->raw_dataset;
    for (size_t i = 0; i < own_set.instances.size(); ++i) {
      model.Normalize(&own_set.instances[i]);
      ++report->attempted;
      if (!ScoreMatches(fixture, model.PredictProba(own_set.instances[i]),
                        expected[i])) {
        ++report->failed;
        ++report->mismatches;
      }
    }
  }
  // Throughput: encoder training instances processed per second.
  const core::Dbg4EthConfig& config = fixture->model_config;
  const double instances_per_train =
      static_cast<double>(fixture->split.train.size() +
                          fixture->split.val.size()) *
      (config.gsg.epochs + config.ldg.epochs);
  report->latency = Summarize(latencies);
  report->throughput_rps = instances_per_train / (report->latency.p50_us / 1e6);
  report->primary = report->latency.p50_us;
  if (Tracer::Get().enabled()) {
    // The key stream of training is the dataset's centers, each expanded
    // once by BuildDataset on the unchanged ledger.
    FrontierReuse reuse;
    for (const eth::GraphInstance& instance : fixture->raw_dataset.instances) {
      reuse.Add(*fixture->base_ledger, fixture->shapes.sampling,
                instance.subgraph.nodes.front(), 0);
    }
    report->frontier_reuse_share = reuse.share();
  }
  return Status::OK();
}

}  // namespace perfbench
