// Layer probes of the traced run. Every probe times calls into a layer's
// public function from benchmark code; nothing inside the program is
// instrumented.
//
//  - training probe: GSG and LDG TrainSession epochs. The trainers are
//    deterministic, so this re-creates the served model's branch encoders;
//  - stage probe: the solo cold score split into its layer calls, on the
//    first kProbeKeys scoreable addresses, beside an untraced solo score of
//    the same address (the cross-check that the stages account for it).
//    The branch forwards run on the training probe's encoders: encoders
//    with fresh random weights would time differently, because the matmul
//    kernels skip zero entries and trained activations are sparser;
//  - serving probe: in-process and HTTP cache hits of the same keys.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "features/node_features.h"
#include "graph/build.h"
#include "graph/sampling.h"
#include "net/client.h"
#include "tensor/inference.h"
#include "tracer.h"

namespace perfbench {
namespace {

constexpr int kProbeKeys = 200;
constexpr int kHitKeys = 64;
constexpr int kHitRounds = 40;

double MeanUs(const char* name) {
  return Tracer::Get().TotalsOf(name).mean_us();
}

/// Runs `fn` with span recording switched off (untraced reference timing
/// or warm-up inside a traced run).
template <typename Fn>
void Untraced(Fn fn) {
  Tracer& tracer = Tracer::Get();
  const bool was = tracer.enabled();
  tracer.set_enabled(false);
  fn();
  tracer.set_enabled(was);
}

/// One solo cold score, the way a service worker computes it.
double SoloScore(const Fixture& fixture, eth::AccountId address) {
  auto instance = eth::MaterializeInstance(*fixture.ledger, address,
                                           fixture.shapes.sampling,
                                           fixture.shapes.num_time_slices);
  fixture.oracle->Normalize(&instance.ValueOrDie());
  return fixture.oracle->PredictProba(instance.ValueOrDie());
}

struct StageTotals {
  double solo_us = 0.0;
  uint64_t peers_ranked = 0;
  uint64_t nodes_kept = 0;
  uint64_t slices = 0;
  uint64_t empty_slices = 0;
  uint64_t fresh_bytes = 0;
  uint64_t sampler_mismatches = 0;
};

/// One key of the stage probe. Each of the three sequences starts right
/// after a forward pass, as a served cold score does, so every timed stage
/// sees the caches a served score sees:
///   1. untraced solo score (the reference service time);
///   2. the same computation split into its layer calls, each in a span,
///      with the two branch forwards on their own before or after
///      PredictProba (`branches_first`);
///   3. MaterializeInstance as one call.
void StageKey(const Fixture& fixture, const core::GsgEncoder& gsg,
              const core::LdgEncoder& ldg, eth::AccountId key,
              bool branches_first, StageTotals* totals) {
  const auto& sampling = fixture.shapes.sampling;
  const int slices = fixture.shapes.num_time_slices;
  const int64_t request = key + 1;

  Untraced([&] {
    const int64_t start = NowNs();
    (void)SoloScore(fixture, key);
    totals->solo_us += (NowNs() - start) / 1e3;
  });

  Span root("stages", request);
  dbg4eth::Result<eth::TxSubgraph> sub = [&] {
    Span span("graph.sample_subgraph");
    return dbg4eth::graph::SampleSubgraph(*fixture.ledger, key, sampling);
  }();
  eth::GraphInstance instance;
  {
    Span span("graph.build_graphs");
    instance.gsg = dbg4eth::graph::BuildGlobalStaticGraph(sub.ValueOrDie());
    instance.ldg =
        dbg4eth::graph::BuildLocalDynamicGraphs(sub.ValueOrDie(), slices);
  }
  {
    Span span("features.node_features");
    const dbg4eth::Matrix features = dbg4eth::features::LogScaleFeatures(
        dbg4eth::features::ComputeNodeFeatures(sub.ValueOrDie()));
    instance.gsg.node_features = features;
    for (auto& slice : instance.ldg) slice.node_features = features;
  }
  instance.subgraph = std::move(sub).ValueOrDie();
  {
    Span span("core.normalize");
    fixture.oracle->Normalize(&instance);
  }
  // The pass that runs first pays the cache misses of a cold score, the
  // second finds the instance and arena warm; alternating the order over
  // keys splits that evenly between PredictProba and the branch forwards.
  auto branches = [&] {
    {
      Span span("core.gsg_forward");
      dbg4eth::ag::InferenceScope scope;
      (void)gsg.PredictScore(instance.gsg);
    }
    Span span("core.ldg_forward");
    dbg4eth::ag::InferenceScope scope;
    (void)ldg.PredictScore(instance.ldg);
  };
  if (branches_first) branches();
  {
    Span span("core.predict_proba");
    (void)fixture.oracle->PredictProba(instance);
  }
  totals->fresh_bytes +=
      dbg4eth::ag::InferenceArena::ThreadLocal()->pass_stats().fresh_bytes;
  if (!branches_first) branches();
  root.End();

  {
    Span span("eth.materialize", request);
    (void)eth::MaterializeInstance(*fixture.ledger, key, sampling, slices);
  }

  const Expansion expansion = Expand(*fixture.ledger, key, sampling);
  totals->peers_ranked += expansion.peers_ranked;
  totals->nodes_kept += instance.subgraph.nodes.size();
  if (expansion.nodes != instance.subgraph.nodes) ++totals->sampler_mismatches;
  for (const auto& slice : instance.ldg) {
    ++totals->slices;
    totals->empty_slices += slice.num_edges() == 0 ? 1 : 0;
  }
}

/// Trains the two branch encoders the way Dbg4Eth::Train does (same
/// standardization, same train+val indices, same configs).
Status TrainBranches(const Fixture& fixture,
                     std::unique_ptr<core::GsgEncoder>* gsg,
                     std::unique_ptr<core::LdgEncoder>* ldg, double* gsg_s,
                     double* ldg_s) {
  eth::SubgraphDataset dataset = fixture.raw_dataset;
  eth::StandardizeDataset(&dataset, fixture.split.train);
  std::vector<int> indices = fixture.split.train;
  indices.insert(indices.end(), fixture.split.val.begin(),
                 fixture.split.val.end());
  // The served model's config with the fixture's training thread count
  // (thread counts are not checkpointed; the trainers give identical
  // weights for every count).
  const core::Dbg4EthConfig& config = fixture.model_config;
  *gsg = std::make_unique<core::GsgEncoder>(config.gsg);
  {
    core::GsgEncoder::TrainSession session(gsg->get(), &dataset, indices);
    const int64_t start = NowNs();
    while (!session.done()) {
      Span span("core.gsg_train_epoch");
      DBG4ETH_RETURN_NOT_OK(session.RunEpoch());
    }
    *gsg_s = (NowNs() - start) / 1e9;
  }
  *ldg = std::make_unique<core::LdgEncoder>(config.ldg);
  {
    core::LdgEncoder::TrainSession session(ldg->get(), &dataset, indices);
    const int64_t start = NowNs();
    while (!session.done()) {
      Span span("core.ldg_train_epoch");
      DBG4ETH_RETURN_NOT_OK(session.RunEpoch());
    }
    *ldg_s = (NowNs() - start) / 1e9;
  }
  return Status::OK();
}

void PrintStageTable(double solo_us) {
  struct Row {
    const char* stage;
    const char* metric;
    double baseline_ms;
  };
  // ROADMAP baseline: 64 span trees of the bench_serve_throughput set-up.
  const Row rows[] = {
      {"sample_subgraph", "graph.sample_subgraph", 0.66},
      {"build_graphs", "graph.build_graphs", 0.11},
      {"node_features", "features.node_features", 0.08},
      {"normalize", "core.normalize", -1.0},
      {"gsg_forward", "core.gsg_forward", 0.43},
      {"ldg_forward", "core.ldg_forward", 1.77},
  };
  std::printf("stage table (mean per solo cold score; ROADMAP baseline "
              "3.16 ms total):\n");
  std::printf("  %-16s %10s %7s %12s\n", "stage", "this run", "share",
              "baseline");
  for (const Row& row : rows) {
    const double us = MeanUs(row.metric);
    if (row.baseline_ms >= 0) {
      std::printf("  %-16s %8.3f ms %6.1f%% %9.3f ms\n", row.stage, us / 1e3,
                  100.0 * us / solo_us, row.baseline_ms);
    } else {
      std::printf("  %-16s %8.3f ms %6.1f%% %12s\n", row.stage, us / 1e3,
                  100.0 * us / solo_us, "(in rest)");
    }
  }
  const double head = MeanUs("core.predict_proba") -
                      MeanUs("core.gsg_forward") - MeanUs("core.ldg_forward");
  std::printf("  %-16s %8.3f ms %6.1f%% %9.3f ms  (calibrate + gbdt, "
              "residual)\n",
              "head", head / 1e3, 100.0 * head / solo_us, 0.014);
  std::printf("  %-16s %8.3f ms %7s %9.3f ms  (untraced solo service "
              "time)\n",
              "total", solo_us / 1e3, "", 3.16);
}

}  // namespace

Status AddLayerProbes(Fixture* fixture, RunResult* result) {
  // --- training probe ---
  std::unique_ptr<core::GsgEncoder> gsg;
  std::unique_ptr<core::LdgEncoder> ldg;
  double gsg_s = 0.0, ldg_s = 0.0;
  DBG4ETH_RETURN_NOT_OK(TrainBranches(*fixture, &gsg, &ldg, &gsg_s, &ldg_s));
  result->Add("core.gsg_train_s", gsg_s, "s");
  result->Add("core.ldg_train_s", ldg_s, "s");
  result->Add("eth.build_dataset_s", fixture->build_dataset_s, "s");
  result->Add("core.load_ms", fixture->load_ms, "ms");

  // --- stage probe ---
  const int keys = std::min<int>(kProbeKeys, fixture->addresses.size());
  StageTotals totals;
  Untraced([&] {
    StageTotals warmup;
    for (int i = 0; i < keys; ++i) {
      StageKey(*fixture, *gsg, *ldg, fixture->addresses[i], i % 2 == 1,
               &warmup);
    }
  });
  for (int i = 0; i < keys; ++i) {
    StageKey(*fixture, *gsg, *ldg, fixture->addresses[i], i % 2 == 1,
             &totals);
  }
  const double solo_us = totals.solo_us / keys;
  const double staged_us =
      MeanUs("graph.sample_subgraph") + MeanUs("graph.build_graphs") +
      MeanUs("features.node_features") + MeanUs("core.normalize") +
      MeanUs("core.predict_proba");
  const double coverage = staged_us / solo_us;
  PrintStageTable(solo_us);
  std::printf("stage cross-check: stages %.1f us vs solo %.1f us -> %.3f "
              "(%s, bound 10%%)\n",
              staged_us, solo_us, coverage,
              std::abs(coverage - 1.0) <= 0.10 ? "ok" : "OUT OF BOUND");
  if (totals.sampler_mismatches > 0) {
    std::printf("note: the re-derived expansion differs from SampleSubgraph "
                "on %llu keys; graph.peers_ranked is approximate\n",
                static_cast<unsigned long long>(totals.sampler_mismatches));
  }

  result->Add("eth.materialize_us", MeanUs("eth.materialize"), "us");
  result->Add("graph.sample_subgraph_us", MeanUs("graph.sample_subgraph"),
              "us");
  result->Add("graph.peers_ranked",
              static_cast<double>(totals.peers_ranked) / keys, "count");
  result->Add("graph.nodes_kept",
              static_cast<double>(totals.nodes_kept) / keys, "count");
  result->Add("graph.rank_useful_share",
              static_cast<double>(totals.nodes_kept) / totals.peers_ranked,
              "ratio");
  result->Add("graph.build_graphs_us", MeanUs("graph.build_graphs"), "us");
  result->Add("graph.empty_slice_share",
              static_cast<double>(totals.empty_slices) / totals.slices,
              "ratio");
  result->Add("features.node_features_us", MeanUs("features.node_features"),
              "us");
  result->Add("core.normalize_us", MeanUs("core.normalize"), "us");
  result->Add("core.gsg_forward_us", MeanUs("core.gsg_forward"), "us");
  result->Add("core.ldg_forward_us", MeanUs("core.ldg_forward"), "us");
  result->Add("core.predict_proba_us", MeanUs("core.predict_proba"), "us");
  result->Add("core.head_us",
              MeanUs("core.predict_proba") - MeanUs("core.gsg_forward") -
                  MeanUs("core.ldg_forward"),
              "us");
  result->Add("core.solo_service_us", solo_us, "us");
  result->Add("bench.stage_coverage", coverage, "ratio");
  result->Add("tensor.arena_bytes",
              static_cast<double>(
                  dbg4eth::ag::InferenceArena::ThreadLocal()->owned_bytes()),
              "bytes");
  result->Add("tensor.steady_fresh_bytes",
              static_cast<double>(totals.fresh_bytes) / keys, "bytes");

  // --- serving probe: cache hits in process and over HTTP ---
  // Few enough keys that none is evicted from the (sharded) cache.
  const int hit_keys = std::max<int>(
      1, std::min<int>({kHitKeys, static_cast<int>(fixture->addresses.size()),
                        static_cast<int>(fixture->service->cache().capacity() /
                                         8)}));
  for (int i = 0; i < hit_keys; ++i) {
    (void)fixture->service->ScoreAsync(fixture->addresses[i]).get();
  }
  std::unique_ptr<net::HttpServer> probe_server;
  std::unique_ptr<net::ScoringApp> probe_app;
  net::HttpServer* server = fixture->server.get();
  if (server == nullptr) {
    net::HttpServerConfig http;
    http.num_loops = 1;
    http.num_handler_threads = 1;
    probe_server = std::make_unique<net::HttpServer>(http);
    probe_app = std::make_unique<net::ScoringApp>(fixture->service.get(),
                                                  probe_server.get());
    DBG4ETH_RETURN_NOT_OK(probe_server->Start());
    server = probe_server.get();
  }
  std::vector<double> hit_us, http_us;
  {
    net::HttpClient client("127.0.0.1", server->port());
    for (int round = 0; round < kHitRounds; ++round) {
      for (int i = 0; i < hit_keys; ++i) {
        const eth::AccountId key = fixture->addresses[i];
        int64_t start = NowNs();
        bool hit = false;
        {
          Span span("serve.score_async_hit");
          hit = fixture->service->ScoreAsync(key).get().cache_hit;
        }
        if (!hit) continue;
        hit_us.push_back((NowNs() - start) / 1e3);
        start = NowNs();
        {
          Span span("net.post_score_hit");
          (void)client.Post("/v1/score",
                            "{\"address\": " + std::to_string(key) + "}");
        }
        http_us.push_back((NowNs() - start) / 1e3);
      }
    }
  }
  if (probe_server) probe_server->Shutdown();
  const double hit = Median(hit_us);
  result->Add("serve.hit_us", hit, "us");
  result->Add("net.overhead_us", Median(http_us) - hit, "us");

  return Status::OK();
}

}  // namespace perfbench
