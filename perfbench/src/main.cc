// Cold-score benchmark of DBG4ETH: one command, four workloads.
//
//   perfbench --workload <cold_solo|warm_http|flood|train> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt-op <i>] [--out-dir <d>]
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs the pass untraced and then traced (spans opened by this benchmark
// around each layer call), runs the layer probes, writes the spans to
// <out-dir>/traces/ and prints the per-layer metrics. The last stdout line
// is the JSON result; the exit code is non-zero when any served score
// differs from the in-process oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/json_util.h"
#include "tracer.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--corrupt-op") {
      options->corrupt_op = std::atoll(value);
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 && !options->workload.empty();
}

using PassFn = Status (*)(Fixture*, PhaseReport*);

struct Workload {
  const char* name;
  PassFn pass;
  ServiceShape shape;
};

bool FindWorkload(const std::string& name, Workload* out) {
  const size_t flood_cache = static_cast<size_t>(
      Shapes().max_addresses * Flood().cache_share);
  const Workload all[] = {
      {"cold_solo", RunColdSolo, ServiceShape{8192, true}},
      {"warm_http", RunWarmHttp, ServiceShape{8192, true}},
      {"flood", RunFlood, ServiceShape{flood_cache, false}},
      {"train", RunTrain, ServiceShape{8192, false}},
  };
  for (const Workload& workload : all) {
    if (name == workload.name) {
      *out = workload;
      return true;
    }
  }
  return false;
}

std::string ResultLine(bool correct, const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : -1.0;
    line += (i > 0 ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            dbg4eth::json::JsonNumberRoundTrip(value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  return line;
}

void PrintPass(const char* label, const PhaseReport& report) {
  std::printf("%s pass: n=%zu p50=%.1f us p99=%.1f us (median of %zu "
              "windows, >= %zu beyond p99 in each) "
              "throughput=%.1f/s cache_hit_share=%.3f attempted=%llu "
              "failed=%llu mismatches=%llu\n",
              label, report.latency.count, report.latency.p50_us,
              report.latency.p99_us, report.latency.windows,
              report.latency.beyond_p99,
              report.throughput_rps, report.cache_hit_share,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.mismatches));
}

int Run(const Options& options) {
  Workload workload;
  if (!FindWorkload(options.workload, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Fixture fixture;
  if (Status st = SetUp(options, workload.shape, /*repeats=*/5, &fixture);
      !st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("set-up: %.3f s (median of 5), train %.3f s (median of %zu), "
              "test F1 %.4f, %zu scoreable addresses, nproc %d\n",
              fixture.setup_s, Median(fixture.train_s),
              fixture.train_s.size(), fixture.test_f1,
              fixture.addresses.size(), fixture.nproc);

  RunResult result;
  result.attempted += fixture.setup_checks;
  result.failed += fixture.setup_mismatches;
  result.mismatches += fixture.setup_mismatches;
  PhaseReport report;
  if (Status st = workload.pass(&fixture, &report); !st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", workload.name,
                 st.ToString().c_str());
    return 1;
  }
  PrintPass(options.trace ? "untraced" : "measured", report);
  result.attempted += report.attempted;
  result.failed += report.failed;
  result.mismatches += report.mismatches;

  if (!options.trace) {
    result.Add("setup_s", fixture.setup_s, "s");
    result.Add("p50_us", report.latency.p50_us, "us");

    result.Add("throughput_rps", report.throughput_rps, "1/s");
    result.Add("peak_rss_mb",
               report.peak_rss_mb > 0 ? report.peak_rss_mb : PeakRssMb(),
               "MiB");
    result.Add("train_s", Median(fixture.train_s), "s");
    result.Add("test_f1", fixture.test_f1, "ratio");
  } else {
    const serve::ServerStats::Snapshot before =
        fixture.service->StatsSnapshot();
    Tracer::Get().set_enabled(true);
    PhaseReport traced;
    if (Status st = workload.pass(&fixture, &traced); !st.ok()) {
      std::fprintf(stderr, "traced %s failed: %s\n", workload.name,
                   st.ToString().c_str());
      return 1;
    }
    const serve::ServerStats::Snapshot after = fixture.service->StatsSnapshot();
    PrintPass("traced", traced);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.mismatches += traced.mismatches;

    const double batched = after.avg_batch_size * after.batches -
                           before.avg_batch_size * before.batches;
    const uint64_t batches = after.batches - before.batches;
    const uint64_t requests = after.requests - before.requests;
    result.Add("loadgen.lag_p99_us", traced.lag_p99_us, "us");
    result.Add("serve.batch_size_mean", batches > 0 ? batched / batches : 0.0,
               "count");
    result.Add("serve.cache_hit_ratio",
               requests > 0 ? static_cast<double>(after.cache_hits -
                                                  before.cache_hits) /
                                  requests
                            : 0.0,
               "ratio");
    result.Add("serve.shed", static_cast<double>(after.shed - before.shed),
               "count");
    result.Add("serve.deadline_exceeded",
               static_cast<double>(after.deadline_exceeded -
                                   before.deadline_exceeded),
               "count");
    result.Add("graph.frontier_reuse_share", traced.frontier_reuse_share,
               "ratio");
    result.Add("obs.trace_overhead_pct",
               100.0 * (traced.primary - report.primary) / report.primary,
               "%");
    if (Status st = AddLayerProbes(&fixture, &result); !st.ok()) {
      std::fprintf(stderr, "layer probes failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    Tracer::Get().set_enabled(false);
    const std::string dir = options.out_dir + "/traces";
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    const std::string path = dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (!Tracer::Get().WriteJson(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }

  const bool correct = result.mismatches == 0;
  std::printf("error_rate: %llu failed / %llu attempted = %.6f; %llu scores "
              "not bit-identical to the in-process oracle\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<double>(result.failed) / result.attempted,
              static_cast<unsigned long long>(result.mismatches));
  for (const Metric& metric : result.metrics) {
    std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", ResultLine(correct, result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_solo|warm_http|flood|"
                 "train> --seed <n> --seconds <s> --trace <0|1> "
                 "[--corrupt-op <i>] [--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(options);
}
