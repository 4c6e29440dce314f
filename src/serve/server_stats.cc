#include "serve/server_stats.h"

#include <cstdio>

#include "common/json_util.h"

namespace dbg4eth {
namespace serve {

namespace {

/// Batch-size buckets: exact up to ~max_batch scales (growth 2, min 1).
obs::HistogramConfig BatchSizeBuckets() {
  obs::HistogramConfig config;
  config.min_value = 1.0;
  config.growth = 2.0;
  config.num_buckets = 16;
  return config;
}

ServerStats::LatencySummary Summarize(const obs::Histogram& histogram) {
  const obs::Histogram::Snapshot snap = histogram.TakeSnapshot();
  ServerStats::LatencySummary summary;
  summary.count = snap.count;
  summary.p50_us = snap.Percentile(0.50);
  summary.p95_us = snap.Percentile(0.95);
  summary.p99_us = snap.Percentile(0.99);
  summary.mean_us = snap.Mean();
  summary.max_us = snap.max;
  return summary;
}

}  // namespace

ServerStats::ServerStats(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry* reg =
      registry != nullptr ? registry : obs::MetricsRegistry::Global();
  const char* kRequestsHelp =
      "Resolved scoring requests by path (cold forward pass, cache hit, "
      "degraded stale serve)";
  mirror_requests_cold_ =
      reg->CounterAt("serve_requests_total", kRequestsHelp,
                     {{"path", "cold"}});
  mirror_requests_hit_ = reg->CounterAt("serve_requests_total", kRequestsHelp,
                                        {{"path", "hit"}});
  mirror_requests_stale_ = reg->CounterAt("serve_requests_total",
                                          kRequestsHelp, {{"path", "stale"}});
  mirror_errors_ = reg->CounterAt(
      "serve_errors_total", "Requests resolved with a non-retryable error");
  mirror_deadline_exceeded_ = reg->CounterAt(
      "serve_deadline_exceeded_total",
      "Requests resolved kDeadlineExceeded without a forward pass");
  mirror_shed_ = reg->CounterAt(
      "serve_shed_total",
      "Requests shed with kResourceExhausted at admission control");
  mirror_retries_ = reg->CounterAt(
      "serve_retries_total", "Cold-path retry attempts beyond the first");
  mirror_batches_ = reg->CounterAt("serve_batches_total",
                                   "Micro-batches popped by serving workers");
  const char* kLatencyHelp =
      "End-to-end request latency in microseconds by path";
  mirror_latency_cold_ = reg->HistogramAt("serve_latency_us", kLatencyHelp,
                                          {{"path", "cold"}});
  mirror_latency_hit_ = reg->HistogramAt("serve_latency_us", kLatencyHelp,
                                         {{"path", "hit"}});
  mirror_latency_stale_ = reg->HistogramAt("serve_latency_us", kLatencyHelp,
                                           {{"path", "stale"}});
  mirror_batch_size_ =
      reg->HistogramAt("serve_batch_size", "Requests per dispatched batch",
                       {}, BatchSizeBuckets());
}

void ServerStats::RecordRequest(double latency_us, bool cache_hit,
                                const std::string& trace_id) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    hit_latency_.Record(latency_us);
    mirror_requests_hit_->Inc();
    mirror_latency_hit_->Record(latency_us, trace_id);
  } else {
    cold_latency_.Record(latency_us);
    mirror_requests_cold_->Inc();
    mirror_latency_cold_->Record(latency_us, trace_id);
  }
}

void ServerStats::RecordError() {
  errors_.fetch_add(1, std::memory_order_relaxed);
  mirror_errors_->Inc();
}

void ServerStats::RecordDeadlineExceeded() {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  mirror_deadline_exceeded_->Inc();
}

void ServerStats::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
  mirror_shed_->Inc();
}

void ServerStats::RecordRetry() {
  retried_.fetch_add(1, std::memory_order_relaxed);
  mirror_retries_->Inc();
}

void ServerStats::RecordStaleServed(double latency_us,
                                    const std::string& trace_id) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  stale_served_.fetch_add(1, std::memory_order_relaxed);
  stale_latency_.Record(latency_us);
  mirror_requests_stale_->Inc();
  mirror_latency_stale_->Record(latency_us, trace_id);
}

void ServerStats::SetWorkers(int workers) {
  workers_.store(workers, std::memory_order_relaxed);
}

void ServerStats::RecordBatch(size_t batch_size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch_size, std::memory_order_relaxed);
  mirror_batches_->Inc();
  mirror_batch_size_->Record(static_cast<double>(batch_size));
}

ServerStats::Snapshot ServerStats::TakeSnapshot() const {
  // All counters are independent relaxed atomics: one explicit-ordering
  // pass up front reads them as close together in time as possible, and
  // the derived ratios below are computed from these loads only (never
  // from a second, later read that could disagree).
  const uint64_t requests = requests_.load(std::memory_order_relaxed);
  const uint64_t cache_hits = cache_hits_.load(std::memory_order_relaxed);
  const uint64_t errors = errors_.load(std::memory_order_relaxed);
  const uint64_t deadline =
      deadline_exceeded_.load(std::memory_order_relaxed);
  const uint64_t shed = shed_.load(std::memory_order_relaxed);
  const uint64_t retried = retried_.load(std::memory_order_relaxed);
  const uint64_t stale_served = stale_served_.load(std::memory_order_relaxed);
  const uint64_t batches = batches_.load(std::memory_order_relaxed);
  const uint64_t batched = batched_requests_.load(std::memory_order_relaxed);

  Snapshot snapshot;
  snapshot.requests = requests;
  snapshot.cache_hits = cache_hits;
  snapshot.errors = errors;
  snapshot.deadline_exceeded = deadline;
  snapshot.shed = shed;
  snapshot.retried = retried;
  snapshot.stale_served = stale_served;
  snapshot.batches = batches;
  snapshot.avg_batch_size =
      batches == 0 ? 0.0
                   : static_cast<double>(batched) / static_cast<double>(batches);
  snapshot.cache_hit_rate =
      requests == 0
          ? 0.0
          : static_cast<double>(cache_hits) / static_cast<double>(requests);
  snapshot.workers = workers_.load(std::memory_order_relaxed);
  snapshot.cold = Summarize(cold_latency_);
  snapshot.hit = Summarize(hit_latency_);
  snapshot.stale = Summarize(stale_latency_);
  return snapshot;
}

std::string ServerStats::Format(const Snapshot& s) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "requests=%llu hits=%llu (%.1f%%) errors=%llu "
                "batches=%llu avg_batch=%.2f workers=%d\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.cache_hits),
                100.0 * s.cache_hit_rate,
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.batches), s.avg_batch_size,
                s.workers);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "cold latency (us): n=%llu p50=%.1f p95=%.1f p99=%.1f "
                "mean=%.1f max=%.1f\n",
                static_cast<unsigned long long>(s.cold.count), s.cold.p50_us,
                s.cold.p95_us, s.cold.p99_us, s.cold.mean_us, s.cold.max_us);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "deadline_exceeded=%llu shed=%llu retried=%llu "
                "stale_served=%llu\n",
                static_cast<unsigned long long>(s.deadline_exceeded),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.retried),
                static_cast<unsigned long long>(s.stale_served));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "hit  latency (us): n=%llu p50=%.1f p95=%.1f p99=%.1f "
                "mean=%.1f max=%.1f\n",
                static_cast<unsigned long long>(s.hit.count), s.hit.p50_us,
                s.hit.p95_us, s.hit.p99_us, s.hit.mean_us, s.hit.max_us);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "stale latency (us): n=%llu p50=%.1f p95=%.1f p99=%.1f "
                "mean=%.1f max=%.1f",
                static_cast<unsigned long long>(s.stale.count), s.stale.p50_us,
                s.stale.p95_us, s.stale.p99_us, s.stale.mean_us,
                s.stale.max_us);
  out += buf;
  return out;
}

namespace {

void LatencyJson(json::JsonWriter* writer, const char* key,
                 const ServerStats::LatencySummary& summary) {
  writer->Key(key);
  writer->BeginObject();
  writer->Key("count");
  writer->UInt(summary.count);
  writer->Key("p50_us");
  writer->Number(summary.p50_us);
  writer->Key("p95_us");
  writer->Number(summary.p95_us);
  writer->Key("p99_us");
  writer->Number(summary.p99_us);
  writer->Key("mean_us");
  writer->Number(summary.mean_us);
  writer->Key("max_us");
  writer->Number(summary.max_us);
  writer->EndObject();
}

}  // namespace

std::string ServerStats::ToJson(const Snapshot& s) {
  std::string out;
  json::JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("requests");
  writer.UInt(s.requests);
  writer.Key("cache_hits");
  writer.UInt(s.cache_hits);
  writer.Key("cache_hit_rate");
  writer.Number(s.cache_hit_rate);
  writer.Key("errors");
  writer.UInt(s.errors);
  writer.Key("deadline_exceeded");
  writer.UInt(s.deadline_exceeded);
  writer.Key("shed");
  writer.UInt(s.shed);
  writer.Key("retried");
  writer.UInt(s.retried);
  writer.Key("stale_served");
  writer.UInt(s.stale_served);
  writer.Key("batches");
  writer.UInt(s.batches);
  writer.Key("avg_batch_size");
  writer.Number(s.avg_batch_size);
  writer.Key("workers");
  writer.Int(s.workers);
  LatencyJson(&writer, "cold", s.cold);
  LatencyJson(&writer, "hit", s.hit);
  LatencyJson(&writer, "stale", s.stale);
  writer.EndObject();
  return out;
}

}  // namespace serve
}  // namespace dbg4eth
