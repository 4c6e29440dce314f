// In-memory span recorder of the benchmark.
//
// The benchmark measures the program from outside: every span here is
// opened by benchmark code around one call into a layer's public function
// (SampleSubgraph, LdgEncoder::PredictScore, HttpClient::Post, ...). Spans
// are appended to a mutex-guarded vector while the run is going and written
// out as JSON once it ends. With tracing off, Span construction only reads
// one flag.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   ///< 0 for a root span.
  int64_t request = 0;  ///< Spans of one operation share this id.
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);

  /// Sum and count of the durations of every span called `name`.
  struct Totals {
    double total_us = 0.0;
    uint64_t count = 0;
    double mean_us() const { return count > 0 ? total_us / count : 0.0; }
  };
  Totals TotalsOf(const std::string& name) const;

  /// Writes every span recorded so far as a JSON array of objects.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mu_.
};

/// RAII span around one layer call. The innermost open span on the calling
/// thread is the parent; the request id is given explicitly, inherited from
/// the parent, or else the root span's own id.
class Span {
 public:
  explicit Span(const char* name, int64_t request = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; later calls are no-ops.
  void End();

 private:
  SpanRecord record_;
  bool open_ = false;
  Span* outer_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
