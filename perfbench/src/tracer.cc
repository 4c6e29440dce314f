#include "tracer.h"

#include <cstdio>

namespace perfbench {
namespace {

thread_local Span* current_span = nullptr;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

Tracer::Totals Tracer::TotalsOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals totals;
  for (const SpanRecord& span : spans_) {
    if (name != span.name) continue;
    totals.total_us += (span.end_ns - span.start_ns) / 1e3;
    ++totals.count;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

Span::Span(const char* name, int64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  open_ = true;
  outer_ = current_span;
  record_.name = name;
  record_.id = tracer.NextId();
  record_.parent = outer_ != nullptr ? outer_->record_.id : 0;
  // A root span without an explicit request id starts a request of its own.
  record_.request = request != 0          ? request
                    : outer_ != nullptr ? outer_->record_.request
                                        : record_.id;
  current_span = this;
  record_.start_ns = NowNs();
}

void Span::End() {
  if (!open_) return;
  record_.end_ns = NowNs();
  open_ = false;
  current_span = outer_;
  Tracer::Get().Record(record_);
}

}  // namespace perfbench
