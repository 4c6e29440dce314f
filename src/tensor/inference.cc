#include "tensor/inference.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace ag {
namespace {

std::atomic<bool> g_fast_path_enabled{true};

thread_local InferenceArena* t_active_arena = nullptr;

/// Head of this thread's list of live arenas (linked through next_live_).
/// A plain pointer, so it stays readable while thread_local objects are
/// destroyed at thread exit.
thread_local InferenceArena* t_live_arenas = nullptr;

std::atomic<uint64_t> g_next_arena_id{1};

}  // namespace

InferenceArena::InferenceArena()
    : id_(g_next_arena_id.fetch_add(1, std::memory_order_relaxed)),
      next_live_(t_live_arenas) {
  t_live_arenas = this;
}

InferenceArena::~InferenceArena() {
  InferenceArena** link = &t_live_arenas;
  while (*link != this) {
    DBG4ETH_CHECK(*link != nullptr)
        << "InferenceArena destroyed on a thread other than its creator's";
    link = &(*link)->next_live_;
  }
  *link = next_live_;
  for (internal::TensorNode* node : free_nodes_) delete node;
}

InferenceArena* InferenceArena::LiveOnThisThread(uint64_t id) {
  // Only arenas alive on this thread are in its list, so a match is safe
  // to touch; ids are never reused, so a new arena at a dead one's address
  // does not match.
  for (InferenceArena* arena = t_live_arenas; arena != nullptr;
       arena = arena->next_live_) {
    if (arena->id_ == id) return arena;
  }
  return nullptr;
}

void InferenceArena::Recycler::operator()(internal::TensorNode* node) const {
  if (InferenceArena* arena = LiveOnThisThread(arena_id)) {
    arena->Recycle(node);
  } else {
    delete node;
  }
}

std::shared_ptr<internal::TensorNode> InferenceArena::MakeValueNode(
    Matrix value) {
  ++pass_stats_.nodes;
  internal::TensorNode* node;
  if (free_nodes_.empty()) {
    node = new internal::TensorNode();
    ++allocated_nodes_;
    ++pass_stats_.fresh_nodes;
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }
  node->value = std::move(value);
  return std::shared_ptr<internal::TensorNode>(node, Recycler{id_});
}

Matrix InferenceArena::Zeros(int rows, int cols) {
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  std::vector<double> buf = AcquireBuffer(n);
  buf.assign(n, 0.0);
  return Matrix::FromFlat(rows, cols, std::move(buf));
}

Matrix InferenceArena::Uninit(int rows, int cols) {
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  std::vector<double> buf = AcquireBuffer(n);
  buf.resize(n);
  return Matrix::FromFlat(rows, cols, std::move(buf));
}

Matrix InferenceArena::CopyOf(const Matrix& src) {
  const size_t n = static_cast<size_t>(src.rows()) *
                   static_cast<size_t>(src.cols());
  std::vector<double> buf = AcquireBuffer(n);
  buf.resize(n);
  if (n > 0) {
    std::memcpy(buf.data(), src.RowPtr(0), n * sizeof(double));
  }
  return Matrix::FromFlat(src.rows(), src.cols(), std::move(buf));
}

std::vector<double> InferenceArena::AcquireBuffer(size_t n) {
  ++pass_stats_.buffers;
  if (n == 0) return {};
  // The smallest class whose buffers all fit n: capacity 2^ceil(log2 n).
  const int k = std::bit_width(n - 1);
  SizeClass& size_class = size_classes_[k];
  if (!size_class.free.empty()) {
    std::vector<double> buf = std::move(size_class.free.back());
    size_class.free.pop_back();
    return buf;
  }
  const size_t capacity = size_t{1} << k;
  ++size_class.allocated;
  ++pass_stats_.fresh_buffers;
  pass_stats_.fresh_bytes += capacity * sizeof(double);
  owned_bytes_ += capacity * sizeof(double);
  std::vector<double> buf;
  buf.reserve(capacity);
  return buf;
}

void InferenceArena::Recycle(internal::TensorNode* node) {
  std::vector<double> buf = node->value.TakeData();
  if (buf.capacity() > 0) {
    // The largest class this buffer can serve: 2^floor(log2 capacity).
    SizeClass& size_class = size_classes_[std::bit_width(buf.capacity()) - 1];
    if (size_class.free.size() < size_class.allocated) {
      size_class.free.push_back(std::move(buf));
    }
  }
  node->grad = Matrix();  // Tensor::ZeroGrad may have allocated one.
  free_nodes_.push_back(node);
}

InferenceArena* InferenceArena::ThreadLocal() {
  static thread_local InferenceArena arena;
  return &arena;
}

InferenceScope::InferenceScope() {
  if (!InferenceFastPathEnabled() || t_active_arena != nullptr) return;
  bound_ = InferenceArena::ThreadLocal();
  t_active_arena = bound_;
  bound_->BeginPass();
}

InferenceScope::InferenceScope(InferenceArena* arena) {
  DBG4ETH_CHECK(arena != nullptr);
  DBG4ETH_CHECK(InferenceArena::LiveOnThisThread(arena->id_) == arena)
      << "InferenceScope bound to another thread's InferenceArena";
  if (!InferenceFastPathEnabled() || t_active_arena != nullptr) return;
  bound_ = arena;
  t_active_arena = bound_;
  bound_->BeginPass();
}

InferenceScope::~InferenceScope() {
  if (bound_ != nullptr) {
    t_active_arena = nullptr;
  }
}

void SetInferenceFastPathEnabled(bool enabled) {
  g_fast_path_enabled.store(enabled, std::memory_order_relaxed);
}

bool InferenceFastPathEnabled() {
  return g_fast_path_enabled.load(std::memory_order_relaxed);
}

namespace internal {

InferenceArena* ActiveInferenceArena() { return t_active_arena; }

}  // namespace internal

}  // namespace ag
}  // namespace dbg4eth
