#ifndef DBG4ETH_TENSOR_INFERENCE_H_
#define DBG4ETH_TENSOR_INFERENCE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dbg4eth {
namespace ag {

/// \brief Recycling store of the tape-free forward's nodes and buffers
/// (one per thread).
///
/// Serving never calls Backward(), yet every op used to pay the full
/// reverse-mode toll: a heap-allocated TensorNode, shared_ptr bookkeeping
/// for parents, and a std::function backward closure — then a fresh value
/// buffer on top. Under an active InferenceScope the ops in ops.cc instead
/// draw both from this arena:
///
///  - value-only nodes (no parents, no backward_fn, requires_grad = false)
///    come from a stack of recycled TensorNodes;
///  - value buffers come from LIFO stacks keyed by capacity class (powers
///    of two), so the next op of a size gets the buffer its predecessor
///    just freed, still hot in cache, and subgraphs of different node
///    counts share one set of buffers.
///
/// A node and its buffer return to the arena the moment the last Tensor
/// handle to the node drops (a shared_ptr deleter), not at the end of the
/// pass. A forward's working set is therefore its peak of simultaneously
/// live activations, not the sum of all of them.
///
/// Lifetime rule: a tensor made under a scope is valid for as long as it
/// is held, on any thread. A release the arena cannot take deletes the
/// node outright: one on a thread other than the arena's (the arena is
/// not thread-safe, so no thread touches another's stacks), and one after
/// the arena is destroyed (thread exit, a test's local arena). Releases
/// find their arena through the releasing thread's list of live arenas,
/// so no deleter ever dereferences a dead one.
///
/// An arena must be destroyed on the thread that created it; use
/// InferenceArena::ThreadLocal().
class InferenceArena {
 public:
  /// Reuse accounting for one forward pass (reset by BeginPass).
  struct PassStats {
    uint64_t nodes = 0;          ///< Value nodes handed out.
    uint64_t fresh_nodes = 0;    ///< Nodes newly allocated (stack empty).
    uint64_t buffers = 0;        ///< Value buffers handed out.
    uint64_t fresh_buffers = 0;  ///< Buffers that missed the free list.
    uint64_t fresh_bytes = 0;    ///< Bytes newly allocated for buffers.
  };

  InferenceArena();
  ~InferenceArena();
  InferenceArena(const InferenceArena&) = delete;
  InferenceArena& operator=(const InferenceArena&) = delete;

  /// Recycled value-only node holding `value`. No parents, no backward.
  std::shared_ptr<internal::TensorNode> MakeValueNode(Matrix value);

  /// Zero-filled rows x cols buffer (for accumulate-style kernels and
  /// masked writers that rely on zero initialization).
  Matrix Zeros(int rows, int cols);
  /// Buffer whose every entry the caller overwrites; contents are
  /// unspecified (recycled activations).
  Matrix Uninit(int rows, int cols);
  /// Buffer initialized as a copy of `src`.
  Matrix CopyOf(const Matrix& src);

  /// Resets pass stats. Called by InferenceScope on entry.
  void BeginPass() { pass_stats_ = PassStats(); }

  /// Stats of the pass in flight (read after the forward, before the next
  /// BeginPass).
  const PassStats& pass_stats() const { return pass_stats_; }
  /// Bytes of value-buffer storage this arena has allocated: the peak of
  /// its live plus free buffers, plus any lost to foreign releases.
  size_t owned_bytes() const { return owned_bytes_; }
  /// Nodes this arena has allocated (same high-water sense).
  size_t pooled_nodes() const { return allocated_nodes_; }

  /// The calling thread's arena (created on first use).
  static InferenceArena* ThreadLocal();

 private:
  friend class InferenceScope;

  /// shared_ptr deleter of the arena's nodes: recycles into the arena when
  /// it is alive on the releasing thread, deletes otherwise.
  struct Recycler {
    uint64_t arena_id;
    void operator()(internal::TensorNode* node) const;
  };
  /// Free buffers of one capacity class, and how many of that class the
  /// arena allocated. The count caps the stack: buffers that tensors
  /// brought in from outside the arena are freed, not accumulated.
  struct SizeClass {
    std::vector<std::vector<double>> free;
    size_t allocated = 0;
  };

  /// The arena with `id` if it is alive on the calling thread, else null.
  static InferenceArena* LiveOnThisThread(uint64_t id);
  std::vector<double> AcquireBuffer(size_t n);
  void Recycle(internal::TensorNode* node);

  const uint64_t id_;
  /// Next arena in the creating thread's list of live arenas.
  InferenceArena* next_live_ = nullptr;
  std::vector<internal::TensorNode*> free_nodes_;
  /// Class k holds buffers of capacity >= 2^k.
  std::array<SizeClass, 64> size_classes_;
  PassStats pass_stats_;
  size_t allocated_nodes_ = 0;
  size_t owned_bytes_ = 0;
};

/// \brief RAII activation of the tape-free fast path on this thread.
///
/// While a scope is active, every op in ops.cc (and every non-parameter
/// Tensor constructed) computes its value only — no autograd nodes, no
/// parent edges, no backward closures — drawing storage from the bound
/// arena. Values are bit-identical to the tape forward. Nested scopes are
/// no-ops (the outermost scope owns the pass and its PassStats), so a
/// caller's scope around several PredictProba calls makes them one pass. Closing a scope reclaims nothing: tensors made under it stay
/// valid while held and recycle when their last handle drops.
///
/// Do NOT use around anything that needs gradients: Backward() on a
/// tensor built under a scope sees a leaf and propagates nothing.
class InferenceScope {
 public:
  /// Binds the calling thread's arena (InferenceArena::ThreadLocal),
  /// unless the fast path is globally disabled or a scope is already
  /// active on this thread.
  InferenceScope();
  /// Same, with an explicit arena (tests); it must have been created on
  /// the calling thread.
  explicit InferenceScope(InferenceArena* arena);
  ~InferenceScope();

  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

  /// True when this scope actually bound the arena (outermost + enabled).
  bool bound() const { return bound_ != nullptr; }

 private:
  InferenceArena* bound_ = nullptr;
};

/// Process-wide switch for the fast path (default on). With it off,
/// InferenceScope construction is a no-op and every forward runs on the
/// tape — the benchmark's baseline mode.
void SetInferenceFastPathEnabled(bool enabled);
bool InferenceFastPathEnabled();

namespace internal {

/// Arena bound by the innermost active InferenceScope on this thread, or
/// nullptr when the tape path is in effect.
InferenceArena* ActiveInferenceArena();

}  // namespace internal

}  // namespace ag
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_INFERENCE_H_
