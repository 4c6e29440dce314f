#ifndef DBG4ETH_GNN_DIFFPOOL_H_
#define DBG4ETH_GNN_DIFFPOOL_H_

#include <vector>

#include "gnn/conv.h"
#include "gnn/module.h"

namespace dbg4eth {

class Rng;

namespace gnn {

/// \brief Differentiable pooling (Ying et al.; paper Eq. 19-21).
///
/// M = softmax(GNN(A, H)) assigns the N current nodes to `num_clusters` new
/// nodes; features and adjacency are pooled as M^T H and M^T A M.
class DiffPool : public Module {
 public:
  DiffPool(int in_features, int num_clusters, Rng* rng);

  struct Output {
    ag::Tensor features;   ///< num_clusters x d.
    ag::Tensor adjacency;  ///< num_clusters x num_clusters.
  };

  /// `adj` may be a constant (first level) or a pooled, differentiable
  /// adjacency (deeper levels).
  Output Forward(const ag::Tensor& adj, const ag::Tensor& h) const;

  /// First-level overload for a constant CSR adjacency: assignment and both
  /// pooled products run through SpMM kernels. Bit-identical to the dense
  /// overload on adj->ToDense().
  Output Forward(std::shared_ptr<const SparseMatrix> adj,
                 const ag::Tensor& h) const;

  /// Pooled features M^T H alone, for a level whose pooled adjacency
  /// nothing reads. Bit-identical to Forward(...).features.
  ag::Tensor PoolFeatures(const ag::Tensor& adj, const ag::Tensor& h) const;
  ag::Tensor PoolFeatures(std::shared_ptr<const SparseMatrix> adj,
                          const ag::Tensor& h) const;

  /// Pooling to a single cluster (requires num_clusters() == 1). A softmax
  /// over one column is exactly 1 for every finite logit, so M^T H is the
  /// row sum of H. It is taken as a row of ones times H — the MatMul kernel
  /// and add order of M^T H — without running the assignment GNN or
  /// reading an adjacency. Equal to Forward(...).features, and the skipped
  /// GNN's parameter gradient was exactly zero.
  ag::Tensor PoolToOne(const ag::Tensor& h) const;

  std::vector<ag::Tensor> Parameters() const override;

  int num_clusters() const { return num_clusters_; }

 private:
  int num_clusters_;
  GcnConv assign_gnn_;
};

}  // namespace gnn
}  // namespace dbg4eth

#endif  // DBG4ETH_GNN_DIFFPOOL_H_
