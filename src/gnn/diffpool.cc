#include "gnn/diffpool.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace gnn {

DiffPool::DiffPool(int in_features, int num_clusters, Rng* rng)
    : num_clusters_(num_clusters),
      assign_gnn_(in_features, num_clusters, rng) {
  DBG4ETH_CHECK_GT(num_clusters, 0);
}

DiffPool::Output DiffPool::Forward(const ag::Tensor& adj,
                                   const ag::Tensor& h) const {
  ag::Tensor assign = ag::SoftmaxRows(assign_gnn_.Forward(adj, h));
  ag::Tensor assign_t = ag::Transpose(assign);
  Output out;
  out.features = ag::MatMul(assign_t, h);
  out.adjacency = ag::MatMul(ag::MatMul(assign_t, adj), assign);
  return out;
}

DiffPool::Output DiffPool::Forward(std::shared_ptr<const SparseMatrix> adj,
                                   const ag::Tensor& h) const {
  ag::Tensor assign = ag::SoftmaxRows(assign_gnn_.Forward(adj, h));
  ag::Tensor assign_t = ag::Transpose(assign);
  Output out;
  out.features = ag::MatMul(assign_t, h);
  // M^T A = (A^T M)^T with the sparse transposed kernel; the trailing
  // product against M is a small dense c x N x c matmul.
  out.adjacency =
      ag::MatMul(ag::Transpose(ag::SpMMTransA(adj, assign)), assign);
  return out;
}

ag::Tensor DiffPool::PoolFeatures(const ag::Tensor& adj,
                                  const ag::Tensor& h) const {
  ag::Tensor assign = ag::SoftmaxRows(assign_gnn_.Forward(adj, h));
  return ag::MatMul(ag::Transpose(assign), h);
}

ag::Tensor DiffPool::PoolFeatures(std::shared_ptr<const SparseMatrix> adj,
                                  const ag::Tensor& h) const {
  ag::Tensor assign = ag::SoftmaxRows(assign_gnn_.Forward(adj, h));
  return ag::MatMul(ag::Transpose(assign), h);
}

ag::Tensor DiffPool::PoolToOne(const ag::Tensor& h) const {
  DBG4ETH_CHECK_EQ(num_clusters_, 1);
  return ag::MatMul(ag::Tensor::Constant(Matrix::Ones(1, h.rows())), h);
}

std::vector<ag::Tensor> DiffPool::Parameters() const {
  return assign_gnn_.Parameters();
}

}  // namespace gnn
}  // namespace dbg4eth
