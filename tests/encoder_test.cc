// Unit behaviour of the two branch encoders beyond the end-to-end pipeline
// tests: input construction, determinism, dropout, slice weighting, and
// structural sensitivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "gnn/conv.h"
#include "gnn/diffpool.h"
#include "gnn/gru.h"
#include "gnn/linear.h"
#include "tensor/inference.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace core {
namespace {

graph::Graph SmallGraph(int label = 1) {
  graph::Graph g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  g.edge_features = Matrix::FromFlat(4, 2, {10, 2, 5, 1, 2, 1, 7, 3});
  Rng rng(7);
  g.node_features = Matrix::Random(4, 15, &rng);
  g.label = label;
  return g;
}

std::vector<graph::Graph> SmallSlices(int t) {
  std::vector<graph::Graph> slices;
  graph::Graph base = SmallGraph();
  for (int k = 0; k < t; ++k) {
    graph::Graph slice;
    slice.num_nodes = base.num_nodes;
    slice.node_features = base.node_features;
    if (k % 2 == 0) {
      slice.edges = {{0, 1}, {1, 2}};
      slice.edge_features = Matrix::FromFlat(2, 1, {3.0, 1.0});
    }
    slices.push_back(slice);
  }
  return slices;
}

TEST(GsgEncoderUnitTest, NodeInputAggregatesIncidentEdges) {
  graph::Graph g = SmallGraph();
  Matrix input = GsgEncoder::BuildNodeInput(g);
  ASSERT_EQ(input.cols(), 17);
  // Node 0 touches edges (0,1) w=10,t=2 and (0,3) w=7,t=3.
  EXPECT_NEAR(input.At(0, 15), std::log1p(17.0), 1e-12);
  EXPECT_NEAR(input.At(0, 16), std::log1p(5.0), 1e-12);
  // Node 2 touches (1,2) w=5,t=1 and (2,3) w=2,t=1.
  EXPECT_NEAR(input.At(2, 15), std::log1p(7.0), 1e-12);
  EXPECT_NEAR(input.At(2, 16), std::log1p(2.0), 1e-12);
  // Feature channels pass through unchanged.
  EXPECT_DOUBLE_EQ(input.At(1, 3), g.node_features.At(1, 3));
}

TEST(GsgEncoderUnitTest, EvalModeIsDeterministic) {
  GsgEncoderConfig config;
  config.hidden_dim = 8;
  config.dropout = 0.5;
  GsgEncoder encoder(config);
  graph::Graph g = SmallGraph();
  const double s1 = encoder.PredictScore(g);
  const double s2 = encoder.PredictScore(g);
  EXPECT_DOUBLE_EQ(s1, s2);  // dropout must be off at inference
}

TEST(GsgEncoderUnitTest, ScoreDependsOnTopology) {
  GsgEncoderConfig config;
  config.hidden_dim = 8;
  GsgEncoder encoder(config);
  graph::Graph g = SmallGraph();
  graph::Graph rewired = g;
  rewired.edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2}};
  EXPECT_NE(encoder.PredictScore(g), encoder.PredictScore(rewired));
}

TEST(GsgEncoderUnitTest, SameSeedSameParameters) {
  GsgEncoderConfig config;
  config.hidden_dim = 8;
  config.seed = 123;
  GsgEncoder a(config), b(config);
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(AlmostEqual(pa[i].value(), pb[i].value(), 0.0));
  }
}

TEST(GsgEncoderUnitTest, ParameterCountMatchesArchitecture) {
  GsgEncoderConfig config;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_gat_layers = 2;
  GsgEncoder encoder(config);
  // align(W+b) + 2 GAT layers x 2 heads x (W, a_src, a_dst)
  // + readout(score W+b, proj W+b) + head(W+b).
  EXPECT_EQ(encoder.Parameters().size(),
            2u + 2u * 2u * 3u + 4u + 2u);
}

TEST(LdgEncoderUnitTest, SliceCountEnforced) {
  LdgEncoderConfig config;
  config.hidden_dim = 8;
  config.num_time_slices = 4;
  config.first_level_clusters = 2;
  LdgEncoder encoder(config);
  auto slices = SmallSlices(4);
  EXPECT_TRUE(std::isfinite(encoder.PredictScore(slices)));
}

TEST(LdgEncoderUnitTest, EmptySlicesAreHandled) {
  // Alternate slices have no edges at all; the weighted adjacency reduces
  // to self-loops and the GRU still evolves the state.
  LdgEncoderConfig config;
  config.hidden_dim = 8;
  config.num_time_slices = 6;
  config.first_level_clusters = 2;
  LdgEncoder encoder(config);
  auto slices = SmallSlices(6);
  const double score = encoder.PredictScore(slices);
  EXPECT_TRUE(std::isfinite(score));
}

TEST(LdgEncoderUnitTest, TemporalOrderMatters) {
  // Reversing the slice order must change the embedding: the GRU carries
  // state forward in time (the paper's challenge (i)).
  LdgEncoderConfig config;
  config.hidden_dim = 8;
  config.num_time_slices = 4;
  config.first_level_clusters = 2;
  LdgEncoder encoder(config);
  auto forward = SmallSlices(4);
  // Make the slices asymmetric in time.
  forward[0].edge_features.ScaleInPlace(10.0);
  auto reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_NE(encoder.PredictScore(forward), encoder.PredictScore(reversed));
}

TEST(LdgEncoderUnitTest, PoolingDepthBounds) {
  LdgEncoderConfig config;
  config.num_pooling_layers = 4;  // paper caps at 3
  EXPECT_DEATH({ LdgEncoder encoder(config); }, "Check failed");
}

TEST(LdgEncoderUnitTest, SameSeedSameScore) {
  LdgEncoderConfig config;
  config.hidden_dim = 8;
  config.num_time_slices = 3;
  config.first_level_clusters = 2;
  config.seed = 77;
  LdgEncoder a(config), b(config);
  auto slices = SmallSlices(3);
  EXPECT_DOUBLE_EQ(a.PredictScore(slices), b.PredictScore(slices));
}

/// The LDG embedding with the full DiffPool pyramid at every level: the
/// assignment GNN, pooled features and pooled adjacency, as
/// gnn::DiffPool::Forward computes them. Built from the encoder's config
/// with the same seed and draw order, so its parameters equal the
/// encoder's (the trailing head excepted, which it does not need).
class FullPyramidLdg {
 public:
  explicit FullPyramidLdg(const LdgEncoderConfig& config)
      : rng_(config.seed),
        input_proj_(config.node_feature_dim, config.hidden_dim, &rng_),
        topo_gcn_(config.hidden_dim, config.hidden_dim, &rng_),
        gru_(config.hidden_dim, &rng_) {
    int clusters = config.first_level_clusters;
    for (int level = 0; level < config.num_pooling_layers; ++level) {
      const bool last = level + 1 == config.num_pooling_layers;
      pools_.push_back(std::make_unique<gnn::DiffPool>(
          config.hidden_dim, last ? 1 : std::max(2, clusters), &rng_));
      clusters = std::max(2, clusters / 4);
    }
    slice_weights_ =
        ag::Tensor::Parameter(Matrix(config.num_time_slices, 1));
  }

  ag::Tensor Embed(const std::vector<graph::Graph>& slices) const {
    ag::Tensor h = ag::Tanh(
        input_proj_.Forward(ag::Tensor::Constant(slices[0].node_features)));
    std::vector<ag::Tensor> pooled_per_slice;
    for (const graph::Graph& slice : slices) {
      const auto adj = slice.WeightedAdjacencySparse();
      h = gru_.Forward(ag::Relu(topo_gcn_.Forward(adj, h)), h);
      gnn::DiffPool::Output pooled = pools_.front()->Forward(adj, h);
      for (size_t level = 1; level < pools_.size(); ++level) {
        pooled = pools_[level]->Forward(pooled.adjacency, pooled.features);
      }
      pooled_per_slice.push_back(pooled.features);
    }
    ag::Tensor alphas = ag::SoftmaxColVector(slice_weights_);
    return ag::MatMul(ag::Transpose(alphas),
                      ag::ConcatRowsList(pooled_per_slice));
  }

  /// LdgEncoder::Parameters() order, without the head.
  std::vector<ag::Tensor> Parameters() const {
    std::vector<ag::Tensor> params = input_proj_.Parameters();
    for (const auto& p : topo_gcn_.Parameters()) params.push_back(p);
    for (const auto& p : gru_.Parameters()) params.push_back(p);
    for (const auto& pool : pools_) {
      for (const auto& p : pool->Parameters()) params.push_back(p);
    }
    params.push_back(slice_weights_);
    return params;
  }

 private:
  Rng rng_;
  gnn::Linear input_proj_;
  gnn::GcnConv topo_gcn_;
  gnn::GruCell gru_;
  std::vector<std::unique_ptr<gnn::DiffPool>> pools_;
  ag::Tensor slice_weights_;
};

std::vector<graph::Graph> PyramidSlices(int num_nodes, int t, uint64_t seed) {
  Rng rng(seed);
  const Matrix features = Matrix::Random(num_nodes, 15, &rng);
  std::vector<graph::Graph> slices;
  for (int k = 0; k < t; ++k) {
    graph::Graph slice;
    slice.num_nodes = num_nodes;
    slice.node_features = features;
    if (k != 1) {  // Slice 1 has no transactions.
      for (int v = k % 2; v + 1 < num_nodes; v += 2) {
        slice.edges.push_back({v, v + 1});
        slice.edges.push_back({v, (v + 3) % num_nodes});
      }
      slice.edge_features = Matrix::Random(
          static_cast<int>(slice.edges.size()), 1, &rng, 0.5, 9.0);
    }
    slices.push_back(std::move(slice));
  }
  return slices;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LdgEncoderUnitTest, PyramidCutMatchesTheFullDiffPool) {
  // The encoder skips the top level's assignment GNN (one cluster: its
  // softmax is exactly 1) and the pooled adjacency only that GNN reads.
  // Embeddings must stay bit-identical on the tape and the arena, and
  // every parameter gradient equal; the skipped GNN's was exactly zero.
  for (int levels = 1; levels <= 3; ++levels) {
    SCOPED_TRACE("num_pooling_layers " + std::to_string(levels));
    LdgEncoderConfig config;
    config.hidden_dim = 8;
    config.num_time_slices = 4;
    config.num_pooling_layers = levels;
    config.first_level_clusters = 8;
    config.seed = 40 + levels;
    LdgEncoder encoder(config);
    FullPyramidLdg reference(config);
    const auto slices = PyramidSlices(11, config.num_time_slices, levels);

    const std::vector<ag::Tensor> params = encoder.Parameters();
    const std::vector<ag::Tensor> ref_params = reference.Parameters();
    ASSERT_EQ(params.size(), ref_params.size() + 2);  // + head W, b
    for (size_t i = 0; i < ref_params.size(); ++i) {
      ASSERT_TRUE(BitEqual(params[i].value(), ref_params[i].value()))
          << "parameter " << i;
    }

    const ag::Tensor embedding = encoder.EmbedSlices(slices);
    const ag::Tensor ref_embedding = reference.Embed(slices);
    EXPECT_TRUE(BitEqual(embedding.value(), ref_embedding.value()));
    {
      ag::InferenceArena arena;
      ag::InferenceScope scope(&arena);
      EXPECT_TRUE(
          BitEqual(encoder.EmbedSlices(slices).value(), ref_embedding.value()));
    }

    Rng rng(9);
    const Matrix readout = Matrix::Random(config.hidden_dim, 1, &rng);
    ag::MatMul(embedding, ag::Tensor::Constant(readout)).Backward();
    ag::MatMul(ref_embedding, ag::Tensor::Constant(readout)).Backward();
    for (size_t i = 0; i < ref_params.size(); ++i) {
      const Matrix& ref_grad = ref_params[i].grad();
      for (size_t k = 0; k < ref_grad.size(); ++k) {
        const double grad =
            params[i].has_grad() ? params[i].grad().data()[k] : 0.0;
        ASSERT_EQ(grad, ref_grad.data()[k])
            << "parameter " << i << ", entry " << k;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace dbg4eth
