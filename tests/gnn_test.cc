#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/optimizer.h"
#include "gnn/conv.h"
#include "gnn/diffpool.h"
#include "gnn/gru.h"
#include "gnn/hier_attention.h"
#include "gnn/linear.h"
#include "gnn/transformer.h"
#include "graph/graph.h"
#include "tensor/gradcheck.h"
#include "tensor/inference.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace gnn {
namespace {

graph::Graph TestGraph() {
  // 5 nodes: hub 0 plus a tail.
  graph::Graph g;
  g.num_nodes = 5;
  g.edges = {{0, 1}, {0, 2}, {0, 3}, {3, 4}};
  return g;
}

ag::Tensor RandomInput(int n, int d, Rng* rng) {
  return ag::Tensor::Constant(Matrix::Random(n, d, rng, -1.0, 1.0));
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  ag::Tensor x = RandomInput(5, 4, &rng);
  ag::Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(lin.Parameters().size(), 2u);
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);

  Linear no_bias(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, GradCheck) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  ag::Tensor x = RandomInput(4, 3, &rng);
  auto loss = [&] { return ag::SumAll(ag::Tanh(lin.Forward(x))); };
  auto res = ag::CheckGradients(loss, lin.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GcnConvTest, PropagatesAndGradChecks) {
  Rng rng(3);
  graph::Graph g = TestGraph();
  GcnConv conv(3, 2, &rng);
  ag::Tensor adj = ag::Tensor::Constant(g.NormalizedAdjacency());
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = conv.Forward(adj, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, conv.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GcnConvTest, IsolatedGraphReducesToSelfTransform) {
  // With identity adjacency, GCN is exactly a linear layer.
  Rng rng(4);
  GcnConv conv(3, 3, &rng);
  ag::Tensor adj = ag::Tensor::Constant(Matrix::Identity(4));
  ag::Tensor x = RandomInput(4, 3, &rng);
  ag::Tensor y = conv.Forward(adj, x);
  // Permuting rows of x permutes rows of y identically.
  Matrix xp = x.value().GatherRows({3, 2, 1, 0});
  ag::Tensor yp = conv.Forward(adj, ag::Tensor::Constant(xp));
  EXPECT_TRUE(AlmostEqual(yp.value(), y.value().GatherRows({3, 2, 1, 0})));
}

TEST(GatConvTest, HeadsConcatAndAttentionNormalized) {
  Rng rng(5);
  graph::Graph g = TestGraph();
  GatConv conv(3, 4, /*num_heads=*/2, &rng);
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = conv.Forward(x, g.AttentionMaskSparse());
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);  // 2 heads x 4
  EXPECT_EQ(conv.Parameters().size(), 6u);
}

TEST(GatConvTest, GradCheck) {
  Rng rng(6);
  graph::Graph g = TestGraph();
  GatConv conv(3, 2, 2, &rng);
  ag::Tensor x = RandomInput(5, 3, &rng);
  const auto support = g.AttentionMaskSparse();
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(x, support))); };
  auto res = ag::CheckGradients(loss, conv.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

/// The dense composed GAT head the fused forward replaces: PairwiseSum ->
/// LeakyRelu -> MaskedSoftmaxRows over the dense mask, then the
/// support-only alpha @ hW product. Parameters are read from `conv` in
/// its (W, a_src, a_dst) per-head order.
ag::Tensor ComposedGatForward(const GatConv& conv, const ag::Tensor& x,
                              const graph::Graph& g) {
  const std::vector<ag::Tensor> params = conv.Parameters();
  ag::Tensor out;
  for (int h = 0; h < conv.num_heads(); ++h) {
    ag::Tensor hw = ag::MatMul(x, params[3 * h]);
    ag::Tensor u = ag::MatMul(hw, params[3 * h + 1]);
    ag::Tensor v = ag::MatMul(hw, params[3 * h + 2]);
    ag::Tensor scores = ag::LeakyRelu(ag::PairwiseSum(u, v), 0.2);
    ag::Tensor alpha = ag::MaskedSoftmaxRows(scores, g.AttentionMask());
    ag::Tensor head = ag::MaskedSpMatMul(g.AttentionMaskSparse(), alpha, hw);
    out = h == 0 ? head : ag::ConcatCols(out, head);
  }
  return out;
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Random graph over `n` nodes; `self_transfers` adds some (v, v) edges.
graph::Graph RandomGraph(int n, int num_edges, bool self_transfers,
                         Rng* rng) {
  graph::Graph g;
  g.num_nodes = n;
  for (int e = 0; e < num_edges; ++e) {
    g.edges.push_back({rng->UniformInt(n), rng->UniformInt(n)});
  }
  if (self_transfers) {
    for (int v = 0; v < n; v += 2) g.edges.push_back({v, v});
  }
  return g;
}

TEST(GatConvTest, ForwardAndGradientsMatchComposedAttentionBitForBit) {
  Rng rng(8);
  std::vector<graph::Graph> graphs;
  graphs.push_back(RandomGraph(1, 0, /*self_transfers=*/false, &rng));
  graphs.push_back(RandomGraph(1, 0, /*self_transfers=*/true, &rng));
  graphs.push_back(TestGraph());
  graphs.push_back(RandomGraph(7, 9, /*self_transfers=*/true, &rng));
  graphs.push_back(RandomGraph(12, 30, /*self_transfers=*/false, &rng));
  graphs.push_back(RandomGraph(20, 15, /*self_transfers=*/true, &rng));
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const graph::Graph& g = graphs[i];
    GatConv conv(3, 4, /*num_heads=*/2, &rng);
    ag::Tensor x = ag::Tensor::Parameter(
        Matrix::Random(g.num_nodes, 3, &rng, -1.0, 1.0));
    const Matrix weights = Matrix::Random(g.num_nodes, 8, &rng, -1.0, 1.0);
    std::vector<ag::Tensor> leaves = conv.Parameters();
    leaves.push_back(x);

    // Forward values, on the tape and under an inference arena.
    const Matrix reference = ComposedGatForward(conv, x, g).value();
    EXPECT_TRUE(
        BytesEqual(conv.Forward(x, g.AttentionMaskSparse()).value(),
                   reference));
    {
      ag::InferenceArena arena;
      ag::InferenceScope scope(&arena);
      ASSERT_TRUE(scope.bound());
      EXPECT_TRUE(
          BytesEqual(conv.Forward(x, g.AttentionMaskSparse()).value(),
                     reference));
      EXPECT_TRUE(BytesEqual(ComposedGatForward(conv, x, g).value(),
                             reference));
    }

    // One backward each: every parameter gradient and the input gradient.
    auto grads_of = [&](const ag::Tensor& out) {
      for (ag::Tensor& leaf : leaves) leaf.ZeroGrad();
      ag::SumAll(ag::Mul(out, ag::Tensor::Constant(weights))).Backward();
      std::vector<Matrix> grads;
      for (const ag::Tensor& leaf : leaves) grads.push_back(leaf.grad());
      return grads;
    };
    const std::vector<Matrix> want = grads_of(ComposedGatForward(conv, x, g));
    const std::vector<Matrix> got =
        grads_of(conv.Forward(x, g.AttentionMaskSparse()));
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].rows(), want[k].rows());
      ASSERT_EQ(got[k].cols(), want[k].cols());
      for (size_t e = 0; e < want[k].size(); ++e) {
        EXPECT_EQ(got[k].data()[e], want[k].data()[e])
            << "leaf " << k << " entry " << e;
      }
    }
  }
}

TEST(GinConvTest, GradCheckAndShapes) {
  Rng rng(7);
  graph::Graph g = TestGraph();
  GinConv conv(3, 6, 2, &rng);
  ag::Tensor adj = ag::Tensor::Constant(
      g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/false));
  ag::Tensor x = RandomInput(5, 3, &rng);
  EXPECT_EQ(conv.Forward(adj, x).cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, conv.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(SageConvTest, GradCheck) {
  Rng rng(8);
  graph::Graph g = TestGraph();
  // Mean-neighbor matrix: row-normalized adjacency without self loops.
  Matrix adj = g.DenseAdjacency(true, false);
  for (int i = 0; i < adj.rows(); ++i) {
    double s = 0;
    for (int j = 0; j < adj.cols(); ++j) s += adj.At(i, j);
    if (s > 0) {
      for (int j = 0; j < adj.cols(); ++j) adj.At(i, j) /= s;
    }
  }
  SageConv conv(3, 2, &rng);
  ag::Tensor mean_adj = ag::Tensor::Constant(adj);
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto loss = [&] {
    return ag::SumAll(ag::Tanh(conv.Forward(mean_adj, x)));
  };
  auto res = ag::CheckGradients(loss, conv.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(AppnpTest, PropagationMixesPredictions) {
  Rng rng(9);
  graph::Graph g = TestGraph();
  Appnp model(3, 8, 2, /*k_steps=*/4, /*alpha=*/0.2, &rng);
  ag::Tensor adj = ag::Tensor::Constant(g.NormalizedAdjacency());
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = model.Forward(adj, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(model.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, model.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GruCellTest, OutputBoundedAndGradChecks) {
  Rng rng(10);
  GruCell cell(4, &rng);
  ag::Tensor u = RandomInput(3, 4, &rng);
  ag::Tensor h = RandomInput(3, 4, &rng);
  ag::Tensor out = cell.Forward(u, h);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_EQ(cell.Parameters().size(), 9u);
  auto loss = [&] { return ag::SumAll(cell.Forward(u, h)); };
  auto res = ag::CheckGradients(loss, cell.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GruCellTest, UpdateGateInterpolates) {
  // h_t must lie between h_prev and the candidate (element-wise convex
  // combination); with h_prev == candidate range bound [-1, 1] from tanh,
  // |h_t| <= max(|h_prev|, 1).
  Rng rng(11);
  GruCell cell(3, &rng);
  ag::Tensor u = RandomInput(4, 3, &rng);
  ag::Tensor h = ag::Tensor::Constant(Matrix(4, 3, 0.5));
  Matrix out = cell.Forward(u, h).value();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_LE(std::fabs(out.At(r, c)), 1.0);
    }
  }
}

TEST(DiffPoolTest, ShapesAndGradCheck) {
  Rng rng(12);
  graph::Graph g = TestGraph();
  DiffPool pool(3, /*num_clusters=*/2, &rng);
  ag::Tensor adj = ag::Tensor::Constant(g.NormalizedAdjacency());
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto out = pool.Forward(adj, x);
  EXPECT_EQ(out.features.rows(), 2);
  EXPECT_EQ(out.features.cols(), 3);
  EXPECT_EQ(out.adjacency.rows(), 2);
  EXPECT_EQ(out.adjacency.cols(), 2);
  auto loss = [&] {
    auto o = pool.Forward(adj, x);
    return ag::Add(ag::SumAll(ag::Tanh(o.features)),
                   ag::SumAll(ag::Tanh(o.adjacency)));
  };
  auto res = ag::CheckGradients(loss, pool.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(DiffPoolTest, StackedPoolingToSingleCluster) {
  Rng rng(13);
  graph::Graph g = TestGraph();
  DiffPool pool1(3, 2, &rng);
  DiffPool pool2(3, 1, &rng);
  ag::Tensor adj = ag::Tensor::Constant(g.NormalizedAdjacency());
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto level1 = pool1.Forward(adj, x);
  auto level2 = pool2.Forward(level1.adjacency, level1.features);
  EXPECT_EQ(level2.features.rows(), 1);
  EXPECT_EQ(level2.features.cols(), 3);
}

TEST(GraphAttentionReadoutTest, ProducesGraphEmbedding) {
  Rng rng(14);
  GraphAttentionReadout readout(4, &rng);
  ag::Tensor h = RandomInput(6, 4, &rng);
  ag::Tensor graph_emb = readout.Forward(h);
  EXPECT_EQ(graph_emb.rows(), 1);
  EXPECT_EQ(graph_emb.cols(), 4);
}

TEST(GraphAttentionReadoutTest, GradCheck) {
  Rng rng(15);
  GraphAttentionReadout readout(3, &rng);
  ag::Tensor h = RandomInput(4, 3, &rng);
  auto loss = [&] { return ag::SumAll(readout.Forward(h)); };
  auto res = ag::CheckGradients(loss, readout.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(TransformerTest, SequenceEncoderShapes) {
  Rng rng(16);
  SequenceEncoder encoder(5, 8, /*num_blocks=*/2, /*num_heads=*/2,
                          /*num_classes=*/2, &rng);
  ag::Tensor seq = RandomInput(7, 5, &rng);
  ag::Tensor logits = encoder.Forward(seq);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
  EXPECT_GT(encoder.NumParameters(), 0);
}

TEST(TransformerTest, SequenceEncoderGradCheck) {
  Rng rng(17);
  SequenceEncoder encoder(3, 4, 1, 1, 2, &rng);
  ag::Tensor seq = RandomInput(5, 3, &rng);
  std::vector<int> label = {1};
  auto loss = [&] {
    return ag::SoftmaxCrossEntropy(encoder.Forward(seq), label);
  };
  auto res = ag::CheckGradients(loss, encoder.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(TransformerTest, GraphTransformerUsesStructure) {
  Rng rng(18);
  graph::Graph g = TestGraph();
  GraphTransformer model(3, 8, 1, 2, 2, &rng);
  Matrix adj = g.DenseAdjacency(true, false);
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor logits = model.Forward(x, adj);
  EXPECT_EQ(logits.cols(), 2);
  // Different topology with the same features changes the output.
  Matrix empty_adj(5, 5);
  ag::Tensor logits2 = model.Forward(x, empty_adj);
  EXPECT_FALSE(AlmostEqual(logits.value(), logits2.value(), 1e-9));
}

TEST(TransformerTest, StructuralBiasEncodesDegreeAndConnectivity) {
  graph::Graph g = TestGraph();
  Matrix bias = GraphTransformer::StructuralBias(g.DenseAdjacency(true, false));
  // Hub 0 (degree 3) has larger diagonal than leaf 4 (degree 1).
  EXPECT_GT(bias.At(0, 0), bias.At(4, 4));
  EXPECT_DOUBLE_EQ(bias.At(0, 1), 1.0);   // connected
  EXPECT_DOUBLE_EQ(bias.At(1, 2), -1.0);  // not connected
}

TEST(ModuleTest, JoinParameters) {
  Rng rng(19);
  Linear a(2, 2, &rng);
  Linear b(2, 2, &rng, /*bias=*/false);
  auto params = JoinParameters({&a, &b});
  EXPECT_EQ(params.size(), 3u);
}

// End-to-end sanity: a 2-layer GCN + pooling head can overfit a tiny
// synthetic graph classification task.
TEST(GnnIntegrationTest, OverfitsTinyTask) {
  Rng rng(20);
  // Two classes: dense graphs vs sparse graphs, constant features.
  std::vector<graph::Graph> graphs;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    graph::Graph g;
    g.num_nodes = 6;
    const bool dense = i % 2 == 0;
    for (int a = 0; a < 6; ++a) {
      for (int b = a + 1; b < 6; ++b) {
        if (dense || (b == a + 1 && a % 2 == 0)) g.edges.push_back({a, b});
      }
    }
    // Feature: constant channel plus normalized degree.
    g.node_features = Matrix::Ones(6, 3);
    const auto deg = g.UndirectedDegrees();
    for (int v = 0; v < 6; ++v) {
      g.node_features.At(v, 1) = deg[v] / 5.0;
      g.node_features.At(v, 2) = 0.1 * i;  // instance jitter
    }
    graphs.push_back(g);
    labels.push_back(dense ? 1 : 0);
  }
  GcnConv conv1(3, 8, &rng);
  GcnConv conv2(8, 8, &rng);
  Linear head(8, 2, &rng);
  auto params = JoinParameters({&conv1, &conv2, &head});
  ag::Adam opt(params, 0.05);
  auto forward = [&](const graph::Graph& g) {
    ag::Tensor adj = ag::Tensor::Constant(g.NormalizedAdjacency());
    ag::Tensor x = ag::Tensor::Constant(g.node_features);
    ag::Tensor h = ag::Relu(conv1.Forward(adj, x));
    h = ag::Relu(conv2.Forward(adj, h));
    return head.Forward(ag::MeanPoolRows(h));
  };
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      opt.ZeroGrad();
      ag::Tensor loss = ag::SoftmaxCrossEntropy(forward(graphs[i]),
                                                {labels[i]});
      loss.Backward();
      opt.Step();
    }
  }
  int correct = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Matrix logits = forward(graphs[i]).value();
    const int pred = logits.At(0, 1) > logits.At(0, 0) ? 1 : 0;
    correct += pred == labels[i];
  }
  EXPECT_EQ(correct, 10);
}

}  // namespace
}  // namespace gnn
}  // namespace dbg4eth
