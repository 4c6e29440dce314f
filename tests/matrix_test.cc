#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "tensor/matmul_kernels.h"
#include "tensor/matrix.h"

namespace dbg4eth {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, FactoryHelpers) {
  EXPECT_DOUBLE_EQ(Matrix::Ones(2, 2).Sum(), 4.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
  EXPECT_DOUBLE_EQ(id.At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  Matrix col = Matrix::ColumnVector({1, 2, 3});
  EXPECT_EQ(col.rows(), 3);
  EXPECT_EQ(col.cols(), 1);
  Matrix row = Matrix::RowVector({1, 2});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 2);
}

TEST(MatrixTest, FromFlatRowMajor) {
  Matrix m = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromFlat(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromFlat(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(1);
  Matrix a = Matrix::Random(4, 4, &rng);
  EXPECT_TRUE(AlmostEqual(MatMul(a, Matrix::Identity(4)), a));
  EXPECT_TRUE(AlmostEqual(MatMul(Matrix::Identity(4), a), a));
}

TEST(MatrixTest, TransposedVariantsMatch) {
  Rng rng(2);
  Matrix a = Matrix::Random(3, 5, &rng);
  Matrix b = Matrix::Random(3, 4, &rng);
  EXPECT_TRUE(AlmostEqual(MatMulTransA(a, b), MatMul(a.Transposed(), b)));
  Matrix c = Matrix::Random(6, 5, &rng);
  EXPECT_TRUE(AlmostEqual(MatMulTransB(a, c), MatMul(a, c.Transposed())));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromFlat(2, 2, {5, 6, 7, 8});
  EXPECT_TRUE(AlmostEqual(Add(a, b), Matrix::FromFlat(2, 2, {6, 8, 10, 12})));
  EXPECT_TRUE(AlmostEqual(Sub(b, a), Matrix::FromFlat(2, 2, {4, 4, 4, 4})));
  EXPECT_TRUE(AlmostEqual(Mul(a, b), Matrix::FromFlat(2, 2, {5, 12, 21, 32})));
  EXPECT_TRUE(AlmostEqual(Scale(a, 2), Matrix::FromFlat(2, 2, {2, 4, 6, 8})));
}

TEST(MatrixTest, SliceAndGatherRows) {
  Matrix m = Matrix::FromFlat(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix s = m.SliceRows(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 3);
  Matrix g = m.GatherRows({2, 0});
  EXPECT_DOUBLE_EQ(g.At(0, 0), 5);
  EXPECT_DOUBLE_EQ(g.At(1, 1), 2);
}

TEST(MatrixTest, ConcatColsRows) {
  Matrix a = Matrix::FromFlat(2, 1, {1, 2});
  Matrix b = Matrix::FromFlat(2, 2, {3, 4, 5, 6});
  Matrix cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_DOUBLE_EQ(cc.At(1, 2), 6);
  Matrix cr = ConcatRows(b, Matrix::FromFlat(1, 2, {9, 9}));
  EXPECT_EQ(cr.rows(), 3);
  EXPECT_DOUBLE_EQ(cr.At(2, 1), 9);
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromFlat(2, 2, {3, -4, 0, 0});
  EXPECT_DOUBLE_EQ(m.Sum(), -1);
  EXPECT_DOUBLE_EQ(m.Norm(), 5);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4);
}

TEST(MatrixTest, AllFinite) {
  Matrix m(1, 2);
  EXPECT_TRUE(m.AllFinite());
  m.At(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(m.AllFinite());
  m.At(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(m.AllFinite());
}

TEST(MatrixTest, AlmostEqualShapesAndTolerance) {
  Matrix a = Matrix::Ones(2, 2);
  Matrix b = Matrix::Ones(2, 3);
  EXPECT_FALSE(AlmostEqual(a, b));
  Matrix c = Matrix::Ones(2, 2);
  c.At(0, 0) += 1e-12;
  EXPECT_TRUE(AlmostEqual(a, c));
  c.At(0, 0) += 1.0;
  EXPECT_FALSE(AlmostEqual(a, c));
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::Random(3, 7, &rng);
  EXPECT_TRUE(AlmostEqual(a.Transposed().Transposed(), a));
}

TEST(MatrixTest, RandomRange) {
  Rng rng(4);
  Matrix m = Matrix::Random(10, 10, &rng, -0.5, 0.5);
  EXPECT_LE(m.MaxAbs(), 0.5);
}

// --- Vector matmul kernels vs a naive scalar reference ------------------
//
// The references add every term, zero or not, in ascending order of the
// summed index. With finite inputs and no -0.0 in `out`, adding a zero
// product leaves an accumulator's bits unchanged, so the kernels' zero
// skipping must not show: outputs must be memcmp-equal.

// out[n x m] += a[n x k] * b[k x m]
void NaiveMatMulAccumulate(const std::vector<double>& a,
                           const std::vector<double>& b,
                           std::vector<double>* out, int n, int k, int m) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double acc = (*out)[i * m + j];
      for (int kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * m + j];
      (*out)[i * m + j] = acc;
    }
  }
}

// out[k x m] += a[n x k]^T * b[n x m]
void NaiveMatMulTransAAccumulate(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 std::vector<double>* out, int n, int k,
                                 int m) {
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < m; ++j) {
      double acc = (*out)[kk * m + j];
      for (int i = 0; i < n; ++i) acc += a[i * k + kk] * b[i * m + j];
      (*out)[kk * m + j] = acc;
    }
  }
}

struct KernelBody {
  const char* name;
  kernels::MatMulKernel matmul;
  kernels::MatMulKernel trans_a;
};

std::vector<KernelBody> KernelBodies() {
  std::vector<KernelBody> bodies = {
      {"portable", &kernels::MatMulAccumulatePortable,
       &kernels::MatMulTransAAccumulatePortable},
      {"dispatched", &kernels::MatMulAccumulate,
       &kernels::MatMulTransAAccumulate}};
#if defined(DBG4ETH_HAVE_AVX2_KERNELS)
  if (kernels::Avx2Supported()) {
    bodies.push_back({"avx2", &kernels::MatMulAccumulateAvx2,
                      &kernels::MatMulTransAAccumulateAvx2});
  }
#endif
  return bodies;
}

// Random entries spanning several magnitudes (so the rounding of every sum
// depends on its order), with a share of exact zeros, and — when
// `zero_blocks` — whole 4-row blocks of a column (and whole rows) zeroed so
// the per-block skip fires.
std::vector<double> KernelInput(int rows, int cols, Rng* rng,
                                bool zero_blocks) {
  std::vector<double> v(static_cast<size_t>(rows) * cols);
  for (double& x : v) {
    x = rng->Bernoulli(0.2) ? 0.0
                            : rng->Uniform(-1.0, 1.0) *
                                  (rng->Bernoulli(0.5) ? 1e3 : 1e-3);
  }
  if (zero_blocks) {
    for (int c = 0; c < cols; c += 2) {
      for (int r = 0; r < std::min(rows, 4); ++r) v[r * cols + c] = 0.0;
    }
    if (rows > 4) {
      for (int c = 0; c < cols; ++c) v[4 * cols + c] = 0.0;
    }
  }
  return v;
}

TEST(MatMulKernelTest, BodiesMatchNaiveScalarBitForBit) {
  Rng rng(17);
  const std::vector<KernelBody> bodies = KernelBodies();
  for (int n : {1, 2, 3, 4, 5, 7, 8, 13, 40}) {
    for (int k : {1, 3, 24}) {
      for (int m : {1, 2, 3, 5, 8, 24, 72}) {
        for (bool zero_blocks : {false, true}) {
          const std::vector<double> a = KernelInput(n, k, &rng, zero_blocks);
          const std::vector<double> b = KernelInput(k, m, &rng, false);
          const std::vector<double> bt = KernelInput(n, m, &rng, false);
          // Accumulate into a non-zero out (never -0.0).
          std::vector<double> init_nm(static_cast<size_t>(n) * m);
          std::vector<double> init_km(static_cast<size_t>(k) * m);
          for (double& x : init_nm) x = rng.Uniform(0.5, 2.0);
          for (double& x : init_km) x = rng.Uniform(0.5, 2.0);

          std::vector<double> want_ab = init_nm;
          NaiveMatMulAccumulate(a, b, &want_ab, n, k, m);
          std::vector<double> want_atb = init_km;
          NaiveMatMulTransAAccumulate(a, bt, &want_atb, n, k, m);
          for (const KernelBody& body : bodies) {
            SCOPED_TRACE(testing::Message()
                         << body.name << " n=" << n << " k=" << k
                         << " m=" << m << " zero_blocks=" << zero_blocks);
            std::vector<double> got_ab = init_nm;
            body.matmul(a.data(), b.data(), got_ab.data(), n, k, m);
            EXPECT_EQ(0, std::memcmp(got_ab.data(), want_ab.data(),
                                     got_ab.size() * sizeof(double)));
            std::vector<double> got_atb = init_km;
            body.trans_a(a.data(), bt.data(), got_atb.data(), n, k, m);
            EXPECT_EQ(0, std::memcmp(got_atb.data(), want_atb.data(),
                                     got_atb.size() * sizeof(double)));
          }
        }
      }
    }
  }
}

TEST(MatMulKernelTest, MatrixEntryPointsUseTheKernels) {
  Rng rng(23);
  const int n = 7, k = 5, m = 24;
  const std::vector<double> a = KernelInput(n, k, &rng, true);
  const std::vector<double> b = KernelInput(k, m, &rng, false);
  const std::vector<double> bt = KernelInput(n, m, &rng, false);
  std::vector<double> want_ab(static_cast<size_t>(n) * m, 0.0);
  NaiveMatMulAccumulate(a, b, &want_ab, n, k, m);
  std::vector<double> want_atb(static_cast<size_t>(k) * m, 0.0);
  NaiveMatMulTransAAccumulate(a, bt, &want_atb, n, k, m);

  const Matrix ab = MatMul(Matrix::FromFlat(n, k, a), Matrix::FromFlat(k, m, b));
  EXPECT_EQ(0, std::memcmp(ab.data(), want_ab.data(),
                           want_ab.size() * sizeof(double)));
  const Matrix atb =
      MatMulTransA(Matrix::FromFlat(n, k, a), Matrix::FromFlat(n, m, bt));
  EXPECT_EQ(0, std::memcmp(atb.data(), want_atb.data(),
                           want_atb.size() * sizeof(double)));
}

}  // namespace
}  // namespace dbg4eth
