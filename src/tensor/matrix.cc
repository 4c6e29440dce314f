#include "tensor/matrix.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "tensor/matmul_kernels.h"

namespace dbg4eth {

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromFlat(int rows, int cols, std::vector<double> values) {
  DBG4ETH_CHECK_EQ(static_cast<size_t>(rows) * cols, values.size());
  // Adopts the vector directly (no zero-filled intermediate): the inference
  // arena routes recycled activation buffers through here.
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(values);
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  return FromFlat(static_cast<int>(values.size()), 1, values);
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  return FromFlat(1, static_cast<int>(values.size()), values);
}

Matrix Matrix::Random(int rows, int cols, Rng* rng, double lo, double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomNormal(int rows, int cols, Rng* rng, double mean,
                            double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(mean, stddev);
  return m;
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::MulInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::ScaleInPlace(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      out.At(c, r) = At(r, c);
    }
  }
  return out;
}

Matrix Matrix::SliceRows(int begin, int end) const {
  DBG4ETH_CHECK(begin >= 0 && end <= rows_ && begin <= end);
  Matrix out(end - begin, cols_);
  std::memcpy(out.data(), RowPtr(begin),
              static_cast<size_t>(end - begin) * cols_ * sizeof(double));
  return out;
}

Matrix Matrix::GatherRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    DBG4ETH_CHECK(indices[i] >= 0 && indices[i] < rows_);
    std::memcpy(out.RowPtr(static_cast<int>(i)), RowPtr(indices[i]),
                static_cast<size_t>(cols_) * sizeof(double));
  }
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::string out = StrFormat("Matrix(%d x %d)\n", rows_, cols_);
  // ~"-12.<precision>" per entry plus brackets; one upfront reservation
  // keeps the loop from re-growing (and re-copying) the string per row.
  out.reserve(out.size() + static_cast<size_t>(rows_) *
                               (static_cast<size_t>(cols_) * (precision + 8) + 4));
  for (int r = 0; r < rows_; ++r) {
    out += "[";
    for (int c = 0; c < cols_; ++c) {
      out += StrFormat(" %.*f", precision, At(r, c));
    }
    out += " ]\n";
  }
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatMulAccumulate(a, b, &out);
  return out;
}

void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  DBG4ETH_CHECK_EQ(a.cols(), b.rows());
  DBG4ETH_CHECK_EQ(out->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out->cols(), b.cols());
  kernels::MatMulAccumulate(a.data(), b.data(), out->data(), a.rows(),
                            a.cols(), b.cols());
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  MatMulTransAAccumulate(a, b, &out);
  return out;
}

void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out_p) {
  DBG4ETH_CHECK_EQ(a.rows(), b.rows());
  DBG4ETH_CHECK_EQ(out_p->rows(), a.cols());
  DBG4ETH_CHECK_EQ(out_p->cols(), b.cols());
  kernels::MatMulTransAAccumulate(a.data(), b.data(), out_p->data(),
                                  a.rows(), a.cols(), b.cols());
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  MatMulTransBAccumulate(a, b, &out);
  return out;
}

void MatMulTransBAccumulate(const Matrix& a, const Matrix& b, Matrix* out_p) {
  DBG4ETH_CHECK_EQ(a.cols(), b.cols());
  DBG4ETH_CHECK_EQ(out_p->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out_p->cols(), b.rows());
  Matrix& out = *out_p;
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.rows();
  // 4 independent dot products per pass over a's row: arow[kk] is loaded
  // once per 4 output columns, and the 4 accumulator chains break the
  // add-latency dependency of a single running sum.
  for (int i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b.RowPtr(j);
      const double* b1 = b.RowPtr(j + 1);
      const double* b2 = b.RowPtr(j + 2);
      const double* b3 = b.RowPtr(j + 3);
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        c0 += av * b0[kk];
        c1 += av * b1[kk];
        c2 += av * b2[kk];
        c3 += av * b3[kk];
      }
      orow[j] += c0;
      orow[j + 1] += c1;
      orow[j + 2] += c2;
      orow[j + 3] += c3;
    }
    for (; j < m; ++j) {  // Remainder columns (m % 4), scalar.
      const double* brow = b.RowPtr(j);
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] += acc;
    }
  }
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.SubInPlace(b);
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.MulInPlace(b);
  return out;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix out = a;
  out.ScaleInPlace(s);
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  DBG4ETH_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    std::memcpy(out.RowPtr(r), a.RowPtr(r),
                static_cast<size_t>(a.cols()) * sizeof(double));
    std::memcpy(out.RowPtr(r) + a.cols(), b.RowPtr(r),
                static_cast<size_t>(b.cols()) * sizeof(double));
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  DBG4ETH_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::memcpy(out.data(), a.data(), a.size() * sizeof(double));
  std::memcpy(out.RowPtr(a.rows()), b.data(), b.size() * sizeof(double));
  return out;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (!a.SameShape(b)) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::fabs(a.At(r, c) - b.At(r, c)) > tol) return false;
    }
  }
  return true;
}

}  // namespace dbg4eth
