#include "tensor/matmul_kernels.h"

#include <cstddef>

namespace dbg4eth {
namespace kernels {

namespace {

// GCC vector types over rows of doubles: 8-byte alignment so a vector can
// start at any column, may_alias so it can be loaded from a double array
// (the way immintrin.h defines __m256d_u for _mm256_loadu_pd).
// The bodies are templated on the width, not on the type: a template type
// argument drops these attributes (and the loads would assume 16- or
// 32-byte alignment).
template <int kWidth>
struct Vec;
template <>
struct Vec<2> {
  typedef double type __attribute__((vector_size(16), aligned(8), may_alias));
};
template <>
struct Vec<4> {
  typedef double type __attribute__((vector_size(32), aligned(8), may_alias));
};

// The bodies are templates forced inline into each target-specific entry
// point, so the 4-wide one is compiled with AVX2 enabled.
#define DBG4ETH_KERNEL_INLINE inline __attribute__((always_inline))

// Vectors are only passed by pointer: passing a 32-byte vector by value
// through a function built without AVX changes its ABI.
template <int kWidth>
DBG4ETH_KERNEL_INLINE const typename Vec<kWidth>::type* VecAt(
    const double* p) {
  return reinterpret_cast<const typename Vec<kWidth>::type*>(p);
}

template <int kWidth>
DBG4ETH_KERNEL_INLINE typename Vec<kWidth>::type* VecAt(double* p) {
  return reinterpret_cast<typename Vec<kWidth>::type*>(p);
}

template <int kWidth>
DBG4ETH_KERNEL_INLINE void MatMulBody(const double* a, const double* b,
                                      double* out, int n, int k, int m) {
  using V = typename Vec<kWidth>::type;
  const auto row = [](auto* base, int r, int cols) {
    return base + static_cast<ptrdiff_t>(r) * cols;
  };
  // ikj order (streams rows of b and out), register-blocked over 4 rows of
  // a: each row of b loaded once feeds 4 output rows. The zero test is per
  // block — it still skips the fully-masked rows that attention masking
  // produces (a masked GAT alpha row is all zeros across the whole block
  // only if all 4 rows mask that column, which is the common case for
  // padded/disconnected nodes) without paying a branch per multiply in the
  // dense case.
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = row(a, i, k);
    const double* a1 = row(a, i + 1, k);
    const double* a2 = row(a, i + 2, k);
    const double* a3 = row(a, i + 3, k);
    double* o0 = row(out, i, m);
    double* o1 = row(out, i + 1, m);
    double* o2 = row(out, i + 2, m);
    double* o3 = row(out, i + 3, m);
    for (int kk = 0; kk < k; ++kk) {
      const double v0 = a0[kk];
      const double v1 = a1[kk];
      const double v2 = a2[kk];
      const double v3 = a3[kk];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      const double* brow = row(b, kk, m);
      int j = 0;
      for (; j + kWidth <= m; j += kWidth) {
        const V bj = *VecAt<kWidth>(brow + j);
        *VecAt<kWidth>(o0 + j) += v0 * bj;
        *VecAt<kWidth>(o1 + j) += v1 * bj;
        *VecAt<kWidth>(o2 + j) += v2 * bj;
        *VecAt<kWidth>(o3 + j) += v3 * bj;
      }
      for (; j < m; ++j) {
        const double bj = brow[j];
        o0[j] += v0 * bj;
        o1[j] += v1 * bj;
        o2[j] += v2 * bj;
        o3[j] += v3 * bj;
      }
    }
  }
  for (; i < n; ++i) {  // Remainder rows (n % 4), zero test per entry.
    const double* arow = row(a, i, k);
    double* orow = row(out, i, m);
    for (int kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      const double* brow = row(b, kk, m);
      int j = 0;
      for (; j + kWidth <= m; j += kWidth) {
        *VecAt<kWidth>(orow + j) += av * *VecAt<kWidth>(brow + j);
      }
      for (; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

template <int kWidth>
DBG4ETH_KERNEL_INLINE void MatMulTransABody(const double* a, const double* b,
                                            double* out, int n, int k,
                                            int m) {
  using V = typename Vec<kWidth>::type;
  const auto row = [](auto* base, int r, int cols) {
    return base + static_cast<ptrdiff_t>(r) * cols;
  };
  // Four rank-1 updates fused per pass: each output row is loaded and
  // stored once per 4 input rows instead of once per input row. The
  // per-element adds stay in ascending-i order (sequential `acc +=`).
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = row(a, i, k);
    const double* a1 = row(a, i + 1, k);
    const double* a2 = row(a, i + 2, k);
    const double* a3 = row(a, i + 3, k);
    const double* b0 = row(b, i, m);
    const double* b1 = row(b, i + 1, m);
    const double* b2 = row(b, i + 2, m);
    const double* b3 = row(b, i + 3, m);
    for (int kk = 0; kk < k; ++kk) {
      const double v0 = a0[kk];
      const double v1 = a1[kk];
      const double v2 = a2[kk];
      const double v3 = a3[kk];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      double* orow = row(out, kk, m);
      int j = 0;
      for (; j + kWidth <= m; j += kWidth) {
        V acc = *VecAt<kWidth>(orow + j);
        acc += v0 * *VecAt<kWidth>(b0 + j);
        acc += v1 * *VecAt<kWidth>(b1 + j);
        acc += v2 * *VecAt<kWidth>(b2 + j);
        acc += v3 * *VecAt<kWidth>(b3 + j);
        *VecAt<kWidth>(orow + j) = acc;
      }
      for (; j < m; ++j) {
        double acc = orow[j];
        acc += v0 * b0[j];
        acc += v1 * b1[j];
        acc += v2 * b2[j];
        acc += v3 * b3[j];
        orow[j] = acc;
      }
    }
  }
  for (; i < n; ++i) {  // Remainder rows (n % 4), zero test per entry.
    const double* arow = row(a, i, k);
    const double* brow = row(b, i, m);
    for (int kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      double* orow = row(out, kk, m);
      int j = 0;
      for (; j + kWidth <= m; j += kWidth) {
        *VecAt<kWidth>(orow + j) += av * *VecAt<kWidth>(brow + j);
      }
      for (; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

struct Selected {
  MatMulKernel matmul;
  MatMulKernel trans_a;
};

const Selected& Pick() {
  static const Selected selected = [] {
#if defined(DBG4ETH_HAVE_AVX2_KERNELS)
    if (Avx2Supported()) {
      return Selected{&MatMulAccumulateAvx2, &MatMulTransAAccumulateAvx2};
    }
#endif
    return Selected{&MatMulAccumulatePortable,
                    &MatMulTransAAccumulatePortable};
  }();
  return selected;
}

}  // namespace

void MatMulAccumulatePortable(const double* a, const double* b, double* out,
                              int n, int k, int m) {
  MatMulBody<2>(a, b, out, n, k, m);
}

void MatMulTransAAccumulatePortable(const double* a, const double* b,
                                    double* out, int n, int k, int m) {
  MatMulTransABody<2>(a, b, out, n, k, m);
}

#if defined(DBG4ETH_HAVE_AVX2_KERNELS)
bool Avx2Supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

// "avx2" only: adding "fma" would let GCC (-ffp-contract=fast) fuse the
// multiply-add and change the rounding.
__attribute__((target("avx2"))) void MatMulAccumulateAvx2(
    const double* a, const double* b, double* out, int n, int k, int m) {
  MatMulBody<4>(a, b, out, n, k, m);
}

__attribute__((target("avx2"))) void MatMulTransAAccumulateAvx2(
    const double* a, const double* b, double* out, int n, int k, int m) {
  MatMulTransABody<4>(a, b, out, n, k, m);
}
#endif

void MatMulAccumulate(const double* a, const double* b, double* out, int n,
                      int k, int m) {
  Pick().matmul(a, b, out, n, k, m);
}

void MatMulTransAAccumulate(const double* a, const double* b, double* out,
                            int n, int k, int m) {
  Pick().trans_a(a, b, out, n, k, m);
}

}  // namespace kernels
}  // namespace dbg4eth
