#ifndef DBG4ETH_TENSOR_MATMUL_KERNELS_H_
#define DBG4ETH_TENSOR_MATMUL_KERNELS_H_

namespace dbg4eth {
namespace kernels {

/// \brief Row-major dense kernels behind MatMulAccumulate and
/// MatMulTransAAccumulate (tensor/matrix.h), on raw contiguous buffers:
///
///   MatMulAccumulate:        out[n x m] += a[n x k]   * b[k x m]
///   MatMulTransAAccumulate:  out[k x m] += a[n x k]^T * b[n x m]
///
/// Both loop over blocks of 4 rows of `a`, skip a (block, kk) pair whose 4
/// entries of `a` are all zero, and vectorize only the output-column loop:
/// lane j of a vector computes exactly the scalar expression for column j,
/// a separate multiply then add, with each output's terms added in
/// ascending order. So every body is bit-identical to the scalar loop —
/// provided multiply and add are never fused, which is why no body is
/// compiled for an FMA target. The wide body is picked once per process
/// from the CPU's features; the bodies are exported so tests can check
/// each against a scalar reference. `out` must not overlap `a` or `b`.
using MatMulKernel = void (*)(const double* a, const double* b, double* out,
                              int n, int k, int m);

/// The bodies picked for this CPU (AVX2 when available, else portable).
void MatMulAccumulate(const double* a, const double* b, double* out, int n,
                      int k, int m);
void MatMulTransAAccumulate(const double* a, const double* b, double* out,
                            int n, int k, int m);

/// 2-wide body, built for the baseline target (SSE2 on x86-64).
void MatMulAccumulatePortable(const double* a, const double* b, double* out,
                              int n, int k, int m);
void MatMulTransAAccumulatePortable(const double* a, const double* b,
                                    double* out, int n, int k, int m);

#if defined(__x86_64__) || defined(__i386__)
#define DBG4ETH_HAVE_AVX2_KERNELS 1
/// True when the CPU (and the OS) support AVX2.
bool Avx2Supported();
/// 4-wide AVX2 bodies (no FMA). Call only when Avx2Supported().
void MatMulAccumulateAvx2(const double* a, const double* b, double* out,
                          int n, int k, int m);
void MatMulTransAAccumulateAvx2(const double* a, const double* b,
                                double* out, int n, int k, int m);
#endif

}  // namespace kernels
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_MATMUL_KERNELS_H_
