// Dense linear algebra kernels for the Fig. 13 HPC applications:
// blocked matrix-matrix multiplication and the Jacobi linear solver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace rfs::workloads {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  static Matrix random(std::size_t rows, std::size_t cols, std::uint64_t seed);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cache-blocked C = A * B. `row_begin/row_end` select a row stripe of C,
/// which is how the MPI + rFaaS benchmark splits the work between the
/// rank and the offloaded function.
void matmul_stripe(const Matrix& a, const Matrix& b, Matrix& c, std::size_t row_begin,
                   std::size_t row_end);

/// Full product, convenience.
void matmul(const Matrix& a, const Matrix& b, Matrix& c);

/// Naive triple loop, reference for tests.
void matmul_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// One Jacobi sweep over rows [row_begin, row_end):
///   x_new[i] = (b[i] - sum_{j!=i} A[i][j] x[j]) / A[i][i].
void jacobi_sweep(const Matrix& a, std::span<const double> b, std::span<const double> x,
                  std::span<double> x_new, std::size_t row_begin, std::size_t row_end);

/// Runs `iterations` Jacobi iterations; returns the final residual norm.
double jacobi_solve(const Matrix& a, std::span<const double> b, std::span<double> x,
                    unsigned iterations);

/// Generates a strictly diagonally dominant system (guaranteed Jacobi
/// convergence).
Matrix diagonally_dominant(std::size_t n, std::uint64_t seed);

/// ||Ax - b||_2.
double residual_norm(const Matrix& a, std::span<const double> b, std::span<const double> x);

/// Calibrated effective single-core throughput used by the virtual-time
/// cost models (~1.1 GFLOP/s sustained on the paper's Xeon Gold 6154 for
/// these unblocked-ish kernels).
constexpr double kFlopsPerSecond = 1.1e9;

/// Cost of multiplying a row stripe of height `rows` (2*n*k flops/row).
inline Duration matmul_time(std::size_t rows, std::size_t n, std::size_t k) {
  return static_cast<Duration>(2.0 * static_cast<double>(rows) * static_cast<double>(n) *
                               static_cast<double>(k) / kFlopsPerSecond * 1e9);
}

/// Cost of one Jacobi sweep over `rows` rows of an n-column system.
inline Duration jacobi_time(std::size_t rows, std::size_t n) {
  return static_cast<Duration>(2.0 * static_cast<double>(rows) * static_cast<double>(n) /
                               kFlopsPerSecond * 1e9);
}

}  // namespace rfs::workloads
