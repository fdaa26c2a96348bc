// The HPL correctness check. A factorization "passes" when the scaled
// residual ||Ax - b||_oo / (eps * (||A||_oo * ||x||_oo + ||b||_oo) * N)
// is below 16 — the same acceptance test the benchmark in the paper runs
// after every timed solve.
//
// The check splits into two steps so that a row-partitioned evaluation (the
// distributed HPL's validation tail) and the sequential one share a single
// formula: residual_row folds rows of A into two running maxima, and
// scale_residual turns the maxima into the scaled residual. A maximum is
// exact, so combining per-range maxima in any order reproduces the
// sequential value bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "util/matrix.h"

namespace xphi::blas {

inline constexpr double kHplResidualThreshold = 16.0;

/// Running maxima of the check over the rows seen so far.
struct ResidualMaxima {
  double r_inf = 0;  // max_i |(A x)_i - b_i|
  double a_inf = 0;  // max_i sum_j |a_ij| (= ||A||_oo over those rows)
};

/// Folds row i of the ORIGINAL matrix (`a_row`, x.size() entries) with its
/// right-hand-side entry `b_i` into `m`. Both sums run over j ascending in
/// fp64 — the accumulation order of the sequential check and of
/// util::norm_inf.
template <class T>
void residual_row(const T* a_row, std::span<const T> x, T b_i,
                  ResidualMaxima& m) {
  double acc = 0, s = 0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double v = static_cast<double>(a_row[j]);
    acc += v * static_cast<double>(x[j]);
    s += v >= 0 ? v : -v;
  }
  const double r = std::abs(acc - static_cast<double>(b_i));
  if (r > m.r_inf) m.r_inf = r;
  if (s > m.a_inf) m.a_inf = s;
}

/// Maxima over every row of `rows` (a row range of A), paired with the
/// matching entries `b_rows` of the right-hand side.
template <class T>
ResidualMaxima residual_maxima(util::MatrixView<const T> rows,
                               std::span<const T> x,
                               std::span<const T> b_rows) {
  ResidualMaxima m;
  for (std::size_t i = 0; i < rows.rows(); ++i)
    residual_row<T>(rows.row(i), x, b_rows[i], m);
  return m;
}

/// The scaling step: the scaled residual of order n = x.size() from the
/// maxima over all n rows, with eps the unit roundoff of T.
template <class T>
double scale_residual(const ResidualMaxima& m, std::span<const T> x,
                      std::span<const T> b) {
  const std::size_t n = x.size();
  double x_inf = 0, b_inf = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xa = std::abs(static_cast<double>(x[i]));
    if (xa > x_inf) x_inf = xa;
    const double ba = std::abs(static_cast<double>(b[i]));
    if (ba > b_inf) b_inf = ba;
  }
  const double eps = std::numeric_limits<T>::epsilon();
  const double denom =
      eps * (m.a_inf * x_inf + b_inf) * static_cast<double>(n);
  return denom > 0 ? m.r_inf / denom : m.r_inf;
}

/// Scaled HPL residual for the solve A x = b.
/// `a` is the ORIGINAL (unfactored) matrix.
template <class T>
double hpl_residual(util::MatrixView<const T> a, std::span<const T> x,
                    std::span<const T> b) {
  return scale_residual<T>(residual_maxima<T>(a, x, b), x, b);
}

}  // namespace xphi::blas
