#include "linalg/banded.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mivtx::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ldab_(2 * kl + ku + 1),
      store_(ldab_ * n, 0.0) {
  MIVTX_EXPECT(n > 0, "banded: empty matrix");
  MIVTX_EXPECT(kl < n && ku < n, "banded: bandwidth >= n");
}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const {
  return (c + kl_ >= r) && (r + ku_ >= c);
}

std::size_t BandedMatrix::index(std::size_t r, std::size_t c) const {
  // gbtrf layout: entry (r, c) stored at row (kl + ku + r - c) of column c.
  const std::size_t band_row = kl_ + ku_ + r - c;
  return c * ldab_ + band_row;
}

double BandedMatrix::at(std::size_t r, std::size_t c) const {
  MIVTX_EXPECT(r < n_ && c < n_, "banded: index out of range");
  if (!in_band(r, c)) return 0.0;
  return store_[index(r, c)];
}

void BandedMatrix::set(std::size_t r, std::size_t c, double v) {
  MIVTX_EXPECT(r < n_ && c < n_, "banded: index out of range");
  MIVTX_EXPECT(in_band(r, c), "banded: write outside band");
  store_[index(r, c)] = v;
}

void BandedMatrix::add(std::size_t r, std::size_t c, double v) {
  MIVTX_EXPECT(r < n_ && c < n_, "banded: index out of range");
  MIVTX_EXPECT(in_band(r, c), "banded: write outside band");
  store_[index(r, c)] += v;
}

void BandedMatrix::set_zero() {
  std::fill(store_.begin(), store_.end(), 0.0);
}

Vector BandedMatrix::multiply(const Vector& x) const {
  MIVTX_EXPECT(x.size() == n_, "banded multiply: size mismatch");
  Vector y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c0 = (r > kl_) ? r - kl_ : 0;
    const std::size_t c1 = std::min(n_ - 1, r + ku_);
    double s = 0.0;
    for (std::size_t c = c0; c <= c1; ++c) s += store_[index(r, c)] * x[c];
    y[r] = s;
  }
  return y;
}

BandedLU::BandedLU(BandedMatrix a) : lu_(std::move(a)) { factor(); }

BandedLU::BandedLU(std::size_t n, std::size_t kl, std::size_t ku)
    : lu_(n, kl, ku) {}

BandedMatrix& BandedLU::matrix() {
  factored_ = false;
  return lu_;
}

void BandedLU::factor() {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku = lu_.ku_;
  const std::size_t kv = kl + ku;
  const std::size_t ld = lu_.ldab_;
  double* const ab = lu_.store_.data();
  pivots_.resize(n);
  reach_.resize(n);
  factored_ = false;

  // (r, c) sits at ab[c * ld + kv + r - c]: a column of the band is
  // contiguous, and (j + i, c) is i doubles past (j, c).
  std::size_t ju = 0;
  for (std::size_t j = 0; j < n; ++j) {
    double* const col = ab + j * ld + kv;  // col[i] = (j + i, j)
    const std::size_t km = std::min(kl, n - 1 - j);
    // Pivot: the first largest |entry| among rows j .. j + km.
    std::size_t jp = 0;
    double best = std::fabs(col[0]);
    for (std::size_t i = 1; i <= km; ++i) {
      const double v = std::fabs(col[i]);
      if (v > best) {
        best = v;
        jp = i;
      }
    }
    MIVTX_EXPECT(best > 0.0 && std::isfinite(best),
                 "singular matrix in BandedLU at column " + std::to_string(j));
    pivots_[j] = j + jp;
    // Row j + jp reaches column j + jp + ku; every column past ju is still
    // an exact zero in rows j .. j + km.
    ju = std::max(ju, std::min(j + jp + ku, n - 1));
    reach_[j] = ju;
    if (jp != 0) {
      for (std::size_t c = j; c <= ju; ++c) {
        double* const cc = ab + c * ld + kv + j - c;
        std::swap(cc[0], cc[jp]);
      }
    }
    const double inv = 1.0 / col[0];
    for (std::size_t i = 1; i <= km; ++i) col[i] *= inv;
    // Rank-1 update of the trailing block, one contiguous column at a time.
    // Rows go in pairs loaded before either store, a shape GCC's -O2 SLP
    // vectorizer turns into one packed multiply-subtract per pair.
    for (std::size_t c = j + 1; c <= ju; ++c) {
      double* const cc = ab + c * ld + kv + j - c;  // cc[i] = (j + i, c)
      const double u = cc[0];
      std::size_t i = 1;
      for (; i + 1 <= km; i += 2) {
        const double f0 = col[i], f1 = col[i + 1];
        const double a0 = cc[i], a1 = cc[i + 1];
        cc[i] = a0 - f0 * u;
        cc[i + 1] = a1 - f1 * u;
      }
      if (i <= km) cc[i] -= col[i] * u;
    }
  }
  factored_ = true;
}

void BandedLU::solve_in_place(Vector& b) const {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t kv = lu_.kl_ + lu_.ku_;
  const std::size_t ld = lu_.ldab_;
  const double* const ab = lu_.store_.data();
  MIVTX_EXPECT(factored_, "banded solve: matrix not factored");
  MIVTX_EXPECT(b.size() == n, "banded solve: rhs size mismatch");
  // Apply permutation + forward substitution.
  for (std::size_t j = 0; j < n; ++j) {
    if (pivots_[j] != j) std::swap(b[j], b[pivots_[j]]);
    const double bj = b[j];
    if (bj == 0.0) continue;
    const double* const col = ab + j * ld + kv;
    const std::size_t km = std::min(kl, n - 1 - j);
    for (std::size_t i = 1; i <= km; ++i) b[j + i] -= col[i] * bj;
  }
  // Back substitution, each row's terms in increasing column order.  Row
  // jj's entries are (ld - 1) doubles apart: (jj, c) at jj + kv + c * (ld - 1).
  for (std::size_t jj = n; jj-- > 0;) {
    const double* const row = ab + jj + kv;
    double s = b[jj];
    for (std::size_t c = jj + 1; c <= reach_[jj]; ++c)
      s -= row[c * (ld - 1)] * b[c];
    b[jj] = s / row[jj * (ld - 1)];
  }
}

Vector BandedLU::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

Vector solve_banded(BandedMatrix a, const Vector& b) {
  return BandedLU(std::move(a)).solve(b);
}

}  // namespace mivtx::linalg
