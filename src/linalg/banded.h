// Banded matrix storage and LU factorization with partial pivoting
// (LAPACK gbtrf-style layout).
//
// The TCAD finite-volume discretization on a structured nx-by-ny grid
// produces matrices with bandwidth min(nx, ny) after natural ordering, so a
// banded solver gives near-linear-time factorizations without a general
// sparse LU.
//
// BandedLU eliminates in LAPACK dgbtf2 order: after choosing pivot j it
// scales column j below the diagonal, then applies the rank-1 update one
// column at a time down the contiguous band storage.  It tracks `ju`, the
// last column that row swaps have actually reached (j + ku without a swap,
// up to j + kl + ku with them), and stops the swap, the update and the
// back-substitution there instead of always sweeping kl + ku columns.
// Every entry still receives the same floating-point operations in the same
// order as a row-by-row sweep over the full widened band; the skipped terms
// are exact zeros, so for any finite matrix without -0.0 entries the factors
// and solutions are bit-identical to that sweep.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.h"

namespace mivtx::linalg {

// Square banded matrix with kl sub-diagonals and ku super-diagonals.
// Storage keeps kl extra super-diagonals for pivoting fill-in.
class BandedMatrix {
 public:
  BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku);

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return kl_; }
  std::size_t upper_bandwidth() const { return ku_; }

  // Accessors valid only for |r - c| within the band; out-of-band reads
  // return 0, out-of-band writes are an error.
  double at(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, double v);
  void add(std::size_t r, std::size_t c, double v);

  void set_zero();
  Vector multiply(const Vector& x) const;

 private:
  friend class BandedLU;
  bool in_band(std::size_t r, std::size_t c) const;
  // Element (r, c) lives at store_[index(r, c)] when in the widened band.
  std::size_t index(std::size_t r, std::size_t c) const;

  std::size_t n_, kl_, ku_;
  std::size_t ldab_;  // rows of the band store: 2*kl + ku + 1
  std::vector<double> store_;
};

class BandedLU {
 public:
  // Factor `a` (a copy, or moved in).
  explicit BandedLU(BandedMatrix a);
  // An unfactored workspace for repeated solves of one shape: assemble
  // into matrix(), then factor() in place.  No allocation after this.
  BandedLU(std::size_t n, std::size_t kl, std::size_t ku);

  // The owned matrix, for (re)assembly.  It holds the factors after
  // factor(), so set_zero() it before assembling the next system.
  BandedMatrix& matrix();
  // Factor matrix() in place; throws mivtx::Error on a singular matrix.
  void factor();

  Vector solve(const Vector& b) const;
  void solve_in_place(Vector& b) const;

 private:
  BandedMatrix lu_;
  std::vector<std::size_t> pivots_;
  // reach_[j]: last column with a possibly nonzero entry in row j of U.
  std::vector<std::size_t> reach_;
  bool factored_ = false;
};

Vector solve_banded(BandedMatrix a, const Vector& b);

}  // namespace mivtx::linalg
