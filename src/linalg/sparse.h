// Compressed-sparse-row matrix with a COO-style builder.
//
// Used for experimentation and cross-checking the banded TCAD solves; the
// production paths prefer DenseLU (circuits) and BandedLU (device grids).
// Iterative solves go through linalg/krylov.h (KrylovSolver over a CsrView
// of row_ptr()/col_idx()/values()).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.h"

namespace mivtx::linalg {

class SparseBuilder {
 public:
  explicit SparseBuilder(std::size_t rows, std::size_t cols);

  // Accumulates duplicates.
  void add(std::size_t r, std::size_t c, double v);
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t num_entries() const { return entries_.size(); }

  struct Entry {
    std::size_t row, col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  // Compresses (sorts rows, merges duplicates).
  explicit SparseMatrix(const SparseBuilder& builder);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t num_nonzeros() const { return values_.size(); }

  Vector multiply(const Vector& x) const;
  double at(std::size_t r, std::size_t c) const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace mivtx::linalg
