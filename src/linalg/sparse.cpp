#include "linalg/sparse.h"

#include <algorithm>

#include "common/error.h"

namespace mivtx::linalg {

SparseBuilder::SparseBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  MIVTX_EXPECT(rows > 0 && cols > 0, "sparse: empty shape");
}

void SparseBuilder::add(std::size_t r, std::size_t c, double v) {
  MIVTX_EXPECT(r < rows_ && c < cols_, "sparse: index out of range");
  if (v == 0.0) return;
  entries_.push_back(Entry{r, c, v});
}

SparseMatrix::SparseMatrix(const SparseBuilder& builder)
    : rows_(builder.rows()), cols_(builder.cols()) {
  // Pattern-ordered builders (the common case when entries were emitted by
  // an assembly plan) compress without the copy + sort.
  bool ordered = true;
  const std::vector<SparseBuilder::Entry>& raw = builder.entries();
  for (std::size_t i = 1; i < raw.size() && ordered; ++i) {
    ordered = raw[i - 1].row < raw[i].row ||
              (raw[i - 1].row == raw[i].row && raw[i - 1].col < raw[i].col);
  }
  if (ordered) {
    row_ptr_.assign(rows_ + 1, 0);
    col_idx_.reserve(raw.size());
    values_.reserve(raw.size());
    for (const SparseBuilder::Entry& e : raw) {
      if (e.value == 0.0) continue;
      col_idx_.push_back(e.col);
      values_.push_back(e.value);
      ++row_ptr_[e.row + 1];
    }
    for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
    return;
  }
  std::vector<SparseBuilder::Entry> ents = builder.entries();
  std::sort(ents.begin(), ents.end(),
            [](const SparseBuilder::Entry& a, const SparseBuilder::Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_ptr_.assign(rows_ + 1, 0);
  for (std::size_t i = 0; i < ents.size();) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < ents.size() && ents[j].row == ents[i].row &&
           ents[j].col == ents[i].col) {
      sum += ents[j].value;
      ++j;
    }
    if (sum != 0.0) {
      col_idx_.push_back(ents[i].col);
      values_.push_back(sum);
      ++row_ptr_[ents[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
}

Vector SparseMatrix::multiply(const Vector& x) const {
  MIVTX_EXPECT(x.size() == cols_, "sparse multiply: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      s += values_[k] * x[col_idx_[k]];
    y[r] = s;
  }
  return y;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  MIVTX_EXPECT(r < rows_ && c < cols_, "sparse at: index out of range");
  // Columns are sorted within each row, so binary-search the row slice.
  const auto first = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

}  // namespace mivtx::linalg
