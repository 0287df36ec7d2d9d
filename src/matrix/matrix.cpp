#include "matrix/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hpmm {

Matrix::Matrix(std::size_t rows, std::size_t cols) : Matrix(rows, cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill_value)
    : rows_(rows), cols_(cols) {
  if (size() > kInline) heap_ = new double[size()];
  fill(fill_value);
}

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  if (other.heap_ != nullptr) heap_ = new double[size()];
  std::copy_n(other.elems(), size(), elems());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  // An equal-sized heap array is overwritten in place; otherwise the
  // storage is replaced (allocated first, so a throw leaves *this intact).
  if (heap_ == nullptr || size() != other.size()) {
    double* fresh = other.heap_ != nullptr ? new double[other.size()] : nullptr;
    delete[] heap_;
    heap_ = fresh;
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  std::copy_n(other.elems(), size(), elems());
  return *this;
}

void Matrix::take(Matrix& other) noexcept {
  rows_ = other.rows_;
  cols_ = other.cols_;
  heap_ = other.heap_;
  if (heap_ == nullptr) std::copy_n(other.inline_, size(), inline_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.heap_ = nullptr;
}

bool operator==(const Matrix& a, const Matrix& b) noexcept {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
         std::equal(a.elems(), a.elems() + a.size(), b.elems());
}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

void Matrix::fill(double value) noexcept { std::fill_n(elems(), size(), value); }

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator+=: shape mismatch");
  double* dst = elems();
  const double* src = other.elems();
  for (std::size_t i = 0; i < size(); ++i) dst[i] += src[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator-=: shape mismatch");
  double* dst = elems();
  const double* src = other.elems();
  for (std::size_t i = 0; i < size(); ++i) dst[i] -= src[i];
  return *this;
}

Matrix Matrix::slice(std::size_t r0, std::size_t c0, std::size_t h,
                     std::size_t w) const {
  require(r0 + h <= rows_ && c0 + w <= cols_, "Matrix::slice: out of range");
  Matrix out(h, w);
  for (std::size_t r = 0; r < h; ++r) {
    std::copy_n(row_ptr(r0 + r) + c0, w, out.row_ptr(r));
  }
  return out;
}

void Matrix::paste(const Matrix& block, std::size_t r0, std::size_t c0) {
  require(r0 + block.rows() <= rows_ && c0 + block.cols() <= cols_,
          "Matrix::paste: out of range");
  for (std::size_t r = 0; r < block.rows(); ++r) {
    std::copy_n(block.row_ptr(r), block.cols(), row_ptr(r0 + r) + c0);
  }
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double frobenius_norm(const Matrix& m) noexcept {
  double sum = 0.0;
  for (double v : m.data()) sum += v * v;
  return std::sqrt(sum);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "max_abs_diff: shape mismatch");
  double worst = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    worst = std::max(worst, std::fabs(da[i] - db[i]));
  }
  return worst;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  return max_abs_diff(a, b) <= tol;
}

}  // namespace hpmm
