#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hpmm {

/// Dense row-major matrix of doubles. Value type with deep-copy semantics;
/// the unit of data exchanged between simulated processors.
///
/// Matrices of at most kInline elements — the 1x1 and 2x2 blocks that the
/// fine-grain formulations (DNS, GK near p = n^3) move by the hundred
/// thousand — keep their elements inline, so creating, copying or sending
/// one never touches the heap. Larger matrices own one heap array. A
/// moved-from matrix is 0x0.
class Matrix {
 public:
  /// Largest element count stored inline.
  static constexpr std::size_t kInline = 4;

  /// Empty 0x0 matrix.
  Matrix() noexcept = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  Matrix(const Matrix& other);
  Matrix(Matrix&& other) noexcept { take(other); }
  Matrix& operator=(const Matrix& other);
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      take(other);
    }
    return *this;
  }
  ~Matrix() { delete[] heap_; }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return elems()[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return elems()[r * cols_ + c];
  }

  /// Bounds-checked access; throws PreconditionError when out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> data() noexcept { return {elems(), size()}; }
  std::span<const double> data() const noexcept { return {elems(), size()}; }

  /// Pointer to the first element of row r.
  double* row_ptr(std::size_t r) noexcept { return elems() + r * cols_; }
  const double* row_ptr(std::size_t r) const noexcept {
    return elems() + r * cols_;
  }

  /// Set every element to `value`.
  void fill(double value) noexcept;

  /// Element-wise sum: *this += other. Shapes must match.
  Matrix& operator+=(const Matrix& other);

  /// Element-wise difference: *this -= other. Shapes must match.
  Matrix& operator-=(const Matrix& other);

  /// Copy the rectangle [r0, r0+h) x [c0, c0+w) out of this matrix.
  Matrix slice(std::size_t r0, std::size_t c0, std::size_t h, std::size_t w) const;

  /// Paste `block` into this matrix with its top-left corner at (r0, c0).
  void paste(const Matrix& block, std::size_t r0, std::size_t c0);

  /// Transposed copy.
  Matrix transposed() const;

  /// Same shape and element-wise equal.
  friend bool operator==(const Matrix& a, const Matrix& b) noexcept;

 private:
  double* elems() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const double* elems() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  /// Adopt other's shape and storage, leaving other 0x0. Any storage of
  /// this matrix must already be released.
  void take(Matrix& other) noexcept;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double* heap_ = nullptr;     ///< the elements when size() > kInline
  double inline_[kInline]{};   ///< the elements otherwise
};

/// Frobenius norm sqrt(sum a_ij^2).
double frobenius_norm(const Matrix& m) noexcept;

/// Largest absolute element-wise difference. Shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// True when every |a_ij - b_ij| <= tol. Shapes must match.
bool approx_equal(const Matrix& a, const Matrix& b, double tol);

}  // namespace hpmm
