#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "util/check.h"

namespace sepriv {

Matrix Matrix::Uniform(size_t rows, size_t cols, Rng& rng, double lo,
                       double hi) {
  Matrix m(rows, cols, Uninitialized{});
  m.FillUniform(rng, lo, hi);
  return m;
}

void Matrix::FillGaussian(Rng& rng, double mean, double stddev) {
  kernels::FillGaussian(rng, data_.data(), data_.size(), mean, stddev);
}

void Matrix::FillUniform(Rng& rng, double lo, double hi) {
  const size_t n = data_.size();
  double* data = data_.data();
  const Rng start = rng;
  kernels::ParallelTasks((n + kFillBlock - 1) / kFillBlock, [&](size_t b) {
    const size_t first = b * kFillBlock;
    const size_t end = std::min(n, first + kFillBlock);
    Rng block = start;
    block.Advance(first);
    for (size_t i = first; i < end; ++i) data[i] = block.Uniform(lo, hi);
  });
  rng.Advance(n);
}

void Matrix::FillXavier(Rng& rng) {
  SEPRIV_CHECK(rows_ > 0 && cols_ > 0, "FillXavier on empty matrix");
  const double a = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  FillUniform(rng, -a, a);
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  SEPRIV_CHECK(SameShape(other), "Axpy shape mismatch: %zux%zu vs %zux%zu",
               rows_, cols_, other.rows_, other.cols_);
  kernels::Axpy(alpha, other.data_.data(), data_.data(), data_.size());
}

void Matrix::Scale(double alpha) {
  kernels::Scale(alpha, data_.data(), data_.size());
}

void Matrix::RoundToFloat32() {
  sepriv::RoundToFloat32({data_.data(), data_.size()});
}

void RoundToFloat32(std::span<double> values) {
  for (double& x : values) x = static_cast<double>(static_cast<float>(x));
}

double Matrix::RowNorm(size_t i) const {
  return std::sqrt(kernels::SquaredNorm(data_.data() + i * cols_, cols_));
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(kernels::SquaredNorm(data_.data(), data_.size()));
}

double Matrix::RowDot(size_t i, const Matrix& other, size_t j) const {
  SEPRIV_CHECK(cols_ == other.cols_, "RowDot col mismatch: %zu vs %zu", cols_,
               other.cols_);
  return kernels::Dot(data_.data() + i * cols_,
                      other.data() + j * other.cols(), cols_);
}

double Matrix::RowSquaredDistance(size_t i, const Matrix& other,
                                  size_t j) const {
  SEPRIV_CHECK(cols_ == other.cols_, "RowSquaredDistance col mismatch");
  return kernels::SquaredDistance(data_.data() + i * cols_,
                                  other.data() + j * other.cols(), cols_);
}

Float32Matrix::Float32Matrix(const Matrix& m)
    : rows_(m.rows()),
      cols_(m.cols()),
      dp_sanitized_(m.dp_sanitized()),
      data_(m.size()) {
  const double* src = m.data();
  for (size_t i = 0; i < data_.size(); ++i)
    data_[i] = static_cast<float>(src[i]);
}

Matrix Float32Matrix::ToMatrix() const {
  Matrix m(rows_, cols_);
  double* dst = m.data();
  for (size_t i = 0; i < data_.size(); ++i)
    dst[i] = static_cast<double>(data_[i]);
  if (dp_sanitized_) m.MarkDpSanitized();
  return m;
}

void Float32Matrix::DecodeRow(size_t i, double* out) const {
  const float* src = data_.data() + i * cols_;
  for (size_t j = 0; j < cols_; ++j) out[j] = static_cast<double>(src[j]);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.cols() == b.rows(), "MatMul shape mismatch: %zux%zu * %zux%zu",
               a.rows(), a.cols(), b.rows(), b.cols());
  Matrix c(a.rows(), b.cols());
  kernels::Gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.rows() == b.rows(), "MatTMul shape mismatch");
  Matrix c(a.cols(), b.cols());
  kernels::GemmTN(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.cols() == b.cols(), "MatMulT shape mismatch");
  Matrix c(a.rows(), b.rows());
  kernels::GemmNT(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.SameShape(b), "Add shape mismatch");
  Matrix c = a;
  c.Axpy(1.0, b);
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.SameShape(b), "Sub shape mismatch");
  Matrix c = a;
  c.Axpy(-1.0, b);
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.SameShape(b), "Hadamard shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (size_t i = 0; i < c.size(); ++i)
    c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SEPRIV_CHECK(a.SameShape(b), "MaxAbsDiff shape mismatch");
  double mx = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    mx = std::max(mx, std::abs(a.data()[i] - b.data()[i]));
  return mx;
}

}  // namespace sepriv
