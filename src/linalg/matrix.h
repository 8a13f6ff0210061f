// Dense row-major matrix of doubles.
//
// This is the storage type for skip-gram embedding matrices (Win/Wout),
// neural-network weights, and small dense proximity matrices. Storage stays
// deliberately simple (contiguous, no expression templates); every FLOP is
// delegated to the vectorized kernel layer in linalg/kernels.h, so all
// row/matrix operations share one accumulation shape and the GEMMs are
// cache-blocked and thread-pool parallel with bit-identical output for
// every thread count.

#ifndef SEPRIVGEMB_LINALG_MATRIX_H_
#define SEPRIVGEMB_LINALG_MATRIX_H_

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sepriv {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// rows x cols matrix of U[lo, hi) entries drawn from `rng` in row-major
  /// order: the values, and where `rng` ends, equal a zero-initialised
  /// matrix followed by FillUniform. The storage is never zero-filled, so
  /// the parallel fill is its first touch.
  static Matrix Uniform(size_t rows, size_t cols, Rng& rng, double lo,
                        double hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Mutable view of row i.
  std::span<double> Row(size_t i) { return {data_.data() + i * cols_, cols_}; }
  std::span<const double> Row(size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  void Fill(double value) { data_.assign(data_.size(), value); }
  void SetZero() { Fill(0.0); }

  /// Fills with i.i.d. N(mean, stddev^2) entries.
  void FillGaussian(Rng& rng, double mean = 0.0, double stddev = 1.0);

  /// Fills with U[lo, hi) entries: element i (row-major) is draw i of
  /// `rng`, which ends size() draws further on — the serial loop's values
  /// and end state. Blocks of kFillBlock elements run on
  /// kernels::ParallelTasks, each from a copy of `rng` advanced to its
  /// first element (Rng::Advance), so the result does not depend on the
  /// linalg thread count.
  void FillUniform(Rng& rng, double lo, double hi);

  /// FillUniform's elements per task: a scheduling grain only. 2^16 doubles
  /// (512 KiB) make one Advance (~20 µs) small against the block's fill,
  /// and still spread a 10^5 x 128 matrix over ~200 tasks.
  static constexpr size_t kFillBlock = size_t{1} << 16;

  /// Xavier/Glorot uniform initialisation: U[-a, a], a = sqrt(6/(fan_in+fan_out)).
  void FillXavier(Rng& rng);

  /// In-place: this += alpha * other. Shapes must match.
  void Axpy(double alpha, const Matrix& other);

  /// In-place scalar multiply.
  void Scale(double alpha);

  /// Rounds every entry to its nearest float32 value (kept widened as
  /// double). The reduced-precision embedding-storage mode keeps the
  /// training weights exactly float32-representable at every epoch
  /// boundary — this pass at init and resume, the row form below for the
  /// rows an update writes — so a Float32Matrix copy or checkpoint payload
  /// is lossless and resume stays bit-identical. Deterministic (IEEE
  /// round-to-nearest-even per element); on noised weights this is DP
  /// post-processing.
  void RoundToFloat32();

  /// Euclidean norm of row i.
  double RowNorm(size_t i) const;

  /// Frobenius norm of the whole matrix.
  double FrobeniusNorm() const;

  /// Dot product of row i of this with row j of other (equal col counts).
  double RowDot(size_t i, const Matrix& other, size_t j) const;

  /// Squared Euclidean distance between row i of this and row j of other.
  double RowSquaredDistance(size_t i, const Matrix& other, size_t j) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Runtime half of the privacy-flow contract (util/privacy_annotations.h):
  /// the DP mechanism layer marks a matrix sanitized when it injects noise,
  /// and SEPRIV_DCHECK_SANITIZED asserts the bit at publication boundaries.
  /// The bit survives copies/moves (post-processing preserves DP) but is
  /// deliberately NOT cleared by further writes — it certifies that noise
  /// was applied somewhere in the matrix's history, not freshness.
  void MarkDpSanitized() { dp_sanitized_ = true; }
  bool dp_sanitized() const { return dp_sanitized_; }

 private:
  /// std::allocator that default-initialises on resize: the vector grown
  /// through it leaves new elements uninitialised instead of zero-filling
  /// them. Every public constructor still passes an explicit value; only
  /// the Uninitialized constructor below, whose caller writes every
  /// element, relies on it.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  struct Uninitialized {};
  Matrix(size_t rows, size_t cols, Uninitialized) : rows_(rows), cols_(cols) {
    data_.resize(rows * cols);  // default-initialised: no zero fill
  }

  size_t rows_ = 0;
  size_t cols_ = 0;
  bool dp_sanitized_ = false;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

/// Rounds every entry of `values` to its nearest float32 value, kept
/// widened as double (IEEE round-to-nearest-even per element).
void RoundToFloat32(std::span<double> values);

/// Dense row-major matrix of float32 — the reduced-precision storage for
/// embedding tables (half the resident bytes of Matrix). A read-side type:
/// training updates stay in the double pipeline (with per-epoch float32
/// rounding under EmbeddingStorage::kFloat32, which makes the narrowing
/// here lossless); serving/eval callers widen rows back to double on
/// access. Carries the dp_sanitized bit across the conversion.
class Float32Matrix {
 public:
  Float32Matrix() = default;

  /// rows x cols, zero-initialised.
  Float32Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Narrowing copy: each entry rounds to its nearest float32 (exact when
  /// `m` was rounded through Matrix::RoundToFloat32).
  explicit Float32Matrix(const Matrix& m);

  /// Exact widening back to the double storage type.
  Matrix ToMatrix() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  float operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  std::span<const float> Row(size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  /// Widens row i into out[0..cols) (exact: float -> double).
  void DecodeRow(size_t i, double* out) const;

  /// Heap bytes of the table payload (the RSS the storage mode saves).
  size_t MemoryBytes() const { return data_.size() * sizeof(float); }

  void MarkDpSanitized() { dp_sanitized_ = true; }
  bool dp_sanitized() const { return dp_sanitized_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  bool dp_sanitized_ = false;
  std::vector<float> data_;
};

/// C = A * B (cache-blocked, parallel for large shapes; thread-invariant).
/// Dense inner loops — no per-element zero skipping; sparse operands belong
/// in a sparse-aware structure (see NormalizedAdjacency), not here.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// Transposed copy.
Matrix Transpose(const Matrix& a);

/// Elementwise sum / difference (shape-checked).
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);

/// Elementwise (Hadamard) product.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Max absolute elementwise difference; used by gradient-check tests.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace sepriv

#endif  // SEPRIVGEMB_LINALG_MATRIX_H_
