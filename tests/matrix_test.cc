#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/kernels.h"
#include "util/rng.h"

namespace sepriv {
namespace {

TEST(MatrixTest, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(MatrixTest, RowSpanIsMutable) {
  Matrix m(2, 3);
  auto row = m.Row(1);
  row[2] = 9.0;
  EXPECT_EQ(m(1, 2), 9.0);
  EXPECT_EQ(m.Row(0).size(), 3u);
}

TEST(MatrixTest, MatMulHandComputed) {
  Matrix a(2, 3), b(3, 2);
  double va = 1.0;
  for (size_t i = 0; i < 2; ++i)
    for (size_t j = 0; j < 3; ++j) a(i, j) = va++;
  double vb = 1.0;
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 2; ++j) b(i, j) = vb++;
  const Matrix c = MatMul(a, b);
  // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]].
  EXPECT_EQ(c(0, 0), 22.0);
  EXPECT_EQ(c(0, 1), 28.0);
  EXPECT_EQ(c(1, 0), 49.0);
  EXPECT_EQ(c(1, 1), 64.0);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(3);
  Matrix a(4, 4);
  a.FillGaussian(rng);
  Matrix eye(4, 4);
  for (size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  EXPECT_LT(MaxAbsDiff(MatMul(a, eye), a), 1e-12);
  EXPECT_LT(MaxAbsDiff(MatMul(eye, a), a), 1e-12);
}

TEST(MatrixTest, MatTMulEqualsTransposeThenMul) {
  Rng rng(5);
  Matrix a(3, 5), b(3, 4);
  a.FillGaussian(rng);
  b.FillGaussian(rng);
  EXPECT_LT(MaxAbsDiff(MatTMul(a, b), MatMul(Transpose(a), b)), 1e-12);
}

TEST(MatrixTest, MatMulTEqualsMulThenTranspose) {
  Rng rng(6);
  Matrix a(3, 5), b(4, 5);
  a.FillGaussian(rng);
  b.FillGaussian(rng);
  EXPECT_LT(MaxAbsDiff(MatMulT(a, b), MatMul(a, Transpose(b))), 1e-12);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(7);
  Matrix a(4, 6);
  a.FillGaussian(rng);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-15);
}

TEST(MatrixTest, AddSubHadamard) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  b(0, 0) = 3;
  b(1, 1) = -5;
  EXPECT_EQ(Add(a, b)(0, 0), 4.0);
  EXPECT_EQ(Sub(a, b)(1, 1), 7.0);
  EXPECT_EQ(Hadamard(a, b)(1, 1), -10.0);
  EXPECT_EQ(Hadamard(a, b)(0, 1), 0.0);
}

TEST(MatrixTest, AxpyAndScale) {
  Matrix a(1, 3), b(1, 3);
  for (size_t j = 0; j < 3; ++j) {
    a(0, j) = static_cast<double>(j);
    b(0, j) = 1.0;
  }
  a.Axpy(2.0, b);  // {2,3,4}
  EXPECT_EQ(a(0, 0), 2.0);
  EXPECT_EQ(a(0, 2), 4.0);
  a.Scale(0.5);
  EXPECT_EQ(a(0, 1), 1.5);
}

TEST(MatrixTest, RowNormAndFrobenius) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.RowNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(m.RowNorm(1), 0.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, RowDotAndDistance) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  EXPECT_DOUBLE_EQ(m.RowDot(0, m, 1), 32.0);
  EXPECT_DOUBLE_EQ(m.RowSquaredDistance(0, m, 1), 27.0);
  EXPECT_DOUBLE_EQ(m.RowSquaredDistance(0, m, 0), 0.0);
}

TEST(MatrixTest, FillGaussianMoments) {
  Rng rng(11);
  Matrix m(200, 200);
  m.FillGaussian(rng, 1.0, 2.0);
  double sum = 0.0, sumsq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sumsq += (m.data()[i] - 1.0) * (m.data()[i] - 1.0);
  }
  EXPECT_NEAR(sum / m.size(), 1.0, 0.03);
  EXPECT_NEAR(sumsq / m.size(), 4.0, 0.1);
}

TEST(MatrixTest, FillXavierRange) {
  Rng rng(13);
  Matrix m(30, 50);
  m.FillXavier(rng);
  const double bound = std::sqrt(6.0 / 80.0);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -bound);
    EXPECT_LT(m.data()[i], bound);
  }
}

TEST(MatrixTest, SetZeroClears) {
  Matrix m(2, 2, 3.0);
  m.SetZero();
  EXPECT_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(MatrixDeathTest, ShapeMismatchesAbort) {
  Matrix a(2, 3), b(3, 3);
  EXPECT_DEATH(Add(a, b), "shape mismatch");
  EXPECT_DEATH(a.Axpy(1.0, b), "shape mismatch");
  Matrix c(2, 2), d(3, 2);
  EXPECT_DEATH(MatMul(c, d), "shape mismatch");
}

TEST(MatrixTest, MatMulAssociativityNumeric) {
  Rng rng(17);
  Matrix a(3, 4), b(4, 5), c(5, 2);
  a.FillGaussian(rng);
  b.FillGaussian(rng);
  c.FillGaussian(rng);
  EXPECT_LT(MaxAbsDiff(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c))),
            1e-10);
}

// The serial loop FillUniform replaced: element i is draw i of `rng`.
std::vector<double> SerialUniform(Rng& rng, size_t n, double lo, double hi) {
  std::vector<double> out(n);
  for (double& x : out) x = rng.Uniform(lo, hi);
  return out;
}

bool SameBits(const Matrix& m, const std::vector<double>& want) {
  return m.size() == want.size() &&
         (want.empty() ||
          std::memcmp(m.data(), want.data(), want.size() * sizeof(double)) ==
              0);
}

bool SamePosition(Rng a, Rng b) {
  const Rng::State sa = a.SaveState(), sb = b.SaveState();
  return std::memcmp(sa.s, sb.s, sizeof(sa.s)) == 0 && a.Next() == b.Next();
}

// Every size around the block boundary, at every linalg thread count: the
// same values as the serial loop, and the caller's Rng ends where the loop
// left it.
TEST(FillUniformTest, MatchesSerialLoopAtEveryThreadCount) {
  const size_t block = Matrix::kFillBlock;
  for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    kernels::SetLinalgThreads(threads);
    for (size_t n : {size_t{0}, size_t{1}, block - 1, block, block + 1,
                     3 * block + 5}) {
      Rng rng(42 + n), ref_rng(42 + n);
      Matrix m(n, 1);
      m.FillUniform(rng, -0.25, 0.75);
      const std::vector<double> want = SerialUniform(ref_rng, n, -0.25, 0.75);
      EXPECT_TRUE(SameBits(m, want)) << threads << " threads, n=" << n;
      EXPECT_TRUE(SamePosition(rng, ref_rng))
          << threads << " threads, n=" << n;
    }
  }
  kernels::SetLinalgThreads(0);
}

// The factory skips the zero fill; its values and end state are the fill's.
TEST(FillUniformTest, UniformFactoryMatchesSerialLoop) {
  kernels::SetLinalgThreads(4);
  const size_t rows = 1000, cols = 131;  // not a multiple of the block
  Rng rng(5), ref_rng(5);
  const Matrix m = Matrix::Uniform(rows, cols, rng, -0.5, 0.5);
  EXPECT_EQ(m.rows(), rows);
  EXPECT_EQ(m.cols(), cols);
  EXPECT_TRUE(SameBits(m, SerialUniform(ref_rng, rows * cols, -0.5, 0.5)));
  EXPECT_TRUE(SamePosition(rng, ref_rng));
  kernels::SetLinalgThreads(0);
}

// Called from inside a ParallelTasks task, the fill takes ParallelTasks'
// serial fallback, with the same values.
TEST(FillUniformTest, MatchesSerialLoopInsideParallelTask) {
  kernels::SetLinalgThreads(4);
  const size_t n = 2 * Matrix::kFillBlock + 3;
  std::vector<Matrix> filled(4, Matrix(n, 1));
  std::vector<Rng> ends(4);
  kernels::ParallelTasks(4, [&](size_t t) {
    Rng rng(100 + t);
    filled[t].FillUniform(rng, 0.0, 2.0);
    ends[t] = rng;
  });
  for (size_t t = 0; t < 4; ++t) {
    Rng ref_rng(100 + t);
    EXPECT_TRUE(SameBits(filled[t], SerialUniform(ref_rng, n, 0.0, 2.0)))
        << "task " << t;
    EXPECT_TRUE(SamePosition(ends[t], ref_rng)) << "task " << t;
  }
  kernels::SetLinalgThreads(0);
}

}  // namespace
}  // namespace sepriv
