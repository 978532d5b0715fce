#include "matrix.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace tbstc::core {

using util::ensure;

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix::Matrix(size_t rows, size_t cols, Uninitialized)
    : rows_(rows), cols_(cols), data_(rows * cols)
{
}

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end())
{
    ensure(data_.size() == rows * cols, "Matrix data size mismatch");
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

double
Matrix::absSum() const
{
    double sum = 0.0;
    for (float x : data_)
        sum += std::fabs(x);
    return sum;
}

double
Matrix::frobenius() const
{
    double sum = 0.0;
    for (float x : data_)
        sum += static_cast<double>(x) * x;
    return std::sqrt(sum);
}

Mask::Mask(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), wpr_((cols + 63) / 64),
      words_(rows * ((cols + 63) / 64), 0)
{
}

std::vector<uint8_t>
Mask::toBytes() const
{
    std::vector<uint8_t> out(rows_ * cols_);
    for (size_t r = 0; r < rows_; ++r) {
        uint8_t *dst = out.data() + r * cols_;
        const uint64_t *row = words_.data() + r * wpr_;
        for (size_t c = 0; c < cols_; ++c)
            dst[c] = static_cast<uint8_t>((row[c >> 6] >> (c & 63)) & 1u);
    }
    return out;
}

size_t
Mask::nnz() const
{
    return static_cast<size_t>(
        kernels::active().popcount(words_.data(), words_.size()));
}

double
Mask::sparsity() const
{
    if (size() == 0)
        return 0.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(size());
}

size_t
Mask::hamming(const Mask &other) const
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::hamming shape mismatch");
    return static_cast<size_t>(kernels::active().popcountXor(
        words_.data(), other.words_.data(), words_.size()));
}

double
Mask::overlap(const Mask &other) const
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::overlap shape mismatch");
    const size_t other_nnz = other.nnz();
    if (other_nnz == 0)
        return 1.0;
    const auto agree = static_cast<size_t>(kernels::active().popcountAnd(
        words_.data(), other.words_.data(), words_.size()));
    return static_cast<double>(agree) / static_cast<double>(other_nnz);
}

double
Mask::agreement(const Mask &other) const
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::agreement shape mismatch");
    if (size() == 0)
        return 1.0;
    const size_t same = size() - hamming(other);
    return static_cast<double>(same) / static_cast<double>(size());
}

Mask &
Mask::operator&=(const Mask &other)
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::operator&= shape mismatch");
    kernels::active().andInplace(words_.data(), other.words_.data(),
                                 words_.size());
    return *this;
}

Mask &
Mask::operator|=(const Mask &other)
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::operator|= shape mismatch");
    kernels::active().orInplace(words_.data(), other.words_.data(),
                                words_.size());
    return *this;
}

Mask &
Mask::operator^=(const Mask &other)
{
    ensure(rows_ == other.rows_ && cols_ == other.cols_,
           "Mask::operator^= shape mismatch");
    // Pad bits are zero on both sides, so XOR keeps the invariant.
    kernels::active().xorInplace(words_.data(), other.words_.data(),
                                 words_.size());
    return *this;
}

Mask
Mask::transposed() const
{
    Mask t(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        forEachSet(r, [&](size_t c) { t.at(c, r) = 1; });
    return t;
}

Matrix
applyMask(const Matrix &w, const Mask &mask)
{
    ensure(w.rows() == mask.rows() && w.cols() == mask.cols(),
           "applyMask shape mismatch");
    Matrix out(w.rows(), w.cols());
    for (size_t r = 0; r < w.rows(); ++r) {
        const std::span<const float> src = w.row(r);
        const std::span<float> dst = out.row(r);
        mask.forEachSet(r, [&](size_t c) { dst[c] = src[c]; });
    }
    return out;
}

Matrix
matmul(const Matrix &a, const Matrix &b, const Matrix *c)
{
    ensure(a.cols() == b.rows(), "matmul inner dimension mismatch");
    Matrix d(a.rows(), b.cols());
    if (c) {
        ensure(c->rows() == d.rows() && c->cols() == d.cols(),
               "matmul bias shape mismatch");
        d = *c;
    }
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            for (size_t j = 0; j < b.cols(); ++j)
                d.at(i, j) += aik * b.at(k, j);
        }
    }
    return d;
}

double
maxAbsDiff(const Matrix &x, const Matrix &y)
{
    ensure(x.rows() == y.rows() && x.cols() == y.cols(),
           "maxAbsDiff shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(x.data()[i])
                                  - y.data()[i]));
    return m;
}

} // namespace tbstc::core
