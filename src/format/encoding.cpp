#include "encoding.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.hpp"

namespace tbstc::format {

using core::Mask;
using core::Matrix;
using core::SparsityDim;
using core::TbsMeta;
using util::ensure;

namespace {

constexpr uint64_t kValueBytes = 2;  ///< fp16 payload element.
constexpr uint64_t kIdxBytes = 2;    ///< 16-bit column/row index.
constexpr uint64_t kInfoBytes = 2;   ///< DDC per-block info entry.
constexpr uint64_t kRowPtrBytes = 4; ///< CSR row pointer.

/** Sentinel column marking an SDC padding slot. */
constexpr uint16_t kPadSlot = 0xffff;

/**
 * On-line merger of a walk's byte accesses into contiguous segments.
 * Feed (start, len) accesses in walk order; adjacent runs coalesce.
 */
class SegmentCounter
{
  public:
    void
    access(uint64_t start, uint64_t len)
    {
        if (len == 0)
            return;
        if (!(open_ && start == end_))
            ++segments_;
        open_ = true;
        end_ = start + len;
        bytes_ += len;
    }

    uint64_t segments() const { return segments_; }
    uint64_t bytes() const { return bytes_; }

  private:
    bool open_ = false;
    uint64_t end_ = 0;
    uint64_t segments_ = 0;
    uint64_t bytes_ = 0;
};

/*
 * Each format's walk traffic as a function of structure alone. The
 * encodings below and format::streamProfile both call these, so every
 * formula exists once.
 */

/**
 * Dense: the walk reads each m x m block row by row, one
 * min(m, cols - bc)-wide run per row. Two reads coalesce only within
 * a single block column (cols <= m: the whole matrix is one run),
 * from one block to the next along a one-row block row, and from a
 * block row's last read to the next block row's first.
 */
StreamProfile
denseStream(uint64_t rows, uint64_t cols, size_t m)
{
    ensure(m > 0, "stream walk needs m >= 1");
    StreamProfile p;
    p.payloadBytes = rows * cols * kValueBytes;
    p.usefulBytes = p.payloadBytes;
    if (p.payloadBytes == 0)
        return p;
    if (cols <= m) {
        p.segments = 1;
        return p;
    }
    const uint64_t block_rows = (rows + m - 1) / m;
    const uint64_t block_cols = (cols + m - 1) / m;
    const uint64_t one_row_block_rows =
        m == 1 ? rows : (rows % m == 1 ? 1 : 0);
    p.segments = rows * block_cols
        - (block_cols - 1) * one_row_block_rows - (block_rows - 1);
    return p;
}

/**
 * SDC's whole point is regular row-aligned streaming: the rows, padded
 * to @p pitch (the global max row occupancy) slots, are read end to
 * end, one long contiguous run, and the padding slots are the
 * redundant traffic (paper Fig. 7(a)).
 */
StreamProfile
sdcStream(uint64_t rows, uint64_t pitch, uint64_t nnz)
{
    StreamProfile p;
    p.payloadBytes = rows * pitch * (kValueBytes + kIdxBytes);
    p.usefulBytes = nnz * (kValueBytes + kIdxBytes);
    p.segments = 1;
    return p;
}

/** ceil(log2 m) bits per DDC intra-group index (at least one). */
uint64_t
log2Bits(size_t m)
{
    uint64_t bits = 0;
    while ((1ull << bits) < m)
        ++bits;
    return bits == 0 ? 1 : bits;
}

/**
 * DDC: @p slots = sum of N * m over the @p blocks blocks, each slot an
 * fp16 value plus a bit-packed index, behind one info entry per block.
 * Payloads are laid out in exactly the walk order, so the whole stream
 * is one contiguous run; the info table is a second.
 */
StreamProfile
ddcStream(uint64_t slots, uint64_t blocks, size_t m)
{
    StreamProfile p;
    p.payloadBytes = blocks * kInfoBytes + slots * kValueBytes
        + (slots * log2Bits(m) + 7) / 8;
    p.usefulBytes = p.payloadBytes;
    p.segments = 2;
    return p;
}

/**
 * Bitmap: row-merge hardware streams the packed values and the
 * presence bitmap sequentially and reassembles blocks on chip; both
 * arrays are contiguous.
 */
StreamProfile
bitmapStream(uint64_t nnz, uint64_t rows, uint64_t cols)
{
    StreamProfile p;
    p.payloadBytes = nnz * kValueBytes + (rows * cols + 7) / 8;
    p.usefulBytes = p.payloadBytes;
    p.segments = 2;
    return p;
}

/**
 * CSR: the PE array consumes m x m blocks, but CSR packs by full row,
 * so every block touches a short run inside each of its rows' entries
 * (paper Fig. 7(b)). Values and indices stream as interleaved (value,
 * index) pairs, as a hardware CSR walker would lay them out.
 * @p row_runs(r, runs) writes row r's entry count in each block column
 * [b * m, (b + 1) * m) to runs[b].
 */
template <typename RowRuns>
StreamProfile
csrStream(size_t rows, size_t cols, size_t m, RowRuns &&row_runs)
{
    ensure(m > 0, "stream walk needs m >= 1");
    const size_t block_cols = (cols + m - 1) / m;
    // One block row's runs, row-major, and each row's next entry.
    std::vector<uint64_t> runs(m * block_cols);
    std::vector<uint64_t> next(m);
    uint64_t entries = 0;
    const uint64_t pair = kValueBytes + kIdxBytes;
    SegmentCounter seg;
    for (size_t br = 0; br < rows; br += m) {
        const size_t height = std::min(m, rows - br);
        for (size_t i = 0; i < height; ++i) {
            const std::span<uint64_t> row(runs.data() + i * block_cols,
                                          block_cols);
            std::fill(row.begin(), row.end(), 0);
            row_runs(br + i, row);
            next[i] = entries;
            for (const uint64_t run : row)
                entries += run;
        }
        for (size_t b = 0; b < block_cols; ++b) {
            for (size_t i = 0; i < height; ++i) {
                const uint64_t run = runs[i * block_cols + b];
                seg.access(next[i] * pair, run * pair);
                next[i] += run;
            }
        }
    }
    StreamProfile p;
    p.payloadBytes = seg.bytes() + (rows + 1) * kRowPtrBytes;
    p.usefulBytes = p.payloadBytes;
    p.segments = seg.segments() + 1;
    return p;
}

/** Dense row-major fp16 encoding. */
class DenseEncoding final : public Encoding
{
  public:
    explicit DenseEncoding(Matrix w) : w_(std::move(w)) {}

    StorageFormat format() const override { return StorageFormat::Dense; }

    uint64_t
    storageBytes() const override
    {
        return static_cast<uint64_t>(w_.size()) * kValueBytes;
    }

    Matrix decode() const override { return w_; }

    StreamProfile
    streamProfile(size_t m) const override
    {
        return denseStream(w_.rows(), w_.cols(), m);
    }

  private:
    Matrix w_;
};

/** SDC: per-row compression padded to the global max row occupancy. */
class SdcEncoding final : public Encoding
{
  public:
    SdcEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "SDC mask shape mismatch");
        size_t max_nnz = 0;
        std::vector<std::vector<std::pair<uint16_t, float>>> row_data(rows_);
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                row_data[r].emplace_back(static_cast<uint16_t>(c),
                                         w.at(r, c));
            });
            max_nnz = std::max(max_nnz, row_data[r].size());
            nnz_ += row_data[r].size();
        }
        pitch_ = max_nnz;
        cols_idx_.assign(rows_ * pitch_, kPadSlot);
        values_.assign(rows_ * pitch_, 0.0f);
        for (size_t r = 0; r < rows_; ++r) {
            for (size_t i = 0; i < row_data[r].size(); ++i) {
                cols_idx_[r * pitch_ + i] = row_data[r][i].first;
                values_[r * pitch_ + i] = row_data[r][i].second;
            }
        }
    }

    StorageFormat format() const override { return StorageFormat::SDC; }

    uint64_t
    storageBytes() const override
    {
        return sdcStream(rows_, pitch_, nnz_).payloadBytes;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t i = 0; i < pitch_; ++i)
                if (cols_idx_[r * pitch_ + i] != kPadSlot)
                    w.at(r, cols_idx_[r * pitch_ + i]) =
                        values_[r * pitch_ + i];
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        return sdcStream(rows_, pitch_, nnz_);
    }

    size_t pitch() const { return pitch_; }

  private:
    size_t rows_;
    size_t cols_;
    size_t pitch_ = 0; ///< Padded slots per row (global max nnz).
    uint64_t nnz_ = 0;
    std::vector<uint16_t> cols_idx_;
    std::vector<float> values_;
};

/** Classic CSR. */
class CsrEncoding final : public Encoding
{
  public:
    CsrEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "CSR mask shape mismatch");
        row_ptr_.push_back(0);
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                col_idx_.push_back(static_cast<uint16_t>(c));
                values_.push_back(w.at(r, c));
            });
            row_ptr_.push_back(static_cast<uint32_t>(col_idx_.size()));
        }
    }

    StorageFormat format() const override { return StorageFormat::CSR; }

    uint64_t
    storageBytes() const override
    {
        return values_.size() * (kValueBytes + kIdxBytes)
            + row_ptr_.size() * kRowPtrBytes;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        for (size_t r = 0; r < rows_; ++r)
            for (uint32_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
                w.at(r, col_idx_[i]) = values_[i];
        return w;
    }

    StreamProfile
    streamProfile(size_t m) const override
    {
        return csrStream(rows_, cols_, m,
                         [&](size_t r, std::span<uint64_t> runs) {
            for (uint32_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
                ++runs[col_idx_[i] / m];
        });
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<uint32_t> row_ptr_;
    std::vector<uint16_t> col_idx_;
    std::vector<float> values_;
};

/** The paper's dual-dimensional compression. */
class DdcEncoding final : public Encoding
{
  public:
    DdcEncoding(const Matrix &w, const Mask &mask, const TbsMeta &meta)
        : rows_(w.rows()), cols_(w.cols()), meta_(meta)
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "DDC mask shape mismatch");
        ensure(rows_ == meta.blockRows * meta.m
                   && cols_ == meta.blockCols * meta.m,
               "DDC metadata grid mismatch");
        const size_t m = meta.m;
        // Every group stores exactly N slots, so the sizes are known.
        size_t slots = 0;
        for (const auto &info : meta.blocks)
            slots += size_t{info.n} * m;
        offsets_.reserve(meta.blocks.size());
        values_.reserve(slots);
        intra_idx_.reserve(slots);
        for (size_t br = 0; br < meta.blockRows; ++br) {
            for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                const auto &info = meta.block(br, bc);
                offsets_.push_back(static_cast<uint32_t>(values_.size()));
                // Groups run along the block's sparsity dimension; each
                // group stores exactly N entries (slots beyond the
                // group's population are zero padding inside the block,
                // which TBS generation never produces).
                for (size_t g = 0; g < m; ++g) {
                    size_t emitted = 0;
                    if (info.dim == SparsityDim::Reduction && m <= 64) {
                        // Row group: grab the block row's bits in one
                        // word and walk only the set positions.
                        uint64_t bits =
                            mask.rowBits(br * m + g, bc * m, m);
                        while (bits != 0 && emitted < info.n) {
                            const auto e = static_cast<size_t>(
                                std::countr_zero(bits));
                            bits &= bits - 1;
                            values_.push_back(
                                w.at(br * m + g, bc * m + e));
                            intra_idx_.push_back(static_cast<uint8_t>(e));
                            ++emitted;
                        }
                    } else {
                        for (size_t e = 0; e < m && emitted < info.n;
                             ++e) {
                            const size_t r =
                                info.dim == SparsityDim::Reduction ? g : e;
                            const size_t c =
                                info.dim == SparsityDim::Reduction ? e : g;
                            if (mask.at(br * m + r, bc * m + c)) {
                                values_.push_back(
                                    w.at(br * m + r, bc * m + c));
                                intra_idx_.push_back(
                                    static_cast<uint8_t>(e));
                                ++emitted;
                            }
                        }
                    }
                    for (; emitted < info.n; ++emitted) {
                        values_.push_back(0.0f);
                        intra_idx_.push_back(0);
                    }
                }
            }
        }
    }

    StorageFormat format() const override { return StorageFormat::DDC; }

    uint64_t
    storageBytes() const override
    {
        return ddcStream(values_.size(), meta_.blocks.size(), meta_.m)
            .payloadBytes;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        const size_t m = meta_.m;
        size_t cursor = 0;
        for (size_t br = 0; br < meta_.blockRows; ++br) {
            for (size_t bc = 0; bc < meta_.blockCols; ++bc) {
                const auto &info = meta_.block(br, bc);
                for (size_t g = 0; g < m; ++g) {
                    for (size_t k = 0; k < info.n; ++k, ++cursor) {
                        const size_t e = intra_idx_[cursor];
                        const float v = values_[cursor];
                        if (v == 0.0f)
                            continue; // Padding slot.
                        const size_t r = info.dim == SparsityDim::Reduction
                            ? g : e;
                        const size_t c = info.dim == SparsityDim::Reduction
                            ? e : g;
                        w.at(br * m + r, bc * m + c) = v;
                    }
                }
            }
        }
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        return ddcStream(values_.size(), meta_.blocks.size(), meta_.m);
    }

  private:
    size_t rows_;
    size_t cols_;
    TbsMeta meta_;
    std::vector<uint32_t> offsets_;
    std::vector<float> values_;
    std::vector<uint8_t> intra_idx_;
};

/** RM-STC style values + presence bitmap. */
class BitmapEncoding final : public Encoding
{
  public:
    BitmapEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "Bitmap mask shape mismatch");
        bits_.assign((rows_ * cols_ + 7) / 8, 0);
        values_.reserve(mask.nnz());
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                const size_t pos = r * cols_ + c;
                bits_[pos / 8] |= static_cast<uint8_t>(1u << (pos % 8));
                values_.push_back(w.at(r, c));
            });
        }
    }

    StorageFormat format() const override { return StorageFormat::Bitmap; }

    uint64_t
    storageBytes() const override
    {
        return bitmapStream(values_.size(), rows_, cols_).payloadBytes;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        size_t cursor = 0;
        for (size_t pos = 0; pos < rows_ * cols_; ++pos)
            if (bits_[pos / 8] & (1u << (pos % 8)))
                w.data()[pos] = values_[cursor++];
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        return bitmapStream(values_.size(), rows_, cols_);
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<uint8_t> bits_;
    std::vector<float> values_;
};

} // namespace

std::string
formatName(StorageFormat f)
{
    switch (f) {
      case StorageFormat::Dense: return "Dense";
      case StorageFormat::SDC:   return "SDC";
      case StorageFormat::CSR:   return "CSR";
      case StorageFormat::DDC:   return "DDC";
      case StorageFormat::Bitmap: return "Bitmap";
    }
    util::panic("unknown StorageFormat");
}

size_t
maxEncodableCols(StorageFormat f)
{
    switch (f) {
      case StorageFormat::SDC: return kPadSlot;
      case StorageFormat::CSR: return size_t{UINT16_MAX} + 1;
      case StorageFormat::Dense:
      case StorageFormat::DDC:
      case StorageFormat::Bitmap: return SIZE_MAX;
    }
    util::panic("unknown StorageFormat");
}

ColumnLimitError::ColumnLimitError(StorageFormat f, size_t cols)
    : util::FatalError(util::formatStr(
        "{} stores 16-bit column indices: a {}-column matrix exceeds "
        "its {}-column limit",
        formatName(f), cols, maxEncodableCols(f)))
{
}

StreamProfile
streamProfile(StorageFormat fmt, const Mask &mask, const TbsMeta &meta)
{
    const size_t rows = mask.rows();
    const size_t cols = mask.cols();
    const size_t m = meta.m;
    switch (fmt) {
      case StorageFormat::Dense:
        return denseStream(rows, cols, m);
      case StorageFormat::SDC: {
        uint64_t pitch = 0;
        for (size_t r = 0; r < rows; ++r)
            pitch = std::max<uint64_t>(pitch, mask.rangeNnz(r, 0, cols));
        return sdcStream(rows, pitch, mask.nnz());
      }
      case StorageFormat::CSR:
        return csrStream(rows, cols, m,
                         [&](size_t r, std::span<uint64_t> runs) {
            for (size_t b = 0; b < runs.size(); ++b)
                runs[b] = mask.rangeNnz(r, b * m,
                                        std::min(m, cols - b * m));
        });
      case StorageFormat::DDC: {
        ensure(rows == meta.blockRows * m && cols == meta.blockCols * m,
               "DDC metadata grid mismatch");
        uint64_t slots = 0;
        for (const auto &info : meta.blocks)
            slots += uint64_t{info.n} * m;
        return ddcStream(slots, meta.blocks.size(), m);
      }
      case StorageFormat::Bitmap:
        return bitmapStream(mask.nnz(), rows, cols);
    }
    util::panic("unknown StorageFormat");
}

std::unique_ptr<Encoding>
encodeDense(const Matrix &w)
{
    return std::make_unique<DenseEncoding>(w);
}

std::unique_ptr<Encoding>
encodeSdc(const Matrix &w, const Mask &mask)
{
    if (w.cols() > maxEncodableCols(StorageFormat::SDC))
        throw ColumnLimitError(StorageFormat::SDC, w.cols());
    return std::make_unique<SdcEncoding>(w, mask);
}

std::unique_ptr<Encoding>
encodeCsr(const Matrix &w, const Mask &mask)
{
    if (w.cols() > maxEncodableCols(StorageFormat::CSR))
        throw ColumnLimitError(StorageFormat::CSR, w.cols());
    return std::make_unique<CsrEncoding>(w, mask);
}

std::unique_ptr<Encoding>
encodeDdc(const Matrix &w, const Mask &mask, const TbsMeta &meta)
{
    return std::make_unique<DdcEncoding>(w, mask, meta);
}

std::unique_ptr<Encoding>
encodeBitmap(const Matrix &w, const Mask &mask)
{
    return std::make_unique<BitmapEncoding>(w, mask);
}

} // namespace tbstc::format
