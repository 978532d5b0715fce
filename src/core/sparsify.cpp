#include "sparsify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "kernels/kernels.hpp"
#include "mask_search.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace tbstc::core {

namespace {

// Selection. Every family keeps the top N scores of a group under one
// strict total order: score descending, then index ascending, scores
// comparing as floats (-0.0 ties +0.0). usMask finds the global top-k
// with a histogram threshold; the tile families and Algorithm 1's rank
// tables rank each element within its group and keep rank < N.

/**
 * Order-preserving map of a score to a uint32 key: a > b as floats iff
 * key(a) > key(b), and a == b iff the keys are equal (-0.0 maps to the
 * key of +0.0). NaN scores are outside the contract.
 */
inline uint32_t
orderKey(float f)
{
    uint32_t b = std::bit_cast<uint32_t>(f);
    if ((b & 0x7fffffffu) == 0)
        b = 0;
    return b
        ^ (static_cast<uint32_t>(static_cast<int32_t>(b) >> 31)
           | 0x80000000u);
}

/** The score of a key orderKey produced (its inverse on +0.0). */
inline float
keyScore(uint32_t key)
{
    return std::bit_cast<float>((key & 0x80000000u) != 0
                                    ? key & 0x7fffffffu
                                    : ~key);
}

/** Radix of the threshold search: 11 + 11 + 10 key bits. */
constexpr size_t kBuckets = 2048;
/** Elements per usMask chunk (whole rows; at least one row). */
constexpr size_t kSelectChunk = size_t{1} << 16;

/**
 * Walk a key histogram from the top bucket down and return the bucket
 * holding the @p need-th largest key; @p need becomes that key's rank
 * (1-based) within the bucket.
 */
size_t
pickBucket(std::span<const size_t> hist, size_t &need)
{
    for (size_t b = hist.size(); b-- > 0;) {
        if (need <= hist[b])
            return b;
        need -= hist[b];
    }
    util::panic("pickBucket: rank exceeds the histogram total");
}

/**
 * Rank of v[i*stride] within the m-element group v[0], v[stride], ...
 * under the selection order. Bitwise |/& rather than short-circuit
 * ||/&&: scores are effectively random, so data-dependent branches
 * mispredict half the time.
 */
inline unsigned
groupRank(const float *v, size_t stride, size_t m, size_t i)
{
    const float x = v[i * stride];
    unsigned rk = 0;
    for (size_t j = 0; j < m; ++j)
        rk += static_cast<unsigned>(v[j * stride] > x)
            | (static_cast<unsigned>(v[j * stride] == x)
               & static_cast<unsigned>(j < i));
    return rk;
}

/** Eight bytes as a little-endian word (compiles to one load). */
inline uint64_t
loadBytes8(const uint8_t *p)
{
    uint64_t r = 0;
    for (unsigned i = 0; i < 8; ++i)
        r |= static_cast<uint64_t>(p[i]) << (8 * i);
    return r;
}

/** Bit i = byte i, for a word whose eight bytes are each 0 or 1. */
inline uint64_t
gatherBytes8(uint64_t x)
{
    return (x * 0x0102040810204080ull) >> 56;
}

/**
 * Keep bits of one 8-wide tile from its ranks: bit i is set iff
 * rank[i] < n. SWAR over the eight rank bytes: 0x7f + n - rank has its
 * top bit set iff rank < n, and no byte borrows (rank <= 7, n <= 8).
 */
inline uint64_t
keepBits8(const uint8_t *rank, size_t n)
{
    const uint64_t top = (0x7f7f7f7f7f7f7f7full
                          + std::min<size_t>(n, 8) * 0x0101010101010101ull
                          - loadBytes8(rank))
        & 0x8080808080808080ull;
    return gatherBytes8(top >> 7);
}

/**
 * Row-tile selection over rows [begin, end): tile t of row r keeps the
 * top tile_n(r, t) of its m scores. @p m is a plain size_t or
 * std::integral_constant<size_t, 8>; 8-wide tiles rank through the
 * kernel table and pack eight tiles per 64-bit mask word, other widths
 * rank with groupRank.
 */
template <typename MT, typename NFn>
void
selectTileRows(const Matrix &scores, MT m, const NFn &tile_n,
               size_t begin, size_t end, Mask &mask)
{
    const size_t cols = scores.cols();
    if constexpr (!std::is_same_v<MT, size_t>) {
        static_assert(MT::value == 8);
        const auto rank_tiles = kernels::active().rankTiles8;
        std::vector<uint8_t> rank(cols);
        for (size_t r = begin; r < end; ++r) {
            rank_tiles(scores.row(r).data(), cols / 8, rank.data());
            for (size_t c0 = 0; c0 < cols; c0 += 64) {
                const size_t len = std::min<size_t>(64, cols - c0);
                uint64_t bits = 0;
                for (size_t i = 0; i < len; i += 8)
                    bits |= keepBits8(&rank[c0 + i],
                                      tile_n(r, (c0 + i) / 8))
                        << i;
                mask.setRowBits(r, c0, len, bits);
            }
        }
    } else {
        for (size_t r = begin; r < end; ++r) {
            const float *row = scores.row(r).data();
            for (size_t t = 0; t < cols; t += m) {
                const size_t n = tile_n(r, t / m);
                for (size_t c0 = 0; c0 < m; c0 += 64) {
                    const size_t len = std::min<size_t>(64, m - c0);
                    uint64_t bits = n >= m ? ~uint64_t{0} : 0;
                    if (n > 0 && n < m)
                        for (size_t i = 0; i < len; ++i)
                            bits |= static_cast<uint64_t>(
                                        groupRank(row + t, 1, m, c0 + i)
                                        < n)
                                << i;
                    mask.setRowBits(r, t + c0, len, bits);
                }
            }
        }
    }
}

/**
 * Materialize a row-tile mask: tile t of row r keeps its top
 * tile_n(r, t) scores. Rows own whole mask words, so row chunks write
 * disjoint words and the result is the same at any thread count.
 */
template <typename NFn>
Mask
selectTiles(const Matrix &scores, size_t m, const NFn &tile_n)
{
    Mask mask(scores.rows(), scores.cols());
    util::parallelFor(scores.rows(), 0, [&](size_t begin, size_t end) {
        if (m == 8)
            selectTileRows(scores, std::integral_constant<size_t, 8>{},
                           tile_n, begin, end, mask);
        else
            selectTileRows(scores, m, tile_n, begin, end, mask);
    });
    return mask;
}

/** Target number of kept elements for a sparsity degree. */
size_t
targetNnz(size_t total, double sparsity)
{
    const double keep = (1.0 - sparsity) * static_cast<double>(total);
    return static_cast<size_t>(std::llround(keep));
}

/** One unit of the candidate-count fitting problem. */
struct FitUnit
{
    double ideal;  ///< Desired kept elements (from the US mask).
    size_t groups; ///< Number of N:M groups in the unit.
};

/**
 * Choose a per-unit N from @p candidates so each unit's kept count
 * (N * groups) tracks its unstructured ideal, then run a
 * largest-remainder promotion pass so the matrix total lands as close
 * to @p target_nnz as the candidate lattice allows. This implements
 * Alg. 1 step 2's "ensuring the overall sparsity meets the
 * predetermined target".
 */
std::vector<uint8_t>
fitCounts(std::span<const FitUnit> units,
          std::span<const uint8_t> candidates, size_t target_nnz)
{
    std::vector<uint8_t> cand(candidates.begin(), candidates.end());
    std::sort(cand.begin(), cand.end());

    struct Promo
    {
        size_t unit;
        double frac;   ///< How far the ideal sits above the floor step.
        size_t gain;   ///< Elements added by promoting one step.
        uint8_t hi;    ///< Candidate reached by the promotion.
    };

    std::vector<uint8_t> n(units.size());
    std::vector<Promo> promos;
    long long total = 0;

    for (size_t u = 0; u < units.size(); ++u) {
        const double per_group =
            units[u].ideal / static_cast<double>(units[u].groups);
        // Bracket per_group between adjacent candidates.
        size_t hi_idx = 0;
        while (hi_idx < cand.size()
               && static_cast<double>(cand[hi_idx]) < per_group)
            ++hi_idx;
        const uint8_t hi =
            hi_idx < cand.size() ? cand[hi_idx] : cand.back();
        const uint8_t lo = hi_idx > 0 ? cand[hi_idx - 1] : cand.front();
        n[u] = lo;
        total += static_cast<long long>(lo) * units[u].groups;
        if (hi > lo) {
            const double frac = (per_group - lo) / (hi - lo);
            promos.push_back(
                {u, frac, (hi - lo) * units[u].groups, hi});
        }
    }

    long long deficit = static_cast<long long>(target_nnz) - total;
    std::sort(promos.begin(), promos.end(),
              [](const Promo &a, const Promo &b) {
                  if (a.frac != b.frac)
                      return a.frac > b.frac;
                  return a.unit < b.unit;
              });
    for (const auto &p : promos) {
        if (deficit <= 0)
            break;
        const auto gain = static_cast<long long>(p.gain);
        // Promote only when it brings the total closer to the target.
        if (std::llabs(deficit - gain) < deficit) {
            n[p.unit] = p.hi;
            deficit -= gain;
        }
    }
    return n;
}

/**
 * Algorithm 1 step-3 worker over block-rows [begin, end).
 *
 * Instead of re-running a top-N selection per (N, dim) candidate, rank
 * every block element once within its row and its column under
 * (score desc, index asc) — the selection order every family uses, so
 * "rank < N" is the group's top-N set — and build
 * prefix-overlap tables against the unstructured mask. Each
 * direction's L1 distance for any candidate N then reads off in O(1):
 * dist(N) = N*m + us_nnz - 2*overlap[N].
 *
 * @p m is either a plain size_t or std::integral_constant<size_t, 8>:
 * the dominant block size dispatches through the constant so every
 * m-bounded loop unrolls and the rank comparisons vectorize.
 */
template <typename MT>
void
tbsScoreBlockRows(const Matrix &scores, const Mask &us,
                  std::span<const uint8_t> n, size_t block_cols, MT m,
                  size_t begin, size_t end, MaskOutput &out)
{
    [[maybe_unused]] const auto rank_kernel = kernels::active().rank8x8;
    std::vector<float> blk(m * m);
    std::vector<uint16_t> rank_row(m * m);
    std::vector<uint16_t> rank_col(m * m);
    std::vector<size_t> overlap_row(m + 1);
    std::vector<size_t> overlap_col(m + 1);
    for (size_t br = begin; br < end; ++br) {
        for (size_t bc = 0; bc < block_cols; ++bc) {
            const uint8_t nb = n[br * block_cols + bc];
            for (size_t r = 0; r < m; ++r) {
                const std::span<const float> src =
                    scores.row(br * m + r);
                std::copy_n(src.data() + bc * m, static_cast<size_t>(m),
                            &blk[r * m]);
            }
            if constexpr (!std::is_same_v<MT, size_t>) {
                static_assert(MT::value == 8);
                // The selection-order rank oracle, dispatched to the
                // active ISA level (kernels/): both rank tables of the
                // whole 8x8 block in one call.
                rank_kernel(blk.data(), rank_row.data(),
                            rank_col.data());
            } else {
                for (size_t r = 0; r < m; ++r)
                    for (size_t c = 0; c < m; ++c) {
                        rank_row[r * m + c] = static_cast<uint16_t>(
                            groupRank(&blk[r * m], 1, m, c));
                        rank_col[r * m + c] = static_cast<uint16_t>(
                            groupRank(&blk[c], m, m, r));
                    }
            }
            // overlap_dir[k]: US-kept positions whose in-group rank is
            // below k, i.e. |top-k mask AND us| for direction dir.
            std::fill(overlap_row.begin(), overlap_row.end(), size_t{0});
            std::fill(overlap_col.begin(), overlap_col.end(), size_t{0});
            size_t us_nnz = 0;
            for (size_t r = 0; r < m; ++r) {
                if (m <= 64) {
                    uint64_t bits = us.rowBits(br * m + r, bc * m, m);
                    us_nnz +=
                        static_cast<size_t>(std::popcount(bits));
                    while (bits != 0) {
                        const auto c = static_cast<size_t>(
                            std::countr_zero(bits));
                        bits &= bits - 1;
                        ++overlap_row[rank_row[r * m + c] + 1];
                        ++overlap_col[rank_col[r * m + c] + 1];
                    }
                } else {
                    for (size_t c = 0; c < m; ++c) {
                        if (us.at(br * m + r, bc * m + c)) {
                            ++us_nnz;
                            ++overlap_row[rank_row[r * m + c] + 1];
                            ++overlap_col[rank_col[r * m + c] + 1];
                        }
                    }
                }
            }
            for (size_t k = 1; k <= m; ++k) {
                overlap_row[k] += overlap_row[k - 1];
                overlap_col[k] += overlap_col[k - 1];
            }
            const size_t dist_row = nb * m + us_nnz - 2 * overlap_row[nb];
            const size_t dist_col = nb * m + us_nnz - 2 * overlap_col[nb];
            const bool use_row = dist_row <= dist_col;
            const auto &rank = use_row ? rank_row : rank_col;
            if (m <= 64) {
                for (size_t r = 0; r < m; ++r) {
                    uint64_t bits = 0;
                    for (size_t c = 0; c < m; ++c)
                        bits |= static_cast<uint64_t>(rank[r * m + c]
                                                      < nb)
                            << c;
                    out.mask.setRowBits(br * m + r, bc * m, m, bits);
                }
            } else {
                for (size_t r = 0; r < m; ++r)
                    for (size_t c = 0; c < m; ++c)
                        out.mask.at(br * m + r, bc * m + c) =
                            static_cast<uint8_t>(rank[r * m + c] < nb);
            }
            out.meta.block(br, bc) = {nb, use_row
                                              ? SparsityDim::Reduction
                                              : SparsityDim::Independent};
        }
    }
}

/** Unstructured mask: keep the global top-k scores. */
Mask
usMask(const Matrix &scores, double sparsity)
{
    const size_t k = targetNnz(scores.size(), sparsity);
    const size_t rows = scores.rows();
    const size_t cols = scores.cols();
    Mask mask(rows, cols);
    if (k == 0)
        return mask;

    // Whole-row chunks whose layout depends only on the shape: every
    // per-chunk count below is the same at any thread count, and
    // chunks own disjoint mask words.
    const size_t chunk_rows = std::max<size_t>(1, kSelectChunk / cols);
    const size_t chunks = (rows + chunk_rows - 1) / chunk_rows;
    const auto chunkRows = [&](size_t ci) {
        return std::pair{ci * chunk_rows,
                         std::min(rows, (ci + 1) * chunk_rows)};
    };
    const auto chunkScores = [&](size_t ci) {
        const auto [r0, r1] = chunkRows(ci);
        return scores.data().subspan(r0 * cols, (r1 - r0) * cols);
    };

    // Pass 1: per-chunk histograms of the top 11 key bits; the bucket
    // holding the k-th largest key bounds the threshold.
    std::vector<uint32_t> hist(chunks * kBuckets);
    util::runChunked(chunks, [&](size_t ci) {
        uint32_t *h = &hist[ci * kBuckets];
        for (const float v : chunkScores(ci))
            ++h[orderKey(v) >> 21];
    });
    std::vector<size_t> total(kBuckets);
    for (size_t ci = 0; ci < chunks; ++ci)
        for (size_t b = 0; b < kBuckets; ++b)
            total[b] += hist[ci * kBuckets + b];
    size_t need = k;
    const auto top = static_cast<uint32_t>(pickBucket(total, need));

    // Pass 2: gather that bucket's keys in index order. Chunk ci
    // writes from base[ci] with one slot of slack, so the gather can
    // store every key and advance only on a match, without a branch.
    std::vector<size_t> base(chunks + 1);
    for (size_t ci = 0; ci < chunks; ++ci)
        base[ci + 1] = base[ci] + hist[ci * kBuckets + top] + 1;
    std::vector<uint32_t> cand(base[chunks]);
    util::runChunked(chunks, [&](size_t ci) {
        uint32_t *out = &cand[base[ci]];
        for (const float v : chunkScores(ci)) {
            const uint32_t key = orderKey(v);
            *out = key;
            out += (key >> 21) == top;
        }
    });
    const auto chunkCand = [&](size_t ci) {
        return std::span<const uint32_t>(&cand[base[ci]],
                                         hist[ci * kBuckets + top]);
    };

    // The exact threshold key: the middle 11 bits, then the low 10,
    // over the bucket's keys only. Afterwards `need` counts the keys
    // equal to the threshold that are kept, lowest indices first.
    std::vector<size_t> sub(kBuckets);
    for (size_t ci = 0; ci < chunks; ++ci)
        for (const uint32_t key : chunkCand(ci))
            ++sub[(key >> 10) & 0x7ffu];
    const auto mid = static_cast<uint32_t>(pickBucket(sub, need));
    const uint32_t hi21 = (top << 11) | mid;
    std::fill(sub.begin(), sub.end(), size_t{0});
    for (size_t ci = 0; ci < chunks; ++ci)
        for (const uint32_t key : chunkCand(ci))
            if ((key >> 10) == hi21)
                ++sub[key & 0x3ffu];
    const auto low = static_cast<uint32_t>(
        pickBucket(std::span(sub).first(1024), need));
    const uint32_t threshold = (hi21 << 10) | low;
    const float thr = keyScore(threshold);

    // Tie budget per chunk: the ties kept go to the earliest chunks.
    std::vector<size_t> ties(chunks);
    for (size_t ci = 0; ci < chunks && need > 0; ++ci) {
        const std::span<const uint32_t> keys = chunkCand(ci);
        const auto eq = static_cast<size_t>(
            std::count(keys.begin(), keys.end(), threshold));
        ties[ci] = std::min(need, eq);
        need -= ties[ci];
    }

    // Pass 3: write whole mask words. Keys order like the floats they
    // map, so the compares run on the scores directly.
    util::runChunked(chunks, [&](size_t ci) {
        size_t budget = ties[ci];
        const auto [r0, r1] = chunkRows(ci);
        for (size_t r = r0; r < r1; ++r) {
            const float *row = scores.row(r).data();
            for (size_t c0 = 0; c0 < cols; c0 += 64) {
                const size_t len = std::min<size_t>(64, cols - c0);
                uint8_t above[64] = {};
                for (size_t i = 0; i < len; ++i)
                    above[i] = row[c0 + i] > thr;
                uint64_t bits = 0;
                for (size_t j = 0; j < len; j += 8)
                    bits |= gatherBytes8(loadBytes8(above + j)) << j;
                for (size_t i = 0; budget > 0 && i < len; ++i)
                    if (row[c0 + i] == thr) {
                        bits |= uint64_t{1} << i;
                        --budget;
                    }
                mask.setRowBits(r, c0, len, bits);
            }
        }
    });
    return mask;
}

/**
 * Tile-wise N:M mask (NVIDIA STC style): every M-element row tile keeps
 * its top N scores, with the one N nearest the target density
 * (50% -> 4:8, STC's supported pattern).
 */
Mask
tsMask(const Matrix &scores, double sparsity, size_t m)
{
    const auto n = static_cast<size_t>(
        std::llround((1.0 - sparsity) * static_cast<double>(m)));
    return selectTiles(scores, m, [n](size_t, size_t) { return n; });
}

/**
 * Row-wise N:M with per-row N (VEGETA). Each row picks the candidate N
 * closest to its unstructured density; a global largest-remainder pass
 * nudges rows so the whole matrix hits the target sparsity.
 */
Mask
rsvMask(const Matrix &scores, double sparsity, size_t m,
        std::span<const uint8_t> candidates)
{
    const Mask us = usMask(scores, sparsity);
    const size_t target = targetNnz(scores.size(), sparsity);
    const size_t groups = scores.cols() / m;

    std::vector<FitUnit> units(scores.rows());
    for (size_t r = 0; r < scores.rows(); ++r)
        units[r] = {static_cast<double>(us.rangeNnz(r, 0, scores.cols())),
                    groups};
    const std::vector<uint8_t> n = fitCounts(units, candidates, target);
    return selectTiles(scores, m,
                       [&n](size_t r, size_t) { return size_t{n[r]}; });
}

/**
 * Row-wise hierarchical N:M (HighLight). Each super-group of M row
 * tiles keeps T of its M tiles (tile-level N:M), and surviving tiles
 * keep N0 of M elements, with (T, N0) chosen per super-group to match
 * its unstructured density.
 */
Mask
rshMask(const Matrix &scores, double sparsity, size_t m)
{
    const Mask us = usMask(scores, sparsity);
    const size_t target = targetNnz(scores.size(), sparsity);
    const size_t tiles_per_row = scores.cols() / m;

    // Super-groups of up to M row tiles. HighLight's hierarchy: keep T
    // of the super-group's tiles; surviving tiles are either dense (M:M)
    // or half-dense (M/2:M), mirroring the structure of paper Eq. (3).
    struct Super
    {
        size_t row;
        size_t tile0;     ///< First tile index in the row.
        size_t tiles;     ///< Tiles in this super-group (<= m).
        size_t us_nnz;
        uint8_t n0;       ///< Inner density: m or m/2.
    };
    std::vector<Super> supers;
    for (size_t r = 0; r < scores.rows(); ++r) {
        for (size_t t0 = 0; t0 < tiles_per_row; t0 += m) {
            Super s;
            s.row = r;
            s.tile0 = t0;
            s.tiles = std::min(m, tiles_per_row - t0);
            s.us_nnz = us.rangeNnz(r, t0 * m, s.tiles * m);
            // Inner density from the average kept-per-surviving-tile:
            // dense inner tiles when the super-group is lightly pruned.
            const double density = static_cast<double>(s.us_nnz)
                / static_cast<double>(s.tiles * m);
            s.n0 = density > 0.5 ? static_cast<uint8_t>(m)
                                  : static_cast<uint8_t>(m / 2);
            supers.push_back(s);
        }
    }

    // Fit the number of kept tiles T per super-group. Tile candidates
    // are the contiguous integers 0..tiles; reuse fitCounts by treating
    // each super-group as one unit of `tiles` groups with N in 0..1 ...
    // simpler: largest-remainder directly over tile counts.
    std::vector<size_t> t_count(supers.size());
    struct Promo
    {
        size_t unit;
        double frac;
        size_t gain;
    };
    std::vector<Promo> promos;
    long long total = 0;
    for (size_t u = 0; u < supers.size(); ++u) {
        const double ideal_tiles = static_cast<double>(supers[u].us_nnz)
            / static_cast<double>(supers[u].n0);
        const auto floor_t = static_cast<size_t>(
            std::min<double>(std::floor(ideal_tiles),
                             static_cast<double>(supers[u].tiles)));
        t_count[u] = floor_t;
        total += static_cast<long long>(floor_t) * supers[u].n0;
        if (floor_t < supers[u].tiles) {
            promos.push_back({u, ideal_tiles - static_cast<double>(floor_t),
                              supers[u].n0});
        }
    }
    long long deficit = static_cast<long long>(target) - total;
    std::sort(promos.begin(), promos.end(),
              [](const Promo &a, const Promo &b) {
                  if (a.frac != b.frac)
                      return a.frac > b.frac;
                  return a.unit < b.unit;
              });
    for (const auto &p : promos) {
        if (deficit <= 0)
            break;
        const auto gain = static_cast<long long>(p.gain);
        if (std::llabs(deficit - gain) < deficit) {
            ++t_count[p.unit];
            deficit -= gain;
        }
    }

    // Materialize: per super-group keep the T tiles with the largest
    // score mass, each at its inner density (tile_n, 0 when dropped).
    std::vector<uint8_t> tile_n(scores.rows() * tiles_per_row);
    std::vector<std::pair<double, size_t>> mass;
    for (size_t u = 0; u < supers.size(); ++u) {
        const Super &s = supers[u];
        mass.resize(s.tiles);
        for (size_t t = 0; t < s.tiles; ++t) {
            double sum = 0.0;
            for (size_t i = 0; i < m; ++i)
                sum += scores.at(s.row, (s.tile0 + t) * m + i);
            mass[t] = {sum, t};
        }
        std::sort(mass.begin(), mass.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        for (size_t rank = 0; rank < t_count[u]; ++rank)
            tile_n[s.row * tiles_per_row + s.tile0 + mass[rank].second] =
                s.n0;
    }
    return selectTiles(scores, m, [&](size_t r, size_t t) {
        return size_t{tile_n[r * tiles_per_row + t]};
    });
}

/**
 * Transposable block-wise N:M (paper Algorithm 1):
 *  1. unstructured prune to the target sparsity;
 *  2. per M x M block, choose N from @p candidates nearest the block's
 *     unstructured density (with a global balance pass so the matrix
 *     hits the target);
 *  3. per block, build the reduction-direction mask (top-N per row) and
 *     the independent-direction mask (top-N per column) and keep the one
 *     with the smaller L1 distance to the unstructured block mask.
 *
 * The unstructured mask is a global top-k under the same (score desc,
 * index asc) order as the per-group top-N, so each group's top-N holds
 * min(us_g, N) unstructured survivors. Step 3's distance is therefore
 * N*m + us_nnz - 2*sum_g min(us_g, N), the minimum over every mask
 * keeping exactly N per group in that direction.
 */
MaskOutput
tbsMask(const Matrix &scores, double sparsity, size_t m,
        std::span<const uint8_t> candidates)
{
    // Step 1: unstructured pruning at the target sparsity.
    const Mask us = usMask(scores, sparsity);
    const size_t target = targetNnz(scores.size(), sparsity);
    const size_t block_rows = scores.rows() / m;
    const size_t block_cols = scores.cols() / m;

    // Step 2: choose N per block from the unstructured block density.
    // Blocks are independent and write index-addressed slots, so the
    // density scan parallelizes; the largest-remainder promotion pass
    // inside fitCounts is a global ordered pass and stays serial.
    std::vector<FitUnit> units(block_rows * block_cols);
    util::parallelFor(block_rows, 0, [&](size_t begin, size_t end) {
        for (size_t br = begin; br < end; ++br) {
            for (size_t bc = 0; bc < block_cols; ++bc) {
                size_t nnz = 0;
                for (size_t r = 0; r < m; ++r)
                    nnz += us.rangeNnz(br * m + r, bc * m, m);
                units[br * block_cols + bc] =
                    {static_cast<double>(nnz), m};
            }
        }
    });
    const std::vector<uint8_t> n = fitCounts(units, candidates, target);

    // Step 3: per block, choose the pruning direction by L1 distance to
    // the unstructured block mask.
    MaskOutput out;
    out.mask = Mask(scores.rows(), scores.cols());
    out.meta.m = m;
    out.meta.blockRows = block_rows;
    out.meta.blockCols = block_cols;
    out.meta.blocks.resize(block_rows * block_cols);

    // Workers own whole block-rows: different block-rows never share a
    // packed mask word, so the parallel materialization stays race-free
    // and index-addressed (bit-identical at any thread count). The
    // per-block scoring itself lives in tbsScoreBlockRows.
    util::parallelFor(block_rows, 0, [&](size_t begin, size_t end) {
        if (m == 8)
            tbsScoreBlockRows(scores, us, n, block_cols,
                              std::integral_constant<size_t, 8>{},
                              begin, end, out);
        else
            tbsScoreBlockRows(scores, us, n, block_cols, m, begin, end,
                              out);
    });
    return out;
}

/** Per-tile candidate keep counts of SlideSparse: {0, 1, ..., m-2}. */
std::vector<uint8_t>
slideSparseCandidates(size_t m)
{
    std::vector<uint8_t> c(m - 1);
    for (size_t n = 0; n <= m - 2; ++n)
        c[n] = static_cast<uint8_t>(n);
    return c;
}

/**
 * SlideSparse (2N-2):2N mask (arxiv 2603.05232), with m = 2N. Every
 * m-element row tile keeps at most m-2 elements; the per-tile keep
 * count is chosen from the contiguous 0..m-2 ladder nearest the tile's
 * unstructured density, with the usual global largest-remainder pass
 * toward the target. Targets sparser than 2/m are unreachable (the
 * cap bites) and the mask saturates at m-2 per tile.
 */
Mask
ssMask(const Matrix &scores, double sparsity, size_t m)
{
    const Mask us = usMask(scores, sparsity);
    const size_t target = targetNnz(scores.size(), sparsity);
    const size_t tiles_per_row = scores.cols() / m;
    const std::vector<uint8_t> cand = slideSparseCandidates(m);

    // One fit unit per tile. fitCounts brackets a tile's unstructured
    // density on the contiguous 0..m-2 ladder, so tiles denser than
    // the (2N-2):2N cap saturate at m-2 and the largest-remainder pass
    // spreads the shortfall across the rest of the matrix.
    std::vector<FitUnit> units(scores.rows() * tiles_per_row);
    for (size_t r = 0; r < scores.rows(); ++r)
        for (size_t t = 0; t < tiles_per_row; ++t)
            units[r * tiles_per_row + t] = {
                static_cast<double>(us.rangeNnz(r, t * m, m)), 1};
    const std::vector<uint8_t> n = fitCounts(units, cand, target);
    return selectTiles(scores, m, [&](size_t r, size_t t) {
        return size_t{n[r * tiles_per_row + t]};
    });
}

/** Dense: keep every position. */
Mask
denseMask(size_t rows, size_t cols)
{
    Mask mask(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c0 = 0; c0 < cols; c0 += 64)
            mask.setRowBits(r, c0, std::min<size_t>(64, cols - c0),
                            ~uint64_t{0});
    return mask;
}

util::Unexpected<MaskError>
fail(MaskErrorKind kind, std::string message)
{
    return util::unexpected(MaskError{kind, std::move(message)});
}

} // namespace

const char *
maskErrorKindName(MaskErrorKind kind)
{
    switch (kind) {
      case MaskErrorKind::UnknownStrategy: return "unknown_strategy";
      case MaskErrorKind::BadSparsity:     return "bad_sparsity";
      case MaskErrorKind::BadBlockSize:    return "bad_block_size";
      case MaskErrorKind::NotDivisible:    return "not_divisible";
      case MaskErrorKind::BadCandidates:   return "bad_candidates";
    }
    util::panic("unknown MaskErrorKind");
}

bool
isMaskStrategy(const std::string &name)
{
    return name.empty() || name == kGreedyStrategy;
}

util::Result<MaskOutput, MaskError>
tryMakeMask(const Matrix &scores, const MaskRequest &req)
{
    // The one validation: the generators above take its word for it.
    // The strategy is checked for every pattern, so a typo can never
    // silently degrade to the default.
    const Pattern p = req.pattern;
    const size_t m = req.m;
    if (!isMaskStrategy(req.strategy))
        return fail(MaskErrorKind::UnknownStrategy,
                    util::formatStr("unknown mask strategy \"{}\"",
                                    req.strategy));
    if (!(req.sparsity >= 0.0 && req.sparsity <= 1.0))
        return fail(MaskErrorKind::BadSparsity,
                    util::formatStr("sparsity {} is outside [0, 1]",
                                    req.sparsity));
    if (m == 0)
        return fail(MaskErrorKind::BadBlockSize, "block size m is 0");
    if (p == Pattern::SS && (m < 4 || m % 2 != 0 || m > 256))
        return fail(MaskErrorKind::BadBlockSize,
                    util::formatStr("SlideSparse requires an even block "
                                    "size 4 <= m <= 256; got {}",
                                    m));
    // Their per-block (RS-H: per-tile) N is a uint8_t: at m = 256 the
    // top N would wrap to 0.
    if ((p == Pattern::TBS || p == Pattern::RSV || p == Pattern::RSH)
        && m > 255)
        return fail(MaskErrorKind::BadBlockSize,
                    util::formatStr("{} stores N in 8 bits, so m must be "
                                    "<= 255; got {}",
                                    patternName(p), m));
    // Dense and US have no tiles to align.
    const bool tiled = p != Pattern::Dense && p != Pattern::US;
    if (tiled
        && (scores.cols() % m != 0
            || (p == Pattern::TBS && scores.rows() % m != 0)))
        return fail(MaskErrorKind::NotDivisible,
                    util::formatStr(
                        "matrix {}x{} does not tile by m = {} as {} "
                        "requires; pad the workload first",
                        scores.rows(), scores.cols(), m, patternName(p)));
    const std::vector<uint8_t> candidates =
        req.candidates.empty() ? defaultCandidates(m) : req.candidates;
    for (const uint8_t c : candidates) {
        if (c > m)
            return fail(MaskErrorKind::BadCandidates,
                        util::formatStr(
                            "candidate N = {} exceeds block size m = {}",
                            c, m));
    }

    MaskOutput out;
    out.meta.m = m;
    switch (p) {
      case Pattern::TBS:
        return tbsMask(scores, req.sparsity, m, candidates);
      case Pattern::Dense:
        out.mask = denseMask(scores.rows(), scores.cols());
        break;
      case Pattern::US:
        out.mask = usMask(scores, req.sparsity);
        break;
      case Pattern::TS:
        out.mask = tsMask(scores, req.sparsity, m);
        break;
      case Pattern::RSV:
        out.mask = rsvMask(scores, req.sparsity, m, candidates);
        break;
      case Pattern::RSH:
        out.mask = rshMask(scores, req.sparsity, m);
        break;
      case Pattern::SS:
        // SlideSparse draws per-tile counts from its own contiguous
        // ladder; the request's candidate set does not apply.
        out.mask = ssMask(scores, req.sparsity, m);
        break;
    }
    return out;
}

Mask
patternMask(Pattern p, const Matrix &scores, double sparsity, size_t m,
            std::span<const uint8_t> candidates)
{
    MaskRequest req;
    req.pattern = p;
    req.sparsity = sparsity;
    req.m = m;
    req.candidates.assign(candidates.begin(), candidates.end());
    auto res = tryMakeMask(scores, req);
    if (!res)
        util::fatal("{}", res.error().message);
    return std::move(res->mask);
}

bool
validateTbs(const Mask &mask, const TbsMeta &meta)
{
    const size_t m = meta.m;
    if (mask.rows() != meta.blockRows * m
        || mask.cols() != meta.blockCols * m)
        return false;
    for (size_t br = 0; br < meta.blockRows; ++br) {
        for (size_t bc = 0; bc < meta.blockCols; ++bc) {
            const BlockInfo &info = meta.block(br, bc);
            for (size_t g = 0; g < m; ++g) {
                size_t nnz = 0;
                for (size_t i = 0; i < m; ++i) {
                    const size_t r = info.dim == SparsityDim::Reduction
                        ? g : i;
                    const size_t c = info.dim == SparsityDim::Reduction
                        ? i : g;
                    nnz += mask.at(br * m + r, bc * m + c);
                }
                if (nnz > info.n)
                    return false;
            }
        }
    }
    return true;
}

bool
validateTs(const Mask &mask, size_t n, size_t m)
{
    if (mask.cols() % m != 0)
        return false;
    for (size_t r = 0; r < mask.rows(); ++r) {
        for (size_t t = 0; t < mask.cols(); t += m) {
            size_t nnz = 0;
            for (size_t i = 0; i < m; ++i)
                nnz += mask.at(r, t + i);
            if (nnz > n)
                return false;
        }
    }
    return true;
}

bool
validateSlideSparse(const Mask &mask, size_t m)
{
    if (m < 4 || m % 2 != 0 || mask.cols() % m != 0)
        return false;
    for (size_t r = 0; r < mask.rows(); ++r) {
        for (size_t t = 0; t < mask.cols(); t += m) {
            if (mask.rangeNnz(r, t, m) > m - 2)
                return false;
        }
    }
    return true;
}

} // namespace tbstc::core
