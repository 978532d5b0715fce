/**
 * @file
 * Scalar (portable C++) kernel implementations — the reference every
 * SIMD level must match bit-for-bit. Compiled with the project's
 * default flags only, so this TU runs on any target.
 */

#include <array>
#include <bit>
#include <cstring>

#include "kernels_detail.hpp"

namespace tbstc::kernels::detail {

namespace {

uint64_t
popcountWords(const uint64_t *w, size_t n)
{
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += static_cast<uint64_t>(std::popcount(w[i]));
    return total;
}

uint64_t
popcountAndWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
    return total;
}

uint64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += static_cast<uint64_t>(std::popcount(a[i] ^ b[i]));
    return total;
}

void
andInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        a[i] &= b[i];
}

void
orInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        a[i] |= b[i];
}

void
xorInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        a[i] ^= b[i];
}

/** SWAR per-byte popcounts: each byte of the result counts its own byte. */
inline uint64_t
bytePopcounts(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

void
bytePopcountAccum(const uint64_t *w, size_t n, uint64_t *acc)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] += bytePopcounts(w[i]);
}

// --------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8.
//
// Eight 256-entry tables built at compile time: table 0 is the
// classic byte-at-a-time table, table k advances a byte k positions
// further through the shift register. The hot loop consumes 8 input
// bytes per iteration with eight independent lookups — no per-call
// lazy initialization, no data-dependent chain longer than one XOR
// tree. Matches zlib's crc32() bit-for-bit.
// --------------------------------------------------------------------

constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr auto kCrc = makeCrcTables();

inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8)
        | (static_cast<uint32_t>(p[2]) << 16)
        | (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

uint32_t
scalarCrc32(const uint8_t *p, size_t n, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    while (n >= 8) {
        c ^= loadLe32(p);
        const uint32_t hi = loadLe32(p + 4);
        c = kCrc[7][c & 0xffu] ^ kCrc[6][(c >> 8) & 0xffu]
            ^ kCrc[5][(c >> 16) & 0xffu] ^ kCrc[4][c >> 24]
            ^ kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu]
            ^ kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    for (size_t i = 0; i < n; ++i)
        c = kCrc[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// --------------------------------------------------------------------
// DDC index-stream bit packing, word-buffered: values stream through
// a 64-bit shift register and leave as whole bytes, so the cost is
// per value, not per bit.
// --------------------------------------------------------------------

void
scalarPackIdx(const uint8_t *vals, size_t n, unsigned bits, uint8_t *dst)
{
    const uint8_t vmask = static_cast<uint8_t>((1u << bits) - 1u);
    uint64_t buf = 0;
    unsigned nb = 0;
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
        buf |= static_cast<uint64_t>(vals[i] & vmask) << nb;
        nb += bits;
        while (nb >= 8) {
            dst[out++] = static_cast<uint8_t>(buf);
            buf >>= 8;
            nb -= 8;
        }
    }
    if (nb > 0)
        dst[out++] = static_cast<uint8_t>(buf);
}

void
scalarUnpackIdx(const uint8_t *src, size_t n, unsigned bits, uint8_t *dst)
{
    const uint64_t vmask = (uint64_t{1} << bits) - 1u;
    uint64_t buf = 0;
    unsigned nb = 0;
    size_t in = 0;
    for (size_t i = 0; i < n; ++i) {
        while (nb < bits) {
            buf |= static_cast<uint64_t>(src[in++]) << nb;
            nb += 8;
        }
        dst[i] = static_cast<uint8_t>(buf & vmask);
        buf >>= bits;
        nb -= bits;
    }
}

// --------------------------------------------------------------------
// rank8x8 / rankTiles8: ranks of 8-element groups under (value desc,
// index asc) — 28 branchless pairwise compares per group, everything
// in registers.
// --------------------------------------------------------------------

namespace {

template <typename Out>
inline void
rank8(const float *p, size_t stride, Out *out, size_t out_stride)
{
    float v[8];
    for (size_t i = 0; i < 8; ++i)
        v[i] = p[i * stride];
    unsigned rk[8] = {};
    for (size_t i = 0; i < 8; ++i)
        for (size_t j = i + 1; j < 8; ++j) {
            const auto ifirst = static_cast<unsigned>(v[i] >= v[j]);
            rk[j] += ifirst;
            rk[i] += 1u - ifirst;
        }
    for (size_t i = 0; i < 8; ++i)
        out[i * out_stride] = static_cast<Out>(rk[i]);
}

} // namespace

void
scalarRank8x8(const float *blk, uint16_t *rank_row, uint16_t *rank_col)
{
    for (size_t r = 0; r < 8; ++r)
        rank8(blk + r * 8, 1, rank_row + r * 8, 1);
    for (size_t c = 0; c < 8; ++c)
        rank8(blk + c, 8, rank_col + c, 8);
}

void
scalarRankTiles8(const float *v, size_t tiles, uint8_t *rank)
{
    for (size_t t = 0; t < tiles; ++t)
        rank8(v + t * 8, 1, rank + t * 8, 1);
}

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        Isa::Scalar,
        "scalar",
        &popcountWords,
        &popcountAndWords,
        &popcountXorWords,
        &andInplace,
        &orInplace,
        &xorInplace,
        &bytePopcountAccum,
        &scalarRank8x8,
        &scalarRankTiles8,
        &scalarPackIdx,
        &scalarUnpackIdx,
        &scalarCrc32,
    };
    return table;
}

} // namespace tbstc::kernels::detail
