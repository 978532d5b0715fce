/**
 * @file
 * AVX2-level kernels for x86-64. Compiled with
 * -mavx2 -mbmi2 -msse4.2 -mpclmul; the dispatcher only installs this
 * table when the CPU reports AVX2+BMI2 (the CRC entry additionally
 * requires SSE4.2+PCLMUL and falls back to the scalar slice-by-8
 * otherwise).
 *
 * Implementation notes:
 *  - popcounts use the pshufb nibble-LUT form (Mula): 32 bytes per
 *    shuffle pair, horizontal-summed with vpsadbw. The scalar level
 *    compiles std::popcount to a SWAR sequence (the baseline -march
 *    has no POPCNT), so the vector form clears 2x comfortably.
 *  - the DDC index codec packs/unpacks eight fields per BMI2
 *    pext/pdep. On Zen 1/2 pdep/pext are microcoded and slow; those
 *    CPUs still produce identical bytes, just without the win — force
 *    TBSTC_ISA=scalar there if the codec dominates.
 *  - CRC-32 uses PCLMUL folding (the Intel CRC whitepaper / zlib
 *    constants) over 64-byte blocks, identical bit-for-bit to the
 *    table-driven form.
 */

#include <cstring>
#include <immintrin.h>

#include "kernels_detail.hpp"

namespace tbstc::kernels::detail {

namespace {

// --------------------------------------------------------------------
// Popcount family.
// --------------------------------------------------------------------

/** Per-byte popcounts of each of the 32 bytes of v. */
inline __m256i
bytePop256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

inline uint64_t
hsum64(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s))
        + static_cast<uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

inline uint64_t
scalarPop(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

uint64_t
popcountWords(const uint64_t *w, size_t n)
{
    __m256i total = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i));
        total = _mm256_add_epi64(
            total, _mm256_sad_epu8(bytePop256(v),
                                   _mm256_setzero_si256()));
    }
    uint64_t sum = hsum64(total);
    for (; i < n; ++i)
        sum += scalarPop(w[i]);
    return sum;
}

uint64_t
popcountAndWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    __m256i total = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        total = _mm256_add_epi64(
            total, _mm256_sad_epu8(bytePop256(v),
                                   _mm256_setzero_si256()));
    }
    uint64_t sum = hsum64(total);
    for (; i < n; ++i)
        sum += scalarPop(a[i] & b[i]);
    return sum;
}

uint64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    __m256i total = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        total = _mm256_add_epi64(
            total, _mm256_sad_epu8(bytePop256(v),
                                   _mm256_setzero_si256()));
    }
    uint64_t sum = hsum64(total);
    for (; i < n; ++i)
        sum += scalarPop(a[i] ^ b[i]);
    return sum;
}

void
andInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), v);
    }
    for (; i < n; ++i)
        a[i] &= b[i];
}

void
orInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_or_si256(
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), v);
    }
    for (; i < n; ++i)
        a[i] |= b[i];
}

void
xorInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), v);
    }
    for (; i < n; ++i)
        a[i] ^= b[i];
}

void
bytePopcountAccum(const uint64_t *w, size_t n, uint64_t *acc)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i));
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + i),
                            _mm256_add_epi8(a, bytePop256(v)));
    }
    for (; i < n; ++i) {
        uint64_t x = w[i];
        x = x - ((x >> 1) & 0x5555555555555555ull);
        x = (x & 0x3333333333333333ull)
            + ((x >> 2) & 0x3333333333333333ull);
        acc[i] += (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    }
}

// --------------------------------------------------------------------
// rank8x8 / rankTiles8: vector pairwise comparator. For one 8-float
// row v, lane c accumulates one rank point per broadcast source c2
// with v[c2] > v[c], or v[c2] == v[c] when c2 < c — exactly the scalar
// (value desc, index asc) total order. Tiles are rows; rank8x8 is
// "rank, transpose, rank", the column ranks coming from the same
// kernel after an 8x8 register transpose.
// --------------------------------------------------------------------

inline void
transpose8x8(__m256 r[8])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/** In-row ranks of one 8-float row, one u16 per lane (low halves). */
inline __m128i
rankRow8(__m256 v)
{
    const __m256i idx =
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i rank = _mm256_setzero_si256();
    for (int c2 = 0; c2 < 8; ++c2) {
        const __m256i c2v = _mm256_set1_epi32(c2);
        const __m256 b = _mm256_permutevar8x32_ps(v, c2v);
        const __m256i gt = _mm256_castps_si256(
            _mm256_cmp_ps(b, v, _CMP_GT_OQ));
        const __m256i eq = _mm256_castps_si256(
            _mm256_cmp_ps(b, v, _CMP_EQ_OQ));
        const __m256i tie = _mm256_and_si256(
            eq, _mm256_cmpgt_epi32(idx, c2v));
        // Matching lanes are all-ones (-1): subtract to count.
        rank = _mm256_sub_epi32(rank, _mm256_or_si256(gt, tie));
    }
    return _mm_packus_epi32(_mm256_castsi256_si128(rank),
                            _mm256_extracti128_si256(rank, 1));
}

/** Rank all 8 rows of the block; out is a row-major 8x8 u16 table. */
inline void
rankRows8(const __m256 rows[8], uint16_t *out)
{
    for (int r = 0; r < 8; ++r)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + r * 8),
                         rankRow8(rows[r]));
}

void
rank8x8(const float *blk, uint16_t *rank_row, uint16_t *rank_col)
{
    __m256 rows[8];
    for (int r = 0; r < 8; ++r)
        rows[r] = _mm256_loadu_ps(blk + r * 8);
    rankRows8(rows, rank_row);
    transpose8x8(rows);
    uint16_t tmp[64];
    rankRows8(rows, tmp);
    for (int c = 0; c < 8; ++c)
        for (int r = 0; r < 8; ++r)
            rank_col[r * 8 + c] = tmp[c * 8 + r];
}

void
rankTiles8(const float *v, size_t tiles, uint8_t *rank)
{
    for (size_t t = 0; t < tiles; ++t) {
        const __m128i r16 = rankRow8(_mm256_loadu_ps(v + t * 8));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(rank + t * 8),
                         _mm_packus_epi16(r16, r16));
    }
}

// --------------------------------------------------------------------
// DDC index codec: eight fields per pext/pdep. Values are byte-wide
// (bits <= 8), so eight of them live in one u64 with the field mask
// replicated per byte — and a volley of eight consumes exactly `bits`
// stream bytes, so the hot loop is one unaligned 8-byte load/store
// plus one pext/pdep per volley, with no carry buffer at all. The
// loops stay 8 bytes inside the stream and hand the remainder to a
// scalar bit-register tail (volley boundaries are byte-aligned).
// --------------------------------------------------------------------

void
packIdx(const uint8_t *vals, size_t n, unsigned bits, uint8_t *dst)
{
    const uint64_t field = (uint64_t{1} << bits) - 1;
    const uint64_t bmask = field * 0x0101010101010101ull;
    const size_t total_bytes = (n * bits + 7) / 8;
    size_t i = 0;
    size_t out = 0;
    while (i + 8 <= n && out + 8 <= total_bytes) {
        uint64_t v;
        std::memcpy(&v, vals + i, 8);
        const uint64_t packed = _pext_u64(v & bmask, bmask);
        // Writes 8 - bits garbage bytes past the volley; every one of
        // them is inside the stream (guarded above) and overwritten by
        // the next volley or the tail.
        std::memcpy(dst + out, &packed, 8);
        i += 8;
        out += bits;
    }
    uint64_t buf = 0;
    unsigned nb = 0;
    for (; i < n; ++i) {
        buf |= static_cast<uint64_t>(vals[i] & field) << nb;
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
unpackIdx(const uint8_t *src, size_t n, unsigned bits, uint8_t *dst)
{
    const uint64_t field = (uint64_t{1} << bits) - 1;
    const uint64_t bmask = field * 0x0101010101010101ull;
    const unsigned chunk_bits = 8 * bits;
    const uint64_t chunk_mask = chunk_bits == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << chunk_bits) - 1;
    const size_t total_bytes = (n * bits + 7) / 8;
    size_t i = 0;
    size_t in = 0;
    while (i + 8 <= n && in + 8 <= total_bytes) {
        uint64_t chunk;
        std::memcpy(&chunk, src + in, 8);
        const uint64_t vals8 = _pdep_u64(chunk & chunk_mask, bmask);
        std::memcpy(dst + i, &vals8, 8);
        i += 8;
        in += bits;
    }
    uint64_t buf = 0;
    unsigned nb = 0;
    for (; i < n; ++i) {
        while (nb < bits) {
            buf |= static_cast<uint64_t>(src[in++]) << nb;
            nb += 8;
        }
        dst[i] = static_cast<uint8_t>(buf & field);
        buf >>= bits;
        nb -= bits;
    }
}

// --------------------------------------------------------------------
// CRC-32 via PCLMUL folding (IEEE reflected 0xEDB88320). Constants
// and fold structure follow the Intel "Fast CRC Computation Using
// PCLMULQDQ" whitepaper as deployed in zlib: fold 64-byte blocks with
// four 128-bit accumulators, reduce to one, then Barrett-reduce to
// 32 bits. Operates on the raw (pre/post-conditioned) CRC state.
// --------------------------------------------------------------------

alignas(16) const uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) const uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) const uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
alignas(16) const uint64_t kPoly[2] = {0x01db710641, 0x01f7011641};

/** Fold a region of len >= 64, len % 16 == 0. Raw CRC in and out. */
uint32_t
crcFold(const uint8_t *buf, size_t len, uint32_t crc)
{
    __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

    x1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf + 0x00));
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf + 0x10));
    x3 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf + 0x20));
    x4 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf + 0x30));

    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));

    x0 = _mm_load_si128(reinterpret_cast<const __m128i *>(kK1K2));

    buf += 64;
    len -= 64;

    while (len >= 64) {
        x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
        x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
        x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
        x8 = _mm_clmulepi64_si128(x4, x0, 0x00);

        x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
        x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
        x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
        x4 = _mm_clmulepi64_si128(x4, x0, 0x11);

        y5 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(buf + 0x00));
        y6 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(buf + 0x10));
        y7 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(buf + 0x20));
        y8 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(buf + 0x30));

        x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
        x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
        x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
        x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);

        buf += 64;
        len -= 64;
    }

    // Fold the four accumulators into one.
    x0 = _mm_load_si128(reinterpret_cast<const __m128i *>(kK3K4));

    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);

    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);

    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

    while (len >= 16) {
        x2 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf));

        x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
        x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);

        buf += 16;
        len -= 16;
    }

    // Fold 128 bits to 64, then Barrett-reduce to 32.
    x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
    x3 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_srli_si128(x1, 8);
    x1 = _mm_xor_si128(x1, x2);

    x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(kK5K0));

    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, x3);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    x0 = _mm_load_si128(reinterpret_cast<const __m128i *>(kPoly));

    x2 = _mm_and_si128(x1, x3);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
    x2 = _mm_and_si128(x2, x3);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

uint32_t
pclmulCrc32(const uint8_t *p, size_t n, uint32_t seed)
{
    if (n < 64)
        return scalarCrc32(p, n, seed);
    uint32_t c = seed ^ 0xffffffffu;
    const size_t chunk = n & ~size_t{15}; // >= 64 and 16-aligned.
    c = crcFold(p, chunk, c);
    // Chain the sub-16-byte tail through the table form: re-condition
    // the raw state into a seed (the pre/post XORs cancel).
    return scalarCrc32(p + chunk, n - chunk, c ^ 0xffffffffu);
}

} // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = [] {
        KernelTable t{};
        t.isa = Isa::Avx2;
        t.name = "avx2";
        t.popcount = &popcountWords;
        t.popcountAnd = &popcountAndWords;
        t.popcountXor = &popcountXorWords;
        t.andInplace = &andInplace;
        t.orInplace = &orInplace;
        t.xorInplace = &xorInplace;
        t.bytePopcountAccum = &bytePopcountAccum;
        t.rank8x8 = &rank8x8;
        t.rankTiles8 = &rankTiles8;
        t.packIdx = &packIdx;
        t.unpackIdx = &unpackIdx;
        // PCLMUL+SSE4.2 ride along with AVX2 on every known part, but
        // the features are architecturally separate — honor cpuid.
        const CpuFeatures &f = cpuFeatures();
        t.crc32 = (f.pclmul && f.sse42) ? &pclmulCrc32 : &scalarCrc32;
        return t;
    }();
    return table;
}

} // namespace tbstc::kernels::detail
