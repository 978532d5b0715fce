/**
 * @file
 * AVX-512 kernels for x86-64, compiled with
 * -mavx512f -mavx512bw -mavx512dq -mavx512vl -mavx512vpopcntdq. The
 * dispatcher installs this table only when all five features are
 * present — partial AVX-512 parts fall back to the AVX2 level, which
 * keeps this TU a single clean code path.
 *
 * Popcounts use VPOPCNTDQ (vpopcntq: native 64-bit lane popcount, no
 * LUT needed); the byte-lane accumulator uses the 512-bit pshufb
 * nibble LUT (AVX512BW). rank8x8, rankTiles8, the BMI2 index codec,
 * and the PCLMUL CRC gain nothing from 512-bit width — those entries
 * reuse the AVX2 implementations.
 */

#include <immintrin.h>

#include "kernels_detail.hpp"

namespace tbstc::kernels::detail {

namespace {

/**
 * Horizontal sum of 8 u64 lanes. Spelled with a store rather than
 * _mm512_reduce_add_epi64: GCC 12's header expands the latter through
 * _mm256_undefined_si256 and trips -Wuninitialized.
 */
inline uint64_t
hsum512(__m512i v)
{
    alignas(64) uint64_t lanes[8];
    _mm512_store_si512(lanes, v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4]
        + lanes[5] + lanes[6] + lanes[7];
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
    __m512i total = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        total = _mm512_add_epi64(
            total, _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
    uint64_t sum =
        hsum512(total);
    for (; i < n; ++i)
        sum += scalarPop(w[i]);
    return sum;
}

uint64_t
popcountAndWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    __m512i total = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                           _mm512_loadu_si512(b + i));
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
    }
    uint64_t sum =
        hsum512(total);
    for (; i < n; ++i)
        sum += scalarPop(a[i] & b[i]);
    return sum;
}

uint64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    __m512i total = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                           _mm512_loadu_si512(b + i));
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
    }
    uint64_t sum =
        hsum512(total);
    for (; i < n; ++i)
        sum += scalarPop(a[i] ^ b[i]);
    return sum;
}

void
andInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(
            a + i, _mm512_and_si512(_mm512_loadu_si512(a + i),
                                    _mm512_loadu_si512(b + i)));
    for (; i < n; ++i)
        a[i] &= b[i];
}

void
orInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(
            a + i, _mm512_or_si512(_mm512_loadu_si512(a + i),
                                   _mm512_loadu_si512(b + i)));
    for (; i < n; ++i)
        a[i] |= b[i];
}

void
xorInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(
            a + i, _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                    _mm512_loadu_si512(b + i)));
    for (; i < n; ++i)
        a[i] ^= b[i];
}

void
bytePopcountAccum(const uint64_t *w, size_t n, uint64_t *acc)
{
    // The 16-byte nibble-popcount LUT replicated to all four 128-bit
    // lanes, spelled as u64 pairs (0,1,1,2,1,2,2,3 / 1,2,2,3,2,3,3,4):
    // _mm512_broadcast_i32x4 trips the same GCC 12 -Wuninitialized
    // header bug as the reduce intrinsics.
    const __m512i lut = _mm512_setr_epi64(
        0x0302020102010100ll, 0x0403030203020201ll,
        0x0302020102010100ll, 0x0403030203020201ll,
        0x0302020102010100ll, 0x0403030203020201ll,
        0x0302020102010100ll, 0x0403030203020201ll);
    const __m512i low = _mm512_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_loadu_si512(w + i);
        const __m512i lo = _mm512_and_si512(v, low);
        const __m512i hi =
            _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
        const __m512i pop =
            _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                            _mm512_shuffle_epi8(lut, hi));
        _mm512_storeu_si512(
            acc + i,
            _mm512_add_epi8(_mm512_loadu_si512(acc + i), pop));
    }
    for (; i < n; ++i) {
        uint64_t x = w[i];
        x = x - ((x >> 1) & 0x5555555555555555ull);
        x = (x & 0x3333333333333333ull)
            + ((x >> 2) & 0x3333333333333333ull);
        acc[i] += (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    }
}

} // namespace

const KernelTable &
avx512Table()
{
    static const KernelTable table = [] {
        KernelTable t = avx2Table(); // rank / codec / crc32 entries.
        t.isa = Isa::Avx512;
        t.name = "avx512";
        t.popcount = &popcountWords;
        t.popcountAnd = &popcountAndWords;
        t.popcountXor = &popcountXorWords;
        t.andInplace = &andInplace;
        t.orInplace = &orInplace;
        t.xorInplace = &xorInplace;
        t.bytePopcountAccum = &bytePopcountAccum;
        return t;
    }();
    return table;
}

} // namespace tbstc::kernels::detail
