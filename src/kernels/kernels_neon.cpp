/**
 * @file
 * NEON kernels for aarch64. Advanced SIMD is architecturally baseline
 * on aarch64, so this whole TU compiles with the default flags except
 * the CRC functions, which carry a `+crc` target attribute and are
 * only wired into the table when getauxval reports HWCAP_CRC32.
 *
 * vcntq_u8 gives per-byte popcounts directly — both the popcount
 * family (via the pairwise-add widening chain) and the byte-lane
 * accumulator come out almost for free. rank8x8, rankTiles8 and the
 * index codec keep the scalar forms: without pext/pdep the byte-gather
 * tricks don't pay for themselves on the 2x64-bit lanes.
 */

#include <arm_neon.h>

#include "kernels_detail.hpp"

#if defined(__ARM_FEATURE_CRC32)
#define TBSTC_NEON_CRC_ATTR
#else
#define TBSTC_NEON_CRC_ATTR __attribute__((target("+crc")))
#endif
#include <arm_acle.h>

namespace tbstc::kernels::detail {

namespace {

uint64_t
popcountWords(const uint64_t *w, size_t n)
{
    uint64x2_t total = vdupq_n_u64(0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v =
            vreinterpretq_u8_u64(vld1q_u64(w + i));
        total = vaddq_u64(
            total, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
    }
    uint64_t sum = vgetq_lane_u64(total, 0) + vgetq_lane_u64(total, 1);
    for (; i < n; ++i)
        sum += static_cast<uint64_t>(__builtin_popcountll(w[i]));
    return sum;
}

uint64_t
popcountAndWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64x2_t total = vdupq_n_u64(0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v = vreinterpretq_u8_u64(
            vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
        total = vaddq_u64(
            total, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
    }
    uint64_t sum = vgetq_lane_u64(total, 0) + vgetq_lane_u64(total, 1);
    for (; i < n; ++i)
        sum += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
    return sum;
}

uint64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64x2_t total = vdupq_n_u64(0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v = vreinterpretq_u8_u64(
            veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
        total = vaddq_u64(
            total, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
    }
    uint64_t sum = vgetq_lane_u64(total, 0) + vgetq_lane_u64(total, 1);
    for (; i < n; ++i)
        sum += static_cast<uint64_t>(__builtin_popcountll(a[i] ^ b[i]));
    return sum;
}

void
andInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(a + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    for (; i < n; ++i)
        a[i] &= b[i];
}

void
orInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(a + i, vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    for (; i < n; ++i)
        a[i] |= b[i];
}

void
xorInplace(uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(a + i, veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    for (; i < n; ++i)
        a[i] ^= b[i];
}

void
bytePopcountAccum(const uint64_t *w, size_t n, uint64_t *acc)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t pop =
            vcntq_u8(vreinterpretq_u8_u64(vld1q_u64(w + i)));
        const uint8x16_t a =
            vreinterpretq_u8_u64(vld1q_u64(acc + i));
        vst1q_u64(acc + i,
                  vreinterpretq_u64_u8(vaddq_u8(a, pop)));
    }
    for (; i < n; ++i) {
        uint64_t x = w[i];
        x = x - ((x >> 1) & 0x5555555555555555ull);
        x = (x & 0x3333333333333333ull)
            + ((x >> 2) & 0x3333333333333333ull);
        acc[i] += (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    }
}

TBSTC_NEON_CRC_ATTR uint32_t
armCrc32(const uint8_t *p, size_t n, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    while (n >= 8) {
        uint64_t v;
        __builtin_memcpy(&v, p, 8);
        c = __crc32d(c, v);
        p += 8;
        n -= 8;
    }
    while (n > 0) {
        c = __crc32b(c, *p);
        ++p;
        --n;
    }
    return c ^ 0xffffffffu;
}

} // namespace

const KernelTable &
neonTable()
{
    static const KernelTable table = [] {
        KernelTable t = scalarTable(); // rank / codec entries.
        t.isa = Isa::Neon;
        t.name = "neon";
        t.popcount = &popcountWords;
        t.popcountAnd = &popcountAndWords;
        t.popcountXor = &popcountXorWords;
        t.andInplace = &andInplace;
        t.orInplace = &orInplace;
        t.xorInplace = &xorInplace;
        t.bytePopcountAccum = &bytePopcountAccum;
        t.crc32 = cpuFeatures().armCrc ? &armCrc32 : &scalarCrc32;
        return t;
    }();
    return table;
}

} // namespace tbstc::kernels::detail
