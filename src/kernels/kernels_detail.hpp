/**
 * @file
 * Internal linkage between the dispatcher and the per-ISA translation
 * units. Each TU exposes its table through one getter; the getters
 * for ISAs that are not compiled into this binary are #defined away
 * by the build (TBSTC_KERNELS_HAVE_*), so the dispatcher never
 * references code the target cannot assemble.
 */

#ifndef TBSTC_KERNELS_KERNELS_DETAIL_HPP
#define TBSTC_KERNELS_KERNELS_DETAIL_HPP

#include "kernels.hpp"

namespace tbstc::kernels::detail {

/** The scalar table: always present, the bit-exactness reference. */
const KernelTable &scalarTable();

#if defined(TBSTC_KERNELS_HAVE_AVX2)
/**
 * The AVX2 table. Safe to *call the getter* on any x86-64; the
 * kernels themselves require AVX2/BMI2 (and the CRC entry PCLMUL +
 * SSE4.2 — the getter wires the scalar CRC when those are absent).
 */
const KernelTable &avx2Table();
#endif

#if defined(TBSTC_KERNELS_HAVE_AVX512)
/** The AVX-512 table (requires F/BW/DQ/VL/VPOPCNTDQ at runtime). */
const KernelTable &avx512Table();
#endif

#if defined(TBSTC_KERNELS_HAVE_NEON)
/** The NEON table (aarch64; the CRC entry additionally needs +crc). */
const KernelTable &neonTable();
#endif

/** Scalar CRC-32, shared by tables lacking a hardware CRC path. */
uint32_t scalarCrc32(const uint8_t *p, size_t n, uint32_t seed);

/** Scalar pack/unpack, shared by levels without a BMI2-style path. */
void scalarPackIdx(const uint8_t *vals, size_t n, unsigned bits,
                   uint8_t *dst);
void scalarUnpackIdx(const uint8_t *src, size_t n, unsigned bits,
                     uint8_t *dst);

/** Scalar rank8x8 / rankTiles8, shared by levels without a vector form. */
void scalarRank8x8(const float *blk, uint16_t *rank_row,
                   uint16_t *rank_col);
void scalarRankTiles8(const float *v, size_t tiles, uint8_t *rank);

} // namespace tbstc::kernels::detail

#endif // TBSTC_KERNELS_KERNELS_DETAIL_HPP
