/**
 * @file
 * Multi-ISA SIMD kernel backend with runtime dispatch.
 *
 * Every bit-level hot loop in the library — the packed-mask popcount
 * family, the SWAR byte-lane accumulator behind blockNnz, the rank8
 * scoring oracle of Algorithm 1, the per-tile rank that selects every
 * 8-wide N:M tile mask, the DDC index-stream bit packer, and CRC-32 —
 * routes through one table of function pointers selected once, at
 * first use, from runtime CPU-feature detection. Each ISA's
 * implementations live in their own translation unit compiled with
 * the matching `-m` flags, so a single binary carries scalar, AVX2,
 * and AVX-512 paths on x86-64 (NEON on aarch64) and runs the best one
 * the host supports.
 *
 * Contract: every ISA level is bit-identical to the scalar level on
 * every input. The scalar implementations are the specification; the
 * cross-ISA equivalence suite (tests/test_kernels.cpp) and the golden
 * mask hashes pin this, so masks, DDC streams, checksums, and cache
 * keys never depend on the machine that produced them.
 *
 * Selection order: TBSTC_ISA environment variable if set (values:
 * `scalar`, `avx2`, `avx512`, `neon`, `native`), else the best level
 * the CPU supports. Forcing a level the host cannot run is a hard
 * error — silently falling back would make perf numbers lie. The
 * `tbstc --isa` flag and `tbstc cpuinfo` build on the same entry
 * points (setIsa / activeIsa / cpuFeatures).
 */

#ifndef TBSTC_KERNELS_KERNELS_HPP
#define TBSTC_KERNELS_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

namespace tbstc::kernels {

/** Dispatchable ISA levels, ascending within an architecture. */
enum class Isa : uint8_t
{
    Scalar = 0, ///< Portable C++; the bit-exactness reference.
    Avx2 = 1,   ///< x86-64 AVX2 (+BMI2, SSE4.2, PCLMUL where present).
    Avx512 = 2, ///< x86-64 AVX-512 F/BW/DQ/VL/VPOPCNTDQ.
    Neon = 3,   ///< aarch64 Advanced SIMD (+CRC where present).
};

/** Raw CPU feature bits behind the ISA levels (for cpuinfo). */
struct CpuFeatures
{
    bool sse42 = false;
    bool pclmul = false;
    bool bmi2 = false;
    bool avx2 = false;
    bool avx512f = false;
    bool avx512bw = false;
    bool avx512dq = false;
    bool avx512vl = false;
    bool avx512vpopcntdq = false;
    bool neon = false;
    bool armCrc = false;
};

/**
 * The kernel table: one entry per vectorizable primitive. All
 * pointers are always non-null; a level that has no specialized form
 * of a primitive points at the next-best implementation it can run
 * (e.g. AVX-512 reuses the AVX2 rank8x8).
 */
struct KernelTable
{
    Isa isa;          ///< Level this table implements.
    const char *name; ///< "scalar", "avx2", ...

    /** Total set bits over n words. */
    uint64_t (*popcount)(const uint64_t *w, size_t n);
    /** Set bits of a[i] & b[i] over n words (mask overlap). */
    uint64_t (*popcountAnd)(const uint64_t *a, const uint64_t *b,
                            size_t n);
    /** Set bits of a[i] ^ b[i] over n words (Hamming distance). */
    uint64_t (*popcountXor)(const uint64_t *a, const uint64_t *b,
                            size_t n);
    /** a[i] &= b[i] over n words. */
    void (*andInplace)(uint64_t *a, const uint64_t *b, size_t n);
    /** a[i] |= b[i] over n words. */
    void (*orInplace)(uint64_t *a, const uint64_t *b, size_t n);
    /** a[i] ^= b[i] over n words. */
    void (*xorInplace)(uint64_t *a, const uint64_t *b, size_t n);

    /**
     * acc[i] += per-byte popcounts of w[i], for i < n: each byte lane
     * of acc accumulates its own byte's count. The caller bounds the
     * number of accumulations so no byte lane can exceed 255 (the
     * blockNnz walk adds at most 8 rows of at most 8 bits each).
     */
    void (*bytePopcountAccum)(const uint64_t *w, size_t n,
                              uint64_t *acc);

    /**
     * Rank tables of one 8x8 row-major float block under the mask
     * selection order (value descending, index ascending):
     * rank_row[r*8+c] ranks element (r, c) within row r, rank_col
     * ranks it within column c. Alg. 1's scoring oracle.
     */
    void (*rank8x8)(const float *blk, uint16_t *rank_row,
                    uint16_t *rank_col);

    /**
     * Rank of every element of @p tiles consecutive 8-float tiles
     * within its own tile, same order as rank8x8: rank[t*8+i] ranks
     * v[t*8+i] among v[t*8 .. t*8+7]. "rank < N" is the tile's top-N
     * set, which is how the TS/RSV/RSH/SS generators select.
     */
    void (*rankTiles8)(const float *v, size_t tiles, uint8_t *rank);

    /**
     * Pack n values of `bits` bits each (1 <= bits <= 8, values
     * already < 2^bits) LSB-first into dst. dst must hold
     * (n*bits + 7) / 8 bytes; bytes past the last written bit are
     * zeroed. The DDC index-stream layout.
     */
    void (*packIdx)(const uint8_t *vals, size_t n, unsigned bits,
                    uint8_t *dst);
    /**
     * Inverse of packIdx: unpack n values of `bits` bits each from
     * src (holding at least (n*bits + 7) / 8 bytes) into dst[n].
     */
    void (*unpackIdx)(const uint8_t *src, size_t n, unsigned bits,
                      uint8_t *dst);

    /**
     * CRC-32 (IEEE 802.3, reflected 0xEDB88320) of n bytes, chained
     * from a previous result via seed. Matches zlib's crc32().
     */
    uint32_t (*crc32)(const uint8_t *p, size_t n, uint32_t seed);
};

/**
 * One KernelTable primitive by name, for introspection (`tbstc
 * cpuinfo` reports which level implements each). @c same tells
 * whether two tables hold the same function for it.
 */
struct KernelPrimitive
{
    const char *name;
    bool (*same)(const KernelTable &a, const KernelTable &b);
};

#define TBSTC_KERNEL_PRIMITIVE(field)                                   \
    KernelPrimitive                                                     \
    {                                                                   \
        #field, [](const KernelTable &a, const KernelTable &b) {        \
            return a.field == b.field;                                  \
        }                                                               \
    }

/** Every KernelTable primitive, in declaration order. */
inline constexpr KernelPrimitive kKernelPrimitives[] = {
    TBSTC_KERNEL_PRIMITIVE(popcount),
    TBSTC_KERNEL_PRIMITIVE(popcountAnd),
    TBSTC_KERNEL_PRIMITIVE(popcountXor),
    TBSTC_KERNEL_PRIMITIVE(andInplace),
    TBSTC_KERNEL_PRIMITIVE(orInplace),
    TBSTC_KERNEL_PRIMITIVE(xorInplace),
    TBSTC_KERNEL_PRIMITIVE(bytePopcountAccum),
    TBSTC_KERNEL_PRIMITIVE(rank8x8),
    TBSTC_KERNEL_PRIMITIVE(rankTiles8),
    TBSTC_KERNEL_PRIMITIVE(packIdx),
    TBSTC_KERNEL_PRIMITIVE(unpackIdx),
    TBSTC_KERNEL_PRIMITIVE(crc32),
};

#undef TBSTC_KERNEL_PRIMITIVE

// A primitive added to KernelTable but not to kKernelPrimitives fails
// here: the table is exactly its header plus one pointer per entry.
static_assert(sizeof(KernelTable)
                  == offsetof(KernelTable, popcount)
                      + std::size(kKernelPrimitives)
                          * sizeof(KernelTable::popcount),
              "kKernelPrimitives must list every KernelTable entry");

/** Detected CPU feature bits (cached after the first call). */
const CpuFeatures &cpuFeatures();

/** Canonical lower-case name of a level ("scalar", "avx2", ...). */
const char *isaName(Isa isa);

/**
 * Parse an ISA name as accepted by TBSTC_ISA / --isa. Returns false
 * for unknown names. "native" parses to bestSupportedIsa().
 */
bool parseIsa(std::string_view name, Isa &out);

/** True when this host can run @p isa (compiled in + CPU support). */
bool isaSupported(Isa isa);

/** Every runnable level on this host, ascending; always has Scalar. */
std::vector<Isa> supportedIsas();

/** The highest runnable level on this host. */
Isa bestSupportedIsa();

/**
 * The kernel table of a specific level, or nullptr when the host
 * cannot run it. Lets benchmarks and the equivalence suite exercise
 * every level side by side without touching the active selection.
 */
const KernelTable *kernelTableFor(Isa isa);

/**
 * The active kernel table. First use resolves TBSTC_ISA (malformed
 * or unsupported values are a hard error on stderr, exit 2) or falls
 * back to bestSupportedIsa(). Thread-safe; the selection never
 * changes concurrently with kernel execution in normal operation
 * (setIsa is for startup flag handling and tests).
 */
const KernelTable &active();

/** Level of the active table. */
Isa activeIsa();

/**
 * Force the active level (the --isa flag, the equivalence suite).
 * Returns false — and leaves the selection unchanged — when the host
 * cannot run @p isa. Call before spawning parallel work.
 */
bool setIsa(Isa isa);

} // namespace tbstc::kernels

#endif // TBSTC_KERNELS_KERNELS_HPP
