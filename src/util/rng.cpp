#include "rng.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <numbers>

#include "logging.hpp"

namespace tbstc::util {

namespace {

/** SplitMix64 step; used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** GF(2) polynomial of degree < 256; bit i is the x^i coefficient. */
using Poly = std::array<uint64_t, 4>;

/**
 * The characteristic polynomial of the xoshiro256 state transition is
 * x^256 + kCharPoly. Found by Berlekamp-Massey on a state bit; x^(2^128)
 * modulo it gives the reference implementation's JUMP constants.
 */
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
                            0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/** Interleave zero bits: bit i of @p x moves to bit 2i. */
uint64_t
spreadBits(uint64_t x)
{
    x = (x | (x << 16)) & 0x0000ffff0000ffffull;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
    x = (x | (x << 2)) & 0x3333333333333333ull;
    x = (x | (x << 1)) & 0x5555555555555555ull;
    return x;
}

/** a^2 modulo the characteristic polynomial. */
Poly
squareMod(const Poly &a)
{
    // Squaring over GF(2) only spreads the bits: (sum a_i x^i)^2 =
    // sum a_i x^2i.
    std::array<uint64_t, 8> v{};
    for (size_t i = 0; i < 4; ++i) {
        v[2 * i] = spreadBits(a[i] & 0xffffffffull);
        v[2 * i + 1] = spreadBits(a[i] >> 32);
    }
    // Cancel x^bit for every set bit >= 256, top down, by adding
    // x^(bit-256) * (x^256 + kCharPoly); kCharPoly has degree < 242, so
    // each step only touches bits below the one it clears.
    for (size_t bit = 511; bit >= 256; --bit) {
        if (!((v[bit / 64] >> (bit % 64)) & 1))
            continue;
        v[bit / 64] ^= uint64_t{1} << (bit % 64);
        const size_t shift = bit - 256;
        const size_t word = shift / 64;
        const unsigned off = shift % 64;
        for (size_t j = 0; j < 4; ++j) {
            v[word + j] ^= kCharPoly[j] << off;
            if (off != 0)
                v[word + j + 1] ^= kCharPoly[j] >> (64 - off);
        }
    }
    return {v[0], v[1], v[2], v[3]};
}

/** a * x modulo the characteristic polynomial. */
Poly
timesXMod(const Poly &a)
{
    const bool carry = a[3] >> 63;
    Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63),
              (a[2] << 1) | (a[1] >> 63), (a[3] << 1) | (a[2] >> 63)};
    if (carry)
        for (size_t j = 0; j < 4; ++j)
            r[j] ^= kCharPoly[j];
    return r;
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
    // All-zero state would lock xoshiro at zero; SplitMix64 cannot emit
    // four zeros from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

void
Rng::jump(uint64_t n)
{
    // x^n mod the characteristic polynomial, left to right over n's
    // bits; then T^n s = sum_i c_i T^i s by stepping 256 times.
    Poly c = {1, 0, 0, 0};
    for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
        c = squareMod(c);
        if ((n >> bit) & 1)
            c = timesXMod(c);
    }
    uint64_t acc[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < 256; ++i) {
        if ((c[i / 64] >> (i % 64)) & 1)
            for (size_t j = 0; j < 4; ++j)
                acc[j] ^= s_[j];
        next();
    }
    for (size_t j = 0; j < 4; ++j)
        s_[j] = acc[j];
    haveSpare_ = false;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    ensure(n > 0, "Rng::below requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return draw % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 1e-300)
        u1 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::heavyTail(double outlier_frac, double outlier_scale)
{
    const double scale = uniform() < outlier_frac ? outlier_scale : 1.0;
    return gaussian() * scale;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (size_t i = n; i > 1; --i) {
        const size_t j = below(i);
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefull);
}

bool
Rng::operator==(const Rng &other) const
{
    for (size_t j = 0; j < 4; ++j)
        if (s_[j] != other.s_[j])
            return false;
    if (haveSpare_ != other.haveSpare_)
        return false;
    return !haveSpare_
        || std::bit_cast<uint64_t>(spare_)
        == std::bit_cast<uint64_t>(other.spare_);
}

} // namespace tbstc::util
