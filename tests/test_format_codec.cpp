/**
 * @file
 * Unit tests for the adaptive codec unit (paper Fig. 9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "format/codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::format;
using tbstc::util::Rng;

/** Build a column-major storage stream for a 2:4-style block. */
std::vector<StorageElem>
columnMajorBlock(const std::vector<std::vector<uint8_t>> &cols_rows)
{
    std::vector<StorageElem> out;
    float v = 1.0f;
    for (uint8_t c = 0; c < cols_rows.size(); ++c)
        for (uint8_t r : cols_rows[c])
            out.push_back({v++, r, c});
    return out;
}

/** Decode a block the test built valid; a DecodeError fails the test. */
CodecOutput
decodeValid(const std::vector<StorageElem> &storage, const CodecConfig &cfg)
{
    auto out = tryDecodeBlock(storage, cfg);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    return out.ok() ? std::move(*out) : CodecOutput{};
}

TEST(Codec, PreservesEveryElement)
{
    // Paper Fig. 9(b)'s block: 4 columns, each with 2 kept elements.
    const auto storage = columnMajorBlock({{0, 2}, {1, 2}, {0, 3}, {1, 3}});
    const CodecOutput out = decodeValid(storage, CodecConfig{4, 2, 2});
    ASSERT_EQ(out.values.size(), storage.size());

    std::multiset<float> in_vals;
    std::multiset<float> out_vals;
    for (const auto &e : storage)
        in_vals.insert(e.value);
    for (float v : out.values)
        out_vals.insert(v);
    EXPECT_EQ(in_vals, out_vals);
}

TEST(Codec, GroupsShareRowInSteadyState)
{
    // With threshold 2, every emitted pair before the drain phase must
    // share its reduction-dimension index.
    Rng rng(3);
    // Column-wise 4:8 block: 8 columns x 4 kept rows each.
    std::vector<std::vector<uint8_t>> cols(8);
    for (auto &col : cols) {
        std::vector<uint8_t> rows{0, 1, 2, 3, 4, 5, 6, 7};
        for (size_t i = 8; i > 1; --i)
            std::swap(rows[i - 1], rows[rng.below(i)]);
        rows.resize(4);
        col = rows;
    }
    const auto storage = columnMajorBlock(cols);
    const CodecConfig cfg{8, 2, 2};
    const CodecOutput out = decodeValid(storage, cfg);
    ASSERT_EQ(out.values.size(), 32u);

    // All but the drain tail must be same-row pairs; the tail may mix.
    size_t same_row_pairs = 0;
    for (size_t i = 0; i + 1 < out.rids.size(); i += 2)
        same_row_pairs += out.rids[i] == out.rids[i + 1];
    EXPECT_GE(same_row_pairs, out.rids.size() / 2 - 4);
}

TEST(Codec, CycleCostNearHalfNnz)
{
    // Two-lane ingest: conversion should take about nnz/2 timesteps
    // plus a small drain tail — that is what lets the pipeline hide it.
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::vector<uint8_t>> cols(8);
        size_t nnz = 0;
        for (auto &col : cols) {
            const size_t n = 1 + rng.below(8);
            std::vector<uint8_t> rows{0, 1, 2, 3, 4, 5, 6, 7};
            for (size_t i = 8; i > 1; --i)
                std::swap(rows[i - 1], rows[rng.below(i)]);
            rows.resize(n);
            col = rows;
            nnz += n;
        }
        const auto storage = columnMajorBlock(cols);
        const CodecOutput out =
            decodeValid(storage, CodecConfig{8, 2, 2});
        EXPECT_GE(out.cycles, (nnz + 1) / 2);
        EXPECT_LE(out.cycles, nnz / 2 + 10);
    }
}

TEST(Codec, EmptyInputZeroCycles)
{
    const CodecOutput out = decodeValid({}, CodecConfig{8, 2, 2});
    EXPECT_EQ(out.cycles, 0u);
    EXPECT_TRUE(out.values.empty());
}

TEST(Codec, SingleElementDrains)
{
    const std::vector<StorageElem> storage{{42.0f, 3, 0}};
    const CodecOutput out = decodeValid(storage, CodecConfig{8, 2, 2});
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_EQ(out.values[0], 42.0f);
    EXPECT_EQ(out.rids[0], 3);
    EXPECT_GE(out.cycles, 1u);
}

TEST(Codec, RejectsOutOfRangeRid)
{
    // A lone element outside the block, on either axis.
    for (const StorageElem e : {StorageElem{1.0f, 9, 0},
                                StorageElem{1.0f, 0, 8}}) {
        const auto r = tryDecodeBlock({e}, CodecConfig{8, 2, 2});
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().kind, DecodeErrorKind::InfoFieldRange);
        EXPECT_EQ(r.error().offset, 0u);
    }
}

TEST(Codec, TryDecodeBlockReportsStructuredErrors)
{
    // Out-of-range Rid: a DecodeError naming the element, no throw.
    const std::vector<StorageElem> bad_rid{{1.0f, 0, 0}, {2.0f, 9, 1}};
    const auto r = tryDecodeBlock(bad_rid, CodecConfig{8, 2, 2});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, DecodeErrorKind::InfoFieldRange);
    EXPECT_EQ(r.error().offset, 1u); // Element index of the culprit.

    // Invalid geometry.
    const auto cfg = tryDecodeBlock({}, CodecConfig{0, 2, 2});
    ASSERT_FALSE(cfg.ok());
    EXPECT_EQ(cfg.error().kind, DecodeErrorKind::GeometryOverflow);
}

TEST(Codec, PassthroughCycles)
{
    const CodecConfig cfg{8, 2, 2};
    EXPECT_EQ(passthroughCycles(0, cfg), 0u);
    EXPECT_EQ(passthroughCycles(1, cfg), 1u);
    EXPECT_EQ(passthroughCycles(8, cfg), 4u);
    EXPECT_EQ(passthroughCycles(9, cfg), 5u);
}

TEST(Codec, WiderLanesCutCycles)
{
    Rng rng(7);
    std::vector<std::vector<uint8_t>> cols(8);
    for (auto &col : cols)
        col = {0, 1, 2, 3};
    const auto storage = columnMajorBlock(cols);
    const auto narrow = decodeValid(storage, CodecConfig{8, 2, 2});
    const auto wide = decodeValid(storage, CodecConfig{8, 4, 4});
    EXPECT_LT(wide.cycles, narrow.cycles);
}

} // namespace
