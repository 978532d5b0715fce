/**
 * @file
 * google-benchmark microbenchmarks of the library's hot kernels:
 * mask generation (Alg. 1 and baselines), format encoding, the codec
 * conversion queue, the inter-block scheduler, and the pipeline
 * simulator itself. These guard the simulator's own performance —
 * LLM-scale sweeps depend on them.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/blockstats.hpp"
#include "core/prune.hpp"
#include "format/codec.hpp"
#include "format/encoding.hpp"
#include "kernels/kernels.hpp"
#include "sim/pipeline.hpp"
#include "sim/scheduler.hpp"
#include "util/contentstore.hpp"
#include "util/rng.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;

/**
 * Run @p body with the content store disabled, so a benchmark of the
 * compute path measures compute, not memoization. (The store is
 * process-global; benchmarks run serially so flipping it is safe.)
 */
template <typename F>
void
withoutCache(F &&body)
{
    util::ContentStore &store = util::ContentStore::instance();
    const bool was = store.enabled();
    store.setEnabled(false);
    body();
    store.setEnabled(was);
}

core::Matrix
benchScores(size_t dim)
{
    const auto w = workload::synthWeights(
        {"kernel-bench", dim, dim, 1}, 1);
    return core::magnitudeScores(w);
}

void
BM_UsMask(benchmark::State &state)
{
    const auto scores = benchScores(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bench::makeMask(core::Pattern::US, scores, 0.75));
    state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_UsMask)->Arg(256)->Arg(512);

void
BM_TbsMask(benchmark::State &state)
{
    const auto scores = benchScores(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bench::makeMask(core::Pattern::TBS, scores, 0.75));
    state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_TbsMask)->Arg(256)->Arg(512);

void
BM_RsvMask(benchmark::State &state)
{
    const auto scores = benchScores(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bench::makeMask(core::Pattern::RSV, scores, 0.75));
}
BENCHMARK(BM_RsvMask)->Arg(256);

void
BM_TsMask(benchmark::State &state)
{
    const auto scores = benchScores(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bench::makeMask(core::Pattern::TS, scores, 0.75)); // 2:8
    state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_TsMask)->Arg(256)->Arg(512);

void
BM_RshMask(benchmark::State &state)
{
    const auto scores = benchScores(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bench::makeMask(core::Pattern::RSH, scores, 0.75));
    state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_RshMask)->Arg(256);

void
BM_DdcEncode(benchmark::State &state)
{
    const auto w = workload::synthWeights(
        {"kernel-bench", 512, 512, 1}, 1);
    const auto scores = core::magnitudeScores(w);
    const auto res = bench::makeMask(core::Pattern::TBS, scores, 0.75);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            format::encodeDdc(w, res.mask, res.meta));
}
BENCHMARK(BM_DdcEncode);

void
BM_CodecConvert(benchmark::State &state)
{
    util::Rng rng(3);
    std::vector<format::StorageElem> storage;
    for (uint8_t col = 0; col < 8; ++col) {
        const auto rows = rng.permutation(8);
        for (uint8_t k = 0; k < 4; ++k)
            storage.push_back(
                {1.0f, static_cast<uint8_t>(rows[k]), col});
    }
    const format::CodecConfig cfg{8, 2, 2};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            format::tryDecodeBlock(storage, cfg));
    state.SetItemsProcessed(state.iterations() * storage.size());
}
BENCHMARK(BM_CodecConvert);

void
BM_Scheduler(benchmark::State &state)
{
    util::Rng rng(5);
    std::vector<uint64_t> costs(static_cast<size_t>(state.range(0)));
    for (auto &c : costs)
        c = rng.below(9);
    const auto policy = state.range(1) == 0 ? sim::InterSched::Naive
                                            : sim::InterSched::Aware;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim::scheduleBlocks(costs, 128, policy, 8));
    state.SetItemsProcessed(state.iterations() * costs.size());
}
BENCHMARK(BM_Scheduler)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 1});

void
BM_SimulateLayer(benchmark::State &state)
{
    workload::ProfileSpec spec;
    spec.shape = {"sim-bench", 1024, 1024, 128};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.75;
    spec.fmt = format::StorageFormat::DDC;
    const auto profile = workload::buildLayerProfile(spec);
    const sim::ArchConfig cfg;
    withoutCache([&] {
        for (auto _ : state)
            benchmark::DoNotOptimize(sim::simulateLayer(profile, cfg));
    });
}
BENCHMARK(BM_SimulateLayer);

void
BM_BuildLayerProfile(benchmark::State &state)
{
    workload::ProfileSpec spec;
    spec.shape = {"profile-bench", 1024, 1024, 128};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.75;
    spec.fmt = format::StorageFormat::DDC;
    withoutCache([&] {
        for (auto _ : state)
            benchmark::DoNotOptimize(workload::buildLayerProfile(spec));
    });
}
BENCHMARK(BM_BuildLayerProfile);

/**
 * Weight synthesis of a rows x 4096 layer: 32 row chunks at 2048 rows,
 * filled on the pool (serial under TBSTC_THREADS=1).
 */
void
BM_SynthWeights(benchmark::State &state)
{
    const workload::GemmShape shape{
        "synth-bench", static_cast<uint64_t>(state.range(0)), 4096, 1};
    for (auto _ : state)
        benchmark::DoNotOptimize(workload::synthWeights(shape, 7));
    state.SetItemsProcessed(state.iterations() * shape.x * shape.y);
}
BENCHMARK(BM_SynthWeights)->Arg(2048)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// Packed-mask kernels: the word-parallel primitives the bit-packed
// Mask replaced byte loops with. Throughput here is what the 3x
// blockstats / 2x TBS-mask end-to-end speedups are built from.
// --------------------------------------------------------------------

core::Mask
benchMask(size_t dim, double sparsity, uint64_t seed)
{
    const auto w = workload::synthWeights(
        {"mask-bench", dim, dim, 1}, seed);
    return bench::makeMask(core::Pattern::US, core::magnitudeScores(w),
                           sparsity)
        .mask;
}

void
BM_MaskNnz(benchmark::State &state)
{
    const auto m = benchMask(state.range(0), 0.75, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(m.nnz());
    state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_MaskNnz)->Arg(1024);

void
BM_MaskAgreement(benchmark::State &state)
{
    const auto a = benchMask(state.range(0), 0.75, 2);
    const auto b = benchMask(state.range(0), 0.75, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.agreement(b));
    state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_MaskAgreement)->Arg(1024);

void
BM_MaskOverlap(benchmark::State &state)
{
    const auto a = benchMask(state.range(0), 0.75, 2);
    const auto b = benchMask(state.range(0), 0.75, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.overlap(b));
    state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_MaskOverlap)->Arg(1024);

void
BM_MaskAnd(benchmark::State &state)
{
    const auto a = benchMask(state.range(0), 0.75, 2);
    const auto b = benchMask(state.range(0), 0.75, 3);
    for (auto _ : state) {
        core::Mask c = a;
        c &= b;
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_MaskAnd)->Arg(1024);

void
BM_BlockNnz(benchmark::State &state)
{
    const auto m = benchMask(1024, 0.75, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::blockNnz(m, static_cast<size_t>(state.range(0))));
    state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_BlockNnz)->Arg(8)->Arg(16);

void
BM_ApplyMask(benchmark::State &state)
{
    const auto w = workload::synthWeights(
        {"mask-bench", 1024, 1024, 1}, 2);
    const auto m = bench::makeMask(core::Pattern::US,
                                   core::magnitudeScores(w), 0.75)
                       .mask;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::applyMask(w, m));
    state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_ApplyMask);

// --------------------------------------------------------------------
// Content-addressed cache paths: a warm profile/sim request must cost
// hash + map lookup + payload decode, not a rebuild. The *Cached
// variants measure exactly the path a warm fig-grid run takes.
// --------------------------------------------------------------------

void
BM_BuildLayerProfileCached(benchmark::State &state)
{
    workload::ProfileSpec spec;
    spec.shape = {"profile-bench-hot", 512, 512, 128};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.75;
    spec.fmt = format::StorageFormat::DDC;
    util::ContentStore &store = util::ContentStore::instance();
    const bool was = store.enabled();
    store.setEnabled(true);
    benchmark::DoNotOptimize(workload::buildLayerProfile(spec)); // Warm.
    for (auto _ : state)
        benchmark::DoNotOptimize(workload::buildLayerProfile(spec));
    store.setEnabled(was);
}
BENCHMARK(BM_BuildLayerProfileCached);

void
BM_SimulateLayerCached(benchmark::State &state)
{
    workload::ProfileSpec spec;
    spec.shape = {"sim-bench-hot", 512, 512, 128};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.75;
    spec.fmt = format::StorageFormat::DDC;
    util::ContentStore &store = util::ContentStore::instance();
    const bool was = store.enabled();
    store.setEnabled(true);
    const auto profile = workload::buildLayerProfile(spec);
    const sim::ArchConfig cfg;
    benchmark::DoNotOptimize(sim::simulateLayer(profile, cfg)); // Warm.
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::simulateLayer(profile, cfg));
    store.setEnabled(was);
}
BENCHMARK(BM_SimulateLayerCached);

void
BM_ContentStoreHit(benchmark::State &state)
{
    util::ContentStore store;
    const std::vector<uint8_t> payload(
        static_cast<size_t>(state.range(0)), 0x5a);
    store.put("bench", 1, payload);
    for (auto _ : state) {
        auto [bytes, outcome] =
            store.getOrCompute("bench", 1, [&] { return payload; });
        benchmark::DoNotOptimize(bytes);
        benchmark::DoNotOptimize(outcome);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentStoreHit)->Arg(1024)->Arg(65536);

// --------------------------------------------------------------------
// Per-ISA kernel-table microbenchmarks: one registration per primitive
// per level the host can run (BM_Kernel*/scalar, /avx2, ...), so one
// run shows every level side by side and check_perf can gate the SIMD
// wins against per-ISA baselines. The macro benchmarks above use the
// *active* level (TBSTC_ISA / --isa); these bypass the selection.
// --------------------------------------------------------------------

std::vector<uint64_t>
benchWords(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> words(n);
    for (auto &w : words)
        w = rng.next();
    return words;
}

void
BM_KernelPopcount(benchmark::State &state,
                  const kernels::KernelTable *t)
{
    const auto words = benchWords(131072, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(t->popcount(words.data(), words.size()));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * words.size() * 8));
}

void
BM_KernelPopcountXor(benchmark::State &state,
                     const kernels::KernelTable *t)
{
    const auto a = benchWords(131072, 11);
    const auto b = benchWords(131072, 13);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            t->popcountXor(a.data(), b.data(), a.size()));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * a.size() * 16));
}

void
BM_KernelBytePopcountAccum(benchmark::State &state,
                           const kernels::KernelTable *t)
{
    // The blockNnz inner loop: 8 row accumulations into one strip.
    const auto words = benchWords(8 * 2048, 17);
    std::vector<uint64_t> acc(2048);
    for (auto _ : state) {
        std::fill(acc.begin(), acc.end(), uint64_t{0});
        for (size_t r = 0; r < 8; ++r)
            t->bytePopcountAccum(words.data() + r * acc.size(),
                                 acc.size(), acc.data());
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * words.size() * 8));
}

void
BM_KernelRank8x8(benchmark::State &state, const kernels::KernelTable *t)
{
    util::Rng rng(23);
    std::vector<float> blocks(64 * 1024);
    for (auto &v : blocks)
        v = static_cast<float>(rng.below(4096)) * 0.25f;
    std::vector<uint16_t> rank_row(64);
    std::vector<uint16_t> rank_col(64);
    for (auto _ : state) {
        for (size_t b = 0; b < 1024; ++b)
            t->rank8x8(blocks.data() + b * 64, rank_row.data(),
                       rank_col.data());
        benchmark::DoNotOptimize(rank_row.data());
        benchmark::DoNotOptimize(rank_col.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 1024 * 64));
}

void
BM_KernelRankTiles8(benchmark::State &state,
                    const kernels::KernelTable *t)
{
    util::Rng rng(27);
    std::vector<float> v(64 * 1024);
    for (auto &x : v)
        x = static_cast<float>(rng.below(4096)) * 0.25f;
    std::vector<uint8_t> rank(v.size());
    for (auto _ : state) {
        t->rankTiles8(v.data(), v.size() / 8, rank.data());
        benchmark::DoNotOptimize(rank.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * v.size()));
}

void
BM_KernelPackIdx(benchmark::State &state, const kernels::KernelTable *t)
{
    util::Rng rng(29);
    const unsigned bits = 3; // m = 8, the dominant DDC geometry.
    std::vector<uint8_t> vals(1 << 16);
    for (auto &v : vals)
        v = static_cast<uint8_t>(rng.below(8));
    std::vector<uint8_t> packed((vals.size() * bits + 7) / 8);
    for (auto _ : state) {
        t->packIdx(vals.data(), vals.size(), bits, packed.data());
        benchmark::DoNotOptimize(packed.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * vals.size()));
}

void
BM_KernelUnpackIdx(benchmark::State &state,
                   const kernels::KernelTable *t)
{
    util::Rng rng(31);
    const unsigned bits = 3;
    std::vector<uint8_t> vals(1 << 16);
    for (auto &v : vals)
        v = static_cast<uint8_t>(rng.below(8));
    std::vector<uint8_t> packed((vals.size() * bits + 7) / 8);
    kernels::kernelTableFor(kernels::Isa::Scalar)
        ->packIdx(vals.data(), vals.size(), bits, packed.data());
    std::vector<uint8_t> out(vals.size());
    for (auto _ : state) {
        t->unpackIdx(packed.data(), out.size(), bits, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * out.size()));
}

void
BM_KernelCrc32(benchmark::State &state, const kernels::KernelTable *t)
{
    util::Rng rng(37);
    std::vector<uint8_t> bytes(1 << 16);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.below(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            t->crc32(bytes.data(), bytes.size(), 0));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes.size()));
}

/** Register every BM_Kernel* benchmark for every runnable level. */
void
registerKernelBenchmarks()
{
    const std::pair<const char *,
                    void (*)(benchmark::State &,
                             const kernels::KernelTable *)>
        prims[] = {
            {"BM_KernelPopcount", &BM_KernelPopcount},
            {"BM_KernelPopcountXor", &BM_KernelPopcountXor},
            {"BM_KernelBytePopcountAccum", &BM_KernelBytePopcountAccum},
            {"BM_KernelRank8x8", &BM_KernelRank8x8},
            {"BM_KernelRankTiles8", &BM_KernelRankTiles8},
            {"BM_KernelPackIdx", &BM_KernelPackIdx},
            {"BM_KernelUnpackIdx", &BM_KernelUnpackIdx},
            {"BM_KernelCrc32", &BM_KernelCrc32},
        };
    for (const kernels::Isa isa : kernels::supportedIsas()) {
        const kernels::KernelTable *t = kernels::kernelTableFor(isa);
        for (const auto &[name, fn] : prims)
            benchmark::RegisterBenchmark(
                (std::string(name) + "/" + t->name).c_str(), fn, t);
    }
}

} // namespace

/**
 * Custom main: accept the repo-wide `--json PATH` convention (what the
 * CI perf-smoke job and the fig benches use) by translating it into
 * google-benchmark's --benchmark_out flags before initialization.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    for (size_t i = 1; i + 1 < args.size(); ++i)
        if (args[i] == "--json") {
            const std::string path = args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            args.push_back("--benchmark_out=" + path);
            args.push_back("--benchmark_out_format=json");
            break;
        }
    std::vector<char *> cargs;
    cargs.reserve(args.size());
    for (auto &a : args)
        cargs.push_back(a.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    // Attribute every run (and its JSON) to the dispatched backend;
    // check_perf.py keys its baselines off this field.
    benchmark::AddCustomContext(
        "tbstc_isa",
        tbstc::kernels::isaName(tbstc::kernels::activeIsa()));
    registerKernelBenchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
