/**
 * @file
 * tbstc — command-line driver for the TB-STC simulator.
 *
 * Subcommands:
 *   run      simulate one model or one layer on one accelerator
 *   compare  simulate a workload on every accelerator
 *   formats  storage-format study (bytes, redundancy, bandwidth)
 *   fsck     validate a serialized DDC stream, report decode errors
 *   area     area/power breakdown of an accelerator
 *   cpuinfo  detected CPU features and the dispatched kernel table
 *   serve    daemon answering run/sparsify requests over a socket
 *   loadgen  drive a serve daemon with a deterministic request mix
 *
 * run and serve share the execution layer in src/serve/exec.*, so a
 * daemon response's csv field is byte-identical to the one-shot
 * `tbstc run --csv` data line for the same parameters (see
 * docs/serving.md).
 *
 * Every subcommand declares its flags in a util::FlagSet, so parsing,
 * validation, and `tbstc help <command>` output all come from one
 * declaration. Telemetry flags (--trace / --metrics) are shared by the
 * simulating subcommands and enable the src/obs subsystem for the run.
 *
 * Stream discipline: machine-consumable output (tables, CSV, fsck
 * verdict lines) goes to stdout; diagnostics go to stderr.
 *
 * Examples:
 *   tbstc run --accel tbstc --model bert --sparsity 0.75 --seq 128
 *   tbstc run --accel tbstc --layer 3072x768x128 --sparsity 0.5 --csv
 *   tbstc run --accel tbstc --layer 512x512x8 \
 *       --trace trace.json --metrics metrics.json
 *   tbstc compare --model opt --sparsity 0.5 --seq 256
 *   tbstc formats --layer 512x512x1 --sparsity 0.75 --dump w.ddc
 *   tbstc fsck w.ddc
 *   tbstc area --accel tbstc
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "kernels/kernels.hpp"
#include "core/sparsify.hpp"
#include "format/encoding.hpp"
#include "format/serialize.hpp"
#include "obs/obs.hpp"
#include "serve/config.hpp"
#include "serve/exec.hpp"
#include "serve/fuzz.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "sim/dram.hpp"
#include "sim/energy.hpp"
#include "util/contentstore.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "workload/synth.hpp"

using namespace tbstc;

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "tbstc: %s (try 'tbstc help')\n", msg.c_str());
    std::exit(2);
}

// Name parsing lives in serve/exec (shared with the daemon); the CLI
// wrappers keep the historical exit-2 behavior on bad input.
accel::AccelKind
parseAccel(const std::string &name)
{
    const auto kind = serve::tryParseAccel(name);
    if (!kind)
        fail("unknown accelerator '" + name + "'");
    return *kind;
}

workload::GemmShape
parseLayer(const std::string &spec)
{
    const auto shape = serve::tryParseLayer(spec, "cli.layer");
    if (!shape)
        fail("layer spec must be XxYxNB, got '" + spec + "'");
    return *shape;
}

/**
 * Flags shared by the simulating subcommands (run/compare), bound to
 * one options struct. declare() registers them on a FlagSet in a fixed
 * order so help output is uniform across subcommands.
 */
struct SimOpts
{
    std::string model;
    std::string layer;
    double sparsity = 0.5;
    uint64_t seq = 128;
    uint64_t seed = 42;
    double bw = 0.0;
    bool int8 = false;
    bool full = false;
    uint64_t threads = 0;
    bool csv = false;
    std::string tracePath;
    std::string metricsPath;
    bool metricsHost = false;
    std::string profileCache;
    bool noCache = false;
    std::string isa;

    void
    declare(util::FlagSet &flags)
    {
        flags
            .option("model", &model, "M",
                    "workload model: resnet50 resnet18 bert opt llama")
            .option("layer", &layer, "XxYxNB",
                    "simulate one GEMM layer instead of a model")
            .option("sparsity", &sparsity, "S",
                    "weight sparsity degree (default 0.5)")
            .option("seq", &seq, "N",
                    "sequence length for transformers (default 128)")
            .option("bw", &bw, "GB/s", "override off-chip bandwidth")
            .flag("int8", &int8, "8-bit weights (Q+S mode)")
            .flag("full", &full,
                  "include dense attention GEMMs (inference)")
            .option("seed", &seed, "N",
                    "weight-synthesis seed (default 42)")
            .option("threads", &threads, "N",
                    "worker threads (default TBSTC_THREADS or all "
                    "cores; 1 = serial; results identical at any "
                    "setting)")
            .flag("csv", &csv, "machine-readable output")
            .option("trace", &tracePath, "FILE",
                    "write a chrome://tracing event trace")
            .option("metrics", &metricsPath, "FILE",
                    "write the deterministic metrics JSON")
            .flag("metrics-host", &metricsHost,
                  "include host-domain (schedule-dependent) metrics "
                  "in --metrics output")
            .option("profile-cache", &profileCache, "DIR",
                    "persist profile/sim results to DIR and reuse "
                    "them across runs (also: TBSTC_PROFILE_CACHE)")
            .flag("no-cache", &noCache,
                  "disable the in-memory and on-disk result caches")
            .option("isa", &isa, "L",
                    "force the kernel ISA level: scalar avx2 avx512 "
                    "neon native (default: best supported; also "
                    "TBSTC_ISA — see 'tbstc cpuinfo')");
    }

    /** Turn on the obs subsystem for the flags that need it. */
    void
    enableTelemetry() const
    {
        if (!isa.empty()) {
            kernels::Isa level;
            if (!kernels::parseIsa(isa, level))
                fail("unknown ISA level '" + isa + "'");
            if (!kernels::setIsa(level))
                fail("ISA level '" + isa
                     + "' is not supported on this host "
                       "(see 'tbstc cpuinfo')");
        }
        if (!tracePath.empty())
            obs::setTracingEnabled(true);
        if (!metricsPath.empty())
            obs::setMetricsEnabled(true);
        // Attribute every metrics export to its kernel backend: the
        // level is fixed per run, so the gauge is deterministic.
        obs::gauge("kernels.isa")
            .record(static_cast<int64_t>(kernels::activeIsa()));
        if (threads > 0)
            util::setThreads(threads);
        if (noCache)
            util::ContentStore::instance().setEnabled(false);
        else if (!profileCache.empty())
            util::ContentStore::instance().setDiskDir(profileCache);
    }

    /** Write requested telemetry files; returns 0 or an exit code. */
    int
    writeTelemetry() const
    {
        if (!metricsPath.empty()
            && !obs::writeMetricsJson(metricsPath, metricsHost)) {
            std::fprintf(stderr, "tbstc: cannot write '%s'\n",
                         metricsPath.c_str());
            return 1;
        }
        if (!tracePath.empty()
            && !obs::writeChromeTrace(tracePath)) {
            std::fprintf(stderr, "tbstc: cannot write '%s'\n",
                         tracePath.c_str());
            return 1;
        }
        return 0;
    }
};

/**
 * Run a FlagSet over argv, printing help or a parse diagnostic as
 * appropriate. Returns an exit code to propagate, or -1 to proceed.
 */
int
parseOrReport(util::FlagSet &flags, int argc, char **argv)
{
    const auto parsed = flags.parse(argc, argv);
    if (!parsed) {
        const auto &e = parsed.error();
        std::fprintf(stderr, "tbstc: %s\n%s", e.message.c_str(),
                     flags.help().c_str());
        return 2;
    }
    if (flags.helpRequested()) {
        std::fputs(flags.help().c_str(), stdout);
        return 0;
    }
    return -1;
}

void
printStats(const std::string &label, const sim::RunStats &s, bool csv)
{
    std::fputs(serve::formatStats(label, s, csv).c_str(), stdout);
}

sim::RunStats
runOne(accel::AccelKind kind, const SimOpts &opts, bool bw_set)
{
    serve::RunSpec spec;
    spec.kind = kind;
    spec.model = opts.model;
    spec.layer = opts.layer;
    spec.sparsity = opts.sparsity;
    spec.seq = opts.seq;
    spec.seed = opts.seed;
    spec.int8Weights = opts.int8;
    spec.full = opts.full;
    if (bw_set)
        spec.bw = opts.bw;
    // Validate names here so bad input keeps its exit-2 diagnostic
    // instead of surfacing as a caught exception (exit 1).
    if (spec.layer.empty() && spec.model.empty())
        fail("need --model or --layer");
    if (!spec.model.empty() && !serve::tryParseModel(spec.model))
        fail("unknown model '" + spec.model + "'");
    if (!spec.layer.empty())
        parseLayer(spec.layer);
    return serve::executeRun(spec);
}

util::FlagSet
runFlags(SimOpts &opts, std::string &accel)
{
    util::FlagSet flags(
        "run", "Simulate one model or layer on one accelerator.");
    flags.option("accel", &accel, "K",
                 "accelerator: tc stc vegeta highlight rmstc sgcn "
                 "tbstc fan",
                 /*required=*/true);
    opts.declare(flags);
    return flags;
}

int
cmdRun(int argc, char **argv)
{
    SimOpts opts;
    std::string accel;
    util::FlagSet flags = runFlags(opts, accel);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    opts.enableTelemetry();

    const auto kind = parseAccel(accel);
    if (opts.csv)
        std::fputs(serve::statsCsvHeader().c_str(), stdout);
    printStats(accel::accelName(kind),
               runOne(kind, opts, flags.seen("bw")), opts.csv);
    return opts.writeTelemetry();
}

util::FlagSet
compareFlags(SimOpts &opts)
{
    util::FlagSet flags(
        "compare", "Simulate a workload on every accelerator.");
    opts.declare(flags);
    return flags;
}

int
cmdCompare(int argc, char **argv)
{
    SimOpts opts;
    util::FlagSet flags = compareFlags(opts);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    opts.enableTelemetry();

    if (opts.csv)
        std::fputs(serve::statsCsvHeader().c_str(), stdout);
    const std::vector<accel::AccelKind> kinds{
        accel::AccelKind::TC,        accel::AccelKind::STC,
        accel::AccelKind::Vegeta,    accel::AccelKind::HighLight,
        accel::AccelKind::RmStc,     accel::AccelKind::Sgcn,
        accel::AccelKind::TbStc};
    // One independent simulation per accelerator: fan out, print in
    // the fixed order.
    const bool bw_set = flags.seen("bw");
    const auto stats = util::parallelMap<sim::RunStats>(
        kinds.size(),
        [&](size_t i) { return runOne(kinds[i], opts, bw_set); });
    for (size_t i = 0; i < kinds.size(); ++i)
        printStats(accel::accelName(kinds[i]), stats[i], opts.csv);
    return opts.writeTelemetry();
}

int
cmdFormats(int argc, char **argv)
{
    std::string layer;
    double sparsity = 0.75;
    uint64_t seed = 42;
    std::string dump;
    util::FlagSet flags(
        "formats",
        "Storage-format study: bytes, redundancy, bandwidth.");
    flags
        .option("layer", &layer, "XxYxNB",
                "weight-matrix shape (default 512x512x1)")
        .option("sparsity", &sparsity, "S",
                "weight sparsity degree (default 0.75)")
        .option("seed", &seed, "N", "weight-synthesis seed (default 42)")
        .option("dump", &dump, "FILE", "write the DDC byte stream");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

    const auto shape = !layer.empty()
        ? parseLayer(layer)
        : workload::GemmShape{"cli.formats", 512, 512, 1};

    const auto w = workload::synthWeights(shape, seed, 4096);
    const auto scores = core::magnitudeScores(w);
    core::MaskRequest mreq;
    mreq.pattern = core::Pattern::TBS;
    mreq.sparsity = sparsity;
    mreq.m = 8;
    const auto searched = core::tryMakeMask(scores, mreq);
    if (!searched)
        fail(searched.error().message);
    const core::MaskOutput &tbs = *searched;
    const sim::DramModel dram{sim::ArchConfig{}};

    util::Table t({"format", "bytes", "redundancy", "segments",
                   "bandwidth util"});
    auto row = [&](const std::string &name,
                   const format::Encoding &enc) {
        const auto p = enc.streamProfile(8);
        t.addRow({name, std::to_string(enc.storageBytes()),
                  util::fmtDouble(p.redundancy() * 100.0, 1) + "%",
                  std::to_string(p.segments),
                  util::fmtDouble(
                      dram.stream(p).utilisation() * 100.0, 1)
                      + "%"});
    };
    row("Dense", *format::encodeDense(w));
    row("SDC", *format::encodeSdc(w, tbs.mask));
    row("CSR", *format::encodeCsr(w, tbs.mask));
    row("Bitmap", *format::encodeBitmap(w, tbs.mask));
    row("DDC", *format::encodeDdc(w, tbs.mask, tbs.meta));
    std::printf("TBS mask on %llux%llu at %.1f%% sparsity:\n",
                static_cast<unsigned long long>(w.rows()),
                static_cast<unsigned long long>(w.cols()),
                sparsity * 100.0);
    t.print();

    if (!dump.empty()) {
        const auto bytes = format::serializeDdc(w, tbs.mask, tbs.meta);
        std::ofstream out(dump, std::ios::binary);
        if (!out
            || !out.write(reinterpret_cast<const char *>(bytes.data()),
                          static_cast<std::streamsize>(bytes.size()))) {
            std::fprintf(stderr, "tbstc: cannot write '%s'\n",
                         dump.c_str());
            return 1;
        }
        std::printf("wrote %zu-byte DDC stream to %s\n", bytes.size(),
                    dump.c_str());
    }
    return 0;
}

/**
 * fsck: validate a DDC stream dumped to disk. The one-line verdict
 * (`<path>: ok ...` / `<path>: corrupt ...`) is machine output and
 * goes to stdout; the human-readable decode diagnostic goes to
 * stderr. Exit 0 only for a stream the hardened decoder fully accepts.
 */
int
cmdFsck(int argc, char **argv)
{
    std::string path;
    util::FlagSet flags(
        "fsck",
        "Validate a dumped DDC stream; prints the decode-error class "
        "and byte offset, exits non-zero on corruption.");
    flags.positional("FILE", &path, "serialized DDC stream to check");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "tbstc fsck: cannot read '%s'\n",
                     path.c_str());
        return 2;
    }
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    const auto parsed = format::tryDeserializeDdc(bytes);
    if (!parsed) {
        const auto &e = parsed.error();
        std::fprintf(stderr, "tbstc fsck: %s: %s\n", path.c_str(),
                     e.message.c_str());
        std::printf("%s: corrupt %s at byte %zu\n", path.c_str(),
                    format::decodeErrorName(e.kind), e.offset);
        return 1;
    }
    std::printf("%s: ok — %zux%zu matrix, m=%zu, %zu blocks, "
                "%zu kept values, %zu bytes\n",
                path.c_str(), parsed->matrix.rows(),
                parsed->matrix.cols(), parsed->meta.m,
                parsed->meta.blocks.size(), parsed->mask.nnz(),
                bytes.size());
    return 0;
}

int
cmdArea(int argc, char **argv)
{
    std::string accel;
    util::FlagSet flags("area",
                        "Area/power breakdown of an accelerator.");
    flags.option("accel", &accel, "K",
                 "accelerator: tc stc vegeta highlight rmstc sgcn "
                 "tbstc fan",
                 /*required=*/true);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

    const auto kind = parseAccel(accel);
    const sim::AreaModel model{accel::accelConfig(kind)};
    util::Table t({"component", "area(mm^2)", "power(mW)"});
    for (const auto &c : model.components())
        t.addRow({c.name, util::fmtDouble(c.areaMm2, 3),
                  util::fmtDouble(c.powerMw, 2)});
    t.addRow({"Total", util::fmtDouble(model.totalAreaMm2(), 3),
              util::fmtDouble(model.totalPowerMw(), 2)});
    t.print();
    return 0;
}

/**
 * cpuinfo: detected CPU features, the runnable ISA levels, the level
 * the dispatcher selected, and per-primitive provenance of the active
 * kernel table (levels borrow entries — e.g. avx512 reuses the avx2
 * rank8x8 — so each row names the level that actually implements it).
 */
int
cmdCpuinfo(int argc, char **argv)
{
    std::string isa;
    util::FlagSet flags(
        "cpuinfo",
        "Report detected CPU features and the dispatched kernel "
        "table.");
    flags.option("isa", &isa, "L",
                 "report the table for this level instead of the "
                 "dispatched one: scalar avx2 avx512 neon native");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (!isa.empty()) {
        kernels::Isa level;
        if (!kernels::parseIsa(isa, level))
            fail("unknown ISA level '" + isa + "'");
        if (!kernels::setIsa(level))
            fail("ISA level '" + isa
                 + "' is not supported on this host");
    }

    const kernels::CpuFeatures &f = kernels::cpuFeatures();
    const std::vector<std::pair<const char *, bool>> features{
        {"sse4.2", f.sse42},
        {"pclmul", f.pclmul},
        {"bmi2", f.bmi2},
        {"avx2", f.avx2},
        {"avx512f", f.avx512f},
        {"avx512bw", f.avx512bw},
        {"avx512dq", f.avx512dq},
        {"avx512vl", f.avx512vl},
        {"avx512vpopcntdq", f.avx512vpopcntdq},
        {"asimd", f.neon},
        {"crc32", f.armCrc},
    };
    std::printf("detected features:");
    bool any = false;
    for (const auto &[name, present] : features)
        if (present) {
            std::printf(" %s", name);
            any = true;
        }
    std::printf(any ? "\n" : " (none: scalar baseline)\n");

    std::printf("supported levels: ");
    for (const kernels::Isa level : kernels::supportedIsas())
        std::printf(" %s", kernels::isaName(level));
    std::printf("\nactive level:      %s%s\n",
                kernels::isaName(kernels::activeIsa()),
                std::getenv("TBSTC_ISA") != nullptr || !isa.empty()
                    ? " (forced)"
                    : " (dispatched)");

    const kernels::KernelTable &active = kernels::active();
    const std::vector<
        std::pair<const char *,
                  const void *(*)(const kernels::KernelTable &)>>
        prims{
            {"popcount",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.popcount);
             }},
            {"popcountAnd",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.popcountAnd);
             }},
            {"popcountXor",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.popcountXor);
             }},
            {"andInplace",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.andInplace);
             }},
            {"orInplace",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.orInplace);
             }},
            {"xorInplace",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.xorInplace);
             }},
            {"bytePopcountAccum",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(
                     t.bytePopcountAccum);
             }},
            {"rank8x8",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.rank8x8);
             }},
            {"packIdx",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.packIdx);
             }},
            {"unpackIdx",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.unpackIdx);
             }},
            {"crc32",
             [](const kernels::KernelTable &t) {
                 return reinterpret_cast<const void *>(t.crc32);
             }},
        };
    std::printf("kernel table (%s):\n", active.name);
    for (const auto &[name, get] : prims) {
        // Provenance: the lowest level whose table holds the same
        // function pointer.
        const char *from = active.name;
        for (const kernels::Isa level : kernels::supportedIsas()) {
            const kernels::KernelTable *t = kernels::kernelTableFor(level);
            if (t != nullptr && get(*t) == get(active)) {
                from = t->name;
                break;
            }
        }
        std::printf("  %-18s %s\n", name, from);
    }
    return 0;
}

/**
 * serve: accept run/sparsify/stats requests over a unix or TCP socket
 * until SIGTERM/SIGINT, then drain (answer everything accepted) and
 * exit 0. SIGHUP re-reads --config and applies the new limits without
 * dropping connections. The listening address is printed to stdout as
 * one machine-parseable line; see docs/serving.md for the protocol.
 */
int
cmdServe(int argc, char **argv)
{
    const serve::ServeLimits defaults;
    std::string socket;
    uint64_t port = 0;
    uint64_t queueCap = defaults.queueCapacity;
    uint64_t maxBatch = 32;
    uint64_t retryAfterMs = defaults.retryAfterMs;
    uint64_t idleTimeoutMs = defaults.idleTimeoutMs;
    uint64_t readTimeoutMs = defaults.readTimeoutMs;
    uint64_t writeTimeoutMs = defaults.writeTimeoutMs;
    uint64_t maxConns = defaults.maxConnections;
    double rate = defaults.ratePerSec;
    double burst = defaults.rateBurst;
    uint64_t maxInflight = defaults.maxInflight;
    uint64_t threads = 0;
    std::string configPath;
    std::string metricsPath;
    std::string profileCache;
    bool noCache = false;
    std::string isa;
    util::FlagSet flags(
        "serve",
        "Serve run/sparsify requests concurrently over a socket.");
    flags
        .option("socket", &socket, "PATH",
                "listen on a unix socket (default: TCP on 127.0.0.1)")
        .option("port", &port, "N",
                "TCP port (default 0 = ephemeral; printed at start)")
        .option("queue", &queueCap, "N",
                "request-queue capacity = back-pressure threshold "
                "(default 256; overflow answers busy + retry_after_ms)")
        .option("max-batch", &maxBatch, "N",
                "max requests coalesced per execution (default 32)")
        .option("retry-after-ms", &retryAfterMs, "MS",
                "base retry hint on busy rejections (default 50; "
                "grows with sustained overload)")
        .option("idle-timeout-ms", &idleTimeoutMs, "MS",
                "reap a connection idle this long (default 30000; "
                "0 = never)")
        .option("read-timeout-ms", &readTimeoutMs, "MS",
                "a started frame must complete within this window "
                "(default 10000; 0 = no limit)")
        .option("write-timeout-ms", &writeTimeoutMs, "MS",
                "a response write must complete within this window "
                "(default 10000; 0 = no limit)")
        .option("max-conns", &maxConns, "N",
                "live-connection cap; beyond it accepts are shed with "
                "an 'overloaded' error (default 256; 0 = off)")
        .option("rate", &rate, "R",
                "per-connection token-bucket rate in req/s "
                "(default 0 = off)")
        .option("burst", &burst, "N",
                "token-bucket burst size (default 64)")
        .option("max-inflight", &maxInflight, "N",
                "per-connection cap on queued-but-unanswered requests "
                "(default 0 = off)")
        .option("config", &configPath, "FILE",
                "limits JSON overriding the flags above (see "
                "docs/serving.md); re-read and re-applied on SIGHUP "
                "without dropping connections")
        .option("threads", &threads, "N",
                "worker threads for request execution")
        .option("metrics", &metricsPath, "FILE",
                "write the final metrics JSON (host domain included) "
                "after the drain")
        .option("profile-cache", &profileCache, "DIR",
                "persist profile/sim results to DIR and reuse them")
        .flag("no-cache", &noCache,
              "disable the in-memory and on-disk result caches")
        .option("isa", &isa, "L",
                "force the kernel ISA level (see 'tbstc cpuinfo')");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (port > 65535)
        fail("--port must be <= 65535");

    serve::ServeLimits limits;
    limits.queueCapacity = queueCap;
    limits.retryAfterMs = retryAfterMs;
    limits.idleTimeoutMs = idleTimeoutMs;
    limits.readTimeoutMs = readTimeoutMs;
    limits.writeTimeoutMs = writeTimeoutMs;
    limits.maxConnections = maxConns;
    limits.ratePerSec = rate;
    limits.rateBurst = burst;
    limits.maxInflight = maxInflight;

    // The config file overrides the flags (at startup and again on
    // every SIGHUP); fields it omits keep their flag/default values.
    const auto loadConfig = [&configPath](
                                const serve::ServeLimits &base)
        -> util::Result<serve::ServeLimits, std::string> {
        std::ifstream in(configPath);
        if (!in)
            return util::unexpected("cannot read config file: "
                                    + configPath);
        std::ostringstream text;
        text << in.rdbuf();
        return serve::parseLimits(text.str(), base);
    };
    if (!configPath.empty()) {
        const auto parsed = loadConfig(limits);
        if (!parsed)
            fail(parsed.error());
        limits = *parsed;
    }

    if (!isa.empty()) {
        kernels::Isa level;
        if (!kernels::parseIsa(isa, level)
            || !kernels::setIsa(level))
            fail("ISA level '" + isa
                 + "' is unknown or unsupported on this host");
    }
    if (threads > 0)
        util::setThreads(threads);
    if (noCache)
        util::ContentStore::instance().setEnabled(false);
    else if (!profileCache.empty())
        util::ContentStore::instance().setDiskDir(profileCache);
    // Live `stats` responses embed the metrics export, so recording
    // is always on while serving.
    obs::setMetricsEnabled(true);

    // Route SIGTERM/SIGINT/SIGHUP to a dedicated sigwait thread:
    // every thread the server spawns inherits this mask, so drains
    // and reloads are always initiated from a normal thread context,
    // never a handler.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGHUP);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    serve::ServerOptions sopts;
    sopts.socketPath = socket;
    sopts.tcpPort = static_cast<uint16_t>(port);
    sopts.maxBatch = maxBatch;
    sopts.metricsPath = metricsPath;
    sopts.limits = limits;
    serve::Server server(sopts);
    const auto started = server.start();
    if (!started) {
        std::fprintf(stderr, "tbstc serve: %s\n",
                     started.error().c_str());
        return 1;
    }
    if (socket.empty())
        std::printf("listening tcp 127.0.0.1:%u\n",
                    static_cast<unsigned>(*started));
    else
        std::printf("listening unix %s\n", socket.c_str());
    std::fflush(stdout);

    std::thread sigThread([&] {
        for (;;) {
            int signo = 0;
            sigwait(&sigs, &signo);
            if (signo == SIGHUP) {
                serve::ServeLimits next = server.currentLimits();
                if (!configPath.empty()) {
                    const auto parsed = loadConfig(next);
                    if (!parsed) {
                        // Keep serving under the current limits.
                        std::fprintf(stderr,
                                     "tbstc serve: reload failed: "
                                     "%s\n",
                                     parsed.error().c_str());
                        continue;
                    }
                    next = *parsed;
                }
                server.reloadLimits(next);
                std::fprintf(stderr,
                             "tbstc serve: limits reloaded\n");
                continue;
            }
            server.beginShutdown();
            break;
        }
    });
    server.wait();
    sigThread.join();

    const serve::ServerCounters c = server.counters();
    std::fprintf(stderr,
                 "tbstc serve: drained — %llu answered, %llu batches, "
                 "%llu dedup hits, %llu busy-rejected, "
                 "%llu connections, %llu timeouts, %llu shed, "
                 "%llu rate-limited, %llu deadline-exceeded, "
                 "%llu reloads\n",
                 static_cast<unsigned long long>(c.answered),
                 static_cast<unsigned long long>(c.batches),
                 static_cast<unsigned long long>(c.dedupHits),
                 static_cast<unsigned long long>(c.busyRejected),
                 static_cast<unsigned long long>(c.connections),
                 static_cast<unsigned long long>(c.timeouts),
                 static_cast<unsigned long long>(c.shed),
                 static_cast<unsigned long long>(c.rateLimited),
                 static_cast<unsigned long long>(c.deadlineExceeded),
                 static_cast<unsigned long long>(c.reloads));
    return 0;
}

/**
 * loadgen: closed-loop load against a serve daemon. Exit 0 only when
 * every request succeeded and (with --verify) every response matched
 * the in-process re-execution byte-for-byte.
 */
int
cmdLoadgen(int argc, char **argv)
{
    std::string socket;
    uint64_t port = 0;
    uint64_t clients = 8;
    uint64_t requests = 200;
    uint64_t seed = 42;
    uint64_t chaosClients = 0;
    uint64_t chaosSeed = 1337;
    bool json = false;
    bool verify = false;
    bool printMix = false;
    util::FlagSet flags(
        "loadgen",
        "Drive a serve daemon with a deterministic request mix.");
    flags
        .option("socket", &socket, "PATH", "daemon unix socket")
        .option("port", &port, "N", "daemon TCP port on 127.0.0.1")
        .option("clients", &clients, "N",
                "concurrent closed-loop connections (default 8)")
        .option("requests", &requests, "N",
                "total requests across all clients (default 200)")
        .option("seed", &seed, "N", "mix derivation seed (default 42)")
        .option("chaos", &chaosClients, "N",
                "hostile clients sending corrupted frames alongside "
                "the honest load (default 0)")
        .option("chaos-seed", &chaosSeed, "N",
                "chaos mutation derivation seed (default 1337)")
        .flag("json", &json,
              "print the tbstc.loadgen.v1 JSON document")
        .flag("verify", &verify,
              "re-execute each distinct request in-process and demand "
              "byte-identical csv output")
        .flag("print-mix", &printMix,
              "print the one-shot command for each mix entry and exit");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (port > 65535)
        fail("--port must be <= 65535");

    if (printMix) {
        for (const auto &req : serve::buildMix(requests, seed))
            std::puts(serve::oneShotCommand(req).c_str());
        return 0;
    }
    if (socket.empty() && port == 0)
        fail("need --socket or --port");

    serve::LoadgenOptions lopts;
    lopts.socketPath = socket;
    lopts.port = static_cast<uint16_t>(port);
    lopts.clients = clients;
    lopts.totalRequests = requests;
    lopts.seed = seed;
    lopts.verify = verify;
    lopts.chaosClients = chaosClients;
    lopts.chaosSeed = chaosSeed;
    const auto stats = serve::runLoadgen(lopts);
    if (!stats) {
        std::fprintf(stderr, "tbstc loadgen: %s\n",
                     stats.error().c_str());
        return 1;
    }
    if (json) {
        std::printf("%s\n", serve::loadgenJson(*stats).c_str());
    } else {
        std::printf(
            "sent=%llu ok=%llu busy_retries=%llu errors=%llu "
            "mismatched=%llu\n"
            "%.1f req/s  p50=%.3f ms  p95=%.3f ms  p99=%.3f ms  "
            "(%.3f s elapsed)\n",
            static_cast<unsigned long long>(stats->sent),
            static_cast<unsigned long long>(stats->ok),
            static_cast<unsigned long long>(stats->busyRetries),
            static_cast<unsigned long long>(stats->errors),
            static_cast<unsigned long long>(stats->mismatched),
            stats->reqPerSec, stats->p50Ms, stats->p95Ms, stats->p99Ms,
            stats->elapsedSeconds);
        if (chaosClients > 0)
            std::printf("chaos_frames=%llu chaos_probes_ok=%llu\n",
                        static_cast<unsigned long long>(
                            stats->chaosFrames),
                        static_cast<unsigned long long>(
                            stats->chaosProbesOk));
    }
    return stats->errors == 0 && stats->mismatched == 0
            && stats->ok == stats->sent
        ? 0
        : 1;
}

/**
 * fuzz: seeded adversarial corruption against a live daemon's wire
 * protocol. Exit 0 only when every well-formed probe sent after the
 * corrupted frames was answered with the clean-connection bytes.
 */
int
cmdFuzz(int argc, char **argv)
{
    std::string socket;
    uint64_t port = 0;
    uint64_t seed = 1;
    uint64_t sessions = 125;
    uint64_t frames = 8;
    bool json = false;
    util::FlagSet flags(
        "fuzz",
        "Fuzz a serve daemon's wire protocol with seeded corruption.");
    flags
        .option("socket", &socket, "PATH", "daemon unix socket")
        .option("port", &port, "N", "daemon TCP port on 127.0.0.1")
        .option("seed", &seed, "N",
                "mutation derivation seed (default 1)")
        .option("sessions", &sessions, "N",
                "connections fuzzed (default 125)")
        .option("frames", &frames, "N",
                "mutated frames per session (default 8)")
        .flag("json", &json, "print the tbstc.fuzz.v1 JSON document");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (port > 65535)
        fail("--port must be <= 65535");
    if (socket.empty() && port == 0)
        fail("need --socket or --port");

    serve::FuzzOptions fopts;
    fopts.socketPath = socket;
    fopts.port = static_cast<uint16_t>(port);
    fopts.seed = seed;
    fopts.sessions = sessions;
    fopts.framesPerSession = frames;
    const auto stats = serve::runProtocolFuzz(fopts);
    if (!stats) {
        std::fprintf(stderr, "tbstc fuzz: %s\n",
                     stats.error().c_str());
        return 1;
    }
    if (json) {
        std::printf("%s\n", serve::fuzzJson(*stats).c_str());
    } else {
        std::printf(
            "sessions=%llu mutated_frames=%llu responses=%llu "
            "reconnects=%llu probes=%llu probe_mismatches=%llu\n",
            static_cast<unsigned long long>(stats->sessions),
            static_cast<unsigned long long>(stats->mutatedFrames),
            static_cast<unsigned long long>(stats->responses),
            static_cast<unsigned long long>(stats->reconnects),
            static_cast<unsigned long long>(stats->probes),
            static_cast<unsigned long long>(stats->probeMismatches));
    }
    return stats->probeMismatches == 0 ? 0 : 1;
}

int
cmdHelp(int argc, char **argv)
{
    // `tbstc help <command>` prints that subcommand's generated help.
    if (argc >= 3) {
        const std::string topic = argv[2];
        SimOpts opts;
        std::string accel;
        if (topic == "run") {
            std::fputs(runFlags(opts, accel).help().c_str(), stdout);
            return 0;
        }
        if (topic == "compare") {
            std::fputs(compareFlags(opts).help().c_str(), stdout);
            return 0;
        }
        // The remaining subcommands print their own help via --help.
        if (topic == "formats" || topic == "fsck" || topic == "area"
            || topic == "cpuinfo" || topic == "serve"
            || topic == "loadgen" || topic == "fuzz") {
            char help_flag[] = "--help";
            char *sub_argv[] = {argv[0], argv[2], help_flag};
            if (topic == "formats")
                return cmdFormats(3, sub_argv);
            if (topic == "fsck")
                return cmdFsck(3, sub_argv);
            if (topic == "cpuinfo")
                return cmdCpuinfo(3, sub_argv);
            if (topic == "serve")
                return cmdServe(3, sub_argv);
            if (topic == "loadgen")
                return cmdLoadgen(3, sub_argv);
            if (topic == "fuzz")
                return cmdFuzz(3, sub_argv);
            return cmdArea(3, sub_argv);
        }
    }
    std::puts(
        "tbstc — TB-STC sparse-tensor-core simulator\n"
        "\n"
        "usage: tbstc <command> [options]\n"
        "\n"
        "commands:\n"
        "  run      --accel K (--model M | --layer XxYxNB) [options]\n"
        "  compare  (--model M | --layer XxYxNB) [options]\n"
        "  formats  [--layer XxYxNB] [--sparsity S] [--seed N]\n"
        "           [--dump FILE]  (write the DDC byte stream)\n"
        "  fsck     FILE  (validate a dumped DDC stream)\n"
        "  area     --accel K\n"
        "  cpuinfo  [--isa L]  (CPU features, dispatched kernels)\n"
        "  serve    [--socket PATH | --port N] [--queue N] ...\n"
        "           (daemon; see docs/serving.md)\n"
        "  loadgen  (--socket PATH | --port N) [--clients N]\n"
        "           [--requests N] [--json] [--verify] [--chaos N]\n"
        "  fuzz     (--socket PATH | --port N) [--seed N]\n"
        "           [--sessions N] [--frames N]  (protocol fuzzer)\n"
        "  help     [command]\n"
        "\n"
        "accelerators: tc stc vegeta highlight rmstc sgcn tbstc fan\n"
        "models:       resnet50 resnet18 bert opt llama\n"
        "\n"
        "'tbstc help <command>' or 'tbstc <command> --help' lists the\n"
        "command's options, including the telemetry flags --trace and\n"
        "--metrics (see docs/observability.md).");
    return 0;
}

} // namespace

int
dispatch(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp(argc, argv);
    const std::string cmd = argv[1];
    try {
        if (cmd == "run")
            return cmdRun(argc, argv);
        if (cmd == "compare")
            return cmdCompare(argc, argv);
        if (cmd == "formats")
            return cmdFormats(argc, argv);
        if (cmd == "fsck")
            return cmdFsck(argc, argv);
        if (cmd == "area")
            return cmdArea(argc, argv);
        if (cmd == "cpuinfo")
            return cmdCpuinfo(argc, argv);
        if (cmd == "serve")
            return cmdServe(argc, argv);
        if (cmd == "loadgen")
            return cmdLoadgen(argc, argv);
        if (cmd == "fuzz")
            return cmdFuzz(argc, argv);
        if (cmd == "help" || cmd == "--help" || cmd == "-h")
            return cmdHelp(argc, argv);
        fail("unknown command '" + cmd + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tbstc: %s\n", e.what());
        return 1;
    }
}

int
main(int argc, char **argv)
{
    const int rc = dispatch(argc, argv);
    // Deterministic pool teardown: join the workers before main
    // returns instead of relying on static-destructor order.
    util::shutdownPool();
    return rc;
}
