/**
 * @file
 * tbstc — command-line driver for the TB-STC simulator.
 *
 * Subcommands are declared once, in the kCommands table at the end
 * of this file, which drives dispatch, `tbstc help` and `tbstc help
 * <command>`: run, compare, formats, fsck, area and cpuinfo drive the
 * simulator; serve is the request daemon; loadgen and fuzz drive a
 * running daemon.
 *
 * run and serve share the execution layer in src/serve/exec.*, so a
 * daemon response's csv field is byte-identical to the one-shot
 * `tbstc run --csv` data line for the same parameters (see
 * docs/serving.md).
 *
 * Every subcommand declares its flags in a util::FlagSet, bound where
 * possible to the library struct that owns their defaults (RunSpec,
 * SparsifySpec, ServerOptions, ServeLimits, LoadgenOptions,
 * FuzzOptions), so parsing, validation, and help output all come from
 * one declaration. Telemetry flags (--trace / --metrics) are shared by
 * the simulating subcommands and enable the src/obs subsystem for the
 * run.
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
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "format/encoding.hpp"
#include "format/serialize.hpp"
#include "kernels/kernels.hpp"
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

/** Force the kernel ISA level named by an --isa flag, or exit 2. */
void
forceIsa(const std::string &isa)
{
    kernels::Isa level;
    if (!kernels::parseIsa(isa, level))
        fail("unknown ISA level '" + isa + "'");
    if (!kernels::setIsa(level))
        fail("ISA level '" + isa
             + "' is not supported on this host (see 'tbstc cpuinfo')");
}

/** Host-execution flags shared by run, compare and serve. */
struct HostOpts
{
    uint64_t threads = 0;
    std::string profileCache;
    bool noCache = false;
    std::string isa;

    void
    declare(util::FlagSet &flags)
    {
        flags
            .option("threads", &threads, "N",
                    "worker threads; 0 = TBSTC_THREADS or all cores, "
                    "1 = serial; results identical at any setting")
            .option("profile-cache", &profileCache, "DIR",
                    "persist profile/sim results to DIR and reuse "
                    "them across runs (also: TBSTC_PROFILE_CACHE)")
            .flag("no-cache", &noCache,
                  "disable the in-memory and on-disk result caches")
            .option("isa", &isa, "L",
                    "force the kernel ISA level: scalar avx2 avx512 "
                    "neon native; unset = TBSTC_ISA or the best "
                    "supported (see 'tbstc cpuinfo')");
    }

    void
    apply() const
    {
        if (!isa.empty())
            forceIsa(isa);
        if (threads > 0)
            util::setThreads(threads);
        if (noCache)
            util::ContentStore::instance().setEnabled(false);
        else if (!profileCache.empty())
            util::ContentStore::instance().setDiskDir(profileCache);
    }
};

/**
 * Flags shared by the simulating subcommands (run/compare), bound to
 * the serve::RunSpec both execute. declare() registers them on a
 * FlagSet in a fixed order so help output is uniform across
 * subcommands.
 */
struct SimOpts
{
    serve::RunSpec spec;
    bool csv = false;
    std::string tracePath;
    std::string metricsPath;
    bool metricsHost = false;
    HostOpts host;

    void
    declare(util::FlagSet &flags)
    {
        flags
            .option("model", &spec.model, "M",
                    "workload model: " + serve::modelNames())
            .option("layer", &spec.layer, "XxYxNB",
                    "simulate one GEMM layer instead of a model")
            .option("sparsity", &spec.sparsity, "S",
                    "weight sparsity degree")
            .option("seq", &spec.seq, "N",
                    "sequence length for transformers")
            .option("bw", &spec.bw, "GB/s", "override off-chip bandwidth")
            .flag("int8", &spec.int8Weights, "8-bit weights (Q+S mode)")
            .flag("full", &spec.full,
                  "include dense attention GEMMs (inference)")
            .option("seed", &spec.seed, "N", "weight-synthesis seed")
            .flag("csv", &csv, "machine-readable output")
            .option("trace", &tracePath, "FILE",
                    "write a chrome://tracing event trace")
            .option("metrics", &metricsPath, "FILE",
                    "write the deterministic metrics JSON")
            .flag("metrics-host", &metricsHost,
                  "include host-domain (schedule-dependent) metrics "
                  "in --metrics output");
        host.declare(flags);
    }

    /**
     * Apply the host flags, turn on the obs subsystem for the flags
     * that need it, and reject a spec that names no workload or an
     * unknown one, so bad input keeps its exit-2 diagnostic instead of
     * surfacing as a caught exception (exit 1).
     */
    void
    prepare() const
    {
        host.apply();
        if (!tracePath.empty())
            obs::setTracingEnabled(true);
        if (!metricsPath.empty())
            obs::setMetricsEnabled(true);
        // Attribute every metrics export to its kernel backend: the
        // level is fixed per run, so the gauge is deterministic.
        obs::gauge("kernels.isa")
            .record(static_cast<int64_t>(kernels::activeIsa()));
        if (spec.layer.empty() && spec.model.empty())
            fail("need --model or --layer");
        if (!spec.model.empty() && !serve::tryParseModel(spec.model))
            fail("unknown model '" + spec.model + "'");
        if (!spec.layer.empty()
            && !serve::tryParseLayer(spec.layer, "cli.layer"))
            fail("layer spec must be XxYxNB, got '" + spec.layer + "'");
    }

    sim::RunStats
    run(accel::AccelKind kind) const
    {
        serve::RunSpec one = spec;
        one.kind = kind;
        return serve::executeRun(one);
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

int
cmdRun(util::FlagSet &flags, int argc, char **argv)
{
    SimOpts opts;
    std::string accel;
    flags.option("accel", &accel, "K",
                 "accelerator: " + serve::accelNames(),
                 /*required=*/true);
    opts.declare(flags);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    opts.prepare();

    const auto kind = parseAccel(accel);
    if (opts.csv)
        std::fputs(serve::statsCsvHeader().c_str(), stdout);
    printStats(accel::accelName(kind), opts.run(kind), opts.csv);
    return opts.writeTelemetry();
}

int
cmdCompare(util::FlagSet &flags, int argc, char **argv)
{
    SimOpts opts;
    opts.declare(flags);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    opts.prepare();

    if (opts.csv)
        std::fputs(serve::statsCsvHeader().c_str(), stdout);
    const std::vector<accel::AccelKind> kinds{
        accel::AccelKind::TC,        accel::AccelKind::STC,
        accel::AccelKind::Vegeta,    accel::AccelKind::HighLight,
        accel::AccelKind::RmStc,     accel::AccelKind::Sgcn,
        accel::AccelKind::TbStc};
    // One independent simulation per accelerator: fan out, print in
    // the fixed order.
    const auto stats = util::parallelMap<sim::RunStats>(
        kinds.size(), [&](size_t i) { return opts.run(kinds[i]); });
    for (size_t i = 0; i < kinds.size(); ++i)
        printStats(accel::accelName(kinds[i]), stats[i], opts.csv);
    return opts.writeTelemetry();
}

int
cmdFormats(util::FlagSet &flags, int argc, char **argv)
{
    serve::SparsifySpec spec;
    std::string dump;
    flags
        .option("layer", &spec.layer, "XxYxNB", "weight-matrix shape")
        .option("sparsity", &spec.sparsity, "S",
                "weight sparsity degree")
        .option("seed", &spec.seed, "N", "weight-synthesis seed")
        .option("dump", &dump, "FILE", "write the DDC byte stream");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

    // An explicit --layer is synthesized under the name run's --layer
    // uses; only the default shape matches the daemon's sparsify.
    const auto layer = serve::trySparsify(
        spec, flags.seen("layer") ? "cli.layer" : serve::kSparsifyShapeName);
    if (!layer)
        fail(layer.error());
    const core::Matrix &w = layer->w;
    const core::MaskOutput &tbs = layer->tbs;
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
    try {
        row("Dense", *format::encodeDense(w));
        row("SDC", *format::encodeSdc(w, tbs.mask));
        row("CSR", *format::encodeCsr(w, tbs.mask));
        row("Bitmap", *format::encodeBitmap(w, tbs.mask));
        row("DDC", *format::encodeDdc(w, tbs.mask, tbs.meta));
    } catch (const format::ColumnLimitError &e) {
        fail(e.what());
    }
    std::printf("TBS mask on %llux%llu at %.1f%% sparsity:\n",
                static_cast<unsigned long long>(w.rows()),
                static_cast<unsigned long long>(w.cols()),
                spec.sparsity * 100.0);
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
cmdFsck(util::FlagSet &flags, int argc, char **argv)
{
    std::string path;
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
cmdArea(util::FlagSet &flags, int argc, char **argv)
{
    std::string accel;
    flags.option("accel", &accel, "K",
                 "accelerator: " + serve::accelNames(),
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
cmdCpuinfo(util::FlagSet &flags, int argc, char **argv)
{
    std::string isa;
    flags.option("isa", &isa, "L",
                 "report the table for this level instead of the "
                 "dispatched one: scalar avx2 avx512 neon native");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (!isa.empty())
        forceIsa(isa);

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
    std::printf("kernel table (%s):\n", active.name);
    for (const kernels::KernelPrimitive &prim : kernels::kKernelPrimitives) {
        // Provenance: the lowest level whose table holds the same
        // function pointer.
        const char *from = active.name;
        for (const kernels::Isa level : kernels::supportedIsas()) {
            const kernels::KernelTable *t = kernels::kernelTableFor(level);
            if (t != nullptr && prim.same(*t, active)) {
                from = t->name;
                break;
            }
        }
        std::printf("  %-18s %s\n", prim.name, from);
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
cmdServe(util::FlagSet &flags, int argc, char **argv)
{
    serve::ServerOptions sopts;
    std::string configPath;
    HostOpts host;
    flags
        .option("socket", &sopts.socketPath, "PATH",
                "listen on a unix socket instead of TCP on 127.0.0.1")
        .option("port", &sopts.tcpPort, "N",
                "TCP port; 0 = ephemeral, printed at start")
        .option("max-batch", &sopts.maxBatch, "N",
                "max requests coalesced per execution");
    serve::declareLimitFlags(flags, sopts.limits);
    flags
        .option("config", &configPath, "FILE",
                "limits JSON overriding the flags above (see "
                "docs/serving.md); re-read and re-applied on SIGHUP "
                "without dropping connections")
        .option("metrics", &sopts.metricsPath, "FILE",
                "write the final metrics JSON (host domain included) "
                "after the drain");
    host.declare(flags);
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

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
        const auto parsed = loadConfig(sopts.limits);
        if (!parsed)
            fail(parsed.error());
        sopts.limits = *parsed;
    }

    host.apply();
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

    serve::Server server(sopts);
    const auto started = server.start();
    if (!started) {
        std::fprintf(stderr, "tbstc serve: %s\n",
                     started.error().c_str());
        return 1;
    }
    if (sopts.socketPath.empty())
        std::printf("listening tcp 127.0.0.1:%u\n",
                    static_cast<unsigned>(*started));
    else
        std::printf("listening unix %s\n", sopts.socketPath.c_str());
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
                 "%llu dedup hits (%llu inline), %llu busy-rejected, "
                 "%llu connections, %llu timeouts, %llu shed, "
                 "%llu rate-limited, %llu deadline-exceeded, "
                 "%llu reloads\n",
                 static_cast<unsigned long long>(c.answered),
                 static_cast<unsigned long long>(c.batches),
                 static_cast<unsigned long long>(c.dedupHits),
                 static_cast<unsigned long long>(c.inlineAnswers),
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
cmdLoadgen(util::FlagSet &flags, int argc, char **argv)
{
    serve::LoadgenOptions lopts;
    bool json = false;
    bool printMix = false;
    flags.option("socket", &lopts.socketPath, "PATH", "daemon unix socket")
        .option("port", &lopts.port, "N", "daemon TCP port on 127.0.0.1")
        .option("clients", &lopts.clients, "N",
                "concurrent closed-loop connections")
        .option("requests", &lopts.totalRequests, "N",
                "total requests across all clients")
        .option("seed", &lopts.seed, "N", "mix derivation seed")
        .option("chaos", &lopts.chaosClients, "N",
                "hostile clients sending corrupted frames alongside "
                "the honest load")
        .option("chaos-seed", &lopts.chaosSeed, "N",
                "chaos mutation derivation seed")
        .flag("json", &json,
              "print the tbstc.loadgen.v1 JSON document")
        .flag("verify", &lopts.verify,
              "re-execute each distinct request in-process and demand "
              "byte-identical csv output")
        .flag("print-mix", &printMix,
              "print the one-shot command for each mix entry and exit");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;

    if (printMix) {
        for (const auto &req :
             serve::buildMix(lopts.totalRequests, lopts.seed))
            std::puts(serve::oneShotCommand(req).c_str());
        return 0;
    }
    if (lopts.socketPath.empty() && lopts.port == 0)
        fail("need --socket or --port");

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
        if (lopts.chaosClients > 0)
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
cmdFuzz(util::FlagSet &flags, int argc, char **argv)
{
    serve::FuzzOptions fopts;
    bool json = false;
    flags.option("socket", &fopts.socketPath, "PATH", "daemon unix socket")
        .option("port", &fopts.port, "N", "daemon TCP port on 127.0.0.1")
        .option("seed", &fopts.seed, "N", "mutation derivation seed")
        .option("sessions", &fopts.sessions, "N", "connections fuzzed")
        .option("frames", &fopts.framesPerSession, "N",
                "mutated frames per session")
        .flag("json", &json, "print the tbstc.fuzz.v1 JSON document");
    if (const int rc = parseOrReport(flags, argc, argv); rc >= 0)
        return rc;
    if (fopts.socketPath.empty() && fopts.port == 0)
        fail("need --socket or --port");

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

int cmdHelp(util::FlagSet &flags, int argc, char **argv);

/** One subcommand: its name, one-line summary, and handler. */
struct Command
{
    const char *name;
    const char *summary;
    int (*handler)(util::FlagSet &flags, int argc, char **argv);
};

const Command kCommands[] = {
    {"run", "Simulate one model or layer on one accelerator.", cmdRun},
    {"compare", "Simulate a workload on every accelerator.", cmdCompare},
    {"formats", "Storage-format study: bytes, redundancy, bandwidth.",
     cmdFormats},
    {"fsck", "Validate a dumped DDC stream; name any decode error.",
     cmdFsck},
    {"area", "Area/power breakdown of an accelerator.", cmdArea},
    {"cpuinfo",
     "Report detected CPU features and the dispatched kernel table.",
     cmdCpuinfo},
    {"serve", "Serve run/sparsify requests concurrently over a socket.",
     cmdServe},
    {"loadgen", "Drive a serve daemon with a deterministic request mix.",
     cmdLoadgen},
    {"fuzz", "Fuzz a serve daemon's wire protocol with seeded corruption.",
     cmdFuzz},
    {"help", "List the commands; 'help <command>' shows its options.",
     cmdHelp},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : kCommands)
        if (name == c.name)
            return &c;
    return nullptr;
}

int
runCommand(const Command &cmd, int argc, char **argv)
{
    util::FlagSet flags(cmd.name, cmd.summary);
    return cmd.handler(flags, argc, argv);
}

/**
 * help: `tbstc help <command>` is `tbstc <command> --help`; anything
 * else prints the command list.
 */
int
cmdHelp(util::FlagSet &, int argc, char **argv)
{
    if (const Command *topic = argc >= 3 ? findCommand(argv[2]) : nullptr) {
        char help_flag[] = "--help";
        char *sub_argv[] = {argv[0], argv[2], help_flag};
        return runCommand(*topic, 3, sub_argv);
    }
    std::printf("tbstc — TB-STC sparse-tensor-core simulator\n"
                "\n"
                "usage: tbstc <command> [options]\n"
                "\n"
                "commands:\n");
    for (const Command &c : kCommands)
        std::printf("  %-8s %s\n", c.name, c.summary);
    std::printf(
        "\n"
        "accelerators: %s\n"
        "models:       %s\n"
        "\n"
        "'tbstc help <command>' or 'tbstc <command> --help' lists the\n"
        "command's options, including the telemetry flags --trace and\n"
        "--metrics (see docs/observability.md).\n",
        serve::accelNames().c_str(), serve::modelNames().c_str());
    return 0;
}

} // namespace

int
dispatch(int argc, char **argv)
{
    // No command, `--help` and `-h` all ask for the command list.
    const std::string name = argc < 2 ? "--help" : argv[1];
    const Command *cmd =
        findCommand(name == "--help" || name == "-h" ? "help" : name);
    if (cmd == nullptr)
        fail("unknown command '" + name + "'");
    try {
        return runCommand(*cmd, argc, argv);
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
