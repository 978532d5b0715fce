/**
 * @file
 * google-benchmark harness for the serve daemon hot path.
 *
 * Each benchmark spins an in-process Server on a loopback TCP socket
 * and measures the serving-layer costs the daemon adds on top of the
 * cached pipeline: protocol round-trips (ping), warm-cache request
 * latency (run/sparsify over an already-cached signature), and
 * closed-loop loadgen throughput at several client counts (items/s is
 * requests per second).
 *
 * Output is the same google-benchmark JSON as bench_kernels (`--json
 * PATH` translates to --benchmark_out), with context.tbstc_isa
 * recorded so tools/check_perf.py can gate serve-layer regressions
 * against per-ISA baselines exactly like the kernel benches:
 *
 *     bench_serve --json serve.json
 *     tools/check_perf.py serve.json bench/baselines --prefix bench_serve
 */

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "kernels/kernels.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"

namespace {

using namespace tbstc;
using namespace tbstc::serve;

/** A live server plus one connected loopback client. */
class ServerFixture
{
  public:
    ServerFixture()
    {
        ServerOptions opts;
        opts.limits.queueCapacity = 512;
        server_ = std::make_unique<Server>(opts);
        const auto started = server_->start();
        if (!started.ok())
            std::abort();
        port_ = *started;
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port_);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            std::abort();
    }

    ~ServerFixture()
    {
        if (fd_ >= 0)
            ::close(fd_);
        server_->beginShutdown();
        server_->wait();
    }

    /** One request/response round-trip; aborts on transport failure. */
    std::string
    roundTrip(const Request &req)
    {
        if (!writeFrame(fd_, serializeRequest(req)))
            std::abort();
        std::string payload;
        if (readFrame(fd_, payload) != FrameStatus::Ok)
            std::abort();
        return payload;
    }

    uint16_t port() const { return port_; }

  private:
    std::unique_ptr<Server> server_;
    uint16_t port_ = 0;
    int fd_ = -1;
};

Request
pingRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Ping;
    return req;
}

Request
runRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Run;
    req.run.layer = "256x256x1";
    req.run.sparsity = 0.75;
    return req;
}

Request
sparsifyRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Sparsify;
    req.sparsify.layer = "128x128x1";
    req.sparsify.sparsity = 0.75;
    return req;
}

/** Protocol + queue + batcher overhead with no pipeline work at all. */
void
BM_ServePingRoundTrip(benchmark::State &state)
{
    ServerFixture fx;
    uint64_t id = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.roundTrip(pingRequest(++id)));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePingRoundTrip)->UseRealTime();

/** Warm-cache run request: the steady-state daemon serving latency. */
void
BM_ServeRunWarmCache(benchmark::State &state)
{
    ServerFixture fx;
    uint64_t id = 0;
    fx.roundTrip(runRequest(++id)); // prime the caches
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.roundTrip(runRequest(++id)));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeRunWarmCache)->UseRealTime();

/**
 * Warm sparsify round-trip. The priming request files the answer in
 * the content store, so each timed iteration is a "sparsify" hit:
 * protocol, queue, batcher and store lookup, no Algorithm 1 or DDC
 * serialization.
 */
void
BM_ServeSparsifyRoundTrip(benchmark::State &state)
{
    ServerFixture fx;
    uint64_t id = 0;
    fx.roundTrip(sparsifyRequest(++id));
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.roundTrip(sparsifyRequest(++id)));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeSparsifyRoundTrip)->UseRealTime();

/**
 * Closed-loop loadgen throughput at state.range(0) clients over the
 * deterministic mix. One iteration = one full loadgen pass; items/s
 * is the aggregate request rate the daemon sustains warm-cache.
 */
void
BM_ServeLoadgenThroughput(benchmark::State &state)
{
    ServerFixture fx;
    LoadgenOptions opts;
    opts.port = fx.port();
    opts.clients = static_cast<size_t>(state.range(0));
    opts.totalRequests = 128;
    {
        const auto warm = runLoadgen(opts); // prime the caches
        if (!warm.ok())
            std::abort();
    }
    uint64_t answered = 0;
    for (auto _ : state) {
        const auto stats = runLoadgen(opts);
        if (!stats.ok() || stats->errors != 0)
            std::abort();
        answered += stats->ok;
    }
    state.SetItemsProcessed(static_cast<int64_t>(answered));
}
BENCHMARK(BM_ServeLoadgenThroughput)->Arg(1)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace

/** Custom main: same `--json PATH` convention as bench_kernels. */
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
    benchmark::AddCustomContext(
        "tbstc_isa",
        tbstc::kernels::isaName(tbstc::kernels::activeIsa()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    tbstc::util::shutdownPool();
    return 0;
}
