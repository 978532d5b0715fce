#include "protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/mask_search.hpp"
#include "format/serialize.hpp"

namespace tbstc::serve {

namespace {

/** Read a non-negative integer field; nullopt on absence/mismatch. */
std::optional<uint64_t>
u64Field(const JsonValue &obj, std::string_view name)
{
    const JsonValue &v = obj.get(name);
    if (v.type() != JsonValue::Type::Number)
        return std::nullopt;
    const double d = v.asNumber();
    if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
        return std::nullopt;
    return static_cast<uint64_t>(d);
}

} // namespace

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::BadRequest: return "bad_request";
      case ErrorKind::Busy: return "busy";
      case ErrorKind::ShuttingDown: return "shutting_down";
      case ErrorKind::Internal: return "internal";
      case ErrorKind::RateLimited: return "rate_limited";
      case ErrorKind::DeadlineExceeded: return "deadline_exceeded";
      case ErrorKind::Overloaded: return "overloaded";
    }
    return "internal";
}

util::Result<Request, RequestError>
parseRequest(std::string_view json)
{
    const auto doc = parseJson(json);
    if (!doc)
        return util::unexpected(RequestError{
            0, "invalid JSON at byte "
                   + std::to_string(doc.error().offset) + ": "
                   + doc.error().message});
    const JsonValue &v = *doc;
    if (!v.isObject())
        return util::unexpected(
            RequestError{0, "request must be a JSON object"});

    Request req;
    if (const auto id = u64Field(v, "id"))
        req.id = *id;
    else if (v.has("id"))
        return util::unexpected(
            RequestError{0, "'id' must be a non-negative integer"});
    if (const auto dl = u64Field(v, "deadline_ms"))
        req.deadlineMs = *dl;
    else if (v.has("deadline_ms"))
        return util::unexpected(RequestError{
            req.id, "'deadline_ms' must be a non-negative integer"});

    const auto fail = [&req](std::string message) {
        return util::unexpected(RequestError{req.id,
                                             std::move(message)});
    };

    const std::string &op = v.get("op").asString();
    if (op == "ping") {
        req.op = Op::Ping;
        return req;
    }
    if (op == "stats") {
        req.op = Op::Stats;
        return req;
    }
    if (op == "run") {
        req.op = Op::Run;
        RunSpec &r = req.run;
        const std::string &accel = v.get("accel").asString();
        const auto kind = tryParseAccel(accel);
        if (!kind)
            return fail("unknown accelerator '" + accel
                                    + "'");
        r.kind = *kind;
        r.model = v.get("model").asString();
        r.layer = v.get("layer").asString();
        if (r.model.empty() && r.layer.empty())
            return fail("need 'model' or 'layer'");
        if (!r.model.empty() && !tryParseModel(r.model))
            return fail("unknown model '" + r.model + "'");
        if (!r.layer.empty() && !tryParseLayer(r.layer, "cli.layer"))
            return fail("layer spec must be XxYxNB, got '"
                                    + r.layer + "'");
        r.sparsity = v.get("sparsity").asNumber(r.sparsity);
        if (!(r.sparsity >= 0.0 && r.sparsity < 1.0))
            return fail("'sparsity' must be in [0, 1)");
        if (const auto seq = u64Field(v, "seq"))
            r.seq = *seq;
        if (const auto seed = u64Field(v, "seed"))
            r.seed = *seed;
        r.int8Weights = v.get("int8").asBool(false);
        r.full = v.get("full").asBool(false);
        if (v.has("bw")) {
            const double bw = v.get("bw").asNumber(-1.0);
            if (bw <= 0.0)
                return fail("'bw' must be positive");
            r.bw = bw;
        }
        if (v.has("strategy")) {
            r.strategy = v.get("strategy").asString();
            if (!core::isMaskStrategy(r.strategy))
                return fail("unknown mask strategy '" + r.strategy
                            + "'");
        }
        return req;
    }
    if (op == "sparsify") {
        req.op = Op::Sparsify;
        SparsifySpec &s = req.sparsify;
        if (v.has("layer"))
            s.layer = v.get("layer").asString();
        if (s.layer.empty() || !tryParseLayer(s.layer, "cli.formats"))
            return fail("layer spec must be XxYxNB, got '"
                                    + s.layer + "'");
        s.sparsity = v.get("sparsity").asNumber(s.sparsity);
        if (!(s.sparsity >= 0.0 && s.sparsity < 1.0))
            return fail("'sparsity' must be in [0, 1)");
        if (const auto seed = u64Field(v, "seed"))
            s.seed = *seed;
        if (const auto m = u64Field(v, "m"))
            s.m = *m;
        // The answer is a DDC2 stream, which holds m <= 16.
        if (s.m == 0 || s.m > format::kDdcMaxBlockSize)
            return fail("'m' must be in [1, "
                        + std::to_string(format::kDdcMaxBlockSize) + "]");
        if (v.has("strategy")) {
            s.strategy = v.get("strategy").asString();
            if (!core::isMaskStrategy(s.strategy))
                return fail("unknown mask strategy '" + s.strategy
                            + "'");
        }
        return req;
    }
    if (op.empty())
        return fail("missing 'op'");
    return fail("unknown op '" + op + "'");
}

std::string
serializeRequest(const Request &req)
{
    std::string out = "{\"id\": " + std::to_string(req.id);
    if (req.deadlineMs != 0)
        out += ", \"deadline_ms\": " + std::to_string(req.deadlineMs);
    switch (req.op) {
      case Op::Ping:
        out += ", \"op\": \"ping\"";
        break;
      case Op::Stats:
        out += ", \"op\": \"stats\"";
        break;
      case Op::Run: {
        const RunSpec &r = req.run;
        out += ", \"op\": \"run\", \"accel\": "
            + jsonQuote(accelWireName(r.kind));
        if (!r.model.empty())
            out += ", \"model\": " + jsonQuote(r.model);
        if (!r.layer.empty())
            out += ", \"layer\": " + jsonQuote(r.layer);
        out += ", \"sparsity\": " + jsonNumber(r.sparsity);
        out += ", \"seq\": " + std::to_string(r.seq);
        out += ", \"seed\": " + std::to_string(r.seed);
        if (r.int8Weights)
            out += ", \"int8\": true";
        if (r.full)
            out += ", \"full\": true";
        if (r.bw)
            out += ", \"bw\": " + jsonNumber(*r.bw);
        // Emitted only when set: default (greedy) requests keep their
        // historical wire bytes, so batcher dedup signatures and the
        // daemon-vs-one-shot byte-identity gate are unaffected.
        if (!r.strategy.empty())
            out += ", \"strategy\": " + jsonQuote(r.strategy);
        break;
      }
      case Op::Sparsify: {
        const SparsifySpec &s = req.sparsify;
        out += ", \"op\": \"sparsify\", \"layer\": "
            + jsonQuote(s.layer);
        out += ", \"sparsity\": " + jsonNumber(s.sparsity);
        out += ", \"seed\": " + std::to_string(s.seed);
        out += ", \"m\": " + std::to_string(s.m);
        if (!s.strategy.empty())
            out += ", \"strategy\": " + jsonQuote(s.strategy);
        break;
      }
    }
    out += "}";
    return out;
}

std::string
okResponse(uint64_t id, const std::string &resultJson)
{
    return "{\"id\": " + std::to_string(id)
        + ", \"ok\": true, \"result\": " + resultJson + "}";
}

std::string
errorResponse(uint64_t id, ErrorKind kind, const std::string &message,
              uint64_t retryAfterMs)
{
    std::string out = "{\"id\": " + std::to_string(id)
        + ", \"ok\": false, \"kind\": \""
        + errorKindName(kind) + "\", \"error\": " + jsonQuote(message);
    if (kind == ErrorKind::Busy || kind == ErrorKind::RateLimited
        || kind == ErrorKind::Overloaded)
        out += ", \"retry_after_ms\": " + std::to_string(retryAfterMs);
    out += "}";
    return out;
}

std::string
runResultJson(const sim::RunStats &stats, const std::string &label)
{
    return "{\"label\": " + jsonQuote(label)
        + ", \"csv\": " + jsonQuote(formatStats(label, stats, true))
        + ", \"text\": " + jsonQuote(formatStats(label, stats, false))
        + ", \"cycles\": " + jsonNumber(stats.cycles)
        + ", \"seconds\": " + jsonNumber(stats.seconds)
        + ", \"energy_j\": " + jsonNumber(stats.energy.totalJ()) + "}";
}

std::string
sparsifyResultJson(const SparsifyResult &r)
{
    return "{\"rows\": " + std::to_string(r.rows)
        + ", \"cols\": " + std::to_string(r.cols)
        + ", \"nnz\": " + std::to_string(r.nnz)
        + ", \"ddc_bytes\": " + std::to_string(r.ddcBytes)
        + ", \"ddc_crc32\": " + std::to_string(r.ddcCrc32) + "}";
}

FrameStatus
readFrame(int fd, std::string &out, size_t maxBytes)
{
    uint8_t lenBuf[4];
    size_t got = 0;
    while (got < sizeof lenBuf) {
        const ssize_t n =
            ::recv(fd, lenBuf + got, sizeof lenBuf - got, 0);
        if (n == 0)
            return got == 0 ? FrameStatus::Eof : FrameStatus::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Error;
        }
        got += static_cast<size_t>(n);
    }
    const uint32_t len = static_cast<uint32_t>(lenBuf[0])
        | static_cast<uint32_t>(lenBuf[1]) << 8
        | static_cast<uint32_t>(lenBuf[2]) << 16
        | static_cast<uint32_t>(lenBuf[3]) << 24;
    if (len == 0 || len > maxBytes)
        return FrameStatus::TooBig;
    out.resize(len);
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, out.data() + off, len - off, 0);
        if (n == 0)
            return FrameStatus::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Error;
        }
        off += static_cast<size_t>(n);
    }
    return FrameStatus::Ok;
}

bool
writeFrame(int fd, std::string_view payload)
{
    if (payload.empty() || payload.size() > UINT32_MAX)
        return false;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    std::string buf;
    buf.reserve(4 + payload.size());
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>(len >> (8 * i)));
    buf.append(payload);
    size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

namespace {

using Clock = std::chrono::steady_clock;

/** Absolute deadline @p ms from now; max() when @p ms is 0. */
Clock::time_point
deadlineFrom(Clock::time_point now, uint64_t ms)
{
    if (ms == 0)
        return Clock::time_point::max();
    return now + std::chrono::milliseconds(ms);
}

/** Poll @p fd for @p events until @p deadline. True = ready. */
bool
pollUntil(int fd, short events, Clock::time_point deadline)
{
    for (;;) {
        int timeoutMs = -1;
        if (deadline != Clock::time_point::max()) {
            const auto now = Clock::now();
            if (now >= deadline)
                return false;
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
            timeoutMs = static_cast<int>(
                left > 60000 ? 60000 : (left < 1 ? 1 : left));
        }
        pollfd pfd{fd, events, 0};
        const int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return true; // let recv/send surface the real error
        }
        if (rc > 0)
            return true;
        if (deadline == Clock::time_point::max())
            continue;
        if (Clock::now() >= deadline)
            return false;
    }
}

/**
 * Receive exactly @p need bytes into @p dst, honoring @p deadline.
 * Returns Ok, Eof (peer closed with 0 bytes received overall when
 * @p eofAtStart), Error, or Timeout.
 */
FrameStatus
recvExact(int fd, uint8_t *dst, size_t need, bool eofAtStart,
          Clock::time_point &deadline, const FrameTimeouts &t,
          bool &sawFirstByte)
{
    size_t got = 0;
    while (got < need) {
        const ssize_t n =
            ::recv(fd, dst + got, need - got, MSG_DONTWAIT);
        if (n > 0) {
            if (!sawFirstByte) {
                // The frame has begun: switch from the idle deadline
                // to the (usually tighter) frame-completion deadline.
                sawFirstByte = true;
                deadline = deadlineFrom(Clock::now(), t.frameMs);
            }
            got += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return (eofAtStart && got == 0 && !sawFirstByte)
                ? FrameStatus::Eof
                : FrameStatus::Error;
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return FrameStatus::Error;
        if (!pollUntil(fd, POLLIN, deadline))
            return FrameStatus::Timeout;
    }
    return FrameStatus::Ok;
}

} // namespace

FrameStatus
readFrameDeadline(int fd, std::string &out, size_t maxBytes,
                  const FrameTimeouts &t)
{
    bool sawFirstByte = false;
    auto deadline = deadlineFrom(Clock::now(), t.idleMs);

    uint8_t lenBuf[4];
    const FrameStatus hdr = recvExact(fd, lenBuf, sizeof lenBuf, true,
                                      deadline, t, sawFirstByte);
    if (hdr != FrameStatus::Ok)
        return hdr;
    const uint32_t len = static_cast<uint32_t>(lenBuf[0])
        | static_cast<uint32_t>(lenBuf[1]) << 8
        | static_cast<uint32_t>(lenBuf[2]) << 16
        | static_cast<uint32_t>(lenBuf[3]) << 24;
    if (len == 0 || len > maxBytes)
        return FrameStatus::TooBig;
    out.resize(len);
    return recvExact(fd, reinterpret_cast<uint8_t *>(out.data()), len,
                     false, deadline, t, sawFirstByte);
}

bool
writeFrameDeadline(int fd, std::string_view payload, uint64_t timeoutMs)
{
    if (payload.empty() || payload.size() > UINT32_MAX)
        return false;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    std::string buf;
    buf.reserve(4 + payload.size());
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>(len >> (8 * i)));
    buf.append(payload);

    const auto deadline = deadlineFrom(Clock::now(), timeoutMs);
    size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::send(fd, buf.data() + off, buf.size() - off,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            return false;
        if (!pollUntil(fd, POLLOUT, deadline)) {
            // Distinguishable from a peer error for the caller's
            // accounting (pollUntil(false) always means deadline).
            errno = ETIMEDOUT;
            return false;
        }
    }
    return true;
}

int
connectClient(const std::string &socketPath, uint16_t port,
              std::string &err)
{
    int fd = -1;
    if (!socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socketPath.size() >= sizeof addr.sun_path) {
            err = "socket path too long: " + socketPath;
            return -1;
        }
        std::strncpy(addr.sun_path, socketPath.c_str(),
                     sizeof addr.sun_path - 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0
            && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr)
                != 0) {
            ::close(fd);
            fd = -1;
        }
    } else {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0
            && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr)
                != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    if (fd < 0)
        err = std::string("connect: ") + std::strerror(errno);
    return fd;
}

} // namespace tbstc::serve
