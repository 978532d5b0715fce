/**
 * @file
 * Hot-reloadable operational limits of the serve daemon.
 *
 * ServeLimits gathers every knob that bounds what a client — or a
 * population of clients — can do to the daemon: connection caps,
 * per-connection I/O deadlines, per-client token-bucket rates and
 * in-flight caps, and the queue's back-pressure threshold. The struct
 * is deliberately plain data: the server snapshots it into an
 * immutable shared_ptr per accepted connection, so a SIGHUP reload
 * (`Server::reloadLimits`) changes what *new* accepts see while
 * connections already in flight finish under the limits they were
 * admitted with.
 *
 * The JSON form (parseLimits/limitsJson) is both the `--config` file
 * format and the "limits" section of a stats response, so an operator
 * can always read back exactly what a live daemon is enforcing. One
 * field table in config.cpp names every limit's flag and JSON key and
 * drives parseLimits, limitsJson and declareLimitFlags alike.
 */

#ifndef TBSTC_SERVE_CONFIG_HPP
#define TBSTC_SERVE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "protocol.hpp"
#include "util/result.hpp"

namespace tbstc::util {
class FlagSet;
} // namespace tbstc::util

namespace tbstc::serve {

/**
 * Every hot-reloadable limit, with serving-sane defaults. A value of 0
 * disables the corresponding limit (except queueCapacity, which is
 * clamped to at least 1; see normalizeLimits).
 */
struct ServeLimits
{
    /** Queue capacity = back-pressure threshold (full -> busy). */
    uint64_t queueCapacity = 256;

    /** Base retry_after_ms hint; busy hints scale up under pressure. */
    uint64_t retryAfterMs = kDefaultRetryAfterMs;

    /**
     * Reap a connection that has not started a frame for this long
     * (half-open and idle clients). 0 = never.
     */
    uint64_t idleTimeoutMs = 30000;

    /**
     * Once a frame's first byte arrives, the full frame must arrive
     * within this window (defeats slow-loris writers). 0 = no limit.
     */
    uint64_t readTimeoutMs = 10000;

    /**
     * A response write that cannot complete within this window marks
     * the connection dead instead of pinning the writer. 0 = no limit.
     */
    uint64_t writeTimeoutMs = 10000;

    /** Accept-time cap on live connections; beyond it, shed. 0 = off. */
    uint64_t maxConnections = 256;

    /** Per-connection token-bucket refill rate (req/s). 0 = off. */
    double ratePerSec = 0.0;

    /** Token-bucket burst size (clamped to >= 1 when rate is on). */
    double rateBurst = 64.0;

    /** Per-connection cap on queued-but-unanswered requests. 0 = off. */
    uint64_t maxInflight = 0;
};

/**
 * Clamp @p l to what the daemon enforces: queueCapacity >= 1, and
 * rateBurst >= 1 while ratePerSec > 0 (a smaller bucket could never
 * hold the one token a request costs). parseLimits applies it, and so
 * does the server to every limits record it adopts (at construction
 * and in reloadLimits), however the record was built.
 */
ServeLimits normalizeLimits(ServeLimits l);

/**
 * Parse a limits document (the `--config` file / stats "limits"
 * shape): a JSON object whose recognized fields override @p base.
 * Every field is optional; the keys are those of limitsJson. Unknown
 * fields are ignored for forward compatibility; a field of the wrong
 * type or out of range is an error naming the field.
 */
util::Result<ServeLimits, std::string>
parseLimits(std::string_view json, const ServeLimits &base = {});

/** Render @p l as the JSON object parseLimits accepts. */
std::string limitsJson(const ServeLimits &l);

/**
 * Register one flag per limit (`--queue`, `--retry-after-ms`, ...)
 * on @p flags, bound to the fields of @p limits, whose current values
 * are the rendered defaults.
 */
void declareLimitFlags(util::FlagSet &flags, ServeLimits &limits);

} // namespace tbstc::serve

#endif // TBSTC_SERVE_CONFIG_HPP
