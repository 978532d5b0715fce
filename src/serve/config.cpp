#include "config.hpp"

#include <cmath>
#include <variant>

#include "jsonv.hpp"
#include "util/flags.hpp"

namespace tbstc::serve {

namespace {

/** "'<name>' must be ..." — built by append, not operator+ chains
 *  (g++ 12's -Wrestrict false-fires on the temporary chain). */
std::string
fieldError(std::string_view name, std::string_view what)
{
    std::string msg("'");
    msg += name;
    msg += "' must be ";
    msg += what;
    return msg;
}

/** Read an optional non-negative integer field into @p out. */
util::Result<bool, std::string>
readLimit(const JsonValue &v, std::string_view name, uint64_t &out)
{
    if (!v.has(name))
        return false;
    const JsonValue &f = v.get(name);
    const double d = f.asNumber(-1.0);
    if (f.type() != JsonValue::Type::Number || d < 0.0
        || d != std::floor(d) || d > 9.007199254740992e15)
        return util::unexpected(
            fieldError(name, "a non-negative integer"));
    out = static_cast<uint64_t>(d);
    return true;
}

/** Read an optional non-negative number field into @p out. */
util::Result<bool, std::string>
readLimit(const JsonValue &v, std::string_view name, double &out)
{
    if (!v.has(name))
        return false;
    const JsonValue &f = v.get(name);
    const double d = f.asNumber(-1.0);
    if (f.type() != JsonValue::Type::Number || !(d >= 0.0))
        return util::unexpected(
            fieldError(name, "a non-negative number"));
    out = d;
    return true;
}

std::string limitText(uint64_t v) { return std::to_string(v); }
std::string limitText(double v) { return jsonNumber(v); }

/** One limit: its CLI flag, its JSON key, and the field it sets. */
struct LimitField
{
    const char *flag;
    const char *key;
    std::variant<uint64_t ServeLimits::*, double ServeLimits::*> member;
    const char *metavar;
    const char *help;
};

/** Every limit, in flag-help, JSON-parse and JSON-render order. */
const LimitField kLimitFields[] = {
    {"queue", "queue_capacity", &ServeLimits::queueCapacity, "N",
     "request-queue capacity = back-pressure threshold; overflow "
     "answers busy + retry_after_ms"},
    {"retry-after-ms", "retry_after_ms", &ServeLimits::retryAfterMs,
     "MS", "base retry hint on busy rejections; grows with sustained "
           "overload"},
    {"idle-timeout-ms", "idle_timeout_ms", &ServeLimits::idleTimeoutMs,
     "MS", "reap a connection idle this long; 0 = never"},
    {"read-timeout-ms", "read_timeout_ms", &ServeLimits::readTimeoutMs,
     "MS", "a started frame must complete within this window; "
           "0 = no limit"},
    {"write-timeout-ms", "write_timeout_ms",
     &ServeLimits::writeTimeoutMs, "MS",
     "a response write must complete within this window; "
     "0 = no limit"},
    {"max-conns", "max_connections", &ServeLimits::maxConnections, "N",
     "live-connection cap; beyond it accepts are shed with an "
     "'overloaded' error; 0 = off"},
    {"rate", "rate_per_sec", &ServeLimits::ratePerSec, "R",
     "per-connection token-bucket rate in req/s; 0 = off"},
    {"burst", "rate_burst", &ServeLimits::rateBurst, "N",
     "token-bucket burst size"},
    {"max-inflight", "max_inflight", &ServeLimits::maxInflight, "N",
     "per-connection cap on queued-but-unanswered requests; 0 = off"},
};

} // namespace

ServeLimits
normalizeLimits(ServeLimits l)
{
    if (l.queueCapacity == 0)
        l.queueCapacity = 1;
    if (l.ratePerSec > 0.0 && l.rateBurst < 1.0)
        l.rateBurst = 1.0;
    return l;
}

util::Result<ServeLimits, std::string>
parseLimits(std::string_view json, const ServeLimits &base)
{
    const auto doc = parseJson(json);
    if (!doc)
        return util::unexpected(
            "invalid JSON at byte " + std::to_string(doc.error().offset)
            + ": " + doc.error().message);
    if (!doc->isObject())
        return util::unexpected(
            std::string("limits must be a JSON object"));

    ServeLimits l = base;
    for (const LimitField &f : kLimitFields) {
        const auto read = std::visit(
            [&](auto member) { return readLimit(*doc, f.key, l.*member); },
            f.member);
        if (!read)
            return util::unexpected(read.error());
    }
    return normalizeLimits(l);
}

std::string
limitsJson(const ServeLimits &l)
{
    std::string out = "{";
    for (const LimitField &f : kLimitFields) {
        if (out.size() > 1)
            out += ", ";
        out += '"';
        out += f.key;
        out += "\": ";
        out += std::visit(
            [&](auto member) { return limitText(l.*member); }, f.member);
    }
    out += "}";
    return out;
}

void
declareLimitFlags(util::FlagSet &flags, ServeLimits &limits)
{
    for (const LimitField &f : kLimitFields)
        std::visit(
            [&](auto member) {
                flags.option(f.flag, &(limits.*member), f.metavar,
                             f.help);
            },
            f.member);
}

} // namespace tbstc::serve
