#include "config.hpp"

#include <cmath>

#include "jsonv.hpp"

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
u64Limit(const JsonValue &v, std::string_view name, uint64_t &out)
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
numLimit(const JsonValue &v, std::string_view name, double &out)
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
    uint64_t u = 0;
    const JsonValue &v = *doc;

    if (auto r = u64Limit(v, "queue_capacity", u); !r)
        return util::unexpected(r.error());
    else if (*r)
        l.queueCapacity = static_cast<size_t>(u);
    if (auto r = u64Limit(v, "retry_after_ms", l.retryAfterMs); !r)
        return util::unexpected(r.error());
    if (auto r = u64Limit(v, "idle_timeout_ms", l.idleTimeoutMs); !r)
        return util::unexpected(r.error());
    if (auto r = u64Limit(v, "read_timeout_ms", l.readTimeoutMs); !r)
        return util::unexpected(r.error());
    if (auto r = u64Limit(v, "write_timeout_ms", l.writeTimeoutMs); !r)
        return util::unexpected(r.error());
    if (auto r = u64Limit(v, "max_connections", u); !r)
        return util::unexpected(r.error());
    else if (*r)
        l.maxConnections = static_cast<size_t>(u);
    if (auto r = numLimit(v, "rate_per_sec", l.ratePerSec); !r)
        return util::unexpected(r.error());
    if (auto r = numLimit(v, "rate_burst", l.rateBurst); !r)
        return util::unexpected(r.error());
    if (auto r = u64Limit(v, "max_inflight", u); !r)
        return util::unexpected(r.error());
    else if (*r)
        l.maxInflight = static_cast<size_t>(u);

    return normalizeLimits(l);
}

std::string
limitsJson(const ServeLimits &l)
{
    std::string out = "{";
    out += "\"queue_capacity\": " + std::to_string(l.queueCapacity);
    out += ", \"retry_after_ms\": " + std::to_string(l.retryAfterMs);
    out += ", \"idle_timeout_ms\": " + std::to_string(l.idleTimeoutMs);
    out += ", \"read_timeout_ms\": " + std::to_string(l.readTimeoutMs);
    out += ", \"write_timeout_ms\": "
        + std::to_string(l.writeTimeoutMs);
    out += ", \"max_connections\": "
        + std::to_string(l.maxConnections);
    out += ", \"rate_per_sec\": " + jsonNumber(l.ratePerSec);
    out += ", \"rate_burst\": " + jsonNumber(l.rateBurst);
    out += ", \"max_inflight\": " + std::to_string(l.maxInflight);
    out += "}";
    return out;
}

} // namespace tbstc::serve
