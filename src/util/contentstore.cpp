#include "contentstore.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace tbstc::util {

namespace {

// Blob header layout (little-endian u32/u64 fields, in order):
//   magic   "TBSC"           guards against foreign files
//   version                  layout revision; bump on any change
//   kind    hash of the kind string   the producing cache layer
//   key     content digest   what the payload was computed from
//   size    payload bytes
//   crc     CRC32(payload)
constexpr uint32_t kMagic = 0x43534254; // "TBSC" little-endian.
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

uint64_t
kindHash(std::string_view kind)
{
    return Hasher{}.str(kind).digest();
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

std::optional<std::vector<uint8_t>>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return std::nullopt;
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

bool
writeFileAtomic(const std::string &path, std::span<const uint8_t> bytes)
{
    // Temp name is unique per process and per writer so concurrent
    // writers of the same blob never interleave; rename() makes
    // publication atomic (same filesystem, same directory).
    static std::atomic<uint64_t> seq{0};
    const std::string tmp = path + ".tmp."
        + std::to_string(static_cast<unsigned long long>(::getpid()))
        + "." + std::to_string(seq.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

ContentStore &
ContentStore::instance()
{
    static ContentStore *store = [] {
        auto *s = new ContentStore();
        if (const char *env = std::getenv("TBSTC_PROFILE_CACHE")) {
            if (std::strcmp(env, "0") == 0)
                s->setEnabled(false);
            else if (env[0] != '\0')
                s->setDiskDir(env);
        }
        return s;
    }();
    return *store;
}

void
ContentStore::setEnabled(bool on)
{
    const std::lock_guard lk(m_);
    enabled_ = on;
}

bool
ContentStore::enabled() const
{
    const std::lock_guard lk(m_);
    return enabled_;
}

void
ContentStore::setDiskDir(std::string dir)
{
    const std::lock_guard lk(m_);
    diskDir_ = std::move(dir);
}

std::string
ContentStore::diskDir() const
{
    const std::lock_guard lk(m_);
    return diskDir_;
}

std::string
ContentStore::blobPath(std::string_view kind, uint64_t key) const
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(key));
    std::string dir = diskDir();
    return dir + "/" + std::string(kind) + "-" + hex + ".blob";
}

std::vector<uint8_t>
ContentStore::makeBlob(std::string_view kind, uint64_t key,
                       std::span<const uint8_t> payload)
{
    std::vector<uint8_t> out;
    out.reserve(kHeaderBytes + payload.size());
    putU32(out, kMagic);
    putU32(out, kVersion);
    putU64(out, kindHash(kind));
    putU64(out, key);
    putU64(out, payload.size());
    putU32(out, crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::optional<std::vector<uint8_t>>
ContentStore::parseBlob(std::span<const uint8_t> blob,
                        std::string_view kind, uint64_t key)
{
    if (blob.size() < kHeaderBytes)
        return std::nullopt;
    const uint8_t *p = blob.data();
    if (readU32(p) != kMagic || readU32(p + 4) != kVersion)
        return std::nullopt;
    if (readU64(p + 8) != kindHash(kind) || readU64(p + 16) != key)
        return std::nullopt;
    const uint64_t size = readU64(p + 24);
    if (size != blob.size() - kHeaderBytes)
        return std::nullopt;
    const uint32_t crc = readU32(p + 32);
    std::span<const uint8_t> payload = blob.subspan(kHeaderBytes);
    if (crc32(payload) != crc)
        return std::nullopt;
    return std::vector<uint8_t>(payload.begin(), payload.end());
}

std::optional<std::vector<uint8_t>>
ContentStore::get(std::string_view kind, uint64_t key)
{
    const MapKey mk{kindHash(kind), key};
    std::string disk;
    {
        const std::lock_guard lk(m_);
        if (!enabled_)
            return std::nullopt;
        const auto hit = mem_.find(mk);
        if (hit != mem_.end()) {
            ++stats_.memoryHits;
            return hit->second;
        }
        disk = diskDir_;
    }
    if (!disk.empty()) {
        const std::string path = blobPath(kind, key);
        if (const auto blob = readFile(path)) {
            if (auto payload = parseBlob(*blob, kind, key)) {
                const std::lock_guard lk(m_);
                ++stats_.diskHits;
                mem_.emplace(mk, *payload);
                return payload;
            }
            {
                const std::lock_guard lk(m_);
                ++stats_.diskRejects;
            }
            warn("rejecting corrupt cache blob '{}'", path);
        }
    }
    const std::lock_guard lk(m_);
    ++stats_.misses;
    return std::nullopt;
}

void
ContentStore::put(std::string_view kind, uint64_t key,
                  std::span<const uint8_t> payload)
{
    const MapKey mk{kindHash(kind), key};
    std::string disk;
    {
        const std::lock_guard lk(m_);
        if (!enabled_)
            return;
        ++stats_.puts;
        mem_[mk].assign(payload.begin(), payload.end());
        disk = diskDir_;
    }
    if (!disk.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(disk, ec);
        const std::vector<uint8_t> blob = makeBlob(kind, key, payload);
        if (!writeFileAtomic(blobPath(kind, key), blob))
            warn("cannot write cache blob '{}'", blobPath(kind, key));
    }
}

std::pair<std::vector<uint8_t>, CacheOutcome>
ContentStore::getOrCompute(
    std::string_view kind, uint64_t key,
    const std::function<std::vector<uint8_t>()> &compute)
{
    const MapKey mk{kindHash(kind), key};
    std::string disk;
    {
        std::unique_lock lk(m_);
        if (!enabled_) {
            lk.unlock();
            return {compute(), CacheOutcome::Disabled};
        }
        for (;;) {
            const auto hit = mem_.find(mk);
            if (hit != mem_.end()) {
                ++stats_.memoryHits;
                return {hit->second, CacheOutcome::MemoryHit};
            }
            if (!pending_.contains(mk))
                break;
            // Another thread is producing this key; share its result
            // instead of recomputing (and re-recording metrics).
            cv_.wait(lk);
        }
        pending_.insert(mk);
        disk = diskDir_;
    }

    std::optional<std::vector<uint8_t>> payload;
    CacheOutcome outcome = CacheOutcome::Computed;
    if (!disk.empty()) {
        const std::string path = blobPath(kind, key);
        if (const auto blob = readFile(path)) {
            if ((payload = parseBlob(*blob, kind, key))) {
                outcome = CacheOutcome::DiskHit;
            } else {
                {
                    const std::lock_guard lk(m_);
                    ++stats_.diskRejects;
                }
                warn("rejecting corrupt cache blob '{}'", path);
            }
        }
    }
    if (!payload) {
        try {
            payload = compute();
        } catch (...) {
            // Unblock waiters before propagating; they will retry and
            // one of them becomes the new producer.
            {
                const std::lock_guard lk(m_);
                pending_.erase(mk);
            }
            cv_.notify_all();
            throw;
        }
    }

    {
        const std::lock_guard lk(m_);
        pending_.erase(mk);
        if (outcome == CacheOutcome::DiskHit) {
            ++stats_.diskHits;
        } else {
            ++stats_.misses;
            ++stats_.puts;
        }
        mem_[mk] = *payload;
    }
    cv_.notify_all();

    if (outcome == CacheOutcome::Computed && !disk.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(disk, ec);
        const std::vector<uint8_t> blob = makeBlob(kind, key, *payload);
        if (!writeFileAtomic(blobPath(kind, key), blob))
            warn("cannot write cache blob '{}'", blobPath(kind, key));
    }
    return {std::move(*payload), outcome};
}

void
ContentStore::clearMemory()
{
    const std::lock_guard lk(m_);
    mem_.clear();
}

ContentStore::Stats
ContentStore::stats() const
{
    const std::lock_guard lk(m_);
    return stats_;
}

CacheCounters::CacheCounters(std::string_view kind)
{
    const std::string prefix = "cache." + std::string(kind) + ".";
    hits_ = obs::counter(prefix + "hits", obs::Domain::Host);
    diskHits_ = obs::counter(prefix + "disk_hits", obs::Domain::Host);
    misses_ = obs::counter(prefix + "misses", obs::Domain::Host);
}

void
CacheCounters::count(CacheOutcome outcome) const
{
    switch (outcome) {
      case CacheOutcome::MemoryHit: hits_.add(); break;
      case CacheOutcome::DiskHit:   diskHits_.add(); break;
      case CacheOutcome::Computed:  misses_.add(); break;
      case CacheOutcome::Disabled:  break;
    }
}

} // namespace tbstc::util
