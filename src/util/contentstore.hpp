/**
 * @file
 * Content-addressed blob store backing the profile/simulation caches.
 *
 * A blob is an opaque byte payload filed under (kind, key) where kind
 * names the producing layer ("profile", "sim") and key is a Hasher
 * digest of everything that determines the payload. Lookups hit an
 * in-memory map first (always on unless disabled) and then, when a
 * cache directory is configured, the on-disk store shared across
 * processes.
 *
 * Disk blobs are self-validating: a fixed header (magic, version,
 * kind hash, key, payload size) plus a CRC32 over the payload. Any
 * mismatch — wrong magic, wrong version, key collision, short file,
 * bad CRC — rejects the file and the caller recomputes; a corrupt
 * cache can cost time but never alter results. Writes go through a
 * temp file + atomic rename so concurrent readers only ever observe
 * complete blobs.
 *
 * Thread safety: all methods are safe to call from pool workers. Hit
 * and miss counts are schedule-dependent (two threads can race to the
 * same miss), so observability counters for the store live in the
 * Host metrics domain, never the deterministic one.
 */

#ifndef TBSTC_UTIL_CONTENTSTORE_HPP
#define TBSTC_UTIL_CONTENTSTORE_HPP

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"

namespace tbstc::util {

/** Where a getOrCompute() payload came from. */
enum class CacheOutcome : uint8_t
{
    MemoryHit, ///< Served from the in-memory map (or a coalesced wait).
    DiskHit,   ///< Loaded and validated from the on-disk store.
    Computed,  ///< Freshly computed (and filed for the next caller).
    Disabled,  ///< Store disabled; computed without filing.
};

/** In-memory + optional on-disk content-addressed cache. */
class ContentStore
{
  public:
    /**
     * The process-wide store. First use reads TBSTC_PROFILE_CACHE: a
     * non-empty value configures the disk directory, "0" disables the
     * store entirely (both are overridable via the setters).
     */
    static ContentStore &instance();

    ContentStore() = default;
    ContentStore(const ContentStore &) = delete;
    ContentStore &operator=(const ContentStore &) = delete;

    /** Enable/disable all lookups and insertions (default enabled). */
    void setEnabled(bool on);
    bool enabled() const;

    /**
     * Configure the on-disk directory ("" = memory only). The
     * directory is created on first put if absent.
     */
    void setDiskDir(std::string dir);
    std::string diskDir() const;

    /**
     * Fetch the payload filed under (kind, key), probing memory then
     * disk. A disk hit is promoted into the memory map. Returns
     * nullopt on miss, when disabled, or when the disk blob fails
     * validation (the corrupt file is left in place for inspection;
     * the next put overwrites it).
     */
    std::optional<std::vector<uint8_t>> get(std::string_view kind,
                                            uint64_t key);

    /** File @p payload under (kind, key) in memory and, if set, disk. */
    void put(std::string_view kind, uint64_t key,
             std::span<const uint8_t> payload);

    /**
     * Cached lookup with single-flight semantics: on a miss, exactly
     * one caller runs @p compute while concurrent requests for the
     * same (kind, key) block until the payload lands, then share it.
     * This keeps the multiset of computed work equal to the set of
     * distinct keys — independent of thread count and schedule — which
     * is what lets cached layers preserve the deterministic-metrics
     * contract (interior metric recordings happen exactly once per
     * distinct key, never a racy zero-or-twice).
     */
    std::pair<std::vector<uint8_t>, CacheOutcome>
    getOrCompute(std::string_view kind, uint64_t key,
                 const std::function<std::vector<uint8_t>()> &compute);

    /** Drop every in-memory entry (disk blobs survive). */
    void clearMemory();

    /** Cumulative operation counts (host-domain diagnostics). */
    struct Stats
    {
        uint64_t memoryHits = 0;
        uint64_t diskHits = 0;
        uint64_t misses = 0;
        uint64_t puts = 0;
        uint64_t diskRejects = 0; ///< Blobs failing validation.
    };
    Stats stats() const;

    /** Path a (kind, key) blob lives at under the current disk dir. */
    std::string blobPath(std::string_view kind, uint64_t key) const;

    /**
     * Validate + extract the payload of a raw blob image. Exposed for
     * fault-injection tests; get() uses it on every disk read.
     */
    static std::optional<std::vector<uint8_t>>
    parseBlob(std::span<const uint8_t> blob, std::string_view kind,
              uint64_t key);

    /** Serialize a payload into the on-disk blob image. */
    static std::vector<uint8_t> makeBlob(std::string_view kind,
                                         uint64_t key,
                                         std::span<const uint8_t> payload);

  private:
    struct MapKey
    {
        uint64_t kind = 0;
        uint64_t key = 0;
        bool operator==(const MapKey &) const = default;
    };
    struct MapKeyHash
    {
        size_t
        operator()(const MapKey &k) const
        {
            return static_cast<size_t>(k.kind ^ (k.key * 0x9e3779b97f4a7c15ull));
        }
    };

    mutable std::mutex m_;
    std::condition_variable cv_;
    bool enabled_ = true;
    std::string diskDir_;
    std::unordered_map<MapKey, std::vector<uint8_t>, MapKeyHash> mem_;
    std::unordered_set<MapKey, MapKeyHash> pending_;
    Stats stats_;
};

/**
 * Host-domain counters of one blob kind's getOrCompute() outcomes:
 * `cache.<kind>.hits` (memory), `.disk_hits` and `.misses`. Hit
 * patterns are schedule-dependent, so they never enter the
 * deterministic export. Hold one as a function-local static at the
 * lookup site, registered once metrics are on.
 */
class CacheCounters
{
  public:
    explicit CacheCounters(std::string_view kind);

    /** Count @p outcome; a disabled store's pass-through counts nothing. */
    void count(CacheOutcome outcome) const;

  private:
    obs::Counter hits_;
    obs::Counter diskHits_;
    obs::Counter misses_;
};

/** Little-endian payload writer for cache blobs. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** By bit pattern, so the round trip is exact for any double. */
    void
    f64(double v)
    {
        u64(std::bit_cast<uint64_t>(v));
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Little-endian payload reader. Reads past the end return zero and
 * latch ok() false, so callers validate once at the end instead of
 * checking every field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    uint8_t
    u8()
    {
        return take(1) ? bytes_[pos_++] : 0;
    }

    uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<uint16_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    /** True when every read fit and the payload is fully consumed. */
    bool done() const { return ok_ && pos_ == bytes_.size(); }

    bool ok() const { return ok_; }

  private:
    bool
    take(size_t n)
    {
        if (bytes_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace tbstc::util

#endif // TBSTC_UTIL_CONTENTSTORE_HPP
