/**
 * @file
 * Typed command-line flag registry.
 *
 * Subcommands declare their flags once — name, bound output variable,
 * metavar, help text — and get parsing, validation, and help rendering
 * from the same declaration. Parsing never aborts: it returns
 * Result<..., FlagError> so the caller decides how to report problems
 * (the CLI prints to stderr and exits 2; tests inspect the error).
 *
 * Grammar: `--name value` for typed options, `--name` for boolean
 * switches, bare words for declared positionals. A valued option
 * consumes the next argv token verbatim (values may start with '-').
 */

#ifndef TBSTC_UTIL_FLAGS_HPP
#define TBSTC_UTIL_FLAGS_HPP

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "result.hpp"

namespace tbstc::util {

/** What went wrong while parsing an argv vector. */
enum class FlagErrorKind : uint8_t
{
    UnknownFlag,          ///< `--name` was never registered.
    MissingValue,         ///< Valued flag at the end of argv.
    BadValue,             ///< Value not a number, or out of range.
    MissingRequired,      ///< Required flag absent after parsing.
    UnexpectedPositional, ///< Bare word with no positional slot left.
    MissingPositional,    ///< Declared positional absent.
};

/** Stable identifier for a FlagErrorKind (for logs and tests). */
const char *flagErrorName(FlagErrorKind kind);

/** Structured parse failure: taxonomy entry + offending flag. */
struct FlagError
{
    FlagErrorKind kind = FlagErrorKind::UnknownFlag;
    std::string flag;    ///< Flag or positional name, without "--".
    std::string message; ///< Human-readable description.
};

/**
 * One subcommand's flag registry. Register flags against caller-owned
 * variables (whose initial values double as the defaults), then call
 * parse(). Registration order is the help order, and help() renders
 * each valued option's default — "(default X)" — from the value its
 * variable held at registration, so help text never restates one.
 */
class FlagSet
{
  public:
    /** @p command names the subcommand in usage/help output. */
    explicit FlagSet(std::string command, std::string summary = "");

    /** Boolean switch: present sets *out = true, no value consumed. */
    FlagSet &flag(const std::string &name, bool *out,
                  const std::string &help);

    /** String-valued option; a non-empty initial value is shown. */
    FlagSet &option(const std::string &name, std::string *out,
                    const std::string &metavar, const std::string &help,
                    bool required = false);

    /** Floating-point option (strtod; rejects trailing junk). */
    FlagSet &option(const std::string &name, double *out,
                    const std::string &metavar, const std::string &help,
                    bool required = false);

    /** Floating-point option that stays unset unless given. */
    FlagSet &option(const std::string &name, std::optional<double> *out,
                    const std::string &metavar, const std::string &help);

    /**
     * Unsigned-integer option of any width (strtoull; rejects signs,
     * trailing junk, and values above the type's maximum).
     */
    template <std::unsigned_integral T>
        requires(!std::same_as<T, bool>)
    FlagSet &
    option(const std::string &name, T *out, const std::string &metavar,
           const std::string &help, bool required = false)
    {
        return addUnsigned(name, metavar, help, required,
                           static_cast<uint64_t>(*out),
                           std::numeric_limits<T>::max(),
                           [out](uint64_t v) {
                               *out = static_cast<T>(v);
                           });
    }

    /** Bare-word positional argument, filled in declaration order. */
    FlagSet &positional(const std::string &name, std::string *out,
                        const std::string &help, bool required = true);

    /**
     * Parse argv[first..argc). On success every bound variable holds
     * its parsed or default value; on error the bound variables are in
     * an unspecified partially-written state and only the FlagError
     * should be consulted. `--help` anywhere stops parsing and reports
     * success with helpRequested() set.
     */
    Result<bool, FlagError> parse(int argc, char **argv, int first = 2);

    /** Whether @p name appeared explicitly in the parsed argv. */
    bool seen(const std::string &name) const;

    /** Whether parse() consumed a `--help` token. */
    bool helpRequested() const { return helpRequested_; }

    /** Auto-generated usage + option reference for this subcommand. */
    std::string help() const;

  private:
    struct Spec
    {
        std::string name{};
        std::string metavar{};     ///< Empty for boolean switches.
        std::string help{};
        std::string defaultText{}; ///< Rendered as "(default X)".
        std::string expects{};     ///< "a number", ... for BadValue.
        bool takesValue = true;    ///< False for boolean switches.
        bool required = false;
        bool seen = false;
        /** Store a value token; false when it does not convert. */
        std::function<bool(const std::string &)> assign{};
    };

    struct Positional
    {
        std::string name;
        std::string help;
        bool required = true;
        bool seen = false;
        std::string *out = nullptr;
    };

    Spec *find(const std::string &name);
    FlagSet &add(Spec spec);
    FlagSet &addUnsigned(const std::string &name,
                         const std::string &metavar,
                         const std::string &help, bool required,
                         uint64_t initial, uint64_t max,
                         std::function<void(uint64_t)> store);

    std::string command_;
    std::string summary_;
    std::vector<Spec> specs_;
    std::vector<Positional> positionals_;
    bool helpRequested_ = false;
};

} // namespace tbstc::util

#endif // TBSTC_UTIL_FLAGS_HPP
