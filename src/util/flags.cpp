#include "flags.hpp"

#include <algorithm>
#include <cstdlib>

#include "fmt.hpp"
#include "logging.hpp"

namespace tbstc::util {

namespace {

Unexpected<FlagError>
flagError(FlagErrorKind kind, std::string flag, std::string message)
{
    return unexpected(
        FlagError{kind, std::move(flag), std::move(message)});
}

/** strtod over the whole token into @p out; false on junk. */
bool
parseDouble(const std::string &value, double &out)
{
    char *end = nullptr;
    out = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0';
}

} // namespace

const char *
flagErrorName(FlagErrorKind kind)
{
    switch (kind) {
      case FlagErrorKind::UnknownFlag:          return "UnknownFlag";
      case FlagErrorKind::MissingValue:         return "MissingValue";
      case FlagErrorKind::BadValue:             return "BadValue";
      case FlagErrorKind::MissingRequired:      return "MissingRequired";
      case FlagErrorKind::UnexpectedPositional:
        return "UnexpectedPositional";
      case FlagErrorKind::MissingPositional:
        return "MissingPositional";
    }
    panic("unknown FlagErrorKind");
}

FlagSet::FlagSet(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary))
{
}

FlagSet::Spec *
FlagSet::find(const std::string &name)
{
    for (auto &spec : specs_)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

FlagSet &
FlagSet::add(Spec spec)
{
    if (find(spec.name) != nullptr)
        panic("duplicate flag --{}", spec.name);
    specs_.push_back(std::move(spec));
    return *this;
}

FlagSet &
FlagSet::flag(const std::string &name, bool *out,
              const std::string &help)
{
    return add({.name = name, .help = help, .takesValue = false,
                .assign = [out](const std::string &) {
                    return *out = true;
                }});
}

FlagSet &
FlagSet::option(const std::string &name, std::string *out,
                const std::string &metavar, const std::string &help,
                bool required)
{
    return add({.name = name, .metavar = metavar, .help = help,
                .defaultText = *out, .required = required,
                .assign = [out](const std::string &value) {
                    *out = value;
                    return true;
                }});
}

FlagSet &
FlagSet::option(const std::string &name, double *out,
                const std::string &metavar, const std::string &help,
                bool required)
{
    return add({.name = name, .metavar = metavar, .help = help,
                .defaultText = formatStr("{}", *out),
                .expects = "a number", .required = required,
                .assign = [out](const std::string &value) {
                    return parseDouble(value, *out);
                }});
}

FlagSet &
FlagSet::option(const std::string &name, std::optional<double> *out,
                const std::string &metavar, const std::string &help)
{
    return add({.name = name, .metavar = metavar, .help = help,
                .defaultText = *out ? formatStr("{}", **out) : "",
                .expects = "a number",
                .assign = [out](const std::string &value) {
                    return parseDouble(value, out->emplace());
                }});
}

FlagSet &
FlagSet::addUnsigned(const std::string &name, const std::string &metavar,
                     const std::string &help, bool required,
                     uint64_t initial, uint64_t max,
                     std::function<void(uint64_t)> store)
{
    const bool full = max == std::numeric_limits<uint64_t>::max();
    return add({.name = name, .metavar = metavar, .help = help,
                .defaultText = std::to_string(initial),
                .expects = full ? "a non-negative integer"
                                : formatStr("an integer in [0, {}]", max),
                .required = required,
                .assign = [max, store = std::move(store)](
                              const std::string &value) {
                    char *end = nullptr;
                    const unsigned long long v =
                        std::strtoull(value.c_str(), &end, 10);
                    if (end == value.c_str() || *end != '\0'
                        || value.front() == '-' || v > max)
                        return false;
                    store(v);
                    return true;
                }});
}

FlagSet &
FlagSet::positional(const std::string &name, std::string *out,
                    const std::string &help, bool required)
{
    positionals_.push_back({name, help, required, false, out});
    return *this;
}

Result<bool, FlagError>
FlagSet::parse(int argc, char **argv, int first)
{
    // A FlagSet may be parsed more than once; start from a clean slate.
    helpRequested_ = false;
    for (auto &spec : specs_)
        spec.seen = false;
    for (auto &pos : positionals_)
        pos.seen = false;

    size_t next_positional = 0;
    for (int i = first; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (token.rfind("--", 0) != 0) {
            if (next_positional >= positionals_.size())
                return flagError(
                    FlagErrorKind::UnexpectedPositional, token,
                    formatStr("unexpected argument '{}'", token));
            auto &pos = positionals_[next_positional++];
            *pos.out = token;
            pos.seen = true;
            continue;
        }

        const std::string name = token.substr(2);
        Spec *spec = find(name);
        if (spec == nullptr)
            return flagError(FlagErrorKind::UnknownFlag, name,
                             formatStr("unknown option --{}", name));
        spec->seen = true;
        if (!spec->takesValue) {
            spec->assign("");
            continue;
        }
        if (i + 1 >= argc)
            return flagError(
                FlagErrorKind::MissingValue, name,
                formatStr("option --{} expects a {} value", name,
                          spec->metavar));
        const std::string value = argv[++i];
        if (!spec->assign(value))
            return flagError(FlagErrorKind::BadValue, name,
                             formatStr("--{} expects {}, got '{}'", name,
                                       spec->expects, value));
    }

    for (const auto &spec : specs_)
        if (spec.required && !spec.seen)
            return flagError(
                FlagErrorKind::MissingRequired, spec.name,
                formatStr("missing required option --{}", spec.name));
    for (const auto &pos : positionals_)
        if (pos.required && !pos.seen)
            return flagError(
                FlagErrorKind::MissingPositional, pos.name,
                formatStr("missing required argument {}", pos.name));
    return true;
}

bool
FlagSet::seen(const std::string &name) const
{
    for (const auto &spec : specs_)
        if (spec.name == name)
            return spec.seen;
    for (const auto &pos : positionals_)
        if (pos.name == name)
            return pos.seen;
    return false;
}

std::string
FlagSet::help() const
{
    std::string usage = "usage: tbstc " + command_;
    for (const auto &pos : positionals_)
        usage += pos.required ? " " + pos.name : " [" + pos.name + "]";
    if (!specs_.empty())
        usage += " [options]";

    // Left column: "--name METAVAR", padded to the widest entry.
    std::vector<std::string> left;
    size_t width = 0;
    for (const auto &pos : positionals_) {
        left.push_back(pos.name);
        width = std::max(width, left.back().size());
    }
    for (const auto &spec : specs_) {
        std::string entry = "--" + spec.name;
        if (!spec.metavar.empty())
            entry += " " + spec.metavar;
        width = std::max(width, entry.size());
        left.push_back(std::move(entry));
    }

    std::string out = usage + "\n";
    if (!summary_.empty())
        out += "\n" + summary_ + "\n";
    if (!left.empty())
        out += "\noptions:\n";
    size_t i = 0;
    for (const auto &pos : positionals_) {
        out += "  " + left[i] + std::string(width - left[i].size(), ' ')
            + "  " + pos.help + "\n";
        ++i;
    }
    for (const auto &spec : specs_) {
        out += "  " + left[i] + std::string(width - left[i].size(), ' ')
            + "  " + spec.help
            + (spec.required ? " (required)" : "")
            + (spec.required || spec.defaultText.empty()
                   ? ""
                   : " (default " + spec.defaultText + ")")
            + "\n";
        ++i;
    }
    return out;
}

} // namespace tbstc::util
