/**
 * @file
 * The command-line layer of campaign_cli, specsec_regress,
 * specsec_lint and the bench/example drivers: each decision that
 * means the same in all of them is made here once.  Args reads flag
 * values (the one "<flag> needs a value" exit), parseUnsigned() is
 * the one number grammar (decimal digits only, fitting the target
 * type), and --workers, --backend, --connect and --cache-file are
 * parsed or acted on here.  A usage error prints one line on stderr
 * and exits 2.  Flags only one CLI has stay parsed in that CLI.
 */

#ifndef SPECSEC_TOOL_CLI_HH
#define SPECSEC_TOOL_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace specsec::campaign
{
class ResultCache;
}
namespace specsec::serve
{
class Client;
}
namespace specsec::verdict
{
enum class VerdictBackend : std::uint8_t;
}

namespace specsec::tool::cli
{

/** Print @p message on stderr and exit 2. */
[[noreturn]] void fail(const std::string &message);

/** Decimal digits only, at most @p max; false leaves @p out as is. */
bool parseUnsigned(const std::string &text, std::uint64_t max,
                   std::uint64_t &out);

/** parseUnsigned() bounded by the range of @p out's type. */
template <typename T>
bool
parseUnsigned(const std::string &text, T &out)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, std::numeric_limits<T>::max(), v))
        return false;
    out = static_cast<T>(v);
    return true;
}

/** "a,,b" -> {"a", "", "b"}. */
std::vector<std::string> splitList(const std::string &text);

/** Upper bound of --workers: a typo must not start a thread bomb. */
inline constexpr unsigned kMaxWorkers = 1024;

/** A cursor over argv for one CLI's flag loop. */
class Args
{
  public:
    Args(int argc, char **argv, int first = 1);

    /** Step to the next argument; false when none is left. */
    bool next();
    const std::string &arg() const { return arg_; }

    /** Consume the current flag's value; fail()s when it is absent. */
    std::string value();

    /** value() as a number in [@p min, max of T]. */
    template <typename T>
    T
    number(T min = 0)
    {
        return static_cast<T>(
            checked(value(), min, std::numeric_limits<T>::max()));
    }

    /** value() as a comma list of number()s. */
    template <typename T>
    std::vector<T>
    numbers(T min = 0)
    {
        std::vector<T> out;
        for (const std::string &item : splitList(value()))
            out.push_back(static_cast<T>(
                checked(item, min, std::numeric_limits<T>::max())));
        return out;
    }

    /** --workers N, at most kMaxWorkers. */
    unsigned workers(unsigned min = 0);

    /** --backend B, with did-you-mean on a typo. */
    verdict::VerdictBackend backend();

  private:
    std::uint64_t checked(const std::string &text, std::uint64_t min,
                          std::uint64_t max);

    int argc_;
    char **argv_;
    int index_;
    std::string arg_;
};

/** --connect: parse @p endpoint and connect; false after one error
 *  line (the caller picks the exit code). */
bool connect(const std::string &endpoint, serve::Client &client);

/** --cache-file: load before a run; no-op for an empty @p path. */
void loadCache(campaign::ResultCache &cache, const std::string &path);

/** --cache-file: save after a run, reporting a lock warning.
 *  @return false only when the save failed. */
bool saveCache(const campaign::ResultCache &cache,
               const std::string &path);

} // namespace specsec::tool::cli

#endif // SPECSEC_TOOL_CLI_HH
