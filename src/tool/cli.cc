#include "tool/cli.hh"

#include <cstdio>
#include <cstdlib>

#include "campaign/campaign.hh"
#include "serve/client.hh"
#include "verdict/verdict.hh"

namespace specsec::tool::cli
{

void
fail(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

bool
parseUnsigned(const std::string &text, std::uint64_t max,
              std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t comma = text.find(','); comma != std::string::npos;
         comma = text.find(',', start)) {
        out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    out.push_back(text.substr(start));
    return out;
}

Args::Args(int argc, char **argv, int first)
    : argc_(argc), argv_(argv), index_(first - 1)
{
}

bool
Args::next()
{
    if (++index_ >= argc_)
        return false;
    arg_ = argv_[index_];
    return true;
}

std::string
Args::value()
{
    if (index_ + 1 >= argc_)
        fail(arg_ + " needs a value");
    return argv_[++index_];
}

std::uint64_t
Args::checked(const std::string &text, std::uint64_t min,
              std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, max, v) || v < min)
        fail(arg_ + ": '" + text + "' is not a decimal number in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]");
    return v;
}

unsigned
Args::workers(unsigned min)
{
    return static_cast<unsigned>(checked(value(), min, kMaxWorkers));
}

verdict::VerdictBackend
Args::backend()
{
    const std::string name = value();
    verdict::VerdictBackend backend{};
    if (!verdict::parseBackend(name, backend))
        fail(verdict::unknownBackendMessage(name));
    return backend;
}

bool
connect(const std::string &endpoint, serve::Client &client)
{
    if (endpoint.empty()) {
        std::fprintf(stderr, "--connect HOST:PORT is required\n");
        return false;
    }
    serve::net::Endpoint parsed;
    std::string error;
    if (!serve::net::parseEndpoint(endpoint, parsed, &error) ||
        !client.connect(parsed, &error)) {
        std::fprintf(stderr, "connect %s: %s\n", endpoint.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

void
loadCache(campaign::ResultCache &cache, const std::string &path)
{
    if (path.empty())
        return;
    std::string error;
    if (cache.loadFromFile(path, campaign::modelFingerprint(), &error))
        std::printf("cache    loaded %zu entries from %s\n",
                    cache.size(), path.c_str());
    else
        std::printf("cache    cold start (%s)\n", error.c_str());
}

bool
saveCache(const campaign::ResultCache &cache, const std::string &path)
{
    if (path.empty())
        return true;
    std::string error, lockWarning;
    const bool saved = cache.saveToFile(
        path, campaign::modelFingerprint(), &error, &lockWarning);
    if (saved)
        std::printf("cache    saved %zu entries to %s\n", cache.size(),
                    path.c_str());
    else
        std::fprintf(stderr, "cache    save failed: %s\n",
                     error.c_str());
    if (!lockWarning.empty())
        std::fprintf(stderr, "cache    save degraded: %s\n",
                     lockWarning.c_str());
    return saved;
}

} // namespace specsec::tool::cli
