#include "fingerprint.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace specbench
{

std::uint64_t
keyHash(const std::string &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
fingerprint(const specsec::attacks::AttackResult &result,
            const specsec::uarch::CpuStats &stats)
{
    std::string out = result.leaked ? "L" : "B";
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.17g ", result.accuracy);
    out += buf;
    for (std::size_t i = 0; i < result.recovered.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(result.recovered[i]);
    }
    if (result.recovered.empty())
        out += '-';
    const std::uint64_t counters[] = {
        result.guestCycles,      result.transientForwards,
        stats.cycles,            stats.committed,
        stats.squashed,          stats.branchMispredicts,
        stats.exceptions,        stats.memOrderViolations,
        stats.speculativeFills,  stats.transientForwards,
    };
    for (const std::uint64_t c : counters) {
        out += ' ';
        out += std::to_string(c);
    }
    return out;
}

bool
FingerprintSet::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    prints_.clear();
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        std::uint64_t hash = 0;
        if (tab != 16 ||
            std::sscanf(line.c_str(), "%16" SCNx64, &hash) != 1) {
            *error = path + ":" + std::to_string(lineNo) +
                     ": malformed fingerprint line";
            return false;
        }
        if (!prints_.emplace(hash, line.substr(tab + 1)).second) {
            *error = path + ":" + std::to_string(lineNo) +
                     ": duplicate key hash";
            return false;
        }
    }
    return true;
}

bool
FingerprintSet::add(const std::string &key, const std::string &print)
{
    const std::uint64_t hash = keyHash(key);
    const auto [it, inserted] = keys_.emplace(hash, key);
    if (!inserted && it->second != key)
        return false;
    prints_[hash] = print;
    return true;
}

bool
FingerprintSet::save(const std::string &path) const
{
    std::vector<std::pair<std::uint64_t, std::string>> rows(
        prints_.begin(), prints_.end());
    std::sort(rows.begin(), rows.end());
    std::ofstream out(path);
    out << "# specbench cell fingerprints: FNV-1a-64(scenarioKey) "
           "<TAB> leak accuracy recovered guestCycles "
           "transientForwards cycles committed squashed "
           "branchMispredicts exceptions memOrderViolations "
           "speculativeFills statsTransientForwards\n";
    char hash[24];
    for (const auto &[h, print] : rows) {
        std::snprintf(hash, sizeof hash, "%016" PRIx64, h);
        out << hash << '\t' << print << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

std::string
FingerprintSet::check(const std::string &key,
                      const specsec::attacks::AttackResult &result,
                      const specsec::uarch::CpuStats &stats) const
{
    const auto it = prints_.find(keyHash(key));
    if (it == prints_.end())
        return "no recorded fingerprint for key " + key;
    const std::string actual = fingerprint(result, stats);
    if (actual == it->second)
        return {};
    return "fingerprint mismatch for key " + key + ": recorded '" +
           it->second + "', got '" + actual + "'";
}

} // namespace specbench
