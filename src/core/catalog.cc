#include "catalog.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <unordered_set>

namespace specsec::core
{

const char *
attackClassName(AttackClass klass)
{
    switch (klass) {
      case AttackClass::SpectreType: return "spectre-type";
      case AttackClass::MeltdownType: return "meltdown-type";
    }
    return "unknown";
}

const char *
modelVerdictName(ModelVerdict verdict)
{
    switch (verdict) {
      case ModelVerdict::Leak: return "leak";
      case ModelVerdict::Blocked: return "blocked";
      case ModelVerdict::Inapplicable: return "inapplicable";
      case ModelVerdict::Undecided: return "undecided";
    }
    return "unknown";
}

void
MitigationToggles::applyTo(attacks::AttackOptions &options) const
{
    options.kpti |= kpti;
    options.rsbStuffing |= rsbStuffing;
    options.softwareLfence |= softwareLfence;
    options.addressMasking |= addressMasking;
    options.flushL1OnExit |= flushL1OnExit;
}

std::string
foldName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

namespace
{

/** Classic Levenshtein distance (names are short; O(nm) is fine). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

/**
 * The distinct folded keys of a descriptor's canonical name plus
 * aliases.  Different spellings often fold onto one key ("LFENCE"
 * and "lfence"); only collisions *across* descriptors are errors.
 */
std::vector<std::string>
foldedKeys(const std::string &name,
           const std::vector<std::string> &aliases)
{
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    const auto add = [&](const std::string &spelling) {
        std::string key = foldName(spelling);
        if (key.empty()) {
            throw std::invalid_argument(
                "catalog: name '" + spelling +
                "' folds to the empty string");
        }
        if (seen.insert(key).second)
            keys.push_back(std::move(key));
    };
    add(name);
    for (const std::string &alias : aliases)
        add(alias);
    return keys;
}

} // anonymous namespace

std::vector<std::string>
suggestNames(const std::vector<std::string> &candidates,
             const std::string &query, std::size_t max)
{
    const std::string folded = foldName(query);
    const std::size_t budget =
        std::max<std::size_t>(2, folded.size() / 3);
    std::vector<std::pair<std::size_t, std::string>> scored;
    for (const std::string &candidate : candidates) {
        const std::size_t d =
            editDistance(folded, foldName(candidate));
        if (d <= budget)
            scored.emplace_back(d, candidate);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::string> out;
    for (const auto &[d, candidate] : scored) {
        if (out.size() >= max)
            break;
        if (std::find(out.begin(), out.end(), candidate) ==
            out.end())
            out.push_back(candidate);
    }
    return out;
}

std::string
unknownNameMessage(const std::string &kind, const std::string &name,
                   const std::vector<std::string> &suggestions)
{
    std::string out = "unknown " + kind + " '" + name + "'";
    if (!suggestions.empty()) {
        out += " (did you mean: ";
        for (std::size_t i = 0; i < suggestions.size(); ++i) {
            if (i)
                out += ", ";
            out += suggestions[i];
        }
        out += "?)";
    }
    return out;
}

ScenarioCatalog &
ScenarioCatalog::instance()
{
    static ScenarioCatalog catalog;
    static std::once_flag once;
    std::call_once(once, [] {
        detail::registerBuiltinAttacks(catalog);
        detail::registerBuiltinDefenses(catalog);
        detail::registerBuiltinMitigations(catalog);
    });
    return catalog;
}

const AttackDescriptor &
ScenarioCatalog::registerAttack(AttackDescriptor descriptor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> keys =
        foldedKeys(descriptor.name, descriptor.aliases);
    for (const std::string &key : keys) {
        if (const auto it = attackByName_.find(key);
            it != attackByName_.end()) {
            throw std::invalid_argument(
                "catalog: attack '" + descriptor.name +
                "' collides with registered attack '" +
                it->second->name + "' on name '" + key + "'");
        }
    }
    if (descriptor.variant) {
        descriptor.id = *descriptor.variant;
    } else {
        if (nextExtensionId_ == 0) // wrapped: 256 - 64 slots used up
            throw std::invalid_argument(
                "catalog: attack extension id space exhausted");
        descriptor.id = static_cast<AttackVariant>(nextExtensionId_++);
    }
    const std::uint8_t slot =
        static_cast<std::uint8_t>(descriptor.id);
    if (attackById_.count(slot)) {
        throw std::invalid_argument(
            "catalog: attack '" + descriptor.name +
            "' reuses an occupied variant slot");
    }

    attacks_.push_back(
        std::make_unique<AttackDescriptor>(std::move(descriptor)));
    const AttackDescriptor *stored = attacks_.back().get();
    for (const std::string &key : keys)
        attackByName_.emplace(key, stored);
    attackById_.emplace(slot, stored);
    return *stored;
}

const AttackDescriptor *
ScenarioCatalog::findAttack(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = attackByName_.find(foldName(name));
    return it == attackByName_.end() ? nullptr : it->second;
}

const AttackDescriptor *
ScenarioCatalog::findAttack(AttackVariant id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        attackById_.find(static_cast<std::uint8_t>(id));
    return it == attackById_.end() ? nullptr : it->second;
}

std::vector<const AttackDescriptor *>
ScenarioCatalog::attacks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const AttackDescriptor *> out;
    out.reserve(attacks_.size());
    for (const auto &d : attacks_)
        out.push_back(d.get());
    return out;
}

std::vector<std::string>
ScenarioCatalog::attackSuggestions(const std::string &name,
                                   std::size_t max) const
{
    std::vector<std::string> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &d : attacks_) {
            candidates.push_back(d->name);
            for (const std::string &alias : d->aliases)
                candidates.push_back(alias);
        }
    }
    return suggestNames(candidates, name, max);
}

const AttackDescriptor *
ScenarioCatalog::lookupAttack(const std::string &name,
                              std::string &error) const
{
    const AttackDescriptor *d = findAttack(name);
    if (d == nullptr)
        error = unknownNameMessage("attack", name,
                                   attackSuggestions(name));
    return d;
}

const DefenseDescriptor &
ScenarioCatalog::registerDefense(DefenseDescriptor descriptor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> keys =
        foldedKeys(descriptor.info.name, descriptor.aliases);
    for (const std::string &key : keys) {
        if (const auto it = defenseByName_.find(key);
            it != defenseByName_.end()) {
            throw std::invalid_argument(
                "catalog: defense '" +
                std::string(descriptor.info.name) +
                "' collides with registered defense '" +
                it->second->info.name + "' on name '" + key + "'");
        }
    }
    if (descriptor.mechanism &&
        defenseByMechanism_.count(
            static_cast<std::uint8_t>(*descriptor.mechanism))) {
        throw std::invalid_argument(
            "catalog: defense '" + std::string(descriptor.info.name) +
            "' reuses an occupied mechanism slot");
    }

    defenses_.push_back(
        std::make_unique<DefenseDescriptor>(std::move(descriptor)));
    const DefenseDescriptor *stored = defenses_.back().get();
    for (const std::string &key : keys)
        defenseByName_.emplace(key, stored);
    if (stored->mechanism)
        defenseByMechanism_.emplace(
            static_cast<std::uint8_t>(*stored->mechanism), stored);
    return *stored;
}

const DefenseDescriptor *
ScenarioCatalog::findDefense(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = defenseByName_.find(foldName(name));
    return it == defenseByName_.end() ? nullptr : it->second;
}

const DefenseDescriptor *
ScenarioCatalog::findDefense(DefenseMechanism mechanism) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = defenseByMechanism_.find(
        static_cast<std::uint8_t>(mechanism));
    return it == defenseByMechanism_.end() ? nullptr : it->second;
}

std::vector<const DefenseDescriptor *>
ScenarioCatalog::defenses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const DefenseDescriptor *> out;
    out.reserve(defenses_.size());
    for (const auto &d : defenses_)
        out.push_back(d.get());
    return out;
}

std::vector<std::string>
ScenarioCatalog::defenseSuggestions(const std::string &name,
                                    std::size_t max) const
{
    std::vector<std::string> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &d : defenses_) {
            candidates.push_back(d->info.name);
            for (const std::string &alias : d->aliases)
                candidates.push_back(alias);
        }
    }
    return suggestNames(candidates, name, max);
}

const MitigationDescriptor &
ScenarioCatalog::registerMitigation(MitigationDescriptor descriptor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> keys =
        foldedKeys(descriptor.name, descriptor.aliases);
    for (const std::string &key : keys) {
        if (const auto it = mitigationByName_.find(key);
            it != mitigationByName_.end()) {
            throw std::invalid_argument(
                "catalog: mitigation '" + descriptor.name +
                "' collides with registered mitigation '" +
                it->second->name + "' on name '" + key + "'");
        }
    }
    mitigations_.push_back(std::make_unique<MitigationDescriptor>(
        std::move(descriptor)));
    const MitigationDescriptor *stored = mitigations_.back().get();
    for (const std::string &key : keys)
        mitigationByName_.emplace(key, stored);
    return *stored;
}

const MitigationDescriptor *
ScenarioCatalog::findMitigation(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = mitigationByName_.find(foldName(name));
    return it == mitigationByName_.end() ? nullptr : it->second;
}

std::vector<const MitigationDescriptor *>
ScenarioCatalog::mitigations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const MitigationDescriptor *> out;
    out.reserve(mitigations_.size());
    for (const auto &d : mitigations_)
        out.push_back(d.get());
    return out;
}

std::vector<std::string>
ScenarioCatalog::mitigationSuggestions(const std::string &name,
                                       std::size_t max) const
{
    std::vector<std::string> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &d : mitigations_) {
            candidates.push_back(d->name);
            for (const std::string &alias : d->aliases)
                candidates.push_back(alias);
        }
    }
    return suggestNames(candidates, name, max);
}

} // namespace specsec::core
