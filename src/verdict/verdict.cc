#include "verdict.hh"

#include "core/catalog.hh"

namespace specsec::verdict
{

const char *
backendName(VerdictBackend backend)
{
    switch (backend) {
      case VerdictBackend::Simulator: return "simulator";
      case VerdictBackend::Model: return "model";
      case VerdictBackend::Differential: return "differential";
      case VerdictBackend::Static: return "static";
    }
    return "unknown";
}

std::vector<std::string>
backendNames()
{
    return {backendName(VerdictBackend::Simulator),
            backendName(VerdictBackend::Model),
            backendName(VerdictBackend::Differential),
            backendName(VerdictBackend::Static)};
}

bool
parseBackend(const std::string &name, VerdictBackend &out)
{
    const std::string key = core::foldName(name);
    for (const VerdictBackend backend :
         {VerdictBackend::Simulator, VerdictBackend::Model,
          VerdictBackend::Differential, VerdictBackend::Static}) {
        if (key == core::foldName(backendName(backend))) {
            out = backend;
            return true;
        }
    }
    return false;
}

std::string
unknownBackendMessage(const std::string &name)
{
    // A closed four-name set: when nothing is close enough to
    // suggest, list every valid backend instead of answering bare.
    std::vector<std::string> suggestions =
        core::suggestNames(backendNames(), name);
    if (suggestions.empty())
        suggestions = backendNames();
    return core::unknownNameMessage("backend", name, suggestions);
}

} // namespace specsec::verdict
