/**
 * @file
 * Per-cell output fingerprints: the committed expectation the
 * `sweep` and `serve-warm` workloads check every result against.
 *
 * A fingerprint is the canonical text of everything a cell's result
 * claims: the leak bit, the recovered bytes, the accuracy, the
 * result's own cycle/forward counters and every CpuStats field.  It
 * is keyed by the 64-bit FNV-1a hash of the cell's scenarioKey(),
 * which keeps the committed file small; recording refuses a hash
 * collision, so within the recorded key set the hash is as good as
 * the key.  Workload seeds only permute order, so the same cells
 * (and the same fingerprints) come out under every seed.
 */

#ifndef SPECBENCH_FINGERPRINT_HH
#define SPECBENCH_FINGERPRINT_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "attacks/attack_kit.hh"
#include "uarch/cpu.hh"

namespace specbench
{

std::uint64_t keyHash(const std::string &key);

/** Canonical text of one cell's result. */
std::string fingerprint(const specsec::attacks::AttackResult &result,
                        const specsec::uarch::CpuStats &stats);

/** The committed fingerprint file: key hash -> fingerprint. */
class FingerprintSet
{
  public:
    /** Parse the file at @p path; false with @p error on failure. */
    bool load(const std::string &path, std::string *error);

    /**
     * Add one cell; false when a different key with the same hash
     * is already present.
     */
    bool add(const std::string &key, const std::string &print);

    /** Write the set, sorted by hash; false on I/O failure. */
    bool save(const std::string &path) const;

    /**
     * Compare a cell against the set.  @return empty when it
     * matches, else a one-line description of the mismatch.
     */
    std::string check(const std::string &key,
                      const specsec::attacks::AttackResult &result,
                      const specsec::uarch::CpuStats &stats) const;

    std::size_t size() const { return prints_.size(); }

    bool operator==(const FingerprintSet &other) const
    {
        return prints_ == other.prints_;
    }

  private:
    std::unordered_map<std::uint64_t, std::string> prints_;
    std::unordered_map<std::uint64_t, std::string> keys_; ///< record
};

} // namespace specbench

#endif // SPECBENCH_FINGERPRINT_HH
