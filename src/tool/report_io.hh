/**
 * @file
 * Lossless CampaignReport (de)serialization: the wire format that
 * lets one campaign fan out across processes.  Each shard run writes
 * its partial CampaignReport as a versioned JSON file; a merge step
 * parses them back and folds them with CampaignReport::merge into a
 * report byte-identical — in every timing-free export — to a
 * single-process run of the whole spec.
 *
 * A scenario's full configuration travels as its canonical
 * scenarioKey() string (parsed back with parseScenarioKey), so the
 * format tracks CpuConfig/AttackOptions growth automatically instead
 * of maintaining ~47 named fields in a second schema.
 *
 * The AttackResult/CpuStats fragment helpers are shared with the
 * persistent ResultCache (src/campaign/persist.cc) — one wire
 * encoding for "what a scenario execution produced" everywhere.
 * Both fragments (emit and parse) are derived from the typed field
 * registries in schema.hh, and every shard report carries
 * tool::wireSchemaTag() so a consumer with a different field list
 * rejects the file instead of misparsing it (files from pre-tag
 * producers, whose field lists match the tagless-era schemas,
 * still load).
 */

#ifndef SPECSEC_TOOL_REPORT_IO_HH
#define SPECSEC_TOOL_REPORT_IO_HH

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "jsonio.hh"

namespace specsec::tool
{

/** Current shard-report / result-cache file format version. */
inline constexpr unsigned kReportIoVersion = 1;

/**
 * Serialize @p report — full or shard — as a self-contained,
 * deterministic JSON document (one outcome per line).
 */
std::string shardReportJson(const campaign::CampaignReport &report);

/**
 * Parse shardReportJson() output.  @return nullopt (with a message
 * in @p error) on malformed input, an unsupported version, or an
 * outcome whose scenario key does not parse.
 */
std::optional<campaign::CampaignReport>
parseShardReportJson(const std::string &text,
                     std::string *error = nullptr);

/**
 * Read, parse and fold the shard reports at @p paths, in order, with
 * CampaignReport::merge — the merge step of `campaign_cli merge` and
 * `specsec_regress --merge`.  The result may still be partial();
 * each caller decides whether that is an error.  @return nullopt
 * with a message naming the file in @p error; @p conflict is set
 * when the files parse but do not fold together.
 */
std::optional<campaign::CampaignReport>
mergeShardFiles(const std::vector<std::string> &paths,
                std::string *error = nullptr, bool *conflict = nullptr);

/**
 * @name Execution-result JSON fragments.
 * `{"name": ..., "recovered": [...], "expected": [...],
 *   "accuracy": ..., "leaked": ..., "guestCycles": ...,
 *   "transientForwards": ...}` and the 8-element CpuStats array.
 * The accuracy double is printed with %.17g, so a parse/emit
 * round-trip is exact.
 * @{
 */
std::string attackResultJson(const attacks::AttackResult &result);
std::string cpuStatsJson(const uarch::CpuStats &stats);
bool parseAttackResultJson(json::Cursor &cur,
                           attacks::AttackResult &result);
bool parseCpuStatsJson(json::Cursor &cur, uarch::CpuStats &stats);
/// @}

} // namespace specsec::tool

#endif // SPECSEC_TOOL_REPORT_IO_HH
