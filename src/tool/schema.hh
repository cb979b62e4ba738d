/**
 * @file
 * OutcomeSchema: the one typed field registry behind every exported
 * record in the tree.
 *
 * Six serialization surfaces guard the paper's deliverable matrices
 * (campaignJson/campaignCsv, the streaming JSONL/CSV sinks, the
 * shard-report wire format, golden matrices, the persistent
 * ResultCache).  Before this file they were six hand-maintained
 * field lists that had to stay byte-identical by convention; now
 * each exported field of a ScenarioOutcome (and of the
 * AttackResult/CpuStats wire fragments) is declared exactly once as
 * a typed FieldDescriptor — name, FieldType, flags, accessor and
 * parse hook — and every emitter and parser is derived from the
 * declaration list by iteration.  Adding an exported field is one
 * descriptor in schema.cc; JSON, CSV, JSONL, the wire format, the
 * cache and (for kAccuracy fields) the golden gate pick it up
 * automatically.  See README.md "Adding a new exported field".
 *
 * Because the schema knows each field's type, the golden gate can
 * finally pin *accuracy values* (flag kAccuracy) under an explicit
 * per-spec tolerance instead of silently dropping them
 * (src/regress/golden.hh), and the shard wire format carries a
 * schema tag so a merge of reports produced by binaries with
 * different field lists is rejected instead of misparsed.
 */

#ifndef SPECSEC_TOOL_SCHEMA_HH
#define SPECSEC_TOOL_SCHEMA_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "jsonio.hh"

namespace specsec::core
{
struct AttackDescriptor;
}

namespace specsec::attacks
{
struct AttackOptions;
struct AttackResult;
}

namespace specsec::uarch
{
struct CacheConfig;
struct CpuStats;
struct VulnConfig;
}

namespace specsec::campaign
{
struct ScenarioOutcome;
}

namespace specsec::tool
{

/** The wire/export type of one declared field. */
enum class FieldType : std::uint8_t
{
    String,
    UInt,
    Double,
    Bool,
    IntArray,
};

/** Stable one-letter type code used in schema tags. */
char fieldTypeCode(FieldType type);

/** @name FieldDescriptor flags. @{ */
/// Machine/scheduling-dependent: emitted only with include_timing,
/// excluded from the deterministic export contract.
inline constexpr unsigned kTiming = 1u << 0;
/// Reconstructable from the canonical scenarioKey() (configuration,
/// not measurement): the wire format carries these via the key.
inline constexpr unsigned kKeyComponent = 1u << 1;
/// A measured value the golden gate compares under an explicit
/// per-spec tolerance (goldens without accuracy arrays skip it).
inline constexpr unsigned kAccuracy = 1u << 2;
/// A verdict-backend annotation (model_verdict / agreement /
/// evidence): empty under the plain simulator backend, so the
/// default exports exclude it and stay byte-identical across
/// backends.  Opt in with the
/// excludeMask emitter overloads (drop kVerdict from the mask).
inline constexpr unsigned kVerdict = 1u << 3;
/// @}

/**
 * The exclude mask the classic bool-flag export surfaces use:
 * timing fields per @p include_timing, verdict annotations always
 * excluded.  Emitters taking an explicit mask let callers opt back
 * in to kVerdict fields.
 */
inline constexpr unsigned
defaultExcludeMask(bool include_timing)
{
    return (include_timing ? 0u : kTiming) | kVerdict;
}

/** A parsed or extracted field value, tagged by FieldType. */
struct FieldValue
{
    FieldType type = FieldType::UInt;
    std::string s;
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;
    std::vector<std::int64_t> a;

    static FieldValue ofString(std::string v);
    static FieldValue ofUInt(std::uint64_t v);
    static FieldValue ofDouble(double v);
    static FieldValue ofBool(bool v);
    static FieldValue ofIntArray(std::vector<std::int64_t> v);

    bool operator==(const FieldValue &) const = default;
};

/**
 * How generic emitters render Double fields: the human-facing
 * exports use fixed %.4f (stable, compact); the lossless wire
 * formats use shortest-exact %.17g so emit/parse round-trips are
 * exact.
 */
enum class DoubleStyle : std::uint8_t
{
    Fixed4,
    Exact17,
};

/** Render @p value per @p style (locale-independent). */
std::string formatDouble(double value, DoubleStyle style);

/**
 * Shortest decimal rendering that parses back to exactly @p value
 * ("0.005", not "0.0050000000000000001") — for human-edited files
 * (golden matrices) that must still round-trip exactly.
 */
std::string shortestExactDouble(double value);

/**
 * One exported field of a Record, declared exactly once.  @c get
 * extracts the export value; @c set is its inverse onto a
 * default-constructed Record, so generic parsers (and the
 * round-trip fuzz tests) are derived from the same declaration.
 * @c set returns false when the (type-correct) value is not one its
 * formatter can produce — an unknown channel name, a malformed
 * summary string — and the generic parsers fail loudly instead of
 * leaving the field silently defaulted.
 */
template <typename Record>
struct FieldDescriptor
{
    std::string name;
    FieldType type = FieldType::UInt;
    unsigned flags = 0;
    std::function<FieldValue(const Record &)> get;
    std::function<bool(Record &, const FieldValue &)> set;
};

namespace detail
{
/// Non-template emit/parse core shared by every RecordSchema
/// instantiation (keeps the template thin).
std::string jsonValue(const FieldValue &value, DoubleStyle style);
std::string csvValue(const FieldValue &value, DoubleStyle style);
bool parseValue(json::Cursor &cur, FieldType type, FieldValue &out);
} // namespace detail

/**
 * The field registry of one record type plus every derived
 * serializer: JSON object (named fields), JSON array (positional),
 * CSV header/row.  Iteration order is declaration order, which IS
 * the export order of every surface.
 */
template <typename Record>
class RecordSchema
{
  public:
    RecordSchema(std::string name,
                 std::vector<FieldDescriptor<Record>> fields)
        : name_(std::move(name)), fields_(std::move(fields))
    {
    }

    const std::string &name() const { return name_; }

    const std::vector<FieldDescriptor<Record>> &fields() const
    {
        return fields_;
    }

    const FieldDescriptor<Record> *find(const std::string &name) const
    {
        for (const FieldDescriptor<Record> &f : fields_)
            if (f.name == name)
                return &f;
        return nullptr;
    }

    /**
     * The schema-version tag: record name plus every field as
     * "name:typecode", in order.  Two binaries interoperate on a
     * schema-tagged wire format exactly when their tags are equal.
     */
    std::string tag() const
    {
        std::string out = name_ + "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ',';
            out += fields_[i].name;
            out += ':';
            out += fieldTypeCode(fields_[i].type);
        }
        out += '}';
        return out;
    }

    /**
     * `{"a": 1, "b": "x"}` over every field whose flags do not
     * intersect @p excludeMask.
     */
    std::string jsonObject(const Record &record,
                           unsigned excludeMask,
                           DoubleStyle style) const
    {
        std::string out = "{";
        bool first = true;
        for (const FieldDescriptor<Record> &f : fields_) {
            if (f.flags & excludeMask)
                continue;
            if (!first)
                out += ", ";
            first = false;
            out += '"';
            out += f.name;
            out += "\": ";
            out += detail::jsonValue(f.get(record), style);
        }
        out += '}';
        return out;
    }

    /** Classic surface: kTiming per flag, kVerdict always excluded. */
    std::string jsonObject(const Record &record, bool include_timing,
                           DoubleStyle style) const
    {
        return jsonObject(record, defaultExcludeMask(include_timing),
                          style);
    }

    /** Positional `[v0, v1, ...]` over every field (no flags). */
    std::string jsonArray(const Record &record,
                          DoubleStyle style) const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ", ";
            out += detail::jsonValue(fields_[i].get(record), style);
        }
        out += ']';
        return out;
    }

    /** Comma-joined names of the fields @p excludeMask keeps. */
    std::string csvHeader(unsigned excludeMask) const
    {
        std::string out;
        bool first = true;
        for (const FieldDescriptor<Record> &f : fields_) {
            if (f.flags & excludeMask)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += f.name;
        }
        out += '\n';
        return out;
    }

    /** Classic surface: kTiming per flag, kVerdict always excluded. */
    std::string csvHeader(bool include_timing) const
    {
        return csvHeader(defaultExcludeMask(include_timing));
    }

    /** One CSV record with trailing newline. */
    std::string csvRow(const Record &record, unsigned excludeMask,
                       DoubleStyle style) const
    {
        std::string out;
        bool first = true;
        for (const FieldDescriptor<Record> &f : fields_) {
            if (f.flags & excludeMask)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += detail::csvValue(f.get(record), style);
        }
        out += '\n';
        return out;
    }

    /** Classic surface: kTiming per flag, kVerdict always excluded. */
    std::string csvRow(const Record &record, bool include_timing,
                       DoubleStyle style) const
    {
        return csvRow(record, defaultExcludeMask(include_timing),
                      style);
    }

    /**
     * Parse a jsonObject() document back onto @p record via the set
     * hooks.  Unknown keys fail (every file we read is one we
     * wrote); absent fields keep their current value, so timing-free
     * documents parse with the timing fields defaulted.
     */
    bool parseJsonObject(json::Cursor &cur, Record &record) const
    {
        if (!cur.expect('{'))
            return false;
        if (cur.peekConsume('}'))
            return true;
        do {
            const std::string key = cur.parseString();
            if (cur.failed() || !cur.expect(':'))
                return false;
            const FieldDescriptor<Record> *f = find(key);
            if (f == nullptr)
                return cur.fail("unknown " + name_ + " key '" + key +
                                "'");
            FieldValue value;
            if (!detail::parseValue(cur, f->type, value))
                return false;
            if (!f->set(record, value))
                return cur.fail("bad value for " + name_ +
                                " field '" + key + "'");
        } while (!cur.failed() && cur.peekConsume(','));
        return cur.expect('}');
    }

    /** Parse a jsonArray() document (strict field count). */
    bool parseJsonArray(json::Cursor &cur, Record &record) const
    {
        if (!cur.expect('['))
            return false;
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i && !cur.expect(','))
                return false;
            FieldValue value;
            if (!detail::parseValue(cur, fields_[i].type, value))
                return false;
            if (!fields_[i].set(record, value))
                return cur.fail("bad value for " + name_ +
                                " field '" + fields_[i].name + "'");
        }
        return cur.expect(']');
    }

  private:
    std::string name_;
    std::vector<FieldDescriptor<Record>> fields_;
};

/**
 * @name The registries.
 * outcomeSchema() declares every exported field of a
 * ScenarioOutcome, in export order; attackResultSchema() /
 * cpuStatsSchema() declare the execution-result wire fragments
 * shared by the shard wire format and the persistent cache.
 * @{
 */
const RecordSchema<campaign::ScenarioOutcome> &outcomeSchema();
const RecordSchema<attacks::AttackResult> &attackResultSchema();
const RecordSchema<uarch::CpuStats> &cpuStatsSchema();
/// @}

/**
 * The schema-version tag embedded in shard report files: the
 * combined tags of every schema the wire format is derived from.  A
 * producer and a consumer interoperate exactly when their tags
 * match; the shard-report parser (report_io.hh) rejects a mismatch
 * with a message naming both tags, so CampaignReport::merge never
 * sees misparsed outcomes from a binary with a different field list.
 */
std::string wireSchemaTag();

/**
 * @name Summary formatters shared by the schema accessors and the
 * scenario-describing CLIs, with their inverses (the schema's parse
 * hooks).  "kpti+lfence", "no-mds+no-taa"/"all",
 * "256x4/64@4:200".  Each parse* returns false (leaving @p out
 * untouched) on text its formatter cannot produce.
 * @{
 */
std::string mitigationSummary(const attacks::AttackOptions &options);
bool parseMitigationSummary(const std::string &text,
                            attacks::AttackOptions &out);
std::string vulnSummary(const uarch::VulnConfig &vuln);
bool parseVulnSummary(const std::string &text,
                      uarch::VulnConfig &out);
std::string cacheSummary(const uarch::CacheConfig &cache);
bool parseCacheSummary(const std::string &text,
                       uarch::CacheConfig &out);
/// @}

/**
 * The JSON object `campaign_cli list-attacks --json` / `describe
 * --json` emit per attack.  Lives in the library (not the CLI) so
 * the escaping of every string field — including registered alias
 * names — is covered by tests/schema_test.cc.
 */
std::string attackDescriptorJson(const core::AttackDescriptor &d);

/**
 * @name Export-format names for file exports ("json", "csv",
 * "jsonl") and extension inference, shared by `campaign_cli
 * export`.  exportFormatFromPath maps "out.jsonl" -> "jsonl"
 * (case-insensitive), empty string when the extension is not a
 * known format.
 * @{
 */
const std::vector<std::string> &exportFormatNames();
std::string exportFormatFromPath(const std::string &path);
/// @}

} // namespace specsec::tool

#endif // SPECSEC_TOOL_SCHEMA_HH
