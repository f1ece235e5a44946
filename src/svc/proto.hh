/**
 * @file
 * The pfitsd wire protocol and store-entry format.
 *
 * Transport framing is a 4-byte big-endian length prefix followed by
 * one compact JSON document ("pfits-svc-v1"), exchanged over an
 * AF_UNIX stream socket. Every frame read or write takes an absolute
 * deadline so a hung peer costs a bounded wait, never a wedged thread.
 *
 * A *store entry* ("pfits-store-v1") is the unit of persistence and of
 * end-to-end integrity: one compact JSON line carrying the
 * content-addressed key and the full SimResult, terminated by a
 * "checksum 0x<fnv64>" trailer over the line — the same FNV-1a
 * checksum (fits/serialize.hh) that guards decoder configurations.
 * Whoever simulates encodes the entry once; the daemon stores and
 * serves the text verbatim, and every consumer re-verifies the trailer
 * before trusting a byte, so disk corruption and wire truncation are
 * indistinguishable from — and handled exactly like — a miss.
 */

#ifndef POWERFITS_SVC_PROTO_HH
#define POWERFITS_SVC_PROTO_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/fault.hh"
#include "common/fields.hh"
#include "exp/simcache.hh"
#include "obs/json.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{

/** Wire-protocol schema tag carried in every request. */
inline constexpr const char *kSvcSchema = "pfits-svc-v1";

/** Store-entry schema tag carried in every persisted entry. */
inline constexpr const char *kStoreSchema = "pfits-store-v1";

/** Frames larger than this are rejected as malformed (64 MiB). */
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// --- framing -------------------------------------------------------------

/**
 * Write one length-prefixed frame to @p fd, finishing before
 * @p deadline_ms milliseconds elapse (0 = no deadline).
 * @return false (with @p err set) on error, timeout or closed peer.
 */
bool sendFrame(int fd, const std::string &payload, int deadline_ms,
               std::string *err);

/**
 * Read one length-prefixed frame from @p fd into @p payload under the
 * same deadline contract. A clean EOF before any byte sets @p err to
 * "eof".
 */
bool recvFrame(int fd, std::string *payload, int deadline_ms,
               std::string *err);

// --- key and config serialization ----------------------------------------

/** "0x<hex>" for a 64-bit hash (JSON numbers stop being exact at 2^53). */
std::string hexString(uint64_t v);

/** Parse a "0x<hex>" string. @return false on malformed input. */
bool parseHexU64(const std::string &s, uint64_t *out);

namespace detail
{

/** The JSON writer over fields() (see writeFieldsJson). */
struct JsonFieldWriter
{
    JsonWriter &w;

    template <typename T>
    void
    operator()(const char *name, const T &x, unsigned attr = kFieldPlain)
    {
        if constexpr (std::is_scalar_v<T>)
            if ((attr & kFieldOmitDefault) && x == T{})
                return;
        w.key(name);
        value(x, attr);
    }

    template <typename T>
    void
    value(const T &x, unsigned attr)
    {
        if constexpr (HasFields<T>) {
            w.beginObject();
            visitFields(x, *this);
            w.endObject();
        } else if constexpr (kIsFieldSequence<T>) {
            w.beginArray();
            for (const auto &e : x)
                value(e, attr);
            w.endArray();
        } else if constexpr (std::is_enum_v<T>) {
            w.value(FieldEnum<T>::name(x));
        } else if constexpr (std::is_same_v<T, bool> ||
                             !std::is_integral_v<T>) {
            w.value(x);
        } else if (attr & kFieldHex) {
            w.hexValue(x);
        } else {
            w.value(static_cast<uint64_t>(x));
        }
    }
};

/** The JSON reader over fields() (see parseFieldsJson). */
struct JsonFieldReader
{
    const JsonValue *obj = nullptr; //!< the object being read
    bool ok = true;                 //!< false from the first bad field

    template <typename T>
    void
    operator()(const char *name, T &x, unsigned attr = kFieldPlain)
    {
        const JsonValue &f = obj->get(name);
        if constexpr (std::is_scalar_v<T>) {
            if (f.isNull() &&
                (attr & (kFieldOptional | kFieldOmitDefault))) {
                x = T{};
                return;
            }
        }
        ok = ok && read(f, x, attr);
    }

    template <typename T>
    bool
    read(const JsonValue &v, T &x, unsigned attr)
    {
        if constexpr (HasFields<T>) {
            if (!v.isObject())
                return false;
            const JsonValue *outer = obj;
            obj = &v;
            x.fields(*this);
            obj = outer;
            return ok;
        } else if constexpr (kIsFieldSequence<T>) {
            if (!v.isArray())
                return false;
            const std::vector<JsonValue> &items = v.asArray();
            if constexpr (std::is_array_v<T>) {
                if (items.size() != std::size(x))
                    return false;
            } else {
                x.assign(items.size(), {});
            }
            for (size_t i = 0; i < items.size(); ++i)
                if (!read(items[i], x[i], attr))
                    return false;
            return true;
        } else if constexpr (std::is_enum_v<T>) {
            return v.isString() && parseFieldEnum(v.asString(), &x);
        } else if constexpr (std::is_same_v<T, bool>) {
            if (v.isBool())
                x = v.asBool();
            return v.isBool();
        } else if constexpr (std::is_same_v<T, double>) {
            if (v.isNumber())
                x = v.asNumber();
            return v.isNumber();
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (v.isString())
                x = v.asString();
            return v.isString();
        } else if (attr & kFieldHex) {
            uint64_t h = 0;
            if (!v.isString() || !parseHexU64(v.asString(), &h) ||
                h > std::numeric_limits<T>::max())
                return false;
            x = static_cast<T>(h);
            return true;
        } else {
            return jsonToUnsigned(v, &x);
        }
    }
};

} // namespace detail

/**
 * Emit every field of @p s (common/fields.hh) as one JSON object in
 * fields() order: enums by name, kFieldHex integers as "0x…" strings,
 * kFieldOmitDefault fields only when non-default.
 */
template <typename T>
void
writeFieldsJson(JsonWriter &w, const T &s)
{
    detail::JsonFieldWriter{w}.value(s, kFieldPlain);
}

/**
 * Fill @p s from a writeFieldsJson object. @return false when a field
 * is missing (and not optional), has the wrong JSON type, names no
 * enumerator, or holds a number its member cannot represent exactly.
 */
template <typename T>
bool
parseFieldsJson(const JsonValue &v, T *s)
{
    return detail::JsonFieldReader{}.read(v, *s, kFieldPlain);
}

/** The store-relative filename an entry for @p key lives under. */
std::string keyFileName(const SimCacheKey &key);

// The per-struct codecs: writeFieldsJson/parseFieldsJson by name.
inline constexpr auto &writeKeyJson = writeFieldsJson<SimCacheKey>;
inline constexpr auto &parseKeyJson = parseFieldsJson<SimCacheKey>;
inline constexpr auto &writeCoreConfigJson = writeFieldsJson<CoreConfig>;
inline constexpr auto &parseCoreConfigJson = parseFieldsJson<CoreConfig>;
inline constexpr auto &writeFaultParamsJson = writeFieldsJson<FaultParams>;
inline constexpr auto &parseFaultParamsJson = parseFieldsJson<FaultParams>;
inline constexpr auto &writeSimResultJson = writeFieldsJson<SimResult>;
inline constexpr auto &parseSimResultJson = parseFieldsJson<SimResult>;

// --- store entries -------------------------------------------------------

/**
 * Encode a complete store entry: one compact JSON line
 * {"schema","key","result"} followed by "\nchecksum 0x<fnv64>\n" over
 * that line. This text is the canonical persisted and wire form.
 */
std::string encodeResultEntry(const SimCacheKey &key,
                              const SimResult &result);

/**
 * Decode and fully verify a store entry: checksum trailer, schema tag,
 * JSON shape. @return false with a diagnostic in @p err on any defect;
 * on success fills @p key and @p result.
 */
bool decodeResultEntry(const std::string &text, SimCacheKey *key,
                       SimResult *result, std::string *err);

/**
 * Verify the checksum trailer and extract the embedded key without
 * parsing the result body — the store's cheap integrity scan.
 */
bool verifyResultEntry(const std::string &text, SimCacheKey *key,
                       std::string *err);

} // namespace pfits

#endif // POWERFITS_SVC_PROTO_HH
