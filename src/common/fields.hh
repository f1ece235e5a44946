/**
 * @file
 * One field list per struct: a `template <typename V> void fields(V &)`
 * member of v("json_name", member[, FieldAttr]) calls, in JSON and hash
 * order (append, never reorder), from which the memo-key hash
 * (exp/simcache.cc), the JSON codecs (svc/proto.hh) and diffFields()
 * derive. Members: bool, unsigned integers, double, std::string, enums
 * (named by a FieldEnum specialisation), fixed arrays, std::vectors and
 * structs with their own fields(). See DESIGN.md §10.
 */

#ifndef POWERFITS_COMMON_FIELDS_HH
#define POWERFITS_COMMON_FIELDS_HH

#include <string>
#include <type_traits>
#include <vector>

namespace pfits
{

/** Per-field encoding attributes (scalars only), OR-able. */
enum FieldAttr : unsigned
{
    kFieldPlain = 0,
    kFieldHex = 1u << 0,      //!< integer written as a "0x…" string
    kFieldOptional = 1u << 1, //!< absent on read means T{}
    //! Not written or hashed while T{}, optional on read, hashed as
    //! value + 1 otherwise: leaves every older key and entry alone.
    kFieldOmitDefault = 1u << 2,
};

/** An enum's names: `name` (E -> const char *) and its last value. */
template <typename E>
struct FieldEnum;

/** Fixed arrays and vectors: visited element by element. */
template <typename T>
inline constexpr bool kIsFieldSequence = std::is_array_v<T>;
template <typename T>
inline constexpr bool kIsFieldSequence<std::vector<T>> = true;

/** Records the address of every field, in fields() order. */
struct FieldAddrs
{
    std::vector<const void *> addrs;

    template <typename T>
    void
    operator()(const char *, T &x, unsigned = kFieldPlain)
    {
        addrs.push_back(&x);
    }
};

template <typename T>
concept HasFields = requires(T &t, FieldAddrs &v) { t.fields(v); };

/** Visit @p s read-only: fields() is one non-const member, and the
 *  visitors that come through here never store through it. */
template <typename T, typename V>
void
visitFields(const T &s, V &v)
{
    const_cast<T &>(s).fields(v);
}

/** Look an enumerator up by its FieldEnum name. */
template <typename E>
bool
parseFieldEnum(const std::string &name, E *out)
{
    for (unsigned i = 0; i <= static_cast<unsigned>(FieldEnum<E>::kLast);
         ++i) {
        if (name == FieldEnum<E>::name(static_cast<E>(i))) {
            *out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** Append "path: a vs b" to @p out for each field that differs. */
template <typename T>
void
diffFieldsInto(const std::string &path, const T &a, const T &b,
               std::vector<std::string> &out)
{
    if constexpr (HasFields<T>) {
        // Both sides list the same members in the same order, so b's
        // i-th field address pairs with a's i-th field, type and all.
        FieldAddrs fb;
        visitFields(b, fb);
        size_t i = 0;
        const std::string prefix = path.empty() ? path : path + ".";
        auto pair = [&](const char *name, const auto &x, unsigned = 0) {
            using X = std::remove_cvref_t<decltype(x)>;
            diffFieldsInto(prefix + name, x,
                           *static_cast<const X *>(fb.addrs[i++]), out);
        };
        visitFields(a, pair);
    } else if constexpr (kIsFieldSequence<T>) {
        if (std::size(a) != std::size(b)) {
            out.push_back(path + ": " + std::to_string(std::size(a)) +
                          " entries vs " + std::to_string(std::size(b)));
            return;
        }
        for (size_t i = 0; i < std::size(a); ++i)
            diffFieldsInto(path + "[" + std::to_string(i) + "]", a[i],
                           b[i], out);
    } else if (!(a == b)) {
        auto text = [](const T &x) -> std::string {
            if constexpr (std::is_same_v<T, std::string>)
                return "'" + x + "'";
            else if constexpr (std::is_enum_v<T>)
                return FieldEnum<T>::name(x);
            else
                return std::to_string(x);
        };
        out.push_back(path + ": " + text(a) + " vs " + text(b));
    }
}

/**
 * Field-by-field comparison over fields(): one "path: a vs b" line per
 * differing member (nested paths joined with '.', elements as [i], a
 * length mismatch once per sequence); empty when every field agrees.
 */
template <typename T>
std::vector<std::string>
diffFields(const T &a, const T &b)
{
    std::vector<std::string> out;
    diffFieldsInto("", a, b, out);
    return out;
}

} // namespace pfits

#endif // POWERFITS_COMMON_FIELDS_HH
