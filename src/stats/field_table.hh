/**
 * @file
 * Declarative counter tables. A counter struct keeps one table of its
 * fields beside its definition — name, member pointer, and the
 * struct's digest-membership bits — and every output (sums, digests,
 * metrics, telemetry) is a loop over that table, so a counter added
 * once reaches all of them. Header-only: the tables live in the
 * layers that own the structs.
 */

#ifndef SIPROX_STATS_FIELD_TABLE_HH
#define SIPROX_STATS_FIELD_TABLE_HH

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>

namespace siprox::stats {

/** One named member of counter struct @p S. */
template <class S, class T = std::uint64_t>
struct Field
{
    const char *name;
    T S::*member;
    /** Digest groups the field belongs to (bits defined per struct). */
    unsigned digest = 0;
};

/** Field-wise `into += from` over every entry of @p table. */
template <class S, class Table>
void
addFields(S &into, const S &from, const Table &table)
{
    for (const auto &f : table)
        into.*f.member += from.*f.member;
}

/** True if any field of @p s in digest group @p digest is nonzero. */
template <class S, class Table>
bool
anyField(const Table &table, const S &s, unsigned digest)
{
    for (const auto &f : table) {
        if ((f.digest & digest) && s.*f.member != 0)
            return true;
    }
    return false;
}

/**
 * Output key for field @p name under @p prefix: "proxy." + "forwards"
 * is "proxy.forwards"; a prefix without a trailing dot joins in
 * lowerCamel, so "disp" + "messagesIn" is "dispMessagesIn".
 */
inline std::string
fieldKey(std::string_view prefix, std::string_view name)
{
    std::string key(prefix);
    if (!prefix.empty() && prefix.back() != '.' && !name.empty()) {
        key += static_cast<char>(
            std::toupper(static_cast<unsigned char>(name.front())));
        name.remove_prefix(1);
    }
    key += name;
    return key;
}

/**
 * Call @p emit(key, value) for every field of @p s in table order,
 * keyed by fieldKey(@p prefix, name). A nonzero @p digest mask keeps
 * only the fields in one of those digest groups.
 */
template <class S, class Table, class Emit>
void
emitFields(const Table &table, const S &s, std::string_view prefix,
           Emit &&emit, unsigned digest = 0)
{
    for (const auto &f : table) {
        if (digest == 0 || (f.digest & digest))
            emit(fieldKey(prefix, f.name), s.*f.member);
    }
}

} // namespace siprox::stats

#endif // SIPROX_STATS_FIELD_TABLE_HH
