/**
 * @file
 * JSON text shared by every artifact writer (the trace timeline, the
 * metrics snapshot, the time-series and the explain report): string
 * escaping and locale-free numbers. Header-only, so each writer's
 * library takes on no new link dependency.
 */

#ifndef SIPROX_SIM_JSON_HH
#define SIPROX_SIM_JSON_HH

#include <cstdio>
#include <string>
#include <string_view>

namespace siprox::sim::json {

/** Append @p s to @p out as the body of a JSON string: quote,
 *  backslash and every control character escaped. */
inline void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** Fixed-format double ("%.6g"): enough digits to round-trip run
 *  artifacts, no locale dependence. */
inline std::string
renderDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace siprox::sim::json

#endif // SIPROX_SIM_JSON_HH
