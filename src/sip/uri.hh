/**
 * @file
 * SIP URI (RFC 3261 §19.1) — the subset used by proxies and phones:
 * sip:user@host:port;param=value;flag
 *
 * In the simulated network, hosts are named "h<id>", so a URI maps
 * directly to a net::Addr.
 */

#ifndef SIPROX_SIP_URI_HH
#define SIPROX_SIP_URI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/addr.hh"

namespace siprox::sip {

struct Via;

/** Parsed SIP URI. */
struct SipUri
{
    std::string user;
    std::string host;
    std::uint16_t port = 0; ///< 0 means "default" (5060)
    /** URI parameters in order; flag params have empty values. */
    std::vector<std::pair<std::string, std::string>> params;

    /** Parse "sip:user@host:port;params". Returns nullopt on error. */
    static std::optional<SipUri> parse(std::string_view text);

    /** Render canonical form. */
    std::string toString() const;

    /** Exact length of toString() without rendering. */
    std::size_t renderedSize() const;

    /** Append the canonical form to @p out (no temporary string). */
    void appendTo(std::string &out) const;

    /** Port with the 5060 default applied. */
    std::uint16_t effectivePort() const { return port ? port : 5060; }

    /** Value of parameter @p name, if present. */
    std::optional<std::string_view> param(std::string_view name) const;

    bool operator==(const SipUri &) const = default;
};

/**
 * Map a URI with an "h<id>" host to a simulated network address.
 * Returns nullopt if the host does not follow the convention.
 */
std::optional<net::Addr> addrFromUri(const SipUri &uri);

/** Same mapping from a bare host name and port (no SipUri temporary). */
std::optional<net::Addr> addrFromHost(std::string_view host,
                                      std::uint16_t port);

/** The address a Via says responses go to (RFC 3261 §18.2.2): nullopt
 *  when there is no Via or its host is not an "h<id>" name. */
std::optional<net::Addr> addrFromVia(const std::optional<Via> &via);

/** The URI of a name-addr header value such as "<sip:x>;tag=y" or the
 *  bare "sip:x;tag=y" (To, From): nullopt when it does not parse or a
 *  "<" is never closed. */
std::optional<SipUri> uriFromNameAddr(std::string_view value);

/** Build a URI for @p user at a simulated address. */
SipUri uriForAddr(std::string user, net::Addr addr);

} // namespace siprox::sip

#endif // SIPROX_SIP_URI_HH
