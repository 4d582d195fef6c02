/**
 * @file
 * Constructors for well-formed SIP messages: requests with the full
 * header set a proxy expects, responses derived from requests per RFC
 * 3261 §8.2.6, and ACKs. Used by the phones and by tests.
 */

#ifndef SIPROX_SIP_BUILDERS_HH
#define SIPROX_SIP_BUILDERS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sip/message.hh"
#include "sip/uri.hh"

namespace siprox::sip {

/** Everything needed to build a request. */
struct RequestSpec
{
    Method method = Method::Invite;
    SipUri requestUri;          ///< where the request is aimed
    SipUri from;                ///< caller AoR
    SipUri to;                  ///< callee AoR
    std::string fromTag;
    std::string toTag;          ///< empty outside a dialog
    std::string callId;
    std::uint32_t cseq = 1;
    std::string viaTransport = "UDP";
    SipUri viaSentBy;           ///< host:port the sender listens on
    std::string branch;
    std::optional<SipUri> contact;
    int maxForwards = 70;
};

/** Build a request with Via/From/To/Call-ID/CSeq/Max-Forwards. */
SipMessage buildRequest(const RequestSpec &spec);

/**
 * Build a response to @p req: copies Via stack, From, To (adding
 * @p to_tag if non-empty), Call-ID, and CSeq (RFC 3261 §8.2.6.2).
 */
SipMessage buildResponse(const SipMessage &req, int status,
                         const std::string &to_tag = "",
                         std::optional<SipUri> contact = std::nullopt);

/**
 * Build the ACK for a final response to the INVITE built from
 * @p invite (2xx ACK: new branch supplied by the caller; non-2xx ACK
 * reuses the INVITE branch).
 */
SipMessage buildAck(const RequestSpec &invite, const SipMessage &final,
                    const std::string &branch);

/** A small realistic SDP body for INVITE/200 OK. */
std::string defaultSdp(const SipUri &origin);

} // namespace siprox::sip

#endif // SIPROX_SIP_BUILDERS_HH
