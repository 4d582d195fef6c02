#include "sip/builders.hh"

namespace siprox::sip {

namespace {

std::string
nameAddr(const SipUri &uri, const std::string &tag)
{
    std::string out = "<" + uri.toString() + ">";
    if (!tag.empty())
        out += ";tag=" + tag;
    return out;
}

} // namespace

SipMessage
buildRequest(const RequestSpec &spec)
{
    SipMessage msg = SipMessage::request(spec.method, spec.requestUri);
    Via via;
    via.transport = spec.viaTransport;
    via.host = spec.viaSentBy.host;
    via.port = spec.viaSentBy.port;
    via.branch = spec.branch;
    msg.addHeader("Via", via.toString());
    msg.addHeader("Max-Forwards", std::to_string(spec.maxForwards));
    msg.addHeader("From", nameAddr(spec.from, spec.fromTag));
    msg.addHeader("To", nameAddr(spec.to, spec.toTag));
    msg.addHeader("Call-ID", spec.callId);
    msg.addHeader("CSeq",
                  CSeq{spec.cseq, spec.method}.toString());
    if (spec.contact)
        msg.addHeader("Contact", "<" + spec.contact->toString() + ">");
    msg.addHeader("User-Agent", "siprox-phone/1.0");
    if (spec.method == Method::Invite)
        msg.setBody(defaultSdp(spec.from), "application/sdp");
    return msg;
}

SipMessage
buildResponse(const SipMessage &req, int status, const std::string &to_tag,
              std::optional<SipUri> contact)
{
    SipMessage rsp = SipMessage::response(status);
    for (auto via : req.headerAll(HeaderId::Via))
        rsp.addHeader("Via", via);
    rsp.addHeader("From", req.from());
    std::string to(req.to());
    if (!to_tag.empty() && to.find(";tag=") == std::string::npos)
        to += ";tag=" + to_tag;
    rsp.addHeader("To", to);
    rsp.addHeader("Call-ID", req.callId());
    if (auto cs = req.header(HeaderId::CSeq))
        rsp.addHeader("CSeq", *cs);
    if (contact)
        rsp.addHeader("Contact", "<" + contact->toString() + ">");
    if (status == status::kOk && req.method() == Method::Invite) {
        auto to_uri = SipUri::parse(
            to.substr(to.find('<') + 1,
                      to.find('>') - to.find('<') - 1));
        rsp.setBody(defaultSdp(to_uri.value_or(SipUri{})),
                    "application/sdp");
    }
    return rsp;
}

SipMessage
buildAck(const RequestSpec &invite, const SipMessage &final,
         const std::string &branch)
{
    SipMessage ack = SipMessage::request(Method::Ack, invite.requestUri);
    Via via;
    via.transport = invite.viaTransport;
    via.host = invite.viaSentBy.host;
    via.port = invite.viaSentBy.port;
    via.branch = branch;
    ack.addHeader("Via", via.toString());
    ack.addHeader("Max-Forwards", "70");
    ack.addHeader("From", nameAddr(invite.from, invite.fromTag));
    // The To of the ACK carries the tag from the final response.
    ack.addHeader("To", final.to());
    ack.addHeader("Call-ID", invite.callId);
    ack.addHeader("CSeq", CSeq{invite.cseq, Method::Ack}.toString());
    return ack;
}

std::string
defaultSdp(const SipUri &origin)
{
    std::string host = origin.host.empty() ? "h0" : origin.host;
    std::string user = origin.user.empty() ? "anon" : origin.user;
    return "v=0\r\n"
           "o=" + user + " 2890844526 2890844526 IN IP4 " + host + "\r\n"
           "s=call\r\n"
           "c=IN IP4 " + host + "\r\n"
           "t=0 0\r\n"
           "m=audio 49170 RTP/AVP 0 8\r\n"
           "a=rtpmap:0 PCMU/8000\r\n"
           "a=rtpmap:8 PCMA/8000\r\n";
}

} // namespace siprox::sip
