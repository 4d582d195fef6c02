#include "sip/message.hh"

#include <charconv>

namespace siprox::sip {

namespace {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

} // namespace

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (asciiLower(a[i]) != asciiLower(b[i]))
            return false;
    }
    return true;
}

HeaderId
headerIdFor(std::string_view name)
{
    // Dispatch on length first; each bucket has at most three candidates.
    switch (name.size()) {
      case 2:
        if (iequals(name, "To"))
            return HeaderId::To;
        break;
      case 3:
        if (iequals(name, "Via"))
            return HeaderId::Via;
        break;
      case 4:
        if (iequals(name, "From"))
            return HeaderId::From;
        if (iequals(name, "CSeq"))
            return HeaderId::CSeq;
        break;
      case 5:
        if (iequals(name, "Route"))
            return HeaderId::Route;
        break;
      case 7:
        if (iequals(name, "Call-ID"))
            return HeaderId::CallId;
        if (iequals(name, "Contact"))
            return HeaderId::Contact;
        break;
      case 8:
        if (iequals(name, "Overload"))
            return HeaderId::Overload;
        break;
      case 12:
        if (iequals(name, "Max-Forwards"))
            return HeaderId::MaxForwards;
        if (iequals(name, "Content-Type"))
            return HeaderId::ContentType;
        if (iequals(name, "Record-Route"))
            return HeaderId::RecordRoute;
        break;
      case 14:
        if (iequals(name, "Content-Length"))
            return HeaderId::ContentLength;
        break;
      default:
        break;
    }
    return HeaderId::Other;
}

std::string_view
headerCanonicalName(HeaderId id)
{
    switch (id) {
      case HeaderId::Via:
        return "Via";
      case HeaderId::To:
        return "To";
      case HeaderId::From:
        return "From";
      case HeaderId::CallId:
        return "Call-ID";
      case HeaderId::CSeq:
        return "CSeq";
      case HeaderId::Contact:
        return "Contact";
      case HeaderId::MaxForwards:
        return "Max-Forwards";
      case HeaderId::ContentLength:
        return "Content-Length";
      case HeaderId::ContentType:
        return "Content-Type";
      case HeaderId::Route:
        return "Route";
      case HeaderId::RecordRoute:
        return "Record-Route";
      case HeaderId::Overload:
        return "Overload";
      case HeaderId::Other:
        break;
    }
    return {};
}

const char *
methodName(Method m)
{
    switch (m) {
      case Method::Invite:
        return "INVITE";
      case Method::Ack:
        return "ACK";
      case Method::Bye:
        return "BYE";
      case Method::Cancel:
        return "CANCEL";
      case Method::Register:
        return "REGISTER";
      case Method::Options:
        return "OPTIONS";
      case Method::Unknown:
        break;
    }
    return "UNKNOWN";
}

Method
methodFromName(std::string_view name)
{
    if (name == "INVITE")
        return Method::Invite;
    if (name == "ACK")
        return Method::Ack;
    if (name == "BYE")
        return Method::Bye;
    if (name == "CANCEL")
        return Method::Cancel;
    if (name == "REGISTER")
        return Method::Register;
    if (name == "OPTIONS")
        return Method::Options;
    return Method::Unknown;
}

const char *
reasonPhrase(int status)
{
    switch (status) {
      case status::kTrying:
        return "Trying";
      case status::kRinging:
        return "Ringing";
      case status::kOk:
        return "OK";
      case status::kMovedTemporarily:
        return "Moved Temporarily";
      case status::kBadRequest:
        return "Bad Request";
      case status::kUnauthorized:
        return "Unauthorized";
      case status::kNotFound:
        return "Not Found";
      case status::kRequestTimeout:
        return "Request Timeout";
      case status::kServerError:
        return "Server Internal Error";
      case status::kServiceUnavailable:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

std::optional<Via>
Via::parse(std::string_view text)
{
    // "SIP/2.0/UDP host:port;branch=..."
    text = trim(text);
    if (text.substr(0, 8) != "SIP/2.0/")
        return std::nullopt;
    text.remove_prefix(8);
    Via via;
    auto sp = text.find(' ');
    if (sp == std::string_view::npos)
        return std::nullopt;
    via.transport = std::string(text.substr(0, sp));
    text.remove_prefix(sp + 1);

    auto semi = text.find(';');
    std::string_view hostport = trim(text.substr(0, semi));
    std::string_view params =
        semi == std::string_view::npos ? std::string_view{}
                                       : text.substr(semi + 1);
    auto colon = hostport.find(':');
    if (colon == std::string_view::npos) {
        via.host = std::string(hostport);
    } else {
        via.host = std::string(hostport.substr(0, colon));
        auto p = hostport.substr(colon + 1);
        unsigned v = 0;
        auto [ptr, ec] = std::from_chars(p.data(), p.data() + p.size(), v);
        if (ec != std::errc() || ptr != p.data() + p.size() || v > 65535)
            return std::nullopt;
        via.port = static_cast<std::uint16_t>(v);
    }
    if (via.host.empty())
        return std::nullopt;

    while (!params.empty()) {
        auto next = params.find(';');
        std::string_view param = trim(params.substr(0, next));
        params = next == std::string_view::npos
            ? std::string_view{}
            : params.substr(next + 1);
        if (param.substr(0, 7) == "branch=")
            via.branch = std::string(param.substr(7));
    }
    return via;
}

std::string
Via::toString() const
{
    char portBuf[8];
    std::size_t portLen = 0;
    if (port) {
        auto end =
            std::to_chars(portBuf, portBuf + sizeof(portBuf), port).ptr;
        portLen = static_cast<std::size_t>(end - portBuf);
    }
    std::string out;
    out.reserve(8 + transport.size() + 1 + host.size()
                + (port ? 1 + portLen : 0)
                + (branch.empty() ? 0 : 8 + branch.size()));
    out += "SIP/2.0/";
    out += transport;
    out += ' ';
    out += host;
    if (port) {
        out += ':';
        out.append(portBuf, portLen);
    }
    if (!branch.empty()) {
        out += ";branch=";
        out += branch;
    }
    return out;
}

std::optional<CSeq>
CSeq::parse(std::string_view text)
{
    text = trim(text);
    auto sp = text.find(' ');
    if (sp == std::string_view::npos)
        return std::nullopt;
    CSeq cseq;
    auto num = text.substr(0, sp);
    auto [ptr, ec] =
        std::from_chars(num.data(), num.data() + num.size(), cseq.number);
    if (ec != std::errc() || ptr != num.data() + num.size())
        return std::nullopt;
    cseq.method = methodFromName(trim(text.substr(sp + 1)));
    return cseq;
}

std::string
CSeq::toString() const
{
    return std::to_string(number) + " " + methodName(method);
}

SipMessage::SipMessage(const SipMessage &o)
    : isRequest_(o.isRequest_),
      method_(o.method_),
      requestUri_(o.requestUri_),
      status_(o.status_),
      reason_(o.reason_),
      body_(o.body_),
      arena_(o.arena_)
{
    // Leave room for the proxy's Via prepend / Max-Forwards rewrite so
    // the common forward path never reallocates the header vector.
    // Caches are deliberately not copied; they rebuild on demand.
    headers_.reserve(o.headers_.size() + 2);
    headers_ = o.headers_;
}

SipMessage &
SipMessage::operator=(const SipMessage &o)
{
    if (this == &o)
        return *this;
    isRequest_ = o.isRequest_;
    method_ = o.method_;
    requestUri_ = o.requestUri_;
    status_ = o.status_;
    reason_ = o.reason_;
    headers_.reserve(o.headers_.size() + 2);
    headers_ = o.headers_;
    body_ = o.body_;
    arena_ = o.arena_;
    wireCacheValid_ = false;
    cseqCacheValid_ = false;
    viaCacheValid_ = false;
    return *this;
}

SipMessage
SipMessage::request(Method m, SipUri uri)
{
    SipMessage msg;
    msg.isRequest_ = true;
    msg.method_ = m;
    msg.requestUri_ = std::move(uri);
    return msg;
}

SipMessage
SipMessage::response(int status, std::string reason)
{
    SipMessage msg;
    msg.isRequest_ = false;
    msg.status_ = status;
    msg.reason_ = reason.empty() ? reasonPhrase(status)
                                 : std::move(reason);
    return msg;
}

detail::MsgArena &
SipMessage::arena()
{
    if (!arena_)
        arena_ = std::make_shared<detail::MsgArena>();
    return *arena_;
}

std::string_view
SipMessage::intern(std::string_view s)
{
    if (s.empty())
        return {};
    return arena().intern(s);
}

namespace {

/** Canonical static name when @p name already matches it byte-for-byte
 *  (the common case); otherwise empty, and the caller interns @p name
 *  to preserve the original spelling on re-serialization. */
std::string_view
staticNameFor(HeaderId id, std::string_view name)
{
    std::string_view canon = headerCanonicalName(id);
    return canon == name ? canon : std::string_view{};
}

} // namespace

void
SipMessage::addHeader(std::string_view name, std::string_view value)
{
    HeaderId id = headerIdFor(name);
    std::string_view sn = staticNameFor(id, name);
    headers_.push_back(
        Header{id, sn.empty() ? intern(name) : sn, intern(value)});
    noteMutation(id);
}

void
SipMessage::prependHeader(std::string_view name, std::string_view value)
{
    HeaderId id = headerIdFor(name);
    std::string_view sn = staticNameFor(id, name);
    headers_.insert(
        headers_.begin(),
        Header{id, sn.empty() ? intern(name) : sn, intern(value)});
    noteMutation(id);
}

void
SipMessage::prependVia(const Via &via)
{
    char portBuf[8];
    std::size_t portLen = 0;
    if (via.port) {
        auto end =
            std::to_chars(portBuf, portBuf + sizeof(portBuf), via.port)
                .ptr;
        portLen = static_cast<std::size_t>(end - portBuf);
    }
    std::size_t n = 8 + via.transport.size() + 1 + via.host.size()
        + (via.port ? 1 + portLen : 0)
        + (via.branch.empty() ? 0 : 8 + via.branch.size());
    char *base = arena().alloc(n);
    char *w = base;
    auto put = [&w](std::string_view s) {
        std::memcpy(w, s.data(), s.size());
        w += s.size();
    };
    put("SIP/2.0/");
    put(via.transport);
    *w++ = ' ';
    put(via.host);
    if (via.port) {
        *w++ = ':';
        put(std::string_view(portBuf, portLen));
    }
    if (!via.branch.empty()) {
        put(";branch=");
        put(via.branch);
    }
    headers_.insert(headers_.begin(),
                    Header{HeaderId::Via, "Via",
                           std::string_view(base, n)});
    noteMutation(HeaderId::Via);
}

std::optional<std::string_view>
SipMessage::header(std::string_view name) const
{
    HeaderId id = headerIdFor(name);
    if (id != HeaderId::Other)
        return header(id);
    for (const auto &h : headers_) {
        if (h.id == HeaderId::Other && iequals(h.name, name))
            return h.value;
    }
    return std::nullopt;
}

std::optional<std::string_view>
SipMessage::header(HeaderId id) const
{
    for (const auto &h : headers_) {
        if (h.id == id)
            return h.value;
    }
    return std::nullopt;
}

std::vector<std::string_view>
SipMessage::headerAll(std::string_view name) const
{
    HeaderId id = headerIdFor(name);
    if (id != HeaderId::Other)
        return headerAll(id);
    std::vector<std::string_view> out;
    for (const auto &h : headers_) {
        if (h.id == HeaderId::Other && iequals(h.name, name))
            out.push_back(h.value);
    }
    return out;
}

std::vector<std::string_view>
SipMessage::headerAll(HeaderId id) const
{
    std::vector<std::string_view> out;
    for (const auto &h : headers_) {
        if (h.id == id)
            out.push_back(h.value);
    }
    return out;
}

void
SipMessage::setHeader(std::string_view name, std::string_view value)
{
    HeaderId id = headerIdFor(name);
    for (auto &h : headers_) {
        bool match = id != HeaderId::Other
            ? h.id == id
            : h.id == HeaderId::Other && iequals(h.name, name);
        if (match) {
            h.value = intern(value);
            noteMutation(id);
            return;
        }
    }
    addHeader(name, value);
}

bool
SipMessage::removeFirstHeader(std::string_view name)
{
    HeaderId id = headerIdFor(name);
    if (id != HeaderId::Other)
        return removeFirstHeader(id);
    for (auto it = headers_.begin(); it != headers_.end(); ++it) {
        if (it->id == HeaderId::Other && iequals(it->name, name)) {
            headers_.erase(it);
            wireCacheValid_ = false;
            return true;
        }
    }
    return false;
}

bool
SipMessage::removeFirstHeader(HeaderId id)
{
    for (auto it = headers_.begin(); it != headers_.end(); ++it) {
        if (it->id == id) {
            headers_.erase(it);
            noteMutation(id);
            return true;
        }
    }
    return false;
}

std::string_view
SipMessage::callId() const
{
    return header(HeaderId::CallId).value_or(std::string_view{});
}

std::optional<CSeq>
SipMessage::cseq() const
{
    if (!cseqCacheValid_) {
        cseqCache_.reset();
        if (auto h = header(HeaderId::CSeq))
            cseqCache_ = CSeq::parse(*h);
        cseqCacheValid_ = true;
    }
    return cseqCache_;
}

const std::optional<Via> &
SipMessage::topVia() const
{
    if (!viaCacheValid_) {
        viaCache_.reset();
        if (auto h = header(HeaderId::Via))
            viaCache_ = Via::parse(*h);
        viaCacheValid_ = true;
    }
    return viaCache_;
}

std::string_view
SipMessage::from() const
{
    return header(HeaderId::From).value_or(std::string_view{});
}

std::string_view
SipMessage::to() const
{
    return header(HeaderId::To).value_or(std::string_view{});
}

std::optional<SipUri>
SipMessage::contactUri() const
{
    auto h = header(HeaderId::Contact);
    if (!h)
        return std::nullopt;
    std::string_view v = trim(*h);
    // Strip "<...>" and display names.
    auto lt = v.find('<');
    if (lt != std::string_view::npos) {
        auto gt = v.find('>', lt);
        if (gt == std::string_view::npos)
            return std::nullopt;
        v = v.substr(lt + 1, gt - lt - 1);
    }
    return SipUri::parse(v);
}

std::optional<int>
SipMessage::maxForwards() const
{
    auto h = header(HeaderId::MaxForwards);
    if (!h)
        return std::nullopt;
    auto v = trim(*h);
    int out = 0;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size())
        return std::nullopt;
    return out;
}

void
SipMessage::setMaxForwards(int v)
{
    char buf[16];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    setHeader("Max-Forwards",
              std::string_view(buf, static_cast<std::size_t>(ptr - buf)));
}

void
SipMessage::setBody(std::string_view body, std::string_view content_type)
{
    body_ = intern(body);
    wireCacheValid_ = false;
    if (!content_type.empty())
        setHeader("Content-Type", content_type);
}

void
SipMessage::buildWire() const
{
    char statusBuf[16];
    std::size_t statusLen = 0;
    char lenBuf[20];
    auto lenEnd = std::to_chars(lenBuf, lenBuf + sizeof(lenBuf),
                                body_.size()).ptr;
    std::size_t lenLen = static_cast<std::size_t>(lenEnd - lenBuf);

    std::size_t n = 0;
    std::string_view method;
    if (isRequest_) {
        method = methodName(method_);
        n += method.size() + 1 + requestUri_.renderedSize()
            + 10; // " SIP/2.0\r\n"
    } else {
        auto end = std::to_chars(statusBuf, statusBuf + sizeof(statusBuf),
                                 status_).ptr;
        statusLen = static_cast<std::size_t>(end - statusBuf);
        n += 8 + statusLen + 1 + reason_.size() + 2; // "SIP/2.0 ...\r\n"
    }
    for (const auto &h : headers_) {
        if (h.id == HeaderId::ContentLength)
            continue; // always recomputed
        n += h.name.size() + 2 + h.value.size() + 2;
    }
    n += 16 + lenLen + 4 + body_.size(); // "Content-Length: N\r\n\r\n"

    wireCache_.clear();
    wireCache_.reserve(n);
    if (isRequest_) {
        wireCache_ += method;
        wireCache_ += ' ';
        requestUri_.appendTo(wireCache_);
        wireCache_ += " SIP/2.0\r\n";
    } else {
        wireCache_ += "SIP/2.0 ";
        wireCache_.append(statusBuf, statusLen);
        wireCache_ += ' ';
        wireCache_ += reason_;
        wireCache_ += "\r\n";
    }
    for (const auto &h : headers_) {
        if (h.id == HeaderId::ContentLength)
            continue;
        wireCache_ += h.name;
        wireCache_ += ": ";
        wireCache_ += h.value;
        wireCache_ += "\r\n";
    }
    wireCache_ += "Content-Length: ";
    wireCache_.append(lenBuf, lenLen);
    wireCache_ += "\r\n\r\n";
    wireCache_ += body_;
    wireCacheValid_ = true;
}

std::string
SipMessage::serialize() const
{
    if (!wireCacheValid_)
        buildWire();
    return wireCache_;
}

std::size_t
SipMessage::serializedSize() const
{
    if (!wireCacheValid_)
        buildWire();
    return wireCache_.size();
}

std::string
SipMessage::summary() const
{
    std::string out;
    if (isRequest_) {
        out = std::string(methodName(method_)) + " "
            + requestUri_.toString();
    } else {
        out = std::to_string(status_) + " " + reason_;
    }
    auto cs = cseq();
    if (cs)
        out += " (CSeq " + cs->toString() + ")";
    return out;
}

} // namespace siprox::sip
