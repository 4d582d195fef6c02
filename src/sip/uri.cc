#include "sip/uri.hh"

#include <charconv>

#include "sip/message.hh"

namespace siprox::sip {

namespace {

/** Split @p text at the first @p sep; returns {text, ""} if absent. */
std::pair<std::string_view, std::string_view>
splitFirst(std::string_view text, char sep)
{
    auto pos = text.find(sep);
    if (pos == std::string_view::npos)
        return {text, {}};
    return {text.substr(0, pos), text.substr(pos + 1)};
}

bool
parsePort(std::string_view text, std::uint16_t &out)
{
    unsigned value = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()
        || value == 0 || value > 65535) {
        return false;
    }
    out = static_cast<std::uint16_t>(value);
    return true;
}

} // namespace

std::optional<SipUri>
SipUri::parse(std::string_view text)
{
    if (text.substr(0, 4) != "sip:")
        return std::nullopt;
    text.remove_prefix(4);

    SipUri uri;
    // Split off URI parameters first.
    auto [core, params] = splitFirst(text, ';');
    // user@hostport or hostport
    auto at = core.find('@');
    std::string_view hostport = core;
    if (at != std::string_view::npos) {
        uri.user = std::string(core.substr(0, at));
        hostport = core.substr(at + 1);
    }
    auto [host, port] = splitFirst(hostport, ':');
    if (host.empty())
        return std::nullopt;
    uri.host = std::string(host);
    if (!port.empty() && !parsePort(port, uri.port))
        return std::nullopt;

    while (!params.empty()) {
        auto [param, rest] = splitFirst(params, ';');
        params = rest;
        if (param.empty())
            continue;
        auto [name, value] = splitFirst(param, '=');
        uri.params.emplace_back(std::string(name), std::string(value));
    }
    return uri;
}

std::size_t
SipUri::renderedSize() const
{
    std::size_t n = 4 + host.size(); // "sip:"
    if (!user.empty())
        n += user.size() + 1;
    if (port) {
        char buf[8];
        auto end = std::to_chars(buf, buf + sizeof(buf), port).ptr;
        n += 1 + static_cast<std::size_t>(end - buf);
    }
    for (const auto &[name, value] : params) {
        n += 1 + name.size();
        if (!value.empty())
            n += 1 + value.size();
    }
    return n;
}

void
SipUri::appendTo(std::string &out) const
{
    out += "sip:";
    if (!user.empty()) {
        out += user;
        out += '@';
    }
    out += host;
    if (port) {
        char buf[8];
        auto end = std::to_chars(buf, buf + sizeof(buf), port).ptr;
        out += ':';
        out.append(buf, static_cast<std::size_t>(end - buf));
    }
    for (const auto &[name, value] : params) {
        out += ';';
        out += name;
        if (!value.empty()) {
            out += '=';
            out += value;
        }
    }
}

std::string
SipUri::toString() const
{
    std::string out;
    out.reserve(renderedSize());
    appendTo(out);
    return out;
}

std::optional<std::string_view>
SipUri::param(std::string_view name) const
{
    for (const auto &[pname, pvalue] : params) {
        if (pname == name)
            return std::string_view(pvalue);
    }
    return std::nullopt;
}

std::optional<net::Addr>
addrFromUri(const SipUri &uri)
{
    return addrFromHost(uri.host, uri.effectivePort());
}

std::optional<net::Addr>
addrFromHost(std::string_view host, std::uint16_t port)
{
    if (host.size() < 2 || host[0] != 'h')
        return std::nullopt;
    std::uint32_t id = 0;
    auto sv = host.substr(1);
    auto [ptr, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), id);
    if (ec != std::errc() || ptr != sv.data() + sv.size())
        return std::nullopt;
    return net::Addr{id, port};
}

std::optional<net::Addr>
addrFromVia(const std::optional<Via> &via)
{
    if (!via)
        return std::nullopt;
    return addrFromHost(via->host, via->effectivePort());
}

std::optional<SipUri>
uriFromNameAddr(std::string_view value)
{
    auto lt = value.find('<');
    if (lt != std::string_view::npos) {
        auto gt = value.find('>', lt);
        if (gt == std::string_view::npos)
            return std::nullopt;
        return SipUri::parse(value.substr(lt + 1, gt - lt - 1));
    }
    return SipUri::parse(value.substr(0, value.find(';')));
}

SipUri
uriForAddr(std::string user, net::Addr addr)
{
    SipUri uri;
    uri.user = std::move(user);
    uri.host = "h" + std::to_string(addr.host);
    uri.port = addr.port;
    return uri;
}

} // namespace siprox::sip
