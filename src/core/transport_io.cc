#include "core/transport_io.hh"

#include <algorithm>
#include <cassert>

#include "net/sctp.hh"
#include "net/sst.hh"
#include "net/udp.hh"

namespace siprox::core {

net::DatagramSocket &
bindDatagram(net::Host &host, Transport transport, std::uint16_t port)
{
    if (transport == Transport::Sctp)
        return host.sctpBind(port);
    if (transport == Transport::Sst)
        return host.sstBind(port);
    return host.udpBind(port);
}

sim::Task
connectStream(sim::Process &p, net::Host &host, Transport transport,
              net::Addr remote, net::TcpConn &out)
{
    if (transport == Transport::Tls)
        return host.tlsConnect(p, remote, out);
    return host.tcpConnect(p, remote, out);
}

void
OwnedConns::add(std::uint64_t id, net::TcpConn conn)
{
    auto [it, fresh] = conns_.try_emplace(id);
    assert(fresh);
    it->second.conn = std::move(conn);
    order_.push_back(id);
}

FramedConn *
OwnedConns::find(std::uint64_t id)
{
    auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : &it->second;
}

sim::Task
OwnedConns::close(sim::Process &p, std::uint64_t id)
{
    FramedConn *fc = find(id);
    if (!fc)
        co_return;
    co_await fc->conn.close(p);
    conns_.erase(id);
    order_.erase(std::find(order_.begin(), order_.end(), id));
}

void
OwnedConns::adopt(OwnedConns &from, std::uint64_t id)
{
    auto node = from.conns_.extract(id);
    assert(node);
    from.order_.erase(
        std::find(from.order_.begin(), from.order_.end(), id));
    conns_.insert(std::move(node));
    order_.push_back(id);
}

void
OwnedConns::pollSet(int cursor, std::vector<sim::Pollable *> &items,
                    std::vector<std::uint64_t> &ids) const
{
    const std::size_t n = order_.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::uint64_t id =
            order_[(static_cast<std::size_t>(cursor) + k) % n];
        const net::TcpConn &conn = conns_.at(id).conn;
        if (!conn.valid())
            continue;
        items.push_back(&conn.readable());
        ids.push_back(id);
    }
}

} // namespace siprox::core
