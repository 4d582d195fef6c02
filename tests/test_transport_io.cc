/**
 * @file
 * Transport I/O tests: readFrames() over real simulated TCP
 * connections (chunked delivery, poison, EOF, a stream closed by a
 * message's handling), the OwnedConns set both stream architectures
 * poll (close order, rotated poll set, adopting an entry mid-message),
 * and bindDatagram().
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/transport_io.hh"
#include "net/sst.hh"
#include "net_fixture.hh"

namespace {

using namespace siprox;
using namespace siprox::sim;
using core::FramedConn;
using core::OwnedConns;
using core::StreamState;
using net::TcpConn;
using siprox::tests::NetFixture;

using TransportIoTest = NetFixture;

const std::string kMsg = "MESSAGE sip:bob@example.com SIP/2.0\r\n"
                         "Via: SIP/2.0/TCP 10.0.0.1:5060;branch=z9hG4bK1\r\n"
                         "Call-ID: c1\r\n"
                         "CSeq: 1 MESSAGE\r\n"
                         "Content-Length: 5\r\n"
                         "\r\n"
                         "hello";

/** Connect, send each chunk @p gap apart, then close if asked. */
Task
sendChunks(Process &p, net::Host *host, net::Addr to,
           std::vector<std::string> chunks, SimTime gap, TcpConn *conn,
           bool close_after)
{
    co_await host->tcpConnect(p, to, *conn);
    for (auto &chunk : chunks) {
        co_await conn->send(p, chunk);
        co_await p.sleepFor(gap);
    }
    if (close_after)
        co_await conn->close(p);
}

/** Everything one server-side reader saw. */
struct ReadLog
{
    std::vector<std::string> frames;
    StreamState state = StreamState::Open;
    int reads = 0;
};

/** Accept into @p fc, then read until the stream stops being Open. */
Task
readUntilClosed(Process &p, net::TcpListener *l, FramedConn *fc,
                ReadLog *log)
{
    co_await l->accept(p, fc->conn);
    do {
        co_await core::readFrames(
            p, [fc] { return fc; },
            [log](Process &, std::string raw) {
                log->frames.push_back(std::move(raw));
            },
            &log->state);
        ++log->reads;
    } while (log->state == StreamState::Open);
}

std::vector<std::string>
oneByteChunks(const std::string &s)
{
    std::vector<std::string> out;
    for (char c : s)
        out.emplace_back(1, c);
    return out;
}

TEST_F(TransportIoTest, MessageSplitIntoOneByteChunksFramesOnce)
{
    auto &listener = server.tcpListen(5060);
    FramedConn fc;
    ReadLog log;
    TcpConn cconn;
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return readUntilClosed(p, &listener, &fc, &log);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060),
                          oneByteChunks(kMsg), msecs(1), &cconn, true);
    });
    sim.run();
    ASSERT_EQ(log.frames.size(), 1u);
    EXPECT_EQ(log.frames[0], kMsg);
    // One receive per byte, then the EOF.
    EXPECT_EQ(log.reads, static_cast<int>(kMsg.size()) + 1);
    EXPECT_EQ(log.state, StreamState::Eof);
    EXPECT_EQ(fc.framer.buffered(), 0u);
}

TEST_F(TransportIoTest, PoisonedStreamYieldsEarlierFramesThenPoison)
{
    auto &listener = server.tcpListen(5060);
    FramedConn fc;
    ReadLog log;
    TcpConn cconn;
    const std::string junk(sip::StreamFramer::kMaxHeaderBytes + 10, 'x');
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return readUntilClosed(p, &listener, &fc, &log);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060),
                          {kMsg + kMsg + junk}, msecs(1), &cconn,
                          false);
    });
    sim.run();
    ASSERT_EQ(log.frames.size(), 2u);
    EXPECT_EQ(log.frames[0], kMsg);
    EXPECT_EQ(log.frames[1], kMsg);
    EXPECT_EQ(log.state, StreamState::Poisoned);
    EXPECT_TRUE(fc.conn.valid()); // closing is the caller's reaction
}

TEST_F(TransportIoTest, EofReportedWithNothingBuffered)
{
    auto &listener = server.tcpListen(5060);
    FramedConn fc;
    ReadLog log;
    TcpConn cconn;
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return readUntilClosed(p, &listener, &fc, &log);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060), {}, 0, &cconn,
                          true);
    });
    sim.run();
    EXPECT_TRUE(log.frames.empty());
    EXPECT_EQ(log.reads, 1);
    EXPECT_EQ(log.state, StreamState::Eof);
    EXPECT_EQ(fc.framer.buffered(), 0u);
}

/** A reader whose first message's handling drops its stream. */
struct DroppingReader
{
    FramedConn *live = nullptr;
    ReadLog log;
};

Task
readOnceDroppingAfterFirst(Process &p, net::TcpListener *l,
                           FramedConn *fc, DroppingReader *r)
{
    co_await l->accept(p, fc->conn);
    r->live = fc;
    co_await core::readFrames(
        p, [r] { return r->live; },
        [r](Process &, std::string raw) {
            r->log.frames.push_back(std::move(raw));
            r->live = nullptr; // the handling closed the stream
        },
        &r->log.state);
}

TEST_F(TransportIoTest, NoFrameHandedOverAfterHandlingClosedTheStream)
{
    auto &listener = server.tcpListen(5060);
    FramedConn fc;
    DroppingReader r;
    TcpConn cconn;
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return readOnceDroppingAfterFirst(p, &listener, &fc, &r);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060), {kMsg + kMsg},
                          msecs(1), &cconn, false);
    });
    sim.run();
    EXPECT_EQ(r.log.frames.size(), 1u);
    EXPECT_EQ(r.log.state, StreamState::Gone);
}

// --- OwnedConns ----------------------------------------------------------

std::vector<std::uint64_t>
pollIds(const OwnedConns &set, int cursor)
{
    std::vector<Pollable *> items;
    std::vector<std::uint64_t> ids;
    set.pollSet(cursor, items, ids);
    EXPECT_EQ(items.size(), ids.size());
    return ids;
}

/** Accept @p n connections into @p set. */
Task
acceptInto(Process &p, net::TcpListener *l, int n, OwnedConns *set)
{
    for (int i = 0; i < n; ++i) {
        TcpConn conn;
        co_await l->accept(p, conn);
        std::uint64_t id = conn.id();
        set->add(id, std::move(conn));
    }
}

/** Close each of @p ids in @p set, in turn. */
Task
closeEach(Process &p, OwnedConns *set, std::vector<std::uint64_t> ids)
{
    for (std::uint64_t id : ids)
        co_await set->close(p, id);
}

TEST_F(TransportIoTest, CloseKeepsTheOrderOfTheOthers)
{
    OwnedConns set;
    for (std::uint64_t id : {5, 1, 4, 2, 3})
        set.add(id, TcpConn{});
    serverMachine.spawn("closer", 0, [&](Process &p) {
        return closeEach(p, &set, {4});
    });
    sim.run();
    EXPECT_EQ(set.order(), (std::vector<std::uint64_t>{5, 1, 2, 3}));
    EXPECT_EQ(set.find(4), nullptr);
    // Closing an id that is not owned is a no-op.
    serverMachine.spawn("closer", 0, [&](Process &p) {
        return closeEach(p, &set, {5, 3, 42});
    });
    sim.run();
    EXPECT_EQ(set.order(), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(set.size(), 2u);
}

TEST_F(TransportIoTest, ClosedDescriptorIsReleased)
{
    auto &listener = server.tcpListen(5060);
    OwnedConns set;
    TcpConn cconn;
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return acceptInto(p, &listener, 1, &set);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060), {}, 0, &cconn,
                          false);
    });
    sim.run();
    ASSERT_EQ(set.size(), 1u);
    const std::uint64_t id = set.order()[0];
    serverMachine.spawn("closer", 0, [&](Process &p) {
        return closeEach(p, &set, {id});
    });
    sim.run();
    EXPECT_EQ(set.size(), 0u);
    // The server's close reached the peer: its side reads EOF.
    EXPECT_TRUE(cconn.endpoint()->peerClosed());
}

TEST_F(TransportIoTest, PollSetIsTheRotationOfTheInsertionOrder)
{
    auto &listener = server.tcpListen(5060);
    OwnedConns set;
    std::vector<TcpConn> clients(5);
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return acceptInto(p, &listener, 5, &set);
    });
    for (auto &c : clients) {
        clientMachine.spawn("cli", 0, [&](Process &p) {
            return sendChunks(p, &client, server.addr(5060), {}, 0, &c,
                              false);
        });
    }
    sim.run();
    ASSERT_EQ(set.size(), 5u);
    const auto o = set.order();
    // An entry whose descriptor is mid-close stays listed but is never
    // polled.
    set.find(o[2])->conn.closeQuiet();

    EXPECT_EQ(pollIds(set, 0),
              (std::vector<std::uint64_t>{o[0], o[1], o[3], o[4]}));
    EXPECT_EQ(pollIds(set, 1),
              (std::vector<std::uint64_t>{o[1], o[3], o[4], o[0]}));
    EXPECT_EQ(pollIds(set, 2),
              (std::vector<std::uint64_t>{o[3], o[4], o[0], o[1]}));
    EXPECT_EQ(pollIds(set, 4),
              (std::vector<std::uint64_t>{o[4], o[0], o[1], o[3]}));
    // Cursors past the end wrap (a cursor kept while the set shrank).
    EXPECT_EQ(pollIds(set, 6), pollIds(set, 1));

    std::vector<Pollable *> items;
    std::vector<std::uint64_t> ids;
    set.pollSet(3, items, ids);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(items[i], &set.find(ids[i])->conn.readable());
}

/** Accept into @p from, then read once (a partial message). */
Task
acceptAndReadOnce(Process &p, net::TcpListener *l, OwnedConns *from,
                  std::uint64_t *id, ReadLog *log)
{
    TcpConn conn;
    co_await l->accept(p, conn);
    *id = conn.id();
    from->add(*id, std::move(conn));
    const std::uint64_t cid = *id;
    co_await core::readFrames(
        p, [from, cid] { return from->find(cid); },
        [log](Process &, std::string raw) {
            log->frames.push_back(std::move(raw));
        },
        &log->state);
    ++log->reads;
}

/** Read @p id once from @p set. */
Task
readOnce(Process &p, OwnedConns *set, std::uint64_t id, ReadLog *log)
{
    co_await core::readFrames(
        p, [set, id] { return set->find(id); },
        [log](Process &, std::string raw) {
            log->frames.push_back(std::move(raw));
        },
        &log->state);
    ++log->reads;
}

TEST_F(TransportIoTest, AdoptCarriesPartiallyFramedBytes)
{
    auto &listener = server.tcpListen(5060);
    OwnedConns victim, thief;
    std::uint64_t id = 0;
    ReadLog first, second;
    TcpConn cconn;
    const std::size_t half = kMsg.size() / 2;
    serverMachine.spawn("victim", 0, [&](Process &p) {
        return acceptAndReadOnce(p, &listener, &victim, &id, &first);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) {
        return sendChunks(p, &client, server.addr(5060),
                          {kMsg.substr(0, half)}, 0, &cconn, false);
    });
    sim.run();
    ASSERT_EQ(first.reads, 1);
    EXPECT_TRUE(first.frames.empty());
    EXPECT_EQ(first.state, StreamState::Open);
    EXPECT_EQ(victim.find(id)->framer.buffered(), half);

    victim.add(id + 1000, TcpConn{}); // a bystander keeps its place
    thief.add(id + 2000, TcpConn{});
    thief.adopt(victim, id);
    EXPECT_EQ(victim.find(id), nullptr);
    EXPECT_EQ(victim.order(), (std::vector<std::uint64_t>{id + 1000}));
    EXPECT_EQ(thief.order(),
              (std::vector<std::uint64_t>{id + 2000, id}));
    ASSERT_NE(thief.find(id), nullptr);
    EXPECT_EQ(thief.find(id)->framer.buffered(), half);

    // The rest of the message completes it on the new owner.
    clientMachine.spawn("cli2", 0, [&](Process &p) -> Task {
        return cconn.send(p, kMsg.substr(half));
    });
    serverMachine.spawn("thief", 0, [&](Process &p) {
        return readOnce(p, &thief, id, &second);
    });
    sim.run();
    ASSERT_EQ(second.frames.size(), 1u);
    EXPECT_EQ(second.frames[0], kMsg);
    EXPECT_EQ(second.state, StreamState::Open);
}

// --- bindDatagram --------------------------------------------------------

TEST_F(TransportIoTest, BindDatagramBindsTheTransportsSocket)
{
    auto &udp = core::bindDatagram(server, core::Transport::Udp, 5060);
    auto &sctp = core::bindDatagram(server, core::Transport::Sctp, 5061);
    auto &sst = core::bindDatagram(server, core::Transport::Sst, 5062);
    EXPECT_NE(dynamic_cast<net::UdpSocket *>(&udp), nullptr);
    EXPECT_NE(dynamic_cast<net::SctpSocket *>(&sctp), nullptr);
    EXPECT_NE(dynamic_cast<net::SstSocket *>(&sst), nullptr);
    EXPECT_EQ(udp.localAddr(), server.addr(5060));
}

} // namespace
