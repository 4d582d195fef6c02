/**
 * @file
 * Transport I/O shared by every SIP endpoint (proxy receive loops, the
 * cluster dispatcher, phones): bindDatagram() for UDP/SCTP/SST;
 * connectStream() to open a TCP or TLS connection; and for TCP/TLS
 * the FramedConn read by readFrames() — the read-and-frame step of the
 * paper's §3.1 loop — plus the OwnedConns set each stream
 * architecture's loop polls. What a caller does with a read's outcome,
 * and every send, idle-scan and accept policy, stays with the caller.
 */

#ifndef SIPROX_CORE_TRANSPORT_IO_HH
#define SIPROX_CORE_TRANSPORT_IO_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "sim/pollable.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sim/trace.hh"
#include "sip/parser.hh"

namespace siprox::core {

/** Bind @p transport's datagram socket (UDP, SCTP or SST) on @p port. */
net::DatagramSocket &bindDatagram(net::Host &host, Transport transport,
                                  std::uint16_t port);

/** Open @p transport's stream (TLS, else TCP) to @p remote into @p out:
 *  returns the Host connect itself, so awaiting it costs no extra
 *  coroutine frame. Throws net::NetError as the connect does. */
sim::Task connectStream(sim::Process &p, net::Host &host,
                        Transport transport, net::Addr remote,
                        net::TcpConn &out);

/** A stream connection and the framer fed from its bytes. */
struct FramedConn
{
    net::TcpConn conn;
    sip::StreamFramer framer;
};

/** What one readFrames() call left its stream in. */
enum class StreamState
{
    Open,     ///< readable again later
    Eof,      ///< the receive returned nothing: peer closed or reset
    Poisoned, ///< the buffered bytes can never frame: drop the stream
    Gone,     ///< a message's handling removed the stream
};

/**
 * Receive once on a stream, feed its framer, and hand each complete
 * message to @p on_frame(p, raw) in order (on_frame returns void or a
 * sim::Task). Messages framed before a poison point are handed over
 * before Poisoned is reported. @p find returns the stream or null once
 * it is gone; it is asked again after the receive and after each
 * message, so no message follows one whose handling closed the stream.
 * @p rx_tag labels the chunk in the trace (null: not traced).
 *
 * Both callables travel by value into the coroutine frame and must be
 * trivially destructible (pointers and ids only): GCC 12 can destroy a
 * by-value coroutine argument twice (see core/ipc_msg.hh).
 */
template <typename Find, typename OnFrame>
sim::Task
readFrames(sim::Process &p, Find find, OnFrame on_frame,
           StreamState *state, const char *rx_tag = nullptr)
{
    static_assert(std::is_trivially_destructible_v<Find>
                      && std::is_trivially_destructible_v<OnFrame>,
                  "readFrames callables must capture only pointers and "
                  "ids");
    FramedConn *fc = find();
    if (!fc) {
        *state = StreamState::Gone;
        co_return;
    }
    const std::uint64_t id = fc->conn.id();
    std::string bytes;
    co_await fc->conn.recv(p, bytes);
    if (rx_tag && sim::trace::enabled()) {
        sim::trace::log(p.sim().now(), rx_tag,
                        "conn " + std::to_string(id) + " "
                            + std::to_string(bytes.size()) + "B");
    }
    if (bytes.empty()) {
        *state = StreamState::Eof;
        co_return;
    }
    if (!(fc = find())) {
        *state = StreamState::Gone;
        co_return;
    }
    fc->framer.feed(std::move(bytes));
    while (auto raw = fc->framer.next()) {
        if constexpr (std::is_void_v<std::invoke_result_t<
                          OnFrame &, sim::Process &, std::string>>)
            on_frame(p, std::move(*raw));
        else
            co_await on_frame(p, std::move(*raw));
        if (!(fc = find())) {
            *state = StreamState::Gone;
            co_return;
        }
    }
    *state = fc->framer.poisoned() ? StreamState::Poisoned
                                   : StreamState::Open;
}

/** The stream connections one receive loop owns, in insertion order
 *  (the poll order, rotated by the loop's cursor). */
class OwnedConns
{
  public:
    /** Own @p conn as @p id (not yet owned) with an empty framer,
     *  last in poll order. */
    void add(std::uint64_t id, net::TcpConn conn);

    /** The entry for @p id, or null. */
    FramedConn *find(std::uint64_t id);

    /** Close @p id's descriptor, then drop its entry (no-op if not
     *  owned); the others keep their order. During the close the entry
     *  stays listed but, its descriptor invalid, is never polled. */
    sim::Task close(sim::Process &p, std::uint64_t id);

    /** Move @p id's entry, with its partially framed bytes, from
     *  @p from to the end of this set (a work-stealing migration). */
    void adopt(OwnedConns &from, std::uint64_t id);

    /** Append each valid entry's readable side to @p items and its id
     *  to @p ids, in insertion order rotated to start at @p cursor
     *  (mod size()). */
    void pollSet(int cursor, std::vector<sim::Pollable *> &items,
                 std::vector<std::uint64_t> &ids) const;

    std::size_t size() const { return order_.size(); }

    /** Connection ids in insertion order. */
    const std::vector<std::uint64_t> &order() const { return order_; }

    /** Entries in storage order: unspecified, but deterministic for a
     *  given sequence of adds and closes. The supervisor workers'
     *  linear idle scan closes in this order. */
    auto begin() const { return conns_.begin(); }
    auto end() const { return conns_.end(); }

  private:
    std::unordered_map<std::uint64_t, FramedConn> conns_;
    std::vector<std::uint64_t> order_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_TRANSPORT_IO_HH
