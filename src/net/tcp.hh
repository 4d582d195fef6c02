/**
 * @file
 * Simulated TCP: connection-oriented, byte-stream, reliable and ordered.
 *
 * What is modeled (because the paper's results depend on it): handshake
 * latency and kernel cost, byte-stream semantics (no message framing —
 * receivers must frame), FIN/EOF, connect refusal, ephemeral ports with
 * TIME_WAIT on active close, per-host socket limits, and fd-like
 * move-only handles that can be duplicated and passed between processes
 * (SCM_RIGHTS). What is not modeled: congestion control, loss recovery,
 * and flow-control windows — the testbed is an uncongested LAN and the
 * workload is CPU-bound (see DESIGN.md substitutions).
 */

#ifndef SIPROX_NET_TCP_HH
#define SIPROX_NET_TCP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "net/addr.hh"
#include "net/network.hh"
#include "sim/fifo.hh"
#include "sim/pollable.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace siprox::net {

class TcpConn;

/** Connection state of one endpoint. */
enum class TcpState
{
    SynSent,
    Established,
    Reset,
};

/**
 * Shared per-side connection state. Handles (TcpConn) reference an
 * endpoint; the connection side closes when its last handle closes.
 */
class TcpEndpoint : public sim::Pollable,
                    public std::enable_shared_from_this<TcpEndpoint>
{
  public:
    TcpEndpoint(Host &host, Addr local, Addr remote, bool owns_port,
                std::uint64_t id);

    std::uint64_t id() const { return id_; }
    Addr local() const { return local_; }
    Addr remote() const { return remote_; }
    TcpState state() const { return state_; }

    /** FIN received from the peer. */
    bool peerClosed() const { return peerClosed_; }

    /** This side fully closed (all handles gone). */
    bool closed() const { return closed_; }

    /** Bytes waiting to be read. */
    std::size_t rxAvailable() const { return rxBuf_.size(); }

    /** Open handle (fd) count across all processes. */
    int openHandles() const { return openHandles_; }

    /** Readable: data, EOF, or error would make recv return. */
    bool
    pollReady() const override
    {
        return !rxBuf_.empty() || peerClosed_ || state_ == TcpState::Reset;
    }

    /** True once a TLS handshake completed over this connection. */
    bool tls() const { return tls_; }

  private:
    friend class Host;
    friend class TcpConn;
    friend class TcpListener;
    friend struct TcpOps;

    /** Drop one handle; the last one runs the close protocol. */
    void closeHandle();

    Host &host_;
    Addr local_;
    Addr remote_;
    /** Whether this side reserved local_.port (active opener / client). */
    bool ownsPort_;
    std::uint64_t id_;
    TcpState state_ = TcpState::SynSent;
    std::string rxBuf_;
    bool peerClosed_ = false;
    bool selfClosed_ = false;
    /** Ordered delivery: no byte or FIN of ours may arrive at the
     *  peer before this instant (TCP sequence ordering). */
    sim::SimTime txArrivalFloor_ = 0;
    bool closed_ = false;
    int openHandles_ = 0;
    /** TLS session over this connection: adds per-record crypto cost
     *  to every send/recv. Set by Host::tlsConnect on both ends. */
    bool tls_ = false;
    /** Server-side handshake CPU, charged (once) on the first read —
     *  that is when the accepting process actually runs the
     *  handshake in this model. */
    sim::SimTime tlsPendingHandshake_ = 0;
    std::shared_ptr<TcpEndpoint> peer_;
};

/**
 * A file-descriptor-like handle to a TCP connection. Move-only; the
 * destructor closes quietly. dup() models passing the descriptor to
 * another process.
 */
class TcpConn
{
  public:
    TcpConn() = default;

    TcpConn(TcpConn &&other) noexcept
        : ep_(std::move(other.ep_)), open_(other.open_)
    {
        other.open_ = false;
    }

    TcpConn &
    operator=(TcpConn &&other) noexcept
    {
        if (this != &other) {
            closeQuiet();
            ep_ = std::move(other.ep_);
            open_ = other.open_;
            other.open_ = false;
        }
        return *this;
    }

    TcpConn(const TcpConn &) = delete;
    TcpConn &operator=(const TcpConn &) = delete;

    ~TcpConn() { closeQuiet(); }

    bool valid() const { return open_ && ep_ != nullptr; }

    std::uint64_t id() const { return ep_ ? ep_->id() : 0; }
    Addr local() const { return ep_ ? ep_->local() : Addr{}; }
    Addr remote() const { return ep_ ? ep_->remote() : Addr{}; }

    /** Duplicate the descriptor (fd passing / dup()). */
    TcpConn dup() const;

    /**
     * Send @p data. Charges kernel cost; bytes arrive in order after
     * the wire delay. Writes on a dead connection are silently dropped
     * (the peer is gone; there is no one to notice).
     */
    sim::Task send(sim::Process &p, std::string data) const;

    /**
     * Read up to @p max_bytes into @p out. Blocks until data, EOF
     * (out is empty), or reset (out is empty). Charges kernel cost.
     */
    sim::Task recv(sim::Process &p, std::string &out,
                   std::size_t max_bytes = 65536) const;

    /** Close with kernel cost charged to @p p. */
    sim::Task close(sim::Process &p);

    /** Close without a process context (teardown paths). */
    void
    closeQuiet()
    {
        if (open_ && ep_) {
            ep_->closeHandle();
            open_ = false;
        }
        ep_.reset();
    }

    sim::Pollable &readable() const { return *ep_; }

    const std::shared_ptr<TcpEndpoint> &endpoint() const { return ep_; }

  private:
    friend class Host;
    friend class TcpListener;
    friend struct TcpOps;

    /** Adopt an endpoint, taking one handle reference. */
    explicit TcpConn(std::shared_ptr<TcpEndpoint> ep)
        : ep_(std::move(ep)), open_(true)
    {
        ++ep_->openHandles_;
    }

    std::shared_ptr<TcpEndpoint> ep_;
    bool open_ = false;
};

/**
 * A passive TCP socket with an accept queue. Created via
 * Host::tcpListen().
 */
class TcpListener : public sim::Pollable
{
  public:
    TcpListener(Host &host, std::uint16_t port);
    ~TcpListener() override;

    /** Blocking accept; charges kernel accept cost. */
    sim::Task accept(sim::Process &p, TcpConn &out);

    /** Non-blocking accept; no cost charged. */
    bool tryAccept(TcpConn &out);

    Addr localAddr() const { return Addr{host_.id(), port_}; }

    std::size_t backlogDepth() const { return acceptQ_.size(); }

    /** SYNs refused because this listener's accept queue was full. */
    std::uint64_t backlogRefused() const { return backlogRefused_; }

    bool pollReady() const override { return !acceptQ_.empty(); }

  private:
    friend class Host;
    friend struct TcpOps;

    Host &host_;
    std::uint16_t port_;
    sim::Fifo<std::shared_ptr<TcpEndpoint>> acceptQ_;
    std::uint64_t backlogRefused_ = 0;
};

} // namespace siprox::net

#endif // SIPROX_NET_TCP_HH
