/**
 * @file
 * Shared-memory TCP connection table (§3.1): application-level
 * connection objects in a hash table behind the hot "tcpconn" spin
 * lock, address aliases for routing, and the timeout-ordered priority
 * queue of the §5.3 fix.
 */

#ifndef SIPROX_CORE_CONN_TABLE_HH
#define SIPROX_CORE_CONN_TABLE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/addr.hh"
#include "net/tcp.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace siprox::core {

using sim::SimTime;

/** Application-level state for one TCP connection. */
struct TcpConnObj
{
    std::uint64_t id = 0;
    /** The supervisor's own descriptor for the socket (it keeps a copy
     *  of every open socket so it can answer fd requests). In the
     *  multithreaded architecture this doubles as the shared fd. */
    net::TcpConn supFd;
    net::Addr peer;
    int ownerWorker = -1;
    SimTime lastUse = 0;
    /** Worker closed and returned its descriptor (idle protocol). */
    bool returned = false;
    /** EOF or error seen; destroy promptly. */
    bool dead = false;
    /** Alias addresses (Via/Contact) pointing at this connection. */
    std::vector<net::Addr> aliases;
    /** §6 thread mode: serializes writers sharing the fd. */
    sim::SpinLock writeLock{"tcpconn_write"};
};

/**
 * The shared connection hash table. All methods require lock() held;
 * callers charge CPU per the cost model.
 */
class ConnTable
{
  public:
    sim::SpinLock &lock() { return lock_; }

    TcpConnObj *
    insert(std::unique_ptr<TcpConnObj> obj)
    {
        TcpConnObj *raw = obj.get();
        byId_[raw->id] = std::move(obj);
        return raw;
    }

    TcpConnObj *
    byId(std::uint64_t id)
    {
        auto it = byId_.find(id);
        return it == byId_.end() ? nullptr : it->second.get();
    }

    /** Resolve an alias (Via/Contact address) to a connection. */
    TcpConnObj *
    byAddr(net::Addr addr)
    {
        auto it = byAddr_.find(addr);
        if (it == byAddr_.end())
            return nullptr;
        return byId(it->second);
    }

    /** The connection a send should use: @p id's when it is still in
     *  the table, else the one aliased to @p addr (null: neither). */
    TcpConnObj *
    resolve(std::uint64_t id, net::Addr addr)
    {
        TcpConnObj *obj = id ? byId(id) : nullptr;
        return obj ? obj : byAddr(addr);
    }

    /** Point @p addr at connection @p id (refreshes on reconnect). */
    void
    setAlias(net::Addr addr, std::uint64_t id)
    {
        TcpConnObj *obj = byId(id);
        if (!obj)
            return;
        auto it = byAddr_.find(addr);
        if (it != byAddr_.end() && it->second == id)
            return;
        byAddr_[addr] = id;
        obj->aliases.push_back(addr);
    }

    /** Remove a connection and any aliases still pointing at it. */
    void
    erase(std::uint64_t id)
    {
        auto it = byId_.find(id);
        if (it == byId_.end())
            return;
        for (const auto &alias : it->second->aliases) {
            auto ait = byAddr_.find(alias);
            if (ait != byAddr_.end() && ait->second == id)
                byAddr_.erase(ait);
        }
        byId_.erase(it);
    }

    std::size_t size() const { return byId_.size(); }

    /** Visit every connection object (the §5.2 linear scan). */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (auto &[id, obj] : byId_)
            fn(*obj);
    }

  private:
    sim::SpinLock lock_{"tcpconn_hash"};
    std::unordered_map<std::uint64_t, std::unique_ptr<TcpConnObj>> byId_;
    std::unordered_map<net::Addr, std::uint64_t, net::AddrHash> byAddr_;
};

/**
 * Timeout-ordered queue of connection ids (§5.3). Entries are lazily
 * revalidated against the connection object at pop time; a stale head
 * is reinserted with its fresh expiry rather than updated in place.
 */
class IdlePq
{
  public:
    struct Item
    {
        SimTime expireAt;
        std::uint64_t id;

        bool
        operator>(const Item &o) const
        {
            return expireAt > o.expireAt;
        }
    };

    void push(SimTime expire_at, std::uint64_t id)
    {
        heap_.push(Item{expire_at, id});
    }

    bool empty() const { return heap_.empty(); }

    const Item &top() const { return heap_.top(); }

    void pop() { heap_.pop(); }

    std::size_t size() const { return heap_.size(); }

  private:
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_CONN_TABLE_HH
