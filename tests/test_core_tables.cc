/**
 * @file
 * Unit tests for the proxy's shared-memory structures: the transaction
 * table, the global retransmission list, the connection table with
 * aliases, the idle priority queue, and the registrar — including a
 * randomized ConnTable run against a reference model — and the counter
 * field tables that generate every counter output.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <set>

#include "core/conn_table.hh"
#include "core/dispatcher.hh"
#include "core/registrar.hh"
#include "core/shared.hh"
#include "core/txn_table.hh"
#include "sim/rng.hh"
#include "sip/timers.hh"

namespace {

using namespace siprox;
using namespace siprox::core;

sip::TransactionKey
key(const std::string &branch, sip::Method m = sip::Method::Invite)
{
    return sip::TransactionKey{branch, m};
}

TxnRecord
record(const std::string &server_branch,
       const std::string &client_branch)
{
    TxnRecord rec;
    rec.serverKey = key(server_branch);
    rec.clientKey = key(client_branch);
    rec.method = sip::Method::Invite;
    rec.upstreamAddr = net::Addr{1, 5062};
    return rec;
}

TEST(TxnTableTest, FindByEitherKey)
{
    TxnTable table;
    auto rec = table.insert(record("s1", "c1"));
    EXPECT_EQ(table.find(key("s1")), rec);
    EXPECT_EQ(table.find(key("c1")), rec);
    EXPECT_EQ(table.find(key("nope")), nullptr);
    EXPECT_EQ(table.size(), 2u); // two keys, one record
}

TEST(TxnTableTest, MethodDistinguishesKeys)
{
    TxnTable table;
    table.insert(record("b", "c1"));
    EXPECT_TRUE(table.find(key("b", sip::Method::Invite)));
    EXPECT_FALSE(table.find(key("b", sip::Method::Bye)));
}

TEST(TxnTableTest, CleanupRemovesExpiredInOrder)
{
    TxnTable table;
    auto r1 = table.insert(record("s1", "c1"));
    auto r2 = table.insert(record("s2", "c2"));
    auto r3 = table.insert(record("s3", "c3"));
    table.scheduleExpiry(r1, 100);
    table.scheduleExpiry(r2, 200);
    table.scheduleExpiry(r3, 300);
    EXPECT_EQ(table.cleanupExpired(50), 0u);
    EXPECT_EQ(table.cleanupExpired(250), 2u);
    EXPECT_FALSE(table.find(key("s1")));
    EXPECT_FALSE(table.find(key("c2")));
    EXPECT_TRUE(table.find(key("s3")));
    EXPECT_EQ(table.cleanupExpired(1000), 1u);
    EXPECT_EQ(table.size(), 0u);
}

TEST(RetransListTest, ArmAndCollectDue)
{
    RetransList list;
    RetransList::Entry entry;
    entry.key = key("b1");
    entry.wire = "INVITE";
    entry.dst = net::Addr{2, 5060};
    entry.nextAt = 100;
    entry.interval = 100;
    entry.deadline = 10000;
    entry.invite = true;
    list.arm(entry);

    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    EXPECT_EQ(list.collectDue(50, due, timeouts), 1u); // visited all
    EXPECT_TRUE(due.empty());
    list.collectDue(150, due, timeouts);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].wire, "INVITE");
    EXPECT_EQ(timeouts, 0u);
}

TEST(RetransListTest, InviteBackoffDoublesUnbounded)
{
    RetransList list;
    RetransList::Entry entry;
    entry.key = key("b1");
    entry.nextAt = 0;
    entry.interval = sip::timers::kT1;
    entry.deadline = sim::secs(600);
    entry.invite = true;
    list.arm(entry);

    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    sim::SimTime t = 0;
    std::vector<sim::SimTime> gaps;
    sim::SimTime last = 0;
    for (int i = 0; i < 5; ++i) {
        // Advance exactly to the next due time.
        t += sim::secs(64); // far enough that it is always due
        due.clear();
        list.collectDue(t, due, timeouts);
        if (!due.empty()) {
            gaps.push_back(t - last);
            last = t;
        }
    }
    EXPECT_GE(gaps.size(), 3u);
}

TEST(RetransListTest, NonInviteBackoffCapsAtT2)
{
    RetransList list;
    RetransList::Entry entry;
    entry.key = key("b1", sip::Method::Bye);
    entry.nextAt = 0;
    entry.interval = sip::timers::kT2; // already at cap
    entry.deadline = sim::secs(600);
    entry.invite = false;
    list.arm(entry);
    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    list.collectDue(1, due, timeouts);
    ASSERT_EQ(due.size(), 1u);
    due.clear();
    // Next retransmission must come after exactly T2, not 2*T2.
    list.collectDue(1 + sip::timers::kT2, due, timeouts);
    EXPECT_EQ(due.size(), 1u);
}

TEST(RetransListTest, CancelSuppressesAndErases)
{
    RetransList list;
    RetransList::Entry entry;
    entry.key = key("b1");
    entry.nextAt = 100;
    entry.interval = 100;
    entry.deadline = 10000;
    list.arm(entry);
    EXPECT_TRUE(list.cancel(key("b1")));
    EXPECT_FALSE(list.cancel(key("b1"))); // already gone from index
    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    list.collectDue(500, due, timeouts);
    EXPECT_TRUE(due.empty());
    EXPECT_EQ(list.size(), 0u); // erased during the walk
}

TEST(RetransListTest, DeadlineExpiryCountsTimeout)
{
    RetransList list;
    RetransList::Entry entry;
    entry.key = key("b1");
    entry.nextAt = 100;
    entry.interval = 100;
    entry.deadline = 1000;
    list.arm(entry);
    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    list.collectDue(2000, due, timeouts);
    EXPECT_EQ(timeouts, 1u);
    EXPECT_TRUE(due.empty());
    EXPECT_EQ(list.size(), 0u);
}

// --- ConnTable -------------------------------------------------------------

std::unique_ptr<TcpConnObj>
conn(std::uint64_t id, net::Addr peer = {})
{
    auto obj = std::make_unique<TcpConnObj>();
    obj->id = id;
    obj->peer = peer;
    return obj;
}

TEST(ConnTableTest, InsertLookupErase)
{
    ConnTable table;
    table.insert(conn(7));
    ASSERT_TRUE(table.byId(7));
    EXPECT_EQ(table.byId(7)->id, 7u);
    EXPECT_FALSE(table.byId(8));
    table.erase(7);
    EXPECT_FALSE(table.byId(7));
    EXPECT_EQ(table.size(), 0u);
}

TEST(ConnTableTest, AliasResolvesAndRetargets)
{
    ConnTable table;
    table.insert(conn(1));
    table.insert(conn(2));
    net::Addr addr{5, 16000};
    table.setAlias(addr, 1);
    ASSERT_TRUE(table.byAddr(addr));
    EXPECT_EQ(table.byAddr(addr)->id, 1u);
    // Reconnect: the alias moves to the new connection.
    table.setAlias(addr, 2);
    EXPECT_EQ(table.byAddr(addr)->id, 2u);
}

TEST(ConnTableTest, EraseCleansOwnAliasesOnly)
{
    ConnTable table;
    table.insert(conn(1));
    table.insert(conn(2));
    net::Addr a{5, 16000}, b{5, 16001};
    table.setAlias(a, 1);
    table.setAlias(b, 2);
    table.setAlias(a, 2); // alias a moved from 1 to 2
    table.erase(1);       // must not remove alias a (points at 2 now)
    ASSERT_TRUE(table.byAddr(a));
    EXPECT_EQ(table.byAddr(a)->id, 2u);
    table.erase(2);
    EXPECT_FALSE(table.byAddr(a));
    EXPECT_FALSE(table.byAddr(b));
}

TEST(ConnTableTest, SetAliasForUnknownConnIsNoop)
{
    ConnTable table;
    table.setAlias(net::Addr{1, 2}, 99);
    EXPECT_FALSE(table.byAddr(net::Addr{1, 2}));
}

TEST(ConnTableTest, RandomizedAgainstReferenceModel)
{
    ConnTable table;
    std::map<std::uint64_t, bool> live;
    std::map<net::Addr, std::uint64_t> aliases;
    sim::Rng rng(99);
    std::uint64_t next_id = 1;
    for (int step = 0; step < 5000; ++step) {
        switch (rng.below(4)) {
          case 0: { // insert
            table.insert(conn(next_id));
            live[next_id] = true;
            ++next_id;
            break;
          }
          case 1: { // erase random id
            if (live.empty())
                break;
            auto it = live.begin();
            std::advance(it, static_cast<long>(
                                 rng.below(live.size())));
            table.erase(it->first);
            for (auto ait = aliases.begin(); ait != aliases.end();) {
                if (ait->second == it->first)
                    ait = aliases.erase(ait);
                else
                    ++ait;
            }
            live.erase(it);
            break;
          }
          case 2: { // set alias
            if (live.empty())
                break;
            auto it = live.begin();
            std::advance(it, static_cast<long>(
                                 rng.below(live.size())));
            net::Addr addr{1, static_cast<std::uint16_t>(
                                  rng.below(32))};
            table.setAlias(addr, it->first);
            aliases[addr] = it->first;
            break;
          }
          default: { // verify a random alias + size
            net::Addr addr{1, static_cast<std::uint16_t>(
                                  rng.below(32))};
            TcpConnObj *obj = table.byAddr(addr);
            auto it = aliases.find(addr);
            if (it == aliases.end()) {
                EXPECT_EQ(obj, nullptr);
            } else {
                ASSERT_NE(obj, nullptr);
                EXPECT_EQ(obj->id, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(table.size(), live.size());
    }
}

// --- IdlePq ------------------------------------------------------------------

TEST(IdlePqTest, PopsInExpiryOrder)
{
    IdlePq pq;
    pq.push(300, 3);
    pq.push(100, 1);
    pq.push(200, 2);
    ASSERT_FALSE(pq.empty());
    EXPECT_EQ(pq.top().id, 1u);
    pq.pop();
    EXPECT_EQ(pq.top().id, 2u);
    pq.pop();
    EXPECT_EQ(pq.top().id, 3u);
    pq.pop();
    EXPECT_TRUE(pq.empty());
}

TEST(IdlePqTest, HeapInvariantUnderRandomOps)
{
    IdlePq pq;
    sim::Rng rng(7);
    for (int i = 0; i < 2000; ++i)
        pq.push(static_cast<sim::SimTime>(rng.below(1000000)),
                static_cast<std::uint64_t>(i));
    sim::SimTime last = -1;
    while (!pq.empty()) {
        EXPECT_GE(pq.top().expireAt, last);
        last = pq.top().expireAt;
        pq.pop();
    }
}

// --- Registrar ---------------------------------------------------------------

TEST(RegistrarTest, UpdateAndLookup)
{
    Registrar reg;
    Binding binding;
    binding.contact = *sip::SipUri::parse("sip:alice@h2:6000");
    binding.connId = 42;
    reg.update("alice", binding);
    auto found = reg.lookup("alice");
    ASSERT_TRUE(found);
    EXPECT_EQ(found->contact.host, "h2");
    EXPECT_EQ(found->connId, 42u);
    EXPECT_FALSE(reg.lookup("bob"));
}

TEST(RegistrarTest, ReRegistrationReplacesBinding)
{
    Registrar reg;
    Binding b1;
    b1.contact = *sip::SipUri::parse("sip:alice@h2:6000");
    b1.connId = 1;
    reg.update("alice", b1);
    Binding b2;
    b2.contact = *sip::SipUri::parse("sip:alice@h3:7000");
    b2.connId = 2;
    reg.update("alice", b2);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.lookup("alice")->connId, 2u);
    EXPECT_EQ(reg.lookup("alice")->contact.host, "h3");
}

// --- counter field tables --------------------------------------------------

/** No two entries of @p table name the same member (the size checks
 *  beside the tables cannot see a duplicate standing in for a field). */
template <class Table>
void
expectDistinctMembers(const Table &table)
{
    for (std::size_t i = 0; i < std::size(table); ++i) {
        for (std::size_t j = i + 1; j < std::size(table); ++j) {
            EXPECT_NE(table[i].member, table[j].member)
                << table[i].name << " / " << table[j].name;
            EXPECT_STRNE(table[i].name, table[j].name);
        }
    }
}

TEST(CounterTablesTest, EveryTableNamesEachMemberOnce)
{
    expectDistinctMembers(kProxyCounterFields);
    expectDistinctMembers(kDispatcherFields);
    expectDistinctMembers(net::kNetStatsFields);
    expectDistinctMembers(net::kBatchIoFields);
    expectDistinctMembers(net::kNetBatchFields);
}

TEST(CounterTablesTest, ProxyCountersAddSumsEveryField)
{
    // Distinct values in every field, written through the raw bytes so
    // the setup does not depend on the table under test.
    constexpr std::size_t n = sizeof(ProxyCounters) / sizeof(std::uint64_t);
    std::uint64_t a_raw[n], b_raw[n];
    for (std::size_t i = 0; i < n; ++i) {
        a_raw[i] = i + 1;
        b_raw[i] = 1000 * (i + 1);
    }
    ProxyCounters a, b;
    std::memcpy(&a, a_raw, sizeof a);
    std::memcpy(&b, b_raw, sizeof b);

    a.add(b);
    std::uint64_t sum_raw[n];
    std::memcpy(sum_raw, &a, sizeof a);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(sum_raw[i], 1001 * (i + 1)) << "field #" << i;
}

} // namespace
