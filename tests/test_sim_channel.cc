/**
 * @file
 * Channel and poll tests, including the §6 blocking-IPC deadlock: a
 * supervisor blocked sending to a worker whose channel is full while the
 * worker is blocked waiting for a reply from the supervisor.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.hh"
#include "sim/pollable.hh"
#include "sim/simulation.hh"

namespace {

using namespace siprox::sim;

Task
producer(Process &p, Channel<int> *ch, int n, SimTime gap)
{
    for (int i = 0; i < n; ++i) {
        if (gap > 0)
            co_await p.sleepFor(gap);
        co_await ch->send(p, i);
    }
}

Task
consumer(Process &p, Channel<int> *ch, int n, std::vector<int> *out,
         SimTime gap)
{
    for (int i = 0; i < n; ++i) {
        if (gap > 0)
            co_await p.sleepFor(gap);
        int v = 0;
        co_await ch->recv(p, v);
        out->push_back(v);
    }
}

TEST(ChannelTest, DeliversInOrder)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> ch(8);
    std::vector<int> got;
    m.spawn("prod", 0,
            [&](Process &p) { return producer(p, &ch, 20, 0); });
    m.spawn("cons", 0,
            [&](Process &p) { return consumer(p, &ch, 20, &got, 0); });
    sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(ChannelTest, SendBlocksWhenFull)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> ch(2);
    std::vector<int> got;
    m.spawn("prod", 0,
            [&](Process &p) { return producer(p, &ch, 10, 0); });
    // Slow consumer paces the producer through the full buffer.
    m.spawn("cons", 0, [&](Process &p) {
        return consumer(p, &ch, 10, &got, usecs(10));
    });
    sim.run();
    EXPECT_EQ(got.size(), 10u);
    EXPECT_EQ(sim.now(), usecs(100));
}

TEST(ChannelTest, TrySendRespectsCapacity)
{
    Channel<int> ch(2);
    EXPECT_TRUE(ch.trySend(1));
    EXPECT_TRUE(ch.trySend(2));
    EXPECT_FALSE(ch.trySend(3));
    int v = 0;
    EXPECT_TRUE(ch.tryRecv(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(ch.trySend(3));
    EXPECT_TRUE(ch.tryRecv(v));
    EXPECT_TRUE(ch.tryRecv(v));
    EXPECT_EQ(v, 3);
    EXPECT_FALSE(ch.tryRecv(v));
}

TEST(ChannelTest, MultipleReceiversEachGetOneMessage)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 2);
    Channel<int> ch(16);
    std::vector<int> got_a, got_b;
    m.spawn("a", 0,
            [&](Process &p) { return consumer(p, &ch, 5, &got_a, 0); });
    m.spawn("b", 0,
            [&](Process &p) { return consumer(p, &ch, 5, &got_b, 0); });
    m.spawn("prod", 0,
            [&](Process &p) { return producer(p, &ch, 10, usecs(1)); });
    sim.run();
    EXPECT_EQ(got_a.size() + got_b.size(), 10u);
}

// --- poll ----------------------------------------------------------------

Task
pollTwo(Process &p, Channel<int> *a, Channel<int> *b,
        std::vector<int> *which, int rounds)
{
    std::vector<Pollable *> items{&a->readable(), &b->readable()};
    std::vector<int> ready;
    for (int i = 0; i < rounds; ++i) {
        co_await poll(p, items, kTimeNever, ready);
        const int idx = ready.empty() ? -1 : ready.front();
        which->push_back(idx);
        int v = 0;
        if (idx == 0)
            a->tryRecv(v);
        else
            b->tryRecv(v);
    }
}

TEST(PollTest, WakesOnWhicheverChannelIsReady)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> a(4), b(4);
    std::vector<int> which;
    m.spawn("poller", 0, [&](Process &p) {
        return pollTwo(p, &a, &b, &which, 4);
    });
    m.spawn("sender", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Channel<int> *a, Channel<int> *b)
            {
                co_await p.sleepFor(usecs(10));
                co_await b->send(p, 1);
                co_await p.sleepFor(usecs(10));
                co_await a->send(p, 2);
                co_await p.sleepFor(usecs(10));
                co_await b->send(p, 3);
                co_await b->send(p, 4);
            }
        };
        return Body::run(p, &a, &b);
    });
    sim.run();
    EXPECT_EQ(which, (std::vector<int>{1, 0, 1, 1}));
}

Task
pollWithTimeout(Process &p, Channel<int> *ch, SimTime timeout, int *idx,
                SimTime *when)
{
    std::vector<Pollable *> items{&ch->readable()};
    std::vector<int> ready;
    co_await poll(p, items, timeout, ready);
    *idx = ready.empty() ? -1 : ready.front();
    *when = p.sim().now();
}

TEST(PollTest, TimesOutWhenNothingReady)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> ch(4);
    int idx = -2;
    SimTime when = -1;
    m.spawn("poller", 0, [&](Process &p) {
        return pollWithTimeout(p, &ch, msecs(3), &idx, &when);
    });
    sim.run();
    EXPECT_EQ(idx, -1);
    EXPECT_EQ(when, msecs(3));
}

TEST(PollTest, ImmediateReadinessSkipsBlocking)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> ch(4);
    ch.trySend(42);
    int idx = -2;
    SimTime when = -1;
    m.spawn("poller", 0, [&](Process &p) {
        return pollWithTimeout(p, &ch, msecs(3), &idx, &when);
    });
    sim.run();
    EXPECT_EQ(idx, 0);
    EXPECT_EQ(when, 0);
}

TEST(PollTest, ZeroTimeoutIsNonBlocking)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    Channel<int> ch(4);
    int idx = -2;
    SimTime when = -1;
    m.spawn("poller", 0, [&](Process &p) {
        return pollWithTimeout(p, &ch, 0, &idx, &when);
    });
    sim.run();
    EXPECT_EQ(idx, -1);
    EXPECT_EQ(when, 0);
}

// --- the §6 deadlock ------------------------------------------------------

/**
 * Worker: requests a file descriptor from the supervisor, then blocks
 * reading the reply channel (ignoring its new-connection channel, as
 * OpenSER's worker does while forwarding). Supervisor: pushes new
 * connections into the worker's tiny new-connection channel. When the
 * supervisor blocks on a full channel while the worker blocks awaiting
 * a reply, the pair deadlocks — the §6 scenario.
 */
Task
deadlockWorker(Process &p, Channel<int> *requests, Channel<int> *replies,
               int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await requests->send(p, i);
        int reply = 0;
        co_await replies->recv(p, reply);
    }
}

Task
deadlockSupervisor(Process &p, Channel<int> *requests,
                   Channel<int> *replies, Channel<int> *new_conns,
                   int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        // Unsolicited pushes (new connections in OpenSER terms).
        co_await new_conns->send(p, 1000 + i);
        co_await new_conns->send(p, 2000 + i);
        int req = 0;
        co_await requests->recv(p, req);
        co_await replies->send(p, req);
    }
}

TEST(DeadlockTest, BlockingIpcDeadlocksWithTinyBuffers)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 2);
    Channel<int> requests(1), replies(1), new_conns(1);
    m.spawn("worker", 0, [&](Process &p) {
        return deadlockWorker(p, &requests, &replies, 100);
    });
    m.spawn("sup", 0, [&](Process &p) {
        return deadlockSupervisor(p, &requests, &replies, &new_conns,
                                  100);
    });
    sim.run();
    // The simulation quiesces with both processes blocked: deadlock.
    EXPECT_TRUE(sim.hasLiveProcesses());
    auto blocked = sim.blockedReport();
    ASSERT_EQ(blocked.size(), 2u);
    EXPECT_NE(blocked[0].find("chan"), std::string::npos);
    EXPECT_NE(blocked[1].find("chan"), std::string::npos);
}

} // namespace
