/**
 * @file
 * Quickstart: stand up a 4-core proxy server and two phones on a
 * simulated LAN, place a few calls over UDP, and print the outcome.
 *
 * This is the smallest complete use of the public API:
 *   Simulation -> Machines -> Network -> Proxy -> Phones -> run.
 */

#include <cstdio>

#include "core/proxy.hh"
#include "net/network.hh"
#include "phone/phone.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "stats/histogram.hh"

int
main()
{
    using namespace siprox;

    // The testbed: one 4-core server and one 2-core client machine.
    sim::Simulation simulation;
    auto &server_machine = simulation.addMachine("server", 4);
    auto &client_machine = simulation.addMachine("client", 2);
    net::Network network(simulation);
    auto &server_host = network.attach(server_machine);
    auto &client_host = network.attach(client_machine);

    // A stateful UDP proxy with 4 worker processes on port 5060.
    core::ProxyConfig cfg;
    cfg.transport = core::Transport::Udp;
    cfg.workers = 4;
    core::Proxy proxy(server_machine, server_host, cfg);
    proxy.start();

    // One caller and one callee. Phones register, then the caller
    // places calls; every INVITE and BYE transaction flows through
    // the proxy.
    const int calls = 5;
    sim::Latch registered(2), start(1), done(1);

    phone::PhoneConfig callee_cfg;
    callee_cfg.user = "bob";
    callee_cfg.port = 16000;
    callee_cfg.proxyAddr = proxy.addr();
    phone::Phone bob(client_machine, client_host, callee_cfg);
    bob.startCallee(calls, &registered, nullptr);

    stats::LatencyHistogram invite_latency;
    phone::PhoneConfig caller_cfg = callee_cfg;
    caller_cfg.user = "alice";
    caller_cfg.port = 6000;
    caller_cfg.inviteLatency = &invite_latency;
    phone::Phone alice(client_machine, client_host, caller_cfg);
    alice.startCaller(calls, "bob", &registered, &start, &done);

    // Release the callers once everyone has registered, then run the
    // simulation until it quiesces.
    start.arrive();
    simulation.runUntil(sim::secs(30));
    proxy.requestStop();

    const auto &stats = alice.stats();
    std::printf("calls completed: %llu (failed %llu)\n",
                static_cast<unsigned long long>(stats.callsCompleted),
                static_cast<unsigned long long>(stats.callsFailed));
    std::printf("SIP transactions (invite+bye): %llu\n",
                static_cast<unsigned long long>(stats.opsCompleted));
    std::printf("median INVITE setup latency: %.2f ms\n",
                sim::toMsecs(invite_latency.percentile(0.5)));
    const auto &counters = proxy.shared().counters;
    std::printf("proxy: %llu messages in, %llu forwarded, "
                "%llu local replies\n",
                static_cast<unsigned long long>(counters.messagesIn),
                static_cast<unsigned long long>(counters.forwards),
                static_cast<unsigned long long>(counters.localReplies));
    return stats.callsCompleted == calls ? 0 : 1;
}
