/**
 * @file
 * Golden determinism digests. The UDP and TCP scenarios were captured
 * before the zero-copy message / pooled event-queue rework; each later
 * case was recorded on the code it guards before that code was
 * refactored. They pin the simulation's observable behaviour
 * byte-for-byte: any change to event
 * ordering, wire bytes (tcpBytes/tcpSegments are byte-exact), timing,
 * or counter accounting shows up here as a diff. Performance work must
 * keep these digests identical; a deliberate semantic change must
 * re-record them in the same commit that explains why.
 */

#include <gtest/gtest.h>

#include <string>

#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::workload;

const char kUdpSeed7Golden[] = "ops=400\n"
                               "callsCompleted=200\n"
                               "callsFailed=0\n"
                               "phoneRetransmissions=0\n"
                               "reconnects=0\n"
                               "reconnectFailures=0\n"
                               "duration=11098333\n"
                               "inviteP50=557055\n"
                               "inviteP99=884735\n"
                               "timedOut=0\n"
                               "messagesIn=1240\n"
                               "requestsIn=640\n"
                               "responsesIn=600\n"
                               "forwards=1200\n"
                               "localReplies=240\n"
                               "parseErrors=0\n"
                               "routeFailures=0\n"
                               "retransAbsorbed=0\n"
                               "retransSent=0\n"
                               "retransTimeouts=0\n"
                               "timerB408s=0\n"
                               "registrations=40\n"
                               "connsAccepted=0\n"
                               "connsDestroyed=0\n"
                               "outboundConnects=0\n"
                               "overloadRejected=0\n"
                               "overloadThrottled=0\n"
                               "overloadPanicDrops=0\n"
                               "overloadShedEnters=0\n"
                               "overloadShedExits=0\n"
                               "tcpReadPauses=0\n"
                               "tcpReadResumes=0\n"
                               "tcpAcceptPauses=0\n"
                               "phoneRejected503=0\n"
                               "phoneBackoffs=0\n"
                               "proxyRecvQueueDrops=0\n"
                               "proxyAcceptRefused=0\n"
                               "occupancySamples=0\n"
                               "udpSent=2680\n"
                               "udpDelivered=2680\n"
                               "udpLost=0\n"
                               "udpDropped=0\n"
                               "tcpConnects=0\n"
                               "tcpRefused=0\n"
                               "tcpSegments=0\n"
                               "tcpBytes=0\n"
                               "sctpMessages=0\n"
                               "sctpDropped=0\n"
                               "sctpAssocs=0\n"
                               "faultDropped=0\n"
                               "faultDuplicated=0\n"
                               "faultDelayed=0\n"
                               "tcpFaultRefused=0\n"
                               "tcpRstInjected=0\n"
                               "tcpBlackholed=0\n"
                               "tcpRecoveries=0\n"
                               "txnEntriesAtEnd=800\n"
                               "retransEntriesAtEnd=0\n"
                               "connEntriesAtEnd=0\n";

const char kTcpSeed11Golden[] = "ops=240\n"
                                "callsCompleted=120\n"
                                "callsFailed=0\n"
                                "phoneRetransmissions=0\n"
                                "reconnects=60\n"
                                "reconnectFailures=0\n"
                                "duration=17417815\n"
                                "inviteP50=1015807\n"
                                "inviteP99=1441791\n"
                                "timedOut=0\n"
                                "messagesIn=810\n"
                                "requestsIn=450\n"
                                "responsesIn=360\n"
                                "forwards=720\n"
                                "localReplies=210\n"
                                "parseErrors=0\n"
                                "routeFailures=0\n"
                                "retransAbsorbed=0\n"
                                "retransSent=0\n"
                                "retransTimeouts=0\n"
                                "timerB408s=0\n"
                                "registrations=90\n"
                                "connsAccepted=90\n"
                                "connsDestroyed=0\n"
                                "outboundConnects=0\n"
                                "overloadRejected=0\n"
                                "overloadThrottled=0\n"
                                "overloadPanicDrops=0\n"
                                "overloadShedEnters=0\n"
                                "overloadShedExits=0\n"
                                "tcpReadPauses=0\n"
                                "tcpReadResumes=0\n"
                                "tcpAcceptPauses=0\n"
                                "phoneRejected503=0\n"
                                "phoneBackoffs=0\n"
                                "proxyRecvQueueDrops=0\n"
                                "proxyAcceptRefused=0\n"
                                "occupancySamples=0\n"
                                "udpSent=0\n"
                                "udpDelivered=0\n"
                                "udpLost=0\n"
                                "udpDropped=0\n"
                                "tcpConnects=90\n"
                                "tcpRefused=0\n"
                                "tcpSegments=1740\n"
                                "tcpBytes=524714\n"
                                "sctpMessages=0\n"
                                "sctpDropped=0\n"
                                "sctpAssocs=0\n"
                                "faultDropped=0\n"
                                "faultDuplicated=0\n"
                                "faultDelayed=0\n"
                                "tcpFaultRefused=0\n"
                                "tcpRstInjected=0\n"
                                "tcpBlackholed=0\n"
                                "tcpRecoveries=0\n"
                                "txnEntriesAtEnd=480\n"
                                "retransEntriesAtEnd=0\n"
                                "connEntriesAtEnd=90\n";

const char kTlsSeed13Golden[] = "ops=144\n"
                                "callsCompleted=72\n"
                                "callsFailed=0\n"
                                "phoneRetransmissions=0\n"
                                "reconnects=72\n"
                                "reconnectFailures=0\n"
                                "duration=12865877\n"
                                "inviteP50=917503\n"
                                "inviteP99=1245183\n"
                                "timedOut=0\n"
                                "messagesIn=528\n"
                                "requestsIn=312\n"
                                "responsesIn=216\n"
                                "forwards=432\n"
                                "localReplies=168\n"
                                "parseErrors=0\n"
                                "routeFailures=0\n"
                                "retransAbsorbed=0\n"
                                "retransSent=0\n"
                                "retransTimeouts=0\n"
                                "timerB408s=0\n"
                                "registrations=96\n"
                                "connsAccepted=96\n"
                                "connsDestroyed=0\n"
                                "outboundConnects=0\n"
                                "overloadRejected=0\n"
                                "overloadThrottled=0\n"
                                "overloadPanicDrops=0\n"
                                "overloadShedEnters=0\n"
                                "overloadShedExits=0\n"
                                "tcpReadPauses=0\n"
                                "tcpReadResumes=0\n"
                                "tcpAcceptPauses=0\n"
                                "phoneRejected503=0\n"
                                "phoneBackoffs=0\n"
                                "proxyRecvQueueDrops=0\n"
                                "proxyAcceptRefused=0\n"
                                "occupancySamples=0\n"
                                "udpSent=0\n"
                                "udpDelivered=0\n"
                                "udpLost=0\n"
                                "udpDropped=0\n"
                                "tcpConnects=96\n"
                                "tcpRefused=0\n"
                                "tcpSegments=1128\n"
                                "tcpBytes=333738\n"
                                "sctpMessages=0\n"
                                "sctpDropped=0\n"
                                "sctpAssocs=0\n"
                                "faultDropped=0\n"
                                "faultDuplicated=0\n"
                                "faultDelayed=0\n"
                                "tcpFaultRefused=0\n"
                                "tcpRstInjected=0\n"
                                "tcpBlackholed=0\n"
                                "tcpRecoveries=0\n"
                                "txnEntriesAtEnd=288\n"
                                "retransEntriesAtEnd=0\n"
                                "connEntriesAtEnd=96\n"
                                "tlsConnects=96\n"
                                "tlsHandshakesFull=24\n"
                                "tlsHandshakesResumed=72\n"
                                "tlsZeroRttResumes=0\n"
                                "tlsSessionEvictions=0\n"
                                "tlsHandshakeAborts=0\n"
                                "tlsRecords=1128\n";

const char kSstSeed17Golden[] = "ops=144\n"
                                "callsCompleted=72\n"
                                "callsFailed=0\n"
                                "phoneRetransmissions=0\n"
                                "reconnects=0\n"
                                "reconnectFailures=0\n"
                                "duration=5022364\n"
                                "inviteP50=409599\n"
                                "inviteP99=589823\n"
                                "timedOut=0\n"
                                "messagesIn=456\n"
                                "requestsIn=240\n"
                                "responsesIn=216\n"
                                "forwards=432\n"
                                "localReplies=96\n"
                                "parseErrors=0\n"
                                "routeFailures=0\n"
                                "retransAbsorbed=0\n"
                                "retransSent=0\n"
                                "retransTimeouts=0\n"
                                "timerB408s=0\n"
                                "registrations=24\n"
                                "connsAccepted=0\n"
                                "connsDestroyed=0\n"
                                "outboundConnects=0\n"
                                "overloadRejected=0\n"
                                "overloadThrottled=0\n"
                                "overloadPanicDrops=0\n"
                                "overloadShedEnters=0\n"
                                "overloadShedExits=0\n"
                                "tcpReadPauses=0\n"
                                "tcpReadResumes=0\n"
                                "tcpAcceptPauses=0\n"
                                "phoneRejected503=0\n"
                                "phoneBackoffs=0\n"
                                "proxyRecvQueueDrops=0\n"
                                "proxyAcceptRefused=0\n"
                                "occupancySamples=0\n"
                                "udpSent=0\n"
                                "udpDelivered=0\n"
                                "udpLost=0\n"
                                "udpDropped=0\n"
                                "tcpConnects=0\n"
                                "tcpRefused=0\n"
                                "tcpSegments=0\n"
                                "tcpBytes=0\n"
                                "sctpMessages=0\n"
                                "sctpDropped=0\n"
                                "sctpAssocs=0\n"
                                "faultDropped=0\n"
                                "faultDuplicated=0\n"
                                "faultDelayed=0\n"
                                "tcpFaultRefused=0\n"
                                "tcpRstInjected=0\n"
                                "tcpBlackholed=0\n"
                                "tcpRecoveries=0\n"
                                "txnEntriesAtEnd=288\n"
                                "retransEntriesAtEnd=0\n"
                                "connEntriesAtEnd=0\n"
                                "sstMessages=984\n"
                                "sstStreams=984\n"
                                "sstFrames=984\n"
                                "sstChannels=24\n"
                                "sstDropped=0\n"
                                "sstLost=0\n";

const char kEventUdpSeed19Golden[] = "ops=720\n"
                                     "callsCompleted=360\n"
                                     "callsFailed=0\n"
                                     "phoneRetransmissions=0\n"
                                     "reconnects=0\n"
                                     "reconnectFailures=0\n"
                                     "duration=18294910\n"
                                     "inviteP50=1376255\n"
                                     "inviteP99=1703935\n"
                                     "timedOut=0\n"
                                     "messagesIn=2280\n"
                                     "requestsIn=1200\n"
                                     "responsesIn=1080\n"
                                     "forwards=2160\n"
                                     "localReplies=480\n"
                                     "parseErrors=0\n"
                                     "routeFailures=0\n"
                                     "retransAbsorbed=0\n"
                                     "retransSent=0\n"
                                     "retransTimeouts=0\n"
                                     "timerB408s=0\n"
                                     "registrations=120\n"
                                     "connsAccepted=0\n"
                                     "connsDestroyed=0\n"
                                     "outboundConnects=0\n"
                                     "overloadRejected=0\n"
                                     "overloadThrottled=0\n"
                                     "overloadPanicDrops=0\n"
                                     "overloadShedEnters=0\n"
                                     "overloadShedExits=0\n"
                                     "tcpReadPauses=0\n"
                                     "tcpReadResumes=0\n"
                                     "tcpAcceptPauses=0\n"
                                     "phoneRejected503=0\n"
                                     "phoneBackoffs=0\n"
                                     "proxyRecvQueueDrops=0\n"
                                     "proxyAcceptRefused=0\n"
                                     "occupancySamples=0\n"
                                     "udpSent=4920\n"
                                     "udpDelivered=4920\n"
                                     "udpLost=0\n"
                                     "udpDropped=0\n"
                                     "tcpConnects=0\n"
                                     "tcpRefused=0\n"
                                     "tcpSegments=0\n"
                                     "tcpBytes=0\n"
                                     "sctpMessages=0\n"
                                     "sctpDropped=0\n"
                                     "sctpAssocs=0\n"
                                     "faultDropped=0\n"
                                     "faultDuplicated=0\n"
                                     "faultDelayed=0\n"
                                     "tcpFaultRefused=0\n"
                                     "tcpRstInjected=0\n"
                                     "tcpBlackholed=0\n"
                                     "tcpRecoveries=0\n"
                                     "txnEntriesAtEnd=1440\n"
                                     "retransEntriesAtEnd=0\n"
                                     "connEntriesAtEnd=0\n";

const char kEventSctpSeed23Golden[] = "ops=480\n"
                                      "callsCompleted=240\n"
                                      "callsFailed=0\n"
                                      "phoneRetransmissions=0\n"
                                      "reconnects=0\n"
                                      "reconnectFailures=0\n"
                                      "duration=14082158\n"
                                      "inviteP50=1114111\n"
                                      "inviteP99=1376255\n"
                                      "timedOut=0\n"
                                      "messagesIn=1520\n"
                                      "requestsIn=800\n"
                                      "responsesIn=720\n"
                                      "forwards=1440\n"
                                      "localReplies=320\n"
                                      "parseErrors=0\n"
                                      "routeFailures=0\n"
                                      "retransAbsorbed=0\n"
                                      "retransSent=0\n"
                                      "retransTimeouts=0\n"
                                      "timerB408s=0\n"
                                      "registrations=80\n"
                                      "connsAccepted=0\n"
                                      "connsDestroyed=0\n"
                                      "outboundConnects=0\n"
                                      "overloadRejected=0\n"
                                      "overloadThrottled=0\n"
                                      "overloadPanicDrops=0\n"
                                      "overloadShedEnters=0\n"
                                      "overloadShedExits=0\n"
                                      "tcpReadPauses=0\n"
                                      "tcpReadResumes=0\n"
                                      "tcpAcceptPauses=0\n"
                                      "phoneRejected503=0\n"
                                      "phoneBackoffs=0\n"
                                      "proxyRecvQueueDrops=0\n"
                                      "proxyAcceptRefused=0\n"
                                      "occupancySamples=0\n"
                                      "udpSent=0\n"
                                      "udpDelivered=0\n"
                                      "udpLost=0\n"
                                      "udpDropped=0\n"
                                      "tcpConnects=0\n"
                                      "tcpRefused=0\n"
                                      "tcpSegments=0\n"
                                      "tcpBytes=0\n"
                                      "sctpMessages=3280\n"
                                      "sctpDropped=0\n"
                                      "sctpAssocs=80\n"
                                      "faultDropped=0\n"
                                      "faultDuplicated=0\n"
                                      "faultDelayed=0\n"
                                      "tcpFaultRefused=0\n"
                                      "tcpRstInjected=0\n"
                                      "tcpBlackholed=0\n"
                                      "tcpRecoveries=0\n"
                                      "txnEntriesAtEnd=960\n"
                                      "retransEntriesAtEnd=0\n"
                                      "connEntriesAtEnd=0\n";

const char kSctpSeed29Golden[] = "ops=800\n"
                                 "callsCompleted=400\n"
                                 "callsFailed=0\n"
                                 "phoneRetransmissions=0\n"
                                 "reconnects=0\n"
                                 "reconnectFailures=0\n"
                                 "duration=24179012\n"
                                 "inviteP50=2359295\n"
                                 "inviteP99=3670015\n"
                                 "timedOut=0\n"
                                 "messagesIn=2560\n"
                                 "requestsIn=1360\n"
                                 "responsesIn=1200\n"
                                 "forwards=2400\n"
                                 "localReplies=560\n"
                                 "parseErrors=0\n"
                                 "routeFailures=0\n"
                                 "retransAbsorbed=0\n"
                                 "retransSent=0\n"
                                 "retransTimeouts=0\n"
                                 "timerB408s=0\n"
                                 "registrations=160\n"
                                 "connsAccepted=0\n"
                                 "connsDestroyed=0\n"
                                 "outboundConnects=0\n"
                                 "overloadRejected=0\n"
                                 "overloadThrottled=0\n"
                                 "overloadPanicDrops=0\n"
                                 "overloadShedEnters=0\n"
                                 "overloadShedExits=0\n"
                                 "tcpReadPauses=0\n"
                                 "tcpReadResumes=0\n"
                                 "tcpAcceptPauses=0\n"
                                 "phoneRejected503=0\n"
                                 "phoneBackoffs=0\n"
                                 "proxyRecvQueueDrops=0\n"
                                 "proxyAcceptRefused=0\n"
                                 "occupancySamples=0\n"
                                 "udpSent=0\n"
                                 "udpDelivered=0\n"
                                 "udpLost=0\n"
                                 "udpDropped=0\n"
                                 "tcpConnects=0\n"
                                 "tcpRefused=0\n"
                                 "tcpSegments=0\n"
                                 "tcpBytes=0\n"
                                 "sctpMessages=5520\n"
                                 "sctpDropped=0\n"
                                 "sctpAssocs=160\n"
                                 "faultDropped=0\n"
                                 "faultDuplicated=0\n"
                                 "faultDelayed=0\n"
                                 "tcpFaultRefused=0\n"
                                 "tcpRstInjected=0\n"
                                 "tcpBlackholed=0\n"
                                 "tcpRecoveries=0\n"
                                 "txnEntriesAtEnd=1600\n"
                                 "retransEntriesAtEnd=0\n"
                                 "connEntriesAtEnd=0\n";

TEST(DigestGolden, UdpPaperScenarioSeed7)
{
    Scenario sc = paperScenario(core::Transport::Udp, 20, 0);
    sc.callsPerClient = 10;
    sc.seed = 7;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kUdpSeed7Golden);
}

TEST(DigestGolden, TcpPaperScenarioSeed11)
{
    Scenario sc = paperScenario(core::Transport::Tcp, 15, 5);
    sc.callsPerClient = 8;
    sc.seed = 11;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kTcpSeed11Golden);
}

TEST(DigestGolden, TlsPaperScenarioSeed13)
{
    // Connection churn every 4 ops: the TLS group in the digest pins
    // the full-vs-resumed handshake split byte-for-byte.
    Scenario sc = paperScenario(core::Transport::Tls, 12, 4);
    sc.callsPerClient = 6;
    sc.seed = 13;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kTlsSeed13Golden);
}

TEST(DigestGolden, SstPaperScenarioSeed17)
{
    Scenario sc = paperScenario(core::Transport::Sst, 12, 0);
    sc.callsPerClient = 6;
    sc.seed = 17;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kSstSeed17Golden);
}

// The datagram architectures' receive loops: the event-driven readiness
// drain over UDP and SCTP, and the symmetric workers over SCTP. Enough
// clients that messages queue behind busy workers and loops, so the
// batch/wake bookkeeping on the shared socket shows in the timing.
TEST(DigestGolden, EventUdpScenarioSeed19)
{
    Scenario sc = paperScenario(core::Transport::Udp, 60, 0);
    sc.proxy.arch = core::ArchKind::EventDriven;
    sc.callsPerClient = 6;
    sc.seed = 19;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kEventUdpSeed19Golden);
}

TEST(DigestGolden, EventSctpScenarioSeed23)
{
    Scenario sc = paperScenario(core::Transport::Sctp, 40, 0);
    sc.proxy.arch = core::ArchKind::EventDriven;
    sc.callsPerClient = 6;
    sc.seed = 23;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kEventSctpSeed23Golden);
}

TEST(DigestGolden, SctpScenarioSeed29)
{
    Scenario sc = paperScenario(core::Transport::Sctp, 80, 0);
    sc.callsPerClient = 5;
    sc.seed = 29;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kSctpSeed29Golden);
}

TEST(DigestGolden, RepeatRunsAreByteIdentical)
{
    Scenario sc = paperScenario(core::Transport::Tcp, 10, 3);
    sc.callsPerClient = 5;
    sc.seed = 42;
    RunResult a = runScenario(sc);
    RunResult b = runScenario(sc);
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
