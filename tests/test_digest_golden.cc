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

// --- stream-path pins -------------------------------------------------
// Recorded before the supervisor workers, event loops, dispatcher and
// phones were moved onto one framed reader and one owned-connection
// set. Each case pins one stream receive path with idle closes that
// really run; the mechanism counters the digest leaves out are pinned
// beside it.

const char kSupervisorTcpFixedSeed31[] =
    "ops=300\n"
    "callsCompleted=150\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=60\n"
    "reconnectFailures=0\n"
    "duration=12814788\n"
    "inviteP50=1245183\n"
    "inviteP99=2490367\n"
    "timedOut=0\n"
    "messagesIn=1020\n"
    "requestsIn=570\n"
    "responsesIn=450\n"
    "forwards=900\n"
    "localReplies=270\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=120\n"
    "connsAccepted=120\n"
    "connsDestroyed=120\n"
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
    "tcpConnects=120\n"
    "tcpRefused=0\n"
    "tcpSegments=2190\n"
    "tcpBytes=662475\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kThreadTcpSeed37[] =
    "ops=300\n"
    "callsCompleted=150\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=60\n"
    "reconnectFailures=0\n"
    "duration=11511474\n"
    "inviteP50=1114111\n"
    "inviteP99=1835007\n"
    "timedOut=0\n"
    "messagesIn=1020\n"
    "requestsIn=570\n"
    "responsesIn=450\n"
    "forwards=900\n"
    "localReplies=270\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=120\n"
    "connsAccepted=120\n"
    "connsDestroyed=120\n"
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
    "tcpConnects=120\n"
    "tcpRefused=0\n"
    "tcpSegments=2190\n"
    "tcpBytes=662463\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kEventIpcTcpSeed41[] =
    "ops=300\n"
    "callsCompleted=150\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=60\n"
    "reconnectFailures=0\n"
    "duration=23257443\n"
    "inviteP50=2228223\n"
    "inviteP99=3145727\n"
    "timedOut=0\n"
    "messagesIn=1020\n"
    "requestsIn=570\n"
    "responsesIn=450\n"
    "forwards=900\n"
    "localReplies=270\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=120\n"
    "connsAccepted=120\n"
    "connsDestroyed=120\n"
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
    "tcpConnects=120\n"
    "tcpRefused=0\n"
    "tcpSegments=2190\n"
    "tcpBytes=663127\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kEventTcpSeed43[] =
    "ops=400\n"
    "callsCompleted=200\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=80\n"
    "reconnectFailures=0\n"
    "duration=14990027\n"
    "inviteP50=1245183\n"
    "inviteP99=2621439\n"
    "timedOut=0\n"
    "messagesIn=1360\n"
    "requestsIn=760\n"
    "responsesIn=600\n"
    "forwards=1200\n"
    "localReplies=360\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=160\n"
    "connsAccepted=160\n"
    "connsDestroyed=160\n"
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
    "tcpConnects=160\n"
    "tcpRefused=0\n"
    "tcpSegments=2920\n"
    "tcpBytes=885608\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kEventTlsSeed47[] =
    "ops=300\n"
    "callsCompleted=150\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=60\n"
    "reconnectFailures=0\n"
    "duration=12837209\n"
    "inviteP50=1179647\n"
    "inviteP99=1900543\n"
    "timedOut=0\n"
    "messagesIn=1020\n"
    "requestsIn=570\n"
    "responsesIn=450\n"
    "forwards=900\n"
    "localReplies=270\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=120\n"
    "connsAccepted=120\n"
    "connsDestroyed=120\n"
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
    "tcpConnects=120\n"
    "tcpRefused=0\n"
    "tcpSegments=2190\n"
    "tcpBytes=663031\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "tlsConnects=120\n"
    "tlsHandshakesFull=60\n"
    "tlsHandshakesResumed=60\n"
    "tlsZeroRttResumes=0\n"
    "tlsSessionEvictions=0\n"
    "tlsHandshakeAborts=0\n"
    "tlsRecords=2190\n";

const char kClusterTcpSeed53[] =
    "ops=160\n"
    "callsCompleted=80\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=32\n"
    "reconnectFailures=0\n"
    "duration=12446439\n"
    "inviteP50=1179647\n"
    "inviteP99=1638399\n"
    "timedOut=0\n"
    "messagesIn=544\n"
    "requestsIn=304\n"
    "responsesIn=240\n"
    "forwards=480\n"
    "localReplies=144\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=64\n"
    "connsAccepted=2\n"
    "connsDestroyed=2\n"
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
    "udpSent=64\n"
    "udpDelivered=64\n"
    "udpLost=0\n"
    "udpDropped=0\n"
    "tcpConnects=66\n"
    "tcpRefused=0\n"
    "tcpSegments=2336\n"
    "tcpBytes=704498\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "clusterInstances=2\n"
    "dispMessagesIn=1168\n"
    "dispRequestsRouted=544\n"
    "dispResponsesRouted=624\n"
    "dispRegistersRouted=64\n"
    "dispPeekFailures=0\n"
    "dispDropsNoRoute=0\n"
    "dispClientConnsAccepted=64\n"
    "locLocalHits=240\n"
    "locReplicaHits=0\n"
    "locMissForwards=0\n"
    "locRegisterForwards=0\n"
    "locReplPushes=64\n"
    "locReplInstalls=64\n"
    "inst0.messagesIn=298\n"
    "inst0.forwards=270\n"
    "inst0.localReplies=73\n"
    "inst0.registrations=28\n"
    "inst0.locLocalHits=135\n"
    "inst0.locReplicaHits=0\n"
    "inst0.locMissForwards=0\n"
    "inst0.locReplPushes=28\n"
    "inst0.locReplInstalls=36\n"
    "inst0.dispatched=163\n"
    "inst1.messagesIn=246\n"
    "inst1.forwards=210\n"
    "inst1.localReplies=71\n"
    "inst1.registrations=36\n"
    "inst1.locLocalHits=105\n"
    "inst1.locReplicaHits=0\n"
    "inst1.locMissForwards=0\n"
    "inst1.locReplPushes=36\n"
    "inst1.locReplInstalls=28\n"
    "inst1.dispatched=141\n";

/**
 * Connection churn with idle closes that really run: phones abandon
 * their connection every 5 operations, and a 200 ms idle timeout plus
 * 1 s of settle time let the idle machinery close and destroy the
 * abandoned connections before the counters are read.
 */
Scenario
streamChurn(core::Transport transport, int clients, std::uint64_t seed)
{
    Scenario sc = paperScenario(transport, clients, 5);
    sc.callsPerClient = 5;
    sc.seed = seed;
    sc.proxy.idleTimeout = sim::msecs(200);
    sc.settleTime = sim::secs(1);
    return sc;
}

/** Stream-mechanism counters that are not part of the digest. */
struct StreamMechanisms
{
    std::uint64_t fdRequests;
    std::uint64_t fdCacheHits;
    std::uint64_t idleScans;
    std::uint64_t idleScanVisited;
    std::uint64_t connsStolen;
    std::uint64_t connsReturnedByWorkers;
};

void
expectMechanisms(const RunResult &r, const StreamMechanisms &want)
{
    EXPECT_EQ(r.counters.fdRequests, want.fdRequests);
    EXPECT_EQ(r.counters.fdCacheHits, want.fdCacheHits);
    EXPECT_EQ(r.counters.idleScans, want.idleScans);
    EXPECT_EQ(r.counters.idleScanVisited, want.idleScanVisited);
    EXPECT_EQ(r.counters.connsStolen, want.connsStolen);
    EXPECT_EQ(r.counters.connsReturnedByWorkers,
              want.connsReturnedByWorkers);
    // Every case closes and destroys abandoned connections.
    EXPECT_GT(r.counters.connsDestroyed, 0u);
    EXPECT_GT(r.counters.idleScans, 0u);
}

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

// §5.2's fd cache and §5.3's priority queues on the supervisor arch:
// descriptor requests, cache hits, and priority-queue idle closes.
TEST(DigestGolden, SupervisorTcpFdCachePrioQueueSeed31)
{
    Scenario sc = streamChurn(core::Transport::Tcp, 30, 31);
    sc.proxy.fdCache = true;
    sc.proxy.idleStrategy = core::IdleStrategy::PriorityQueue;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kSupervisorTcpFixedSeed31);
    expectMechanisms(r, {120, 780, 199, 182, 0, 120});
    EXPECT_GT(r.counters.fdRequests, 0u);
    EXPECT_GT(r.counters.fdCacheHits, 0u);
    EXPECT_GT(r.counters.connsReturnedByWorkers, 0u);
}

// §6's multithreaded variant: one shared descriptor table, so no fd
// requests; linear-scan idle closes still return connections.
TEST(DigestGolden, ThreadModeTcpSeed37)
{
    Scenario sc = streamChurn(core::Transport::Tcp, 30, 37);
    sc.proxy.concurrency = core::ConcurrencyModel::Thread;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kThreadTcpSeed37);
    expectMechanisms(r, {0, 0, 199, 4920, 0, 120});
    EXPECT_GT(r.counters.idleScanVisited, 0u);
    EXPECT_GT(r.counters.connsReturnedByWorkers, 0u);
}

// §6's non-blocking dispatch: four workers behind one-slot dispatch
// channels, so the supervisor's pending-dispatch backlog fills.
TEST(DigestGolden, EventDrivenIpcTcpSeed41)
{
    Scenario sc = streamChurn(core::Transport::Tcp, 30, 41);
    sc.proxy.eventDrivenIpc = true;
    sc.proxy.workers = 4;
    sc.proxy.dispatchChannelCapacity = 1;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kEventIpcTcpSeed41);
    expectMechanisms(r, {780, 0, 199, 4984, 0, 120});
    EXPECT_GT(r.counters.fdRequests, 0u);
    EXPECT_GT(r.counters.connsReturnedByWorkers, 0u);
}

// The event-driven loops over TCP and TLS: work stealing, per-loop
// duplicate-descriptor hits, and loop-local idle closes.
TEST(DigestGolden, EventTcpSeed43)
{
    Scenario sc = streamChurn(core::Transport::Tcp, 40, 43);
    sc.proxy.arch = core::ArchKind::EventDriven;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kEventTcpSeed43);
    expectMechanisms(r, {0, 849, 796, 295, 61, 0});
    EXPECT_GT(r.counters.connsStolen, 0u);
    EXPECT_GT(r.counters.fdCacheHits, 0u);
}

TEST(DigestGolden, EventTlsSeed47)
{
    Scenario sc = streamChurn(core::Transport::Tls, 30, 47);
    sc.proxy.arch = core::ArchKind::EventDriven;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kEventTlsSeed47);
    expectMechanisms(r, {0, 614, 796, 272, 89, 0});
    EXPECT_GT(r.counters.connsStolen, 0u);
    EXPECT_GT(r.counters.fdCacheHits, 0u);
}

// A two-instance TCP cluster: the dispatcher relays phone connections
// over per-instance trunks, and the instances' idle closes end the
// trunks during the settle time.
TEST(DigestGolden, ClusterTcpSeed53)
{
    Scenario sc = streamChurn(core::Transport::Tcp, 16, 53);
    sc.cluster.instances = 2;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kClusterTcpSeed53);
    expectMechanisms(r, {0, 0, 398, 84, 0, 2});
    EXPECT_GT(r.dispatcherStats.requestsRouted, 0u);
    EXPECT_GT(r.dispatcherStats.responsesRouted, 0u);
    EXPECT_GT(r.dispatcherStats.clientConnsAccepted, 0u);
}

// --- reply- and route-path pins -----------------------------------------
// Recorded before the engine's locally generated responses were folded
// into one reply path and the Via/name-addr decoders, stream connects
// and dispatcher routing were given one home each. Each case drives one
// reply or route path the pins above never reach (the 401 challenge,
// the 302 redirect, both 503 rejects, the Timer B 408, the event loops'
// outbound connect, both dispatcher relays); the reply-path counters the
// digest leaves out are pinned beside it.

const char kUdpAuthSeed59[] =
    "ops=160\n"
    "callsCompleted=80\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=5367044\n"
    "inviteP50=524287\n"
    "inviteP99=720895\n"
    "timedOut=0\n"
    "messagesIn=544\n"
    "requestsIn=304\n"
    "responsesIn=240\n"
    "forwards=480\n"
    "localReplies=144\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=32\n"
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
    "udpSent=1168\n"
    "udpDelivered=1168\n"
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
    "txnEntriesAtEnd=320\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kUdpRedirectSeed61[] =
    "ops=160\n"
    "callsCompleted=80\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=2720574\n"
    "inviteP50=360447\n"
    "inviteP99=475135\n"
    "timedOut=0\n"
    "messagesIn=112\n"
    "requestsIn=112\n"
    "responsesIn=0\n"
    "forwards=0\n"
    "localReplies=192\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=32\n"
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
    "udpSent=784\n"
    "udpDelivered=784\n"
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
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kUdpThresholdRejectSeed67[] =
    "ops=1200\n"
    "callsCompleted=600\n"
    "callsFailed=300\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=2077297528\n"
    "inviteP50=104857599\n"
    "inviteP99=268435455\n"
    "timedOut=0\n"
    "messagesIn=4500\n"
    "requestsIn=2700\n"
    "responsesIn=1800\n"
    "forwards=3600\n"
    "localReplies=1500\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=600\n"
    "connsAccepted=0\n"
    "connsDestroyed=0\n"
    "outboundConnects=0\n"
    "overloadRejected=300\n"
    "overloadThrottled=0\n"
    "overloadPanicDrops=0\n"
    "overloadShedEnters=1\n"
    "overloadShedExits=1\n"
    "tcpReadPauses=0\n"
    "tcpReadResumes=0\n"
    "tcpAcceptPauses=0\n"
    "phoneRejected503=300\n"
    "phoneBackoffs=300\n"
    "proxyRecvQueueDrops=0\n"
    "proxyAcceptRefused=0\n"
    "occupancySamples=0\n"
    "udpSent=9600\n"
    "udpDelivered=9600\n"
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
    "txnEntriesAtEnd=686\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kChain3UdpWindowSeed71[] =
    "ops=246\n"
    "callsCompleted=123\n"
    "callsFailed=57\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=1493919380\n"
    "inviteP50=786431\n"
    "inviteP99=917503\n"
    "timedOut=0\n"
    "messagesIn=2637\n"
    "requestsIn=1284\n"
    "responsesIn=1353\n"
    "forwards=2214\n"
    "localReplies=546\n"
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
    "phoneRejected503=57\n"
    "phoneBackoffs=57\n"
    "proxyRecvQueueDrops=0\n"
    "proxyAcceptRefused=0\n"
    "occupancySamples=0\n"
    "udpSent=3675\n"
    "udpDelivered=3675\n"
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
    "txnEntriesAtEnd=1368\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "hopFeedbackSent=1653\n"
    "hopFeedbackApplied=984\n"
    "hopThrottleHolds=0\n"
    "hopThrottleRejects=57\n"
    "hopThrottleDrops=0\n"
    "hopGrantExpired=0\n"
    "chainHops=3\n"
    "hop0.messagesIn=978\n"
    "hop0.forwards=738\n"
    "hop0.localReplies=240\n"
    "hop0.retransAbsorbed=0\n"
    "hop0.timerB408s=0\n"
    "hop0.overloadRejected=0\n"
    "hop0.overloadThrottled=0\n"
    "hop0.overloadPanicDrops=0\n"
    "hop0.hopFeedbackSent=609\n"
    "hop0.hopFeedbackApplied=492\n"
    "hop0.hopThrottleHolds=0\n"
    "hop0.hopThrottleRejects=57\n"
    "hop0.hopThrottleDrops=0\n"
    "hop0.hopGrantExpired=0\n"
    "hop1.messagesIn=861\n"
    "hop1.forwards=738\n"
    "hop1.localReplies=123\n"
    "hop1.retransAbsorbed=0\n"
    "hop1.timerB408s=0\n"
    "hop1.overloadRejected=0\n"
    "hop1.overloadThrottled=0\n"
    "hop1.overloadPanicDrops=0\n"
    "hop1.hopFeedbackSent=492\n"
    "hop1.hopFeedbackApplied=492\n"
    "hop1.hopThrottleHolds=0\n"
    "hop1.hopThrottleRejects=0\n"
    "hop1.hopThrottleDrops=0\n"
    "hop1.hopGrantExpired=0\n"
    "hop2.messagesIn=798\n"
    "hop2.forwards=738\n"
    "hop2.localReplies=183\n"
    "hop2.retransAbsorbed=0\n"
    "hop2.timerB408s=0\n"
    "hop2.overloadRejected=0\n"
    "hop2.overloadThrottled=0\n"
    "hop2.overloadPanicDrops=0\n"
    "hop2.hopFeedbackSent=552\n"
    "hop2.hopFeedbackApplied=0\n"
    "hop2.hopThrottleHolds=0\n"
    "hop2.hopThrottleRejects=0\n"
    "hop2.hopThrottleDrops=0\n"
    "hop2.hopGrantExpired=0\n";

const char kUdpLossTimerBSeed73[] =
    "ops=73\n"
    "callsCompleted=35\n"
    "callsFailed=5\n"
    "phoneRetransmissions=52\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=19301380370\n"
    "inviteP50=393215\n"
    "inviteP99=2147483647\n"
    "timedOut=0\n"
    "messagesIn=309\n"
    "requestsIn=176\n"
    "responsesIn=133\n"
    "forwards=252\n"
    "localReplies=81\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=18\n"
    "retransSent=25\n"
    "retransTimeouts=1\n"
    "timerB408s=1\n"
    "registrations=39\n"
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
    "udpSent=681\n"
    "udpDelivered=589\n"
    "udpLost=92\n"
    "udpDropped=0\n"
    "tcpConnects=0\n"
    "tcpRefused=0\n"
    "tcpSegments=0\n"
    "tcpBytes=0\n"
    "sctpMessages=0\n"
    "sctpDropped=0\n"
    "sctpAssocs=0\n"
    "faultDropped=92\n"
    "faultDuplicated=0\n"
    "faultDelayed=0\n"
    "tcpFaultRefused=0\n"
    "tcpRstInjected=0\n"
    "tcpBlackholed=0\n"
    "tcpRecoveries=0\n"
    "txnEntriesAtEnd=0\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "1>2 120 0 0 0 0 0 0 0 0 0 0\n"
    "1>3 132 92 0 0 0 0 0 0 0 0 0\n"
    "1>4 120 0 0 0 0 0 0 0 0 0 0\n"
    "2>1 104 0 0 0 0 0 0 0 0 0 0\n"
    "3>1 101 0 0 0 0 0 0 0 0 0 0\n"
    "4>1 104 0 0 0 0 0 0 0 0 0 0\n";

const char kClusterEventTcpRrSeed79[] =
    "ops=128\n"
    "callsCompleted=64\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=10354068\n"
    "inviteP50=1310719\n"
    "inviteP99=1900543\n"
    "timedOut=0\n"
    "messagesIn=647\n"
    "requestsIn=320\n"
    "responsesIn=327\n"
    "forwards=615\n"
    "localReplies=129\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=32\n"
    "connsAccepted=4\n"
    "connsDestroyed=0\n"
    "outboundConnects=2\n"
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
    "udpSent=32\n"
    "udpDelivered=32\n"
    "udpLost=0\n"
    "udpDropped=0\n"
    "tcpConnects=36\n"
    "tcpRefused=0\n"
    "tcpSegments=2089\n"
    "tcpBytes=653070\n"
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
    "txnEntriesAtEnd=394\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=6\n"
    "clusterInstances=2\n"
    "dispMessagesIn=929\n"
    "dispRequestsRouted=416\n"
    "dispResponsesRouted=513\n"
    "dispRegistersRouted=32\n"
    "dispPeekFailures=0\n"
    "dispDropsNoRoute=0\n"
    "dispClientConnsAccepted=32\n"
    "locLocalHits=192\n"
    "locReplicaHits=0\n"
    "locMissForwards=96\n"
    "locRegisterForwards=0\n"
    "locReplPushes=32\n"
    "locReplInstalls=32\n"
    "inst0.messagesIn=319\n"
    "inst0.forwards=305\n"
    "inst0.localReplies=64\n"
    "inst0.registrations=14\n"
    "inst0.locLocalHits=108\n"
    "inst0.locReplicaHits=0\n"
    "inst0.locMissForwards=42\n"
    "inst0.locReplPushes=14\n"
    "inst0.locReplInstalls=18\n"
    "inst0.dispatched=110\n"
    "inst1.messagesIn=328\n"
    "inst1.forwards=310\n"
    "inst1.localReplies=65\n"
    "inst1.registrations=18\n"
    "inst1.locLocalHits=84\n"
    "inst1.locReplicaHits=0\n"
    "inst1.locMissForwards=54\n"
    "inst1.locReplPushes=18\n"
    "inst1.locReplInstalls=14\n"
    "inst1.dispatched=114\n";

const char kClusterUdpRrSeed83[] =
    "ops=128\n"
    "callsCompleted=64\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=6458416\n"
    "inviteP50=851967\n"
    "inviteP99=1048575\n"
    "timedOut=0\n"
    "messagesIn=703\n"
    "requestsIn=340\n"
    "responsesIn=363\n"
    "forwards=671\n"
    "localReplies=139\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=32\n"
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
    "udpSent=1813\n"
    "udpDelivered=1813\n"
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
    "txnEntriesAtEnd=426\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "clusterInstances=2\n"
    "dispMessagesIn=555\n"
    "dispRequestsRouted=224\n"
    "dispResponsesRouted=331\n"
    "dispRegistersRouted=32\n"
    "dispPeekFailures=0\n"
    "dispDropsNoRoute=0\n"
    "dispClientConnsAccepted=0\n"
    "locLocalHits=192\n"
    "locReplicaHits=0\n"
    "locMissForwards=116\n"
    "locRegisterForwards=0\n"
    "locReplPushes=32\n"
    "locReplInstalls=32\n"
    "inst0.messagesIn=349\n"
    "inst0.forwards=335\n"
    "inst0.localReplies=69\n"
    "inst0.registrations=14\n"
    "inst0.locLocalHits=108\n"
    "inst0.locReplicaHits=0\n"
    "inst0.locMissForwards=52\n"
    "inst0.locReplPushes=14\n"
    "inst0.locReplInstalls=18\n"
    "inst0.dispatched=110\n"
    "inst1.messagesIn=354\n"
    "inst1.forwards=336\n"
    "inst1.localReplies=70\n"
    "inst1.registrations=18\n"
    "inst1.locLocalHits=84\n"
    "inst1.locReplicaHits=0\n"
    "inst1.locMissForwards=64\n"
    "inst1.locReplPushes=18\n"
    "inst1.locReplInstalls=14\n"
    "inst1.dispatched=114\n";

/** Reply-path counters that are not part of the digest. */
struct ReplyPathCounters
{
    std::uint64_t authChallenges;
    std::uint64_t authAccepted;
    std::uint64_t redirects;
    std::uint64_t sendsToDeadConns;
    std::uint64_t fdRequests;
    std::uint64_t fdCacheHits;
    std::uint64_t connsStolen;
    std::uint64_t idleScans;
};

void
expectReplyPath(const RunResult &r, const ReplyPathCounters &want)
{
    EXPECT_EQ(r.counters.authChallenges, want.authChallenges);
    EXPECT_EQ(r.counters.authAccepted, want.authAccepted);
    EXPECT_EQ(r.counters.redirects, want.redirects);
    EXPECT_EQ(r.counters.sendsToDeadConns, want.sendsToDeadConns);
    EXPECT_EQ(r.counters.fdRequests, want.fdRequests);
    EXPECT_EQ(r.counters.fdCacheHits, want.fdCacheHits);
    EXPECT_EQ(r.counters.connsStolen, want.connsStolen);
    EXPECT_EQ(r.counters.idleScans, want.idleScans);
    EXPECT_FALSE(r.timedOut);
}

/** A small two-instance cluster behind a round-robin dispatcher, so
 *  about half the requests land on an instance that does not own the
 *  callee's shard and are forwarded to the owner. */
Scenario
roundRobinCluster(core::Transport transport, std::uint64_t seed)
{
    Scenario sc = paperScenario(transport, 16, 0);
    sc.callsPerClient = 4;
    sc.seed = seed;
    sc.cluster.instances = 2;
    sc.cluster.policy = core::DispatchPolicy::RoundRobin;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    return sc;
}

// Digest authentication: each caller's first INVITE draws a 401
// challenge, then every request carries credentials.
TEST(DigestGolden, UdpDigestAuthSeed59)
{
    Scenario sc = paperScenario(core::Transport::Udp, 16, 0);
    sc.callsPerClient = 5;
    sc.seed = 59;
    sc.proxy.authenticate = true;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kUdpAuthSeed59);
    expectReplyPath(r, {32, 192, 0, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.authChallenges, 0u);
}

// Redirect-server mode: every INVITE is answered with a 302 naming the
// callee's registered contact.
TEST(DigestGolden, UdpRedirectSeed61)
{
    Scenario sc = paperScenario(core::Transport::Udp, 16, 0);
    sc.callsPerClient = 5;
    sc.seed = 61;
    sc.proxy.redirect = true;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kUdpRedirectSeed61);
    expectReplyPath(r, {0, 0, 80, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.redirects, 0u);
}

// Local overload control at real overload: one core, slowed parse and
// serialize, 300 callers; the threshold scheme sheds with 503s.
TEST(DigestGolden, UdpThresholdRejectSeed67)
{
    Scenario sc = paperScenario(core::Transport::Udp, 300, 0);
    sc.callsPerClient = 3;
    sc.seed = 67;
    sc.serverCores = 1;
    sc.proxy.workers = 2;
    sc.proxy.costs.parse *= 20;
    sc.proxy.costs.serialize *= 20;
    sc.proxy.overload.policy = core::OverloadPolicy::ThresholdReject;
    sc.phoneRetryBackoffCap = sim::msecs(500);
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kUdpThresholdRejectSeed67);
    expectReplyPath(r, {0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.overloadRejected, 0u);
}

// Hop-by-hop window scheme on a three-hop chain whose one-worker
// destination is the bottleneck: the edge's hop gate answers 503.
TEST(DigestGolden, Chain3UdpWindowSeed71)
{
    Scenario sc;
    sc.proxy.transport = core::Transport::Udp;
    sc.proxy.workers = 4;
    sc.clients = 60;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.seed = 71;
    sc.maxDuration = sim::secs(120);
    sc.chain.assign(3, ChainHop{});
    sc.chain[2].workers = 1;
    sc.proxy.overload.hop.scheme = core::FeedbackScheme::Window;
    sc.proxy.overload.hop.initialWindow = 2;
    sc.phoneRetryBackoffCap = sim::msecs(500);
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kChain3UdpWindowSeed71);
    expectReplyPath(r, {0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.hopThrottleRejects, 0u);
}

// Heavy loss on the proxy-to-client path of one client machine: a
// forwarded INVITE whose every retransmission is lost ends in a Timer B
// 408 the proxy sends on the callee's behalf.
TEST(DigestGolden, UdpLossTimerBSeed73)
{
    Scenario sc = paperScenario(core::Transport::Udp, 12, 0);
    sc.callsPerClient = 4;
    sc.seed = 73;
    LinkFault f;
    f.clientMachine = 1;
    f.toProxy = false;
    f.imp.lossProb = 0.7;
    sc.linkFaults.push_back(f);
    sc.settleTime = sim::secs(40);
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kUdpLossTimerBSeed73);
    expectReplyPath(r, {0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.timerB408s, 0u);
}

// Event-driven instances behind a round-robin TCP dispatcher: requests
// for the other shard make an instance dial its peer (the event loops'
// outbound connect).
TEST(DigestGolden, ClusterEventTcpRoundRobinSeed79)
{
    Scenario sc = roundRobinCluster(core::Transport::Tcp, 79);
    sc.proxy.arch = core::ArchKind::EventDriven;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kClusterEventTcpRrSeed79);
    expectReplyPath(r, {0, 0, 0, 0, 0, 358, 144, 396});
    EXPECT_GT(r.counters.outboundConnects, 0u);
    EXPECT_GT(r.counters.locMissForwards, 0u);
}

// The same over UDP: the dispatcher's datagram relay in both directions
// and the owner forwards between instances.
TEST(DigestGolden, ClusterUdpRoundRobinSeed83)
{
    Scenario sc = roundRobinCluster(core::Transport::Udp, 83);
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.digest(), kClusterUdpRrSeed83);
    expectReplyPath(r, {0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_GT(r.counters.locMissForwards, 0u);
    EXPECT_GT(r.dispatcherStats.responsesRouted, 0u);
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
