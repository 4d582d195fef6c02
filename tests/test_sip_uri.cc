/**
 * @file
 * SIP URI parsing/serialization tests and the h<id> address mapping.
 */

#include <gtest/gtest.h>

#include "sip/message.hh"
#include "sip/uri.hh"

namespace {

using namespace siprox;
using namespace siprox::sip;

TEST(SipUriTest, ParsesFullForm)
{
    auto uri = SipUri::parse("sip:alice@example.com:5070;transport=tcp");
    ASSERT_TRUE(uri);
    EXPECT_EQ(uri->user, "alice");
    EXPECT_EQ(uri->host, "example.com");
    EXPECT_EQ(uri->port, 5070);
    ASSERT_TRUE(uri->param("transport"));
    EXPECT_EQ(*uri->param("transport"), "tcp");
}

TEST(SipUriTest, ParsesWithoutUser)
{
    auto uri = SipUri::parse("sip:proxy.example.com");
    ASSERT_TRUE(uri);
    EXPECT_TRUE(uri->user.empty());
    EXPECT_EQ(uri->host, "proxy.example.com");
    EXPECT_EQ(uri->port, 0);
    EXPECT_EQ(uri->effectivePort(), 5060);
}

TEST(SipUriTest, ParsesFlagParams)
{
    auto uri = SipUri::parse("sip:bob@h2;lr;maddr=h3");
    ASSERT_TRUE(uri);
    ASSERT_EQ(uri->params.size(), 2u);
    EXPECT_EQ(uri->params[0].first, "lr");
    EXPECT_TRUE(uri->params[0].second.empty());
    EXPECT_EQ(*uri->param("maddr"), "h3");
    EXPECT_FALSE(uri->param("absent"));
}

TEST(SipUriTest, RejectsGarbage)
{
    EXPECT_FALSE(SipUri::parse(""));
    EXPECT_FALSE(SipUri::parse("http://x"));
    EXPECT_FALSE(SipUri::parse("sip:"));
    EXPECT_FALSE(SipUri::parse("sip:user@"));
    EXPECT_FALSE(SipUri::parse("sip:host:notaport"));
    EXPECT_FALSE(SipUri::parse("sip:host:0"));
    EXPECT_FALSE(SipUri::parse("sip:host:70000"));
}

TEST(SipUriTest, RoundTripsCanonicalForm)
{
    const char *cases[] = {
        "sip:alice@h1:5060",
        "sip:h9",
        "sip:bob@h2:10042;transport=tcp;lr",
        "sip:carol@example.org",
    };
    for (const char *text : cases) {
        auto uri = SipUri::parse(text);
        ASSERT_TRUE(uri) << text;
        EXPECT_EQ(uri->toString(), text);
        auto again = SipUri::parse(uri->toString());
        ASSERT_TRUE(again);
        EXPECT_EQ(*again, *uri) << text;
    }
}

TEST(SipUriTest, AddrMappingRoundTrips)
{
    net::Addr addr{7, 10042};
    SipUri uri = uriForAddr("phone42", addr);
    EXPECT_EQ(uri.toString(), "sip:phone42@h7:10042");
    auto back = addrFromUri(uri);
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, addr);
}

TEST(SipUriTest, AddrMappingRejectsForeignHosts)
{
    auto uri = SipUri::parse("sip:alice@example.com:5060");
    ASSERT_TRUE(uri);
    EXPECT_FALSE(addrFromUri(*uri));
    auto uri2 = SipUri::parse("sip:alice@hx:5060");
    ASSERT_TRUE(uri2);
    EXPECT_FALSE(addrFromUri(*uri2));
}

TEST(SipUriTest, DefaultPortAppliedInAddrMapping)
{
    auto uri = SipUri::parse("sip:alice@h3");
    ASSERT_TRUE(uri);
    auto addr = addrFromUri(*uri);
    ASSERT_TRUE(addr);
    EXPECT_EQ(addr->port, 5060);
}

TEST(SipUriTest, NameAddrDecoding)
{
    auto bracketed = uriFromNameAddr("<sip:x>;tag=y");
    ASSERT_TRUE(bracketed);
    EXPECT_EQ(bracketed->host, "x");
    EXPECT_TRUE(bracketed->params.empty());

    auto bare = uriFromNameAddr("sip:x;tag=y");
    ASSERT_TRUE(bare);
    EXPECT_EQ(bare->host, "x");
    EXPECT_TRUE(bare->params.empty());

    auto named = uriFromNameAddr("Alice <sip:alice@h4:5070>;tag=1");
    ASSERT_TRUE(named);
    EXPECT_EQ(named->user, "alice");
    EXPECT_EQ(addrFromUri(*named), (net::Addr{4, 5070}));

    EXPECT_FALSE(uriFromNameAddr("<sip:x;tag=y"));
}

TEST(SipUriTest, ViaAddrMapping)
{
    Via via;
    via.host = "h7";
    via.port = 5070;
    EXPECT_EQ(addrFromVia(via), (net::Addr{7, 5070}));
    via.port = 0;
    EXPECT_EQ(addrFromVia(via), (net::Addr{7, 5060}));

    via.host = "proxy.example.com";
    EXPECT_FALSE(addrFromVia(via));
    EXPECT_FALSE(addrFromVia(std::nullopt));
}

} // namespace
