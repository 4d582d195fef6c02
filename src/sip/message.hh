/**
 * @file
 * SIP message model (RFC 3261): requests and responses with an ordered
 * header list, typed accessors for the headers proxies route on, and
 * serialization. Parsing lives in sip/parser.hh.
 *
 * Hot-path design (see docs/performance.md): a message owns its wire
 * bytes in a ref-counted arena and headers are string_view slices into
 * it, so parsing copies nothing per header. Well-known header names are
 * interned to a small enum id at insertion, making lookups an integer
 * compare instead of a case-insensitive scan. Mutation (Via prepend,
 * Max-Forwards rewrite) copies only the new bytes into the arena;
 * copies of a message share the arena. serialize() emits in one
 * exact-size pass and caches the result until the next mutation.
 */

#ifndef SIPROX_SIP_MESSAGE_HH
#define SIPROX_SIP_MESSAGE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/mem_stats.hh"
#include "sip/uri.hh"

namespace siprox::sip {

/** Request methods used in VoIP call flows. */
enum class Method
{
    Invite,
    Ack,
    Bye,
    Cancel,
    Register,
    Options,
    Unknown,
};

const char *methodName(Method m);
Method methodFromName(std::string_view name);

/** Status codes appearing in the paper's call flows. */
namespace status {
inline constexpr int kTrying = 100;
inline constexpr int kRinging = 180;
inline constexpr int kOk = 200;
inline constexpr int kMovedTemporarily = 302;
inline constexpr int kBadRequest = 400;
inline constexpr int kUnauthorized = 401;
inline constexpr int kNotFound = 404;
inline constexpr int kRequestTimeout = 408;
inline constexpr int kServerError = 500;
inline constexpr int kServiceUnavailable = 503;
} // namespace status

/** Default reason phrase for a status code. */
const char *reasonPhrase(int status);

/**
 * Interned ids for the headers proxies route on. Everything else is
 * HeaderId::Other and matches by case-insensitive name.
 */
enum class HeaderId : std::uint8_t
{
    Via,
    To,
    From,
    CallId,
    CSeq,
    Contact,
    MaxForwards,
    ContentLength,
    ContentType,
    Route,
    RecordRoute,
    /** Simulated hop-by-hop overload-feedback advertisement. */
    Overload,
    Other,
};

/** Id for @p name (case-insensitive, full names only; compact names
 *  are expanded by the parser before interning). */
HeaderId headerIdFor(std::string_view name);

/** Canonical name of a well-known id; empty for HeaderId::Other. */
std::string_view headerCanonicalName(HeaderId id);

namespace detail {

/**
 * Ref-counted bump arena backing one message (and its copies). The
 * first "chunk" is the adopted wire buffer; mutations intern new bytes
 * into fixed-size chunks. Chunk storage never moves, so string_views
 * into the arena stay valid as it grows.
 */
class MsgArena
{
  public:
    MsgArena() = default;

    explicit MsgArena(std::string wire) : wire_(std::move(wire))
    {
        // Adopted buffers arrive with producer-sized capacity (framer
        // rings, socket payload strings grown by doubling); the arena
        // retains that capacity for the whole message lifetime, so trim
        // gross overshoot now, before any view points into the bytes.
        if (wire_.capacity() > wire_.size() + kChunkSize)
            wire_.shrink_to_fit();
        tracked_ = wire_.capacity();
        sim::mem::ledgers().arena.add(tracked_);
    }

    MsgArena(const MsgArena &) = delete;
    MsgArena &operator=(const MsgArena &) = delete;

    ~MsgArena() { sim::mem::ledgers().arena.sub(tracked_); }

    /** The adopted wire bytes (empty for built messages). */
    std::string_view wire() const { return wire_; }

    /** Copy @p s into the arena; the returned view is stable. */
    std::string_view
    intern(std::string_view s)
    {
        if (s.empty())
            return {};
        char *p = alloc(s.size());
        std::memcpy(p, s.data(), s.size());
        return {p, s.size()};
    }

    /** Reserve @p n stable bytes (caller fills them). */
    char *
    alloc(std::size_t n)
    {
        if (chunks_.empty()
            || chunks_.back().used + n > chunks_.back().cap) {
            Chunk c;
            c.cap = n > kChunkSize ? n : kChunkSize;
            c.data = std::make_unique<char[]>(c.cap);
            chunks_.push_back(std::move(c));
            tracked_ += c.cap;
            sim::mem::ledgers().arena.add(c.cap);
        }
        Chunk &c = chunks_.back();
        char *p = c.data.get() + c.used;
        c.used += n;
        return p;
    }

  private:
    static constexpr std::size_t kChunkSize = 256;

    struct Chunk
    {
        std::unique_ptr<char[]> data;
        std::size_t used = 0;
        std::size_t cap = 0;
    };

    std::string wire_;
    std::vector<Chunk> chunks_;
    /** Bytes this arena reported to the retained-bytes ledger. */
    std::size_t tracked_ = 0;
};

} // namespace detail

/**
 * One header field. @p name is the canonical static literal for
 * well-known headers, otherwise a slice of the message arena; @p value
 * is a slice of the arena (or of static storage for built constants).
 */
struct Header
{
    HeaderId id = HeaderId::Other;
    std::string_view name;
    std::string_view value;
};

/** Parsed Via header value. */
struct Via
{
    std::string transport; ///< "UDP", "TCP", "SCTP"
    std::string host;
    std::uint16_t port = 0;
    std::string branch;

    static std::optional<Via> parse(std::string_view text);
    std::string toString() const;

    std::uint16_t effectivePort() const { return port ? port : 5060; }
};

/** Parsed CSeq header value. */
struct CSeq
{
    std::uint32_t number = 0;
    Method method = Method::Unknown;

    static std::optional<CSeq> parse(std::string_view text);
    std::string toString() const;
};

/**
 * A SIP request or response.
 */
class SipMessage
{
  public:
    SipMessage() = default;

    SipMessage(const SipMessage &o);
    SipMessage &operator=(const SipMessage &o);
    SipMessage(SipMessage &&) = default;
    SipMessage &operator=(SipMessage &&) = default;

    /** Construct a request line. */
    static SipMessage request(Method m, SipUri uri);

    /** Construct a response line. */
    static SipMessage response(int status, std::string reason = "");

    bool isRequest() const { return isRequest_; }
    bool isResponse() const { return !isRequest_; }

    Method method() const { return method_; }
    const SipUri &requestUri() const { return requestUri_; }

    void
    setRequestUri(SipUri uri)
    {
        requestUri_ = std::move(uri);
        wireCacheValid_ = false;
    }

    int statusCode() const { return status_; }
    const std::string &reason() const { return reason_; }
    bool isProvisional() const { return status_ >= 100 && status_ < 200; }
    bool isFinal() const { return status_ >= 200; }
    bool isSuccess() const { return status_ >= 200 && status_ < 300; }

    // --- headers -------------------------------------------------------
    const std::vector<Header> &headers() const { return headers_; }

    /** Append a header at the end. */
    void addHeader(std::string_view name, std::string_view value);

    /** Prepend a header (used for Via insertion at proxies). */
    void prependHeader(std::string_view name, std::string_view value);

    /**
     * Prepend a Via header, rendering @p via directly into the arena
     * (equivalent to prependHeader("Via", via.toString()) without the
     * temporary string).
     */
    void prependVia(const Via &via);

    /** First value of @p name (case-insensitive); nullopt if absent. */
    std::optional<std::string_view> header(std::string_view name) const;

    /** First value of a well-known header; O(headers) id compares. */
    std::optional<std::string_view> header(HeaderId id) const;

    /** All values of @p name in order. */
    std::vector<std::string_view> headerAll(std::string_view name) const;

    /** All values of a well-known header in order. */
    std::vector<std::string_view> headerAll(HeaderId id) const;

    /** Replace the first @p name or append it. */
    void setHeader(std::string_view name, std::string_view value);

    /** Remove the first @p name; true if one was removed. */
    bool removeFirstHeader(std::string_view name);
    bool removeFirstHeader(HeaderId id);

    // --- typed accessors -------------------------------------------------
    std::string_view callId() const;

    /** CSeq, decoded once and cached until a CSeq header mutates. */
    std::optional<CSeq> cseq() const;

    /** Top Via, decoded once and cached until a Via header mutates. */
    const std::optional<Via> &topVia() const;

    std::string_view from() const;
    std::string_view to() const;

    /** Contact header's URI, if present and parseable. */
    std::optional<SipUri> contactUri() const;

    /** Max-Forwards value; nullopt if absent/garbled. */
    std::optional<int> maxForwards() const;
    void setMaxForwards(int v);

    // --- body ------------------------------------------------------------
    std::string_view body() const { return body_; }
    void setBody(std::string_view body, std::string_view content_type = "");

    /**
     * Render the message (Content-Length recomputed) in one exact-size
     * pass. The rendering is cached until the next mutation, so
     * repeated calls cost one string copy each.
     */
    std::string serialize() const;

    /** Serialized size in bytes (renders into the cache if needed). */
    std::size_t serializedSize() const;

    /** Short one-line description for traces. */
    std::string summary() const;

  private:
    friend class Parser;

    /** The arena, created on first mutation of a built message. */
    detail::MsgArena &arena();

    /** Copy @p s into this message's arena. */
    std::string_view intern(std::string_view s);

    /** Drop caches invalidated by a mutation of header @p id. */
    void
    noteMutation(HeaderId id)
    {
        wireCacheValid_ = false;
        if (id == HeaderId::Via)
            viaCacheValid_ = false;
        else if (id == HeaderId::CSeq)
            cseqCacheValid_ = false;
    }

    void buildWire() const;

    bool isRequest_ = true;
    Method method_ = Method::Unknown;
    SipUri requestUri_;
    int status_ = 0;
    std::string reason_;
    std::vector<Header> headers_;
    std::string_view body_;
    std::shared_ptr<detail::MsgArena> arena_;

    // Caches; never copied, rebuilt on demand.
    mutable std::string wireCache_;
    mutable bool wireCacheValid_ = false;
    mutable std::optional<CSeq> cseqCache_;
    mutable bool cseqCacheValid_ = false;
    mutable std::optional<Via> viaCache_;
    mutable bool viaCacheValid_ = false;
};

/** ASCII lower-case fold of one byte: maps A-Z only, whatever the
 *  C locale (header names are ASCII tokens, RFC 3261 §7.3.1). */
constexpr char
asciiLower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c;
}

/** Case-insensitive ASCII string compare. */
bool iequals(std::string_view a, std::string_view b);

} // namespace siprox::sip

#endif // SIPROX_SIP_MESSAGE_HH
