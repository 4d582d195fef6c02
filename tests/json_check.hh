/**
 * @file
 * Minimal JSON parser for validating exported artifacts in tests (the
 * trace-event timeline and metrics snapshots). Supports the full JSON
 * grammar the exporters emit: objects, arrays, strings with backslash
 * escapes, numbers, booleans, null. Throws std::runtime_error with a
 * byte offset on malformed input, including a raw control character
 * inside a string (JSON requires it escaped) — a test failure, not a
 * crash.
 */

#ifndef SIPROX_TESTS_JSON_CHECK_HH
#define SIPROX_TESTS_JSON_CHECK_HH

#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace siprox::testjson {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<ValuePtr> items;
    std::map<std::string, ValuePtr> fields;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }

    bool
    has(const std::string &key) const
    {
        return fields.find(key) != fields.end();
    }

    /** Object member access; throws on missing key or non-object. */
    const Value &
    at(const std::string &key) const
    {
        if (type != Type::Object)
            throw std::runtime_error("json: not an object");
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("json: missing key '" + key + "'");
        return *it->second;
    }
};

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    ValuePtr
    parse()
    {
        ValuePtr v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json: " + what + " at byte "
                                 + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    ValuePtr
    parseValue()
    {
        char c = peek();
        switch (c) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return parseString();
        case 't':
        case 'f':
            return parseBool();
        case 'n':
            parseLiteral("null");
            return std::make_shared<Value>();
        default:
            return parseNumber();
        }
    }

    void
    parseLiteral(std::string_view lit)
    {
        skipWs();
        if (text_.substr(pos_, lit.size()) != lit)
            fail("bad literal");
        pos_ += lit.size();
    }

    ValuePtr
    parseBool()
    {
        auto v = std::make_shared<Value>();
        v->type = Value::Type::Bool;
        if (peek() == 't') {
            parseLiteral("true");
            v->boolean = true;
        } else {
            parseLiteral("false");
        }
        return v;
    }

    ValuePtr
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size()
               && (std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '-' || text_[pos_] == '+'
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        auto v = std::make_shared<Value>();
        v->type = Value::Type::Number;
        try {
            v->number = std::stod(
                std::string(text_.substr(start, pos_ - start)));
        } catch (const std::exception &) {
            fail("unparsable number");
        }
        return v;
    }

    ValuePtr
    parseString()
    {
        expect('"');
        auto v = std::make_shared<Value>();
        v->type = Value::Type::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                break;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    v->str += e;
                    break;
                case 'n':
                    v->str += '\n';
                    break;
                case 't':
                    v->str += '\t';
                    break;
                case 'r':
                    v->str += '\r';
                    break;
                case 'b':
                case 'f':
                    break;
                case 'u':
                    // Exporters emit \u only for ASCII control
                    // characters; anything wider keeps its digits.
                    v->str += parseUnicodeEscape();
                    break;
                default:
                    fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                v->str += c;
            }
        }
        return v;
    }

    /** The four hex digits after "\\u": the ASCII character they name,
     *  else the digits themselves. */
    std::string
    parseUnicodeEscape()
    {
        if (pos_ + 4 > text_.size())
            fail("bad \\u escape");
        std::string digits(text_.substr(pos_, 4));
        pos_ += 4;
        unsigned code = 0;
        for (char d : digits) {
            if (!std::isxdigit(static_cast<unsigned char>(d)))
                fail("bad \\u escape");
            code = code * 16
                + static_cast<unsigned>(std::isdigit(
                                            static_cast<unsigned char>(d))
                                            ? d - '0'
                                            : std::tolower(d) - 'a' + 10);
        }
        if (code < 0x80)
            return std::string(1, static_cast<char>(code));
        return digits;
    }

    ValuePtr
    parseArray()
    {
        expect('[');
        auto v = std::make_shared<Value>();
        v->type = Value::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v->items.push_back(parseValue());
            char c = peek();
            ++pos_;
            if (c == ']')
                break;
            if (c != ',')
                fail("expected ',' or ']'");
        }
        return v;
    }

    ValuePtr
    parseObject()
    {
        expect('{');
        auto v = std::make_shared<Value>();
        v->type = Value::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            ValuePtr key = parseString();
            expect(':');
            v->fields[key->str] = parseValue();
            char c = peek();
            ++pos_;
            if (c == '}')
                break;
            if (c != ',')
                fail("expected ',' or '}'");
        }
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

inline ValuePtr
parse(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace siprox::testjson

#endif // SIPROX_TESTS_JSON_CHECK_HH
