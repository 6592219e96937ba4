#include "ir/xml.h"

#include <charconv>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

/** The C locale's isspace, without the locale lookup. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isNameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
        c == ':';
}

/** Longest recognized entity body ("&#x10FFFF;" is 8 chars). */
constexpr std::size_t kMaxEntityLen = 8;

void
appendInt(std::string &out, int value)
{
    char buf[16];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, end);
}

void
appendEscaped(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: {
            // Control characters go out as numeric references so
            // attribute values round-trip byte-exactly (a literal
            // newline would be normalized away by any XML parser).
            unsigned char u = static_cast<unsigned char>(c);
            if (u < 0x20 || u == 0x7F) {
                out += "&#";
                appendInt(out, u);
                out += ';';
            } else {
                out.push_back(c);
            }
          }
        }
    }
}

} // namespace

bool
parseXmlInt(std::string_view text, int *out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

void
XmlReader::fail(const std::string &why) const
{
    throw Error(strprintf("xml: %s (at offset %zu)", why.c_str(), pos_));
}

void
XmlReader::skipWhitespace()
{
    while (pos_ < text_.size() && isSpace(text_[pos_]))
        pos_++;
}

void
XmlReader::skipMisc()
{
    for (;;) {
        skipWhitespace();
        std::string_view rest = text_.substr(pos_);
        if (rest.substr(0, 4) == "<!--") {
            std::size_t end = text_.find("-->", pos_ + 4);
            if (end == std::string_view::npos)
                fail("unterminated comment");
            pos_ = end + 3;
        } else if (rest.substr(0, 2) == "<?") {
            std::size_t end = text_.find("?>", pos_ + 2);
            if (end == std::string_view::npos)
                fail("unterminated processing instruction");
            pos_ = end + 2;
        } else {
            return;
        }
    }
}

std::string_view
XmlReader::parseName()
{
    std::size_t start = pos_;
    while (pos_ < text_.size() && isNameChar(text_[pos_]))
        pos_++;
    if (pos_ == start)
        fail("expected a name");
    return text_.substr(start, pos_ - start);
}

void
XmlReader::unescape(std::string_view raw, std::string &out) const
{
    out.clear();
    for (std::size_t i = 0; i < raw.size(); i++) {
        if (raw[i] != '&') {
            out.push_back(raw[i]);
            continue;
        }
        // Bound the scan for ';' so a stray '&' fails fast with a
        // short message instead of swallowing the rest of the value
        // into an "unknown entity" report.
        std::size_t semi = raw.find(';', i);
        if (semi == std::string_view::npos || semi - i - 1 > kMaxEntityLen)
            fail("unterminated entity");
        std::string_view entity = raw.substr(i + 1, semi - i - 1);
        auto quoted = [&] { return "'&" + std::string(entity) + ";'"; };
        i = semi;
        if (entity.empty()) fail("empty entity '&;'");
        else if (entity == "amp") out.push_back('&');
        else if (entity == "lt") out.push_back('<');
        else if (entity == "gt") out.push_back('>');
        else if (entity == "quot") out.push_back('"');
        else if (entity == "apos") out.push_back('\'');
        else if (entity[0] != '#') fail("unknown entity " + quoted());
        else {
            // "#NN" / "#xNN" character references, bytes only.
            std::string_view digits = entity.substr(1);
            int base = 10;
            if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
                base = 16;
                digits.remove_prefix(1);
            }
            if (digits.empty())
                fail("empty character reference");
            unsigned value = 0;
            auto [ptr, ec] = std::from_chars(
                digits.data(), digits.data() + digits.size(), value, base);
            // At most seven digits fit the entity bound, so the value
            // cannot overflow before the byte-range check.
            if (ec != std::errc() || ptr != digits.data() + digits.size())
                fail("malformed character reference " + quoted());
            if (value > 0xFF)
                fail("character reference " + quoted() +
                     " out of byte range");
            out.push_back(static_cast<char>(value));
        }
    }
}

void
XmlReader::openElement()
{
    if (pos_ >= text_.size() || text_[pos_] != '<')
        fail("expected '<'");
    pos_++;
    tag_ = parseName();
    attrs_.clear();
    std::size_t decoded = 0;
    for (;;) {
        skipWhitespace();
        char c = pos_ < text_.size() ? text_[pos_] : '\0';
        if (c == '/') {
            pos_++;
            if (pos_ >= text_.size() || text_[pos_] != '>')
                fail("expected '>' after '/'");
            pos_++;
            selfClosed_ = true;
            break;
        }
        if (c == '>') {
            pos_++;
            break;
        }
        std::string_view name = parseName();
        skipWhitespace();
        if (pos_ >= text_.size() || text_[pos_] != '=')
            fail("expected '=' in attribute");
        pos_++;
        skipWhitespace();
        char quote = pos_ < text_.size() ? text_[pos_] : '\0';
        if (quote != '"' && quote != '\'')
            fail("expected a quoted attribute value");
        std::size_t end = text_.find(quote, pos_ + 1);
        if (end == std::string_view::npos)
            fail("unterminated attribute value");
        std::string_view value = text_.substr(pos_ + 1, end - pos_ - 1);
        pos_ = end + 1;
        if (value.find('&') != std::string_view::npos) {
            if (decoded == decoded_.size())
                decoded_.emplace_back();
            unescape(value, decoded_[decoded]);
            value = decoded_[decoded++];
        }
        attrs_.push_back(name);
        attrs_.push_back(value);
    }
    open_.push_back(tag_);
}

bool
XmlReader::next(std::string_view expected)
{
    if (selfClosed_) {
        selfClosed_ = false;
        open_.pop_back();
        return false;
    }
    skipMisc();
    if (open_.empty()) {
        if (started_) {
            if (pos_ != text_.size())
                fail("trailing content after the root element");
            return false;
        }
        started_ = true;
    } else if (text_.substr(pos_, 2) == "</") {
        pos_ += 2;
        std::string_view closing = parseName();
        if (closing != open_.back()) {
            fail("mismatched close tag </" + std::string(closing) +
                 "> for <" + std::string(open_.back()) + ">");
        }
        skipWhitespace();
        if (pos_ >= text_.size() || text_[pos_] != '>')
            fail("expected '>' in close tag");
        pos_++;
        open_.pop_back();
        return false;
    } else if (pos_ >= text_.size()) {
        fail("unexpected end of input inside <" +
             std::string(open_.back()) + ">");
    } else if (text_[pos_] != '<') {
        fail("text content is not supported");
    }
    openElement();
    if (!expected.empty() && tag_ != expected) {
        fail("unexpected <" + std::string(tag_) + ">, expected <" +
             std::string(expected) + ">");
    }
    return true;
}

void
XmlReader::skip()
{
    std::size_t depth = open_.size();
    while (depth > 0 && open_.size() >= depth)
        next();
}

const std::string_view *
XmlReader::find(std::string_view name) const
{
    for (std::size_t i = 0; i < attrs_.size(); i += 2) {
        if (attrs_[i] == name)
            return &attrs_[i + 1];
    }
    return nullptr;
}

std::string_view
XmlReader::attr(std::string_view name) const
{
    const std::string_view *value = find(name);
    if (value == nullptr) {
        fail("element <" + std::string(tag_) + "> missing attribute '" +
             std::string(name) + "'");
    }
    return *value;
}

std::string_view
XmlReader::attrOr(std::string_view name, std::string_view fallback) const
{
    const std::string_view *value = find(name);
    return value == nullptr ? fallback : *value;
}

int
XmlReader::attrInt(std::string_view name) const
{
    int value = 0;
    if (!parseXmlInt(attr(name), &value)) {
        fail("attribute '" + std::string(name) + "' of <" +
             std::string(tag_) + "> is not an integer");
    }
    return value;
}

int
XmlReader::attrIntOr(std::string_view name, int fallback) const
{
    return find(name) == nullptr ? fallback : attrInt(name);
}

double
XmlReader::attrDouble(std::string_view name) const
{
    try {
        return std::stod(std::string(attr(name)));
    } catch (const std::logic_error &) {
        fail("attribute '" + std::string(name) + "' of <" +
             std::string(tag_) + "> is not a number");
    }
}

void
XmlWriter::open(std::string_view tag)
{
    if (openTagPending_)
        out_ += ">\n";
    out_.append(open_.size() * 2, ' ');
    out_ += '<';
    out_ += tag;
    open_.push_back(tag);
    openTagPending_ = true;
}

void
XmlWriter::beginAttr(std::string_view name)
{
    if (!openTagPending_)
        throw Error("xml: attr() outside an open tag");
    out_ += ' ';
    out_ += name;
    out_ += "=\"";
}

void
XmlWriter::attr(std::string_view name, std::string_view value)
{
    beginAttr(name);
    appendEscaped(out_, value);
    out_ += '"';
}

void
XmlWriter::attr(std::string_view name, int value)
{
    beginAttr(name);
    appendInt(out_, value);
    out_ += '"';
}

void
XmlWriter::attr(std::string_view name, double value)
{
    beginAttr(name);
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                   std::chars_format::general, 17);
    out_.append(buf, end);
    out_ += '"';
}

void
XmlWriter::close()
{
    if (open_.empty())
        throw Error("xml: close() without open()");
    std::string_view tag = open_.back();
    open_.pop_back();
    if (openTagPending_) {
        out_ += "/>\n";
        openTagPending_ = false;
        return;
    }
    out_.append(open_.size() * 2, ' ');
    out_ += "</";
    out_ += tag;
    out_ += ">\n";
}

std::string
XmlWriter::finish()
{
    if (!open_.empty())
        throw Error("xml: document has unclosed elements");
    return std::move(out_);
}

} // namespace mscclang
