/**
 * @file
 * A deliberately tiny, tree-free XML layer for the MSCCL-IR exchange
 * format: elements with attributes and children only (comments and
 * processing instructions are skipped; the five named entities and
 * byte-range numeric references are decoded). Internal to src/ir.
 */

#ifndef MSCCLANG_IR_XML_H_
#define MSCCLANG_IR_XML_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace mscclang {

/**
 * Single-pass pull reader over the document text. The first next()
 * opens the root; each later one opens the innermost open element's
 * next child (true) or consumes its end tag (false), and after the
 * root only misc may follow. Errors throw mscclang::Error as one line
 * "xml: <why> (at offset N)". Views stay valid until the next next().
 */
class XmlReader
{
  public:
    /** @p text must outlive the reader. */
    explicit XmlReader(std::string_view text) : text_(text) {}

    /** An opened element must be tagged @p expected, if given. */
    bool next(std::string_view expected = {});
    /** Consumes the rest of the current element, children included. */
    void skip();
    std::string_view tag() const { return tag_; }

    /** The first attribute called @p name, or nullptr. */
    const std::string_view *find(std::string_view name) const;
    /** @throws mscclang::Error if missing. */
    std::string_view attr(std::string_view name) const;
    std::string_view attrOr(std::string_view name,
                            std::string_view fallback) const;
    /** The whole value must be a base-10 int (see parseXmlInt). */
    int attrInt(std::string_view name) const;
    int attrIntOr(std::string_view name, int fallback) const;
    double attrDouble(std::string_view name) const;

  private:
    [[noreturn]] void fail(const std::string &why) const;
    void openElement();
    std::string_view parseName();
    void skipWhitespace();
    void skipMisc();
    void unescape(std::string_view raw, std::string &out) const;

    std::string_view text_;
    std::size_t pos_ = 0;
    bool started_ = false;
    bool selfClosed_ = false;
    std::string_view tag_;
    /** The current element's names and values, alternating. */
    std::vector<std::string_view> attrs_;
    std::vector<std::string_view> open_;
    /** Decoded values; a deque never moves what attrs_ points at. */
    std::deque<std::string> decoded_;
};

/** Parses all of @p text as a base-10 int: "12abc", " 12", "+12" and
 *  out-of-range values return false. */
bool parseXmlInt(std::string_view text, int *out);

/** Writer producing indented output, appending into one string.
 *  Attribute values are escaped, control characters as numeric
 *  references, so every value reads back byte-exactly. */
class XmlWriter
{
  public:
    explicit XmlWriter(std::size_t reserve = 0) { out_.reserve(reserve); }

    /** Opens an element; attributes are added until the next open or
     *  close call. @p tag must outlive the writer. */
    void open(std::string_view tag);
    void attr(std::string_view name, std::string_view value);
    void attr(std::string_view name, int value);
    /** Written as printf's "%.17g", which round-trips exactly. */
    void attr(std::string_view name, double value);
    void close();
    /** Moves the document out. All elements must be closed. */
    std::string finish();

  private:
    void beginAttr(std::string_view name);

    std::string out_;
    std::vector<std::string_view> open_;
    bool openTagPending_ = false;
};

} // namespace mscclang

#endif // MSCCLANG_IR_XML_H_
