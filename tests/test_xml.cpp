/**
 * @file
 * Tests for the XML reader/writer and the MSCCL-IR exchange format:
 * parser features and error reporting, escaping, exact IR round-trips
 * for every collective in the library, the structural checks of
 * validateIr, and a seeded mutation sweep over a compiled plan.
 */

#include <gtest/gtest.h>

#include <functional>

#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "ir/xml.h"

namespace mscclang {
namespace {

/** Reads a whole document into "tag(child,child)" form. */
std::string
shapeOf(const std::string &xml)
{
    XmlReader in(xml);
    std::string out;
    std::function<void()> element = [&] {
        out += in.tag();
        out += '(';
        for (bool first = true; in.next(); first = false) {
            if (!first)
                out += ',';
            element();
        }
        out += ')';
    };
    in.next();
    element();
    EXPECT_FALSE(in.next());
    return out;
}

/** The root element's attribute @p name, decoded. */
std::string
rootAttr(const std::string &xml, const char *name)
{
    XmlReader in(xml);
    in.next();
    return std::string(in.attr(name));
}

/** What `what()` says when @p fn throws Error, or "" if it does not. */
std::string
errorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const Error &error) {
        return error.what();
    }
    return "";
}

TEST(Xml, ParsesAttributesAndChildren)
{
    XmlReader in("<a x=\"1\" y='two'><b/><c z=\"3\"></c></a>");
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.tag(), "a");
    EXPECT_EQ(in.attrInt("x"), 1);
    EXPECT_EQ(in.attr("y"), "two");
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.tag(), "b");
    EXPECT_FALSE(in.next()); // <b/> closes itself
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.tag(), "c");
    EXPECT_EQ(in.attrInt("z"), 3);
    EXPECT_FALSE(in.next()); // </c>
    EXPECT_FALSE(in.next()); // </a>
    EXPECT_FALSE(in.next()); // end of document
    EXPECT_EQ(shapeOf("<a x=\"1\" y='two'><b/><c z=\"3\"></c></a>"),
              "a(b(),c())");
    // next(tag) accepts only the named element.
    XmlReader strict("<a><b/></a>");
    EXPECT_TRUE(strict.next("a"));
    EXPECT_THROW(strict.next("c"), Error);
}

TEST(Xml, SkipsCommentsAndProlog)
{
    EXPECT_EQ(shapeOf("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner -->"
                      "<b/></a>"),
              "a(b())");
}

TEST(Xml, SkipConsumesWholeSubtree)
{
    XmlReader in("<a><b><c/><d><e/></d></b><f/></a>");
    ASSERT_TRUE(in.next());
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.tag(), "b");
    in.skip();
    ASSERT_TRUE(in.next());
    EXPECT_EQ(in.tag(), "f");
    in.skip();
    EXPECT_FALSE(in.next());
}

TEST(Xml, UnescapesEntities)
{
    EXPECT_EQ(rootAttr("<a v=\"&lt;&amp;&gt;&quot;&apos;\"/>", "v"),
              "<&>\"'");
}

TEST(Xml, DecodedValuesSurviveLaterAttributes)
{
    // Each decoded value keeps its own buffer within one element.
    XmlReader in("<a p=\"&amp;1\" q=\"&lt;2\" r=\"&gt;3\" s=\"&quot;4\"/>");
    in.next();
    EXPECT_EQ(in.attr("p"), "&1");
    EXPECT_EQ(in.attr("q"), "<2");
    EXPECT_EQ(in.attr("r"), ">3");
    EXPECT_EQ(in.attr("s"), "\"4");
}

TEST(Xml, NumericCharacterReferences)
{
    // Decimal and hex forms, lower/upper hex digits, byte range.
    EXPECT_EQ(rootAttr("<a v=\"&#65;&#x42;&#x63;&#10;&#x7F;\"/>", "v"),
              std::string("ABc\n\x7F"));
    // Out-of-byte-range and malformed references are rejected.
    EXPECT_THROW(rootAttr("<a v=\"&#256;\"/>", "v"), Error);
    EXPECT_THROW(rootAttr("<a v=\"&#x100;\"/>", "v"), Error);
    EXPECT_THROW(rootAttr("<a v=\"&#;\"/>", "v"), Error);
    EXPECT_THROW(rootAttr("<a v=\"&#x;\"/>", "v"), Error);
    EXPECT_THROW(rootAttr("<a v=\"&#12a;\"/>", "v"), Error);
    EXPECT_THROW(rootAttr("<a v=\"&#-1;\"/>", "v"), Error);
}

TEST(Xml, UnterminatedEntityScanIsBounded)
{
    // A stray '&' must fail fast with "unterminated entity" instead
    // of scanning to the end of the value (or matching a ';' far
    // away and reporting the swallowed text as an unknown entity).
    EXPECT_THROW(rootAttr("<a v=\"a &amp b\"/>", "v"), Error);
    std::string what = errorOf([] {
        rootAttr("<a v=\"x & yyyyyyyyyyyyyyyyyyy ; z\"/>", "v");
    });
    EXPECT_NE(what.find("unterminated entity"), std::string::npos)
        << what;
    EXPECT_THROW(rootAttr("<a v=\"dangling &quo\"/>", "v"), Error);
}

TEST(Xml, ControlCharactersRoundTripThroughAttributes)
{
    // The writer emits numeric references for control characters so
    // a write-then-parse round trip is byte-exact.
    std::string nasty = "line1\nline2\ttab\rret\x01\x1F\x7F end";
    XmlWriter newline;
    newline.open("a");
    newline.attr("v", "\n");
    newline.close();
    EXPECT_EQ(newline.finish(), "<a v=\"&#10;\"/>\n");
    XmlWriter writer;
    writer.open("a");
    writer.attr("v", nasty);
    writer.close();
    EXPECT_EQ(rootAttr(writer.finish(), "v"), nasty);
}

TEST(Xml, AttrHelpers)
{
    XmlReader in("<a x=\"5\" f=\"2.5\" x=\"6\"/>");
    in.next();
    EXPECT_NE(in.find("x"), nullptr);
    EXPECT_EQ(in.find("q"), nullptr);
    EXPECT_EQ(in.attrOr("q", "dflt"), "dflt");
    EXPECT_EQ(in.attrIntOr("q", 9), 9);
    EXPECT_EQ(in.attrInt("x"), 5); // the first of duplicates wins
    EXPECT_DOUBLE_EQ(in.attrDouble("f"), 2.5);
    EXPECT_THROW(in.attr("missing"), Error);
    // Integers are strict: "2.5" is not an integer.
    EXPECT_THROW(in.attrInt("f"), Error);
}

TEST(Xml, IntegersMustBeTheWholeValue)
{
    int value = 0;
    EXPECT_TRUE(parseXmlInt("-3", &value));
    EXPECT_EQ(value, -3);
    EXPECT_TRUE(parseXmlInt("2147483647", &value));
    EXPECT_EQ(value, 2147483647);
    for (const char *bad : { "", "12abc", " 12", "12 ", "+12", "1.0",
                             "0x10", "2147483648", "-" }) {
        EXPECT_FALSE(parseXmlInt(bad, &value)) << "'" << bad << "'";
    }
    std::string what = errorOf([] {
        XmlReader in("<a n=\"12abc\"/>");
        in.next();
        in.attrInt("n");
    });
    EXPECT_NE(what.find("attribute 'n' of <a> is not an integer"),
              std::string::npos)
        << what;
}

TEST(Xml, RejectsMalformedInput)
{
    for (const char *bad :
         { "", "<a>", "<a></b>", "<a x=1/>", "<a>text</a>", "<a/><b/>",
           "<a v=\"&bogus;\"/>", "<!-- open", "<?pi", "<a/ >",
           "<a x=\"1/>", "<a x></a>", "</a>", "<a></a " }) {
        std::string what = errorOf([&] { shapeOf(bad); });
        // One line, with the offset of the fault.
        EXPECT_EQ(what.rfind("xml: ", 0), 0u) << bad << ": " << what;
        EXPECT_NE(what.find("(at offset "), std::string::npos) << what;
        EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
}

TEST(Xml, WriterProducesParsableNesting)
{
    XmlWriter writer;
    writer.open("root");
    writer.attr("n", 2);
    writer.open("child");
    writer.attr("s", "a<b");
    writer.close();
    writer.open("child");
    writer.close();
    writer.close();
    std::string text = writer.finish();
    EXPECT_EQ(text, "<root n=\"2\">\n  <child s=\"a&lt;b\"/>\n"
                    "  <child/>\n</root>\n");
    EXPECT_EQ(shapeOf(text), "root(child(),child())");
    XmlReader in(text);
    in.next();
    in.next();
    EXPECT_EQ(in.attr("s"), "a<b");
}

TEST(Xml, WriterFormatsDoublesAsPrintf17g)
{
    for (double v : { 1.0, 0.125, 1.0 / 3.0, 8.0, 1e-300, 123456789.0 }) {
        XmlWriter writer;
        writer.open("a");
        writer.attr("v", v);
        writer.close();
        EXPECT_EQ(rootAttr(writer.finish(), "v"), strprintf("%.17g", v));
    }
}

TEST(Xml, WriterRejectsMisuse)
{
    XmlWriter writer;
    EXPECT_THROW(writer.attr("x", 1), Error);
    EXPECT_THROW(writer.close(), Error);
    writer.open("a");
    EXPECT_THROW(writer.finish(), Error); // unclosed
}

TEST(IrXml, RoundTripsEveryCollective)
{
    Topology dgx1 = makeDgx1();
    std::vector<std::unique_ptr<Program>> programs;
    AlgoConfig config;
    config.instances = 2;
    config.protocol = Protocol::LL;
    programs.push_back(makeRingAllReduce(4, 2, config));
    programs.push_back(makeAllPairsAllReduce(4, config));
    programs.push_back(makeHierarchicalAllReduce(2, 3, 2, config));
    programs.push_back(makeTwoStepAllToAll(2, 2, config));
    programs.push_back(makeAllToNext(2, 3, config));
    programs.push_back(makeRingAllGather(4, 2, config));
    programs.push_back(makeSccl122AllGather(dgx1, config));
    for (auto &prog : programs) {
        Compiled out = compileProgram(*prog);
        std::string xml = out.ir.toXml();
        IrProgram reloaded = IrProgram::fromXml(xml);
        EXPECT_EQ(reloaded, out.ir) << prog->options().name;
        EXPECT_EQ(reloaded.toXml(), xml) << prog->options().name;
    }
}

TEST(IrXml, RejectsUnknownStructure)
{
    EXPECT_THROW(IrProgram::fromXml("<wrong/>"), Error);
    EXPECT_THROW(IrProgram::fromXml("<algo nranks=\"1\"><oops/></algo>"),
                 Error);
    EXPECT_THROW(IrProgram::fromXml(
                     "<algo nranks=\"1\"><gpu id=\"0\" i_chunks=\"1\" "
                     "o_chunks=\"1\" s_chunks=\"0\"><tb id=\"0\" "
                     "send=\"-1\" recv=\"-1\" chan=\"0\">"
                     "<step s=\"0\" type=\"xyz\" srcbuf=\"i\" "
                     "srcoff=\"0\" dstbuf=\"o\" dstoff=\"0\" "
                     "cnt=\"1\" hasdep=\"0\"/></tb></gpu></algo>"),
                 Error);
}

TEST(IrXml, AcceptsCommentsQuotesEntitiesAndUnknownAttributes)
{
    IrProgram ir = IrProgram::fromXml(
        "<?xml version='1.0'?>\n<!-- hand written -->\n"
        "<algo name='a&amp;b' nranks='1' future='x'><gpu id='0' "
        "i_chunks='1' o_chunks='1' s_chunks='0'><!-- c --><tb id='0' "
        "send='-1' recv='-1' chan='0'><step s='0' type='cpy' srcbuf='i' "
        "srcoff='&#48;' dstbuf='o' dstoff='0' cnt='1' hasdep='0'><x/>"
        "</step></tb></gpu></algo>\n<!-- trailing -->\n");
    EXPECT_EQ(ir.name, "a&b");
    ASSERT_EQ(ir.gpus.size(), 1u);
    ASSERT_EQ(ir.gpus[0].threadBlocks.size(), 1u);
    ASSERT_EQ(ir.gpus[0].threadBlocks[0].steps.size(), 1u);
    EXPECT_EQ(ir.gpus[0].threadBlocks[0].steps[0].op, IrOp::Copy);
}

TEST(IrXml, DumpMentionsEveryThreadBlock)
{
    Compiled out = compileProgram(*makeRingAllReduce(4, 1, {}));
    std::string dump = out.ir.dump();
    for (const IrGpu &gpu : out.ir.gpus) {
        EXPECT_NE(dump.find(strprintf("gpu %d", gpu.rank)),
                  std::string::npos);
    }
}

/** A compiled 4-rank ring allreduce with split steps and deps. */
const std::string &
ringXml()
{
    static const std::string xml = [] {
        AlgoConfig config;
        config.parallelize = 2;
        return compileProgram(*makeRingAllReduce(4, 1, config)).ir.toXml();
    }();
    return xml;
}

/** ringXml() with the first @p from replaced by @p to. */
std::string
edited(const std::string &from, const std::string &to)
{
    std::string xml = ringXml();
    size_t at = xml.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        xml.replace(at, from.size(), to);
    return xml;
}

/** Loading @p xml fails with one line that contains @p needle. */
void
expectRejected(const std::string &xml, const std::string &needle)
{
    std::string what = errorOf([&] { IrProgram::fromXml(xml); });
    EXPECT_NE(what.find(needle), std::string::npos)
        << "got: '" << what << "'";
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
}

TEST(IrValidate, CompiledRingPasses)
{
    IrProgram ir = IrProgram::fromXml(ringXml());
    EXPECT_NO_THROW(validateIr(ir));
    EXPECT_NE(ringXml().find(" splitn=\"2\""), std::string::npos);
}

TEST(IrValidate, RejectsSplitnBelowOne)
{
    expectRejected(edited(" splitn=\"2\"", " splitn=\"0\""),
                   "rank 0 tb 0 step 0: splitn 0 < 1");
}

TEST(IrValidate, RejectsSplitIndexOutsideSplitCount)
{
    expectRejected(edited(" spliti=\"0\"", " spliti=\"2\""),
                   "rank 0 tb 0 step 0: spliti 2 outside [0, 2)");
    expectRejected(edited(" spliti=\"0\"", " spliti=\"-1\""),
                   "spliti -1 outside [0, 2)");
}

TEST(IrValidate, RejectsCountBelowOne)
{
    expectRejected(edited(" cnt=\"1\"", " cnt=\"0\""),
                   "rank 0 tb 0 step 0: cnt 0 < 1");
}

TEST(IrValidate, RejectsNegativeOffset)
{
    expectRejected(edited(" srcoff=\"0\"", " srcoff=\"-1\""),
                   "rank 0 tb 0 step 3: slice i[-1..0) outside");
}

TEST(IrValidate, RejectsSlicePastTheBuffer)
{
    expectRejected(edited(" dstoff=\"0\"", " dstoff=\"4\""),
                   "rank 0 tb 0 step 3: slice i[4..5) outside 4 chunks");
}

TEST(IrValidate, RejectsPeerOutsideRanks)
{
    expectRejected(edited(" send=\"1\"", " send=\"4\""),
                   "rank 0 tb 0: send peer 4 / recv peer 3 outside "
                   "[-1, 4)");
    expectRejected(edited(" recv=\"3\"", " recv=\"-2\""),
                   "recv peer -2 outside [-1, 4)");
}

TEST(IrValidate, RejectsNegativeChannel)
{
    expectRejected(edited(" chan=\"0\"", " chan=\"-1\""),
                   "rank 0 tb 0: channel -1 < 0");
}

TEST(IrValidate, RejectsDuplicateOrOutOfRangeGpuRanks)
{
    expectRejected(edited("<gpu id=\"1\"", "<gpu id=\"0\""),
                   "rank 0: gpu id duplicated or outside [0, 4)");
    expectRejected(edited("<gpu id=\"3\"", "<gpu id=\"4\""),
                   "rank 4: gpu id duplicated or outside [0, 4)");
    expectRejected(edited(" nranks=\"4\"", " nranks=\"0\""),
                   "nranks 0 < 1");
}

TEST(IrValidate, RejectsDuplicateOrOutOfRangeTbIds)
{
    expectRejected(edited("<tb id=\"1\"", "<tb id=\"0\""),
                   "rank 0 tb 0: tb id duplicated or outside [0, 2)");
    expectRejected(edited("<tb id=\"1\"", "<tb id=\"2\""),
                   "rank 0 tb 2: tb id duplicated or outside [0, 2)");
}

/** ringXml() with a deps attribute added to rank 0 tb 0 step 0. */
std::string
withDeps(const std::string &deps)
{
    return edited(" hasdep=\"0\"/>",
                  " deps=\"" + deps + "\" hasdep=\"0\"/>");
}

TEST(IrValidate, RejectsDependencyOnMissingTbOrStep)
{
    EXPECT_NO_THROW(IrProgram::fromXml(withDeps("1:0")));
    expectRejected(withDeps("7:0"),
                   "rank 0 tb 0 step 0: dependency 7:0 names no such tb "
                   "and step");
    expectRejected(withDeps("1:999"),
                   "dependency 1:999 names no such tb and step");
    expectRejected(withDeps("1:-1"),
                   "dependency 1:-1 names no such tb and step");
}

TEST(IrValidate, RejectsMalformedDependencyLists)
{
    for (const char *bad : { "1:", ":1", "1:0,", "1:0:0", "1 :0", "a:b" })
        expectRejected(withDeps(bad), "MSCCL-IR: malformed dependency");
}

TEST(IrValidate, StrictIntegerFieldsInPlans)
{
    // The one behaviour change of the streaming reader: "1abc" used
    // to load as 1.
    expectRejected(edited(" cnt=\"1\"", " cnt=\"1abc\""),
                   "attribute 'cnt' of <step> is not an integer");
}

TEST(Xml, MutatedRingXmlEndsInErrorOrValidRoundTrip)
{
    // Byte flips, inserts and deletes over a compiled plan: every
    // result must either throw Error or load into a plan that passes
    // validateIr and writes back byte-identically. Any other exception
    // fails the test; a signal fails the process.
    static const char kAlphabet[] = "0123456789-+<>/=\"'&#;:, x!?";
    Rng rng(0x5eed);
    const std::string &base = ringXml();
    int loaded = 0;
    int rejected = 0;
    for (int i = 0; i < 500; i++) {
        std::string xml = base;
        int edits = 1 + static_cast<int>(rng.nextBelow(3));
        for (int e = 0; e < edits && !xml.empty(); e++) {
            size_t pos = rng.nextBelow(xml.size());
            char c = rng.nextBelow(2) == 0
                ? kAlphabet[rng.nextBelow(sizeof kAlphabet - 1)]
                : static_cast<char>(rng.nextBelow(256));
            switch (rng.nextBelow(3)) {
              case 0: xml[pos] = c; break;
              case 1: xml.insert(xml.begin() + pos, c); break;
              default: xml.erase(pos, 1); break;
            }
        }
        try {
            IrProgram ir = IrProgram::fromXml(xml);
            validateIr(ir);
            std::string out = ir.toXml();
            EXPECT_EQ(IrProgram::fromXml(out).toXml(), out) << xml;
            loaded++;
        } catch (const Error &) {
            rejected++;
        }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
}

TEST(IrOps, NameTableRoundTrips)
{
    for (IrOp op : { IrOp::Nop, IrOp::Send, IrOp::Recv, IrOp::Copy,
                     IrOp::Reduce, IrOp::RecvReduceCopy,
                     IrOp::RecvReduceSend, IrOp::RecvReduceCopySend,
                     IrOp::RecvCopySend }) {
        EXPECT_EQ(irOpFromName(irOpName(op)), op);
    }
    EXPECT_THROW(irOpFromName("nope"), Error);
}

TEST(IrOps, SemanticPredicatesAreConsistent)
{
    // Every op that sends or receives participates in communication;
    // rrs is the only receiving op that does not write memory.
    EXPECT_TRUE(irOpSends(IrOp::RecvReduceSend));
    EXPECT_FALSE(irOpWritesDst(IrOp::RecvReduceSend));
    EXPECT_TRUE(irOpReceives(IrOp::RecvCopySend));
    EXPECT_FALSE(irOpReadsSrc(IrOp::RecvCopySend));
    EXPECT_TRUE(irOpReduces(IrOp::RecvReduceCopySend));
    EXPECT_FALSE(irOpReduces(IrOp::Copy));
}

} // namespace
} // namespace mscclang
