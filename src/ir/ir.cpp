#include "ir/ir.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "ir/xml.h"

namespace mscclang {

const char *
irOpName(IrOp op)
{
    switch (op) {
      case IrOp::Nop: return "nop";
      case IrOp::Send: return "s";
      case IrOp::Recv: return "r";
      case IrOp::Copy: return "cpy";
      case IrOp::Reduce: return "re";
      case IrOp::RecvReduceCopy: return "rrc";
      case IrOp::RecvReduceSend: return "rrs";
      case IrOp::RecvReduceCopySend: return "rrcs";
      case IrOp::RecvCopySend: return "rcs";
    }
    return "?";
}

namespace {

/** The enumerator in [0, @p count) whose @p name is @p text. */
template <typename Enum>
Enum
enumFromName(std::string_view text, int count, const char *(*name)(Enum),
             const char *what)
{
    for (int i = 0; i < count; i++) {
        if (text == name(static_cast<Enum>(i)))
            return static_cast<Enum>(i);
    }
    throw Error("MSCCL-IR: unknown " + std::string(what) + " '" +
                std::string(text) + "'");
}

} // namespace

IrOp
irOpFromName(std::string_view name)
{
    return enumFromName(name, static_cast<int>(IrOp::RecvCopySend) + 1,
                        irOpName, "opcode");
}

bool
irOpReceives(IrOp op)
{
    switch (op) {
      case IrOp::Recv:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpSends(IrOp op)
{
    switch (op) {
      case IrOp::Send:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpReadsSrc(IrOp op)
{
    switch (op) {
      case IrOp::Send:
      case IrOp::Copy:
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpWritesDst(IrOp op)
{
    switch (op) {
      case IrOp::Recv:
      case IrOp::Copy:
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpReduces(IrOp op)
{
    switch (op) {
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
        return true;
      default:
        return false;
    }
}

std::string
IrInstruction::toString() const
{
    std::string text = strprintf(
        "%s %s[%d] -> %s[%d] cnt=%d", irOpName(op), bufferKindName(srcBuf),
        srcOff, bufferKindName(dstBuf), dstOff, count);
    if (splitCount > 1)
        text += strprintf(" split=%d/%d", splitIdx, splitCount);
    for (const IrDep &dep : deps)
        text += strprintf(" dep=(tb%d,%d)", dep.tb, dep.step);
    if (hasDep)
        text += " sem";
    return text;
}

std::string
formatBlockedThreadBlock(Rank rank, int tb, int step,
                         const IrInstruction &instr,
                         const std::string &reason)
{
    return strprintf(
        "  rank %d tb %d blocked at step %d (%s) waiting for %s\n",
        rank, tb, step, instr.toString().c_str(), reason.c_str());
}

int
IrProgram::numChannels() const
{
    int max_channel = -1;
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            max_channel = std::max(max_channel, tb.channel);
    }
    return max_channel + 1;
}

int
IrProgram::maxThreadBlocks() const
{
    int most = 0;
    for (const IrGpu &gpu : gpus)
        most = std::max(most, static_cast<int>(gpu.threadBlocks.size()));
    return most;
}

bool
IrProgram::mutatesInput() const
{
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            for (const IrInstruction &instr : tb.steps) {
                if (!irOpWritesDst(instr.op))
                    continue;
                if (instr.dstBuf == BufferKind::Input ||
                    (inPlace && instr.dstBuf == BufferKind::Output)) {
                    return true;
                }
            }
        }
    }
    return false;
}

int
IrProgram::totalInstructions() const
{
    int total = 0;
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            total += static_cast<int>(tb.steps.size());
    }
    return total;
}

namespace {

BufferKind
bufferFromAttr(std::string_view name)
{
    return enumFromName(name, 3, bufferKindName, "buffer");
}

/** Writes "tb:step,tb:step" into @p out. */
void
depsAttr(const std::vector<IrDep> &deps, std::string &out)
{
    out.clear();
    for (const IrDep &dep : deps) {
        if (!out.empty())
            out += ',';
        out += std::to_string(dep.tb) + ':' + std::to_string(dep.step);
    }
}

std::vector<IrDep>
depsFromAttr(std::string_view text)
{
    std::vector<IrDep> deps;
    if (text.empty())
        return deps;
    for (;;) {
        size_t comma = text.find(',');
        std::string_view field = text.substr(0, comma);
        size_t colon = field.find(':');
        IrDep dep;
        if (colon == std::string_view::npos ||
            !parseXmlInt(field.substr(0, colon), &dep.tb) ||
            !parseXmlInt(field.substr(colon + 1), &dep.step)) {
            throw Error("MSCCL-IR: malformed dependency '" +
                        std::string(field) + "'");
        }
        deps.push_back(dep);
        if (comma == std::string_view::npos)
            return deps;
        text.remove_prefix(comma + 1);
    }
}

/** Rough serialized size of one <step> element, for reserving. */
constexpr size_t kStepXmlBytes = 112;

} // namespace

std::string
IrProgram::toXml() const
{
    XmlWriter writer(256 + kStepXmlBytes *
                               static_cast<size_t>(totalInstructions()));
    std::string deps;
    writer.open("algo");
    writer.attr("name", name);
    writer.attr("coll", collective);
    writer.attr("nranks", numRanks);
    writer.attr("inplace", inPlace ? 1 : 0);
    writer.attr("proto", protocolName(protocol));
    writer.attr("redop", reduceOpName(reduceOp));
    writer.attr("outputscale", outputScale);
    for (const IrGpu &gpu : gpus) {
        writer.open("gpu");
        writer.attr("id", gpu.rank);
        writer.attr("i_chunks", gpu.inputChunks);
        writer.attr("o_chunks", gpu.outputChunks);
        writer.attr("s_chunks", gpu.scratchChunks);
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            writer.open("tb");
            writer.attr("id", tb.id);
            writer.attr("send", tb.sendPeer);
            writer.attr("recv", tb.recvPeer);
            writer.attr("chan", tb.channel);
            for (size_t s = 0; s < tb.steps.size(); s++) {
                const IrInstruction &instr = tb.steps[s];
                writer.open("step");
                writer.attr("s", static_cast<int>(s));
                writer.attr("type", irOpName(instr.op));
                writer.attr("srcbuf", bufferKindName(instr.srcBuf));
                writer.attr("srcoff", instr.srcOff);
                writer.attr("dstbuf", bufferKindName(instr.dstBuf));
                writer.attr("dstoff", instr.dstOff);
                writer.attr("cnt", instr.count);
                if (instr.splitCount > 1) {
                    writer.attr("spliti", instr.splitIdx);
                    writer.attr("splitn", instr.splitCount);
                }
                if (!instr.deps.empty()) {
                    depsAttr(instr.deps, deps);
                    writer.attr("deps", deps);
                }
                writer.attr("hasdep", instr.hasDep ? 1 : 0);
                writer.close();
            }
            writer.close();
        }
        writer.close();
    }
    writer.close();
    return writer.finish();
}

IrProgram
IrProgram::fromXml(const std::string &xml)
{
    XmlReader in(xml);
    in.next("algo");
    IrProgram program;
    program.name = in.attrOr("name", "unnamed");
    program.collective = in.attrOr("coll", "custom");
    program.numRanks = in.attrInt("nranks");
    program.inPlace = in.attrIntOr("inplace", 0) != 0;
    program.protocol =
        enumFromName(in.attrOr("proto", "Simple"), 4, protocolName,
                     "protocol");
    program.reduceOp =
        enumFromName(in.attrOr("redop", "sum"), 4, reduceOpName,
                     "reduce op");
    program.outputScale =
        in.find("outputscale") ? in.attrDouble("outputscale") : 1.0;
    while (in.next("gpu")) {
        IrGpu &gpu = program.gpus.emplace_back();
        gpu.rank = in.attrInt("id");
        gpu.inputChunks = in.attrInt("i_chunks");
        gpu.outputChunks = in.attrInt("o_chunks");
        gpu.scratchChunks = in.attrInt("s_chunks");
        while (in.next("tb")) {
            IrThreadBlock &tb = gpu.threadBlocks.emplace_back();
            tb.id = in.attrInt("id");
            tb.sendPeer = in.attrInt("send");
            tb.recvPeer = in.attrInt("recv");
            tb.channel = in.attrInt("chan");
            while (in.next("step")) {
                IrInstruction &instr = tb.steps.emplace_back();
                instr.op = irOpFromName(in.attr("type"));
                instr.srcBuf = bufferFromAttr(in.attr("srcbuf"));
                instr.srcOff = in.attrInt("srcoff");
                instr.dstBuf = bufferFromAttr(in.attr("dstbuf"));
                instr.dstOff = in.attrInt("dstoff");
                instr.count = in.attrInt("cnt");
                instr.splitIdx = in.attrIntOr("spliti", 0);
                instr.splitCount = in.attrIntOr("splitn", 1);
                instr.deps = depsFromAttr(in.attrOr("deps", ""));
                instr.hasDep = in.attrIntOr("hasdep", 0) != 0;
                in.skip(); // a step's children carry nothing
            }
        }
    }
    in.next(); // only misc may follow the root
    validateIr(program);
    return program;
}

void
validateIr(const IrProgram &ir)
{
    if (ir.numRanks < 1)
        throw Error(strprintf("MSCCL-IR: nranks %d < 1", ir.numRanks));
    std::vector<int> ranks;
    for (const IrGpu &gpu : ir.gpus)
        ranks.push_back(gpu.rank);
    std::sort(ranks.begin(), ranks.end());
    for (size_t i = 0; i < ranks.size(); i++) {
        if (ranks[i] < 0 || ranks[i] >= ir.numRanks ||
            (i > 0 && ranks[i] == ranks[i - 1])) {
            throw Error(strprintf(
                "MSCCL-IR: rank %d: gpu id duplicated or outside [0, %d)",
                ranks[i], ir.numRanks));
        }
    }
    auto is_peer = [&](int peer) {
        return peer >= -1 && peer < ir.numRanks;
    };
    for (const IrGpu &gpu : ir.gpus) {
        // Indexed by BufferKind.
        const int chunks[] = { gpu.inputChunks, gpu.outputChunks,
                               gpu.scratchChunks };
        if (*std::min_element(std::begin(chunks), std::end(chunks)) < 0) {
            throw Error(strprintf("MSCCL-IR: rank %d: negative chunk count",
                                  gpu.rank));
        }
        // Thread block ids index the runtime's per-rank tables, so
        // they must be a permutation of [0, #tbs); stepsOf[id] is
        // that block's step count, for checking dependencies.
        std::vector<int> stepsOf(gpu.threadBlocks.size(), -1);
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            if (tb.id < 0 || static_cast<size_t>(tb.id) >= stepsOf.size() ||
                stepsOf[tb.id] >= 0) {
                throw Error(strprintf(
                    "MSCCL-IR: rank %d tb %d: tb id duplicated or outside "
                    "[0, %zu)", gpu.rank, tb.id, stepsOf.size()));
            }
            stepsOf[tb.id] = static_cast<int>(tb.steps.size());
        }
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            auto fail = [&](const std::string &why, long step = -1) {
                std::string at =
                    step < 0 ? "" : strprintf(" step %ld", step);
                throw Error(strprintf("MSCCL-IR: rank %d tb %d%s: %s",
                                      gpu.rank, tb.id, at.c_str(),
                                      why.c_str()));
            };
            if (!is_peer(tb.sendPeer) || !is_peer(tb.recvPeer)) {
                fail(strprintf("send peer %d / recv peer %d outside "
                               "[-1, %d)", tb.sendPeer, tb.recvPeer,
                               ir.numRanks));
            }
            if (tb.channel < 0)
                fail(strprintf("channel %d < 0", tb.channel));
            for (size_t s = 0; s < tb.steps.size(); s++) {
                const IrInstruction &in = tb.steps[s];
                long step = static_cast<long>(s);
                if (in.count < 1)
                    fail(strprintf("cnt %d < 1", in.count), step);
                if (in.splitCount < 1)
                    fail(strprintf("splitn %d < 1", in.splitCount), step);
                if (in.splitIdx < 0 || in.splitIdx >= in.splitCount) {
                    fail(strprintf("spliti %d outside [0, %d)", in.splitIdx,
                                   in.splitCount), step);
                }
                for (auto [buf, off] : { std::pair(in.srcBuf, in.srcOff),
                                         std::pair(in.dstBuf, in.dstOff) }) {
                    long long end = static_cast<long long>(off) + in.count;
                    int size = chunks[static_cast<int>(buf)];
                    if (off < 0 || end > size) {
                        fail(strprintf("slice %s[%d..%lld) outside %d chunks",
                                       bufferKindName(buf), off, end, size),
                             step);
                    }
                }
                for (const IrDep &dep : in.deps) {
                    if (dep.tb < 0 ||
                        static_cast<size_t>(dep.tb) >= stepsOf.size() ||
                        dep.step < 0 || dep.step >= stepsOf[dep.tb]) {
                        fail(strprintf("dependency %d:%d names no such tb "
                                       "and step", dep.tb, dep.step), step);
                    }
                }
            }
        }
    }
}

std::string
IrProgram::dump() const
{
    std::string out = strprintf(
        "program '%s' (%s, %d ranks, %s, %s%s)\n", name.c_str(),
        collective.c_str(), numRanks, protocolName(protocol),
        reduceOpName(reduceOp), inPlace ? ", in-place" : "");
    for (const IrGpu &gpu : gpus) {
        out += strprintf("  gpu %d (i=%d o=%d s=%d chunks)\n", gpu.rank,
                         gpu.inputChunks, gpu.outputChunks,
                         gpu.scratchChunks);
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            out += strprintf("    tb %d send=%d recv=%d chan=%d\n", tb.id,
                             tb.sendPeer, tb.recvPeer, tb.channel);
            for (size_t s = 0; s < tb.steps.size(); s++) {
                out += strprintf("      %2zu: %s\n", s,
                                 tb.steps[s].toString().c_str());
            }
        }
    }
    return out;
}

} // namespace mscclang
