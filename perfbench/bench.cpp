/**
 * @file
 * One benchmark for the three MSCCLang user paths: compiling a DSL
 * program to a verified plan, simulating a collective on the modelled
 * machine, and replaying a multi-stream fleet under a fault storm.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>]
 *
 * Every workload runs the same pass of legs over its own inputs:
 *   compile  trace + compileProgram (verify on, topology attached)
 *            + toXml over the plan set (the mscclang_compile path);
 *   cache    PlanCache::global().compile of the same programs
 *            (misses in the warm-up pass, hits after it);
 *   load     IrProgram::fromXml over the plans (mscclang_run ingress);
 *   sim      timing-mode runIr over the (plan, size) cells;
 *   data     data-mode runIr over the data cells;
 *   fleet    replayWorkload of the mixed inference workload on
 *            generic:2:8 under a link-flap storm, plus a storm-free
 *            replay of each seed.
 * The workloads differ in what the legs get, so each loads a
 * different layer; see README.md for the why of each input set.
 *
 * The run sets up several times (the median is setup_s), makes one
 * warm-up pass, checks every output against oracles outside the
 * library's own code paths, then makes whole timed passes until
 * --seconds have passed. Host times are medians over the timed
 * passes. Simulated figures must repeat bit for bit in every pass;
 * any difference is reported as a failed check.
 *
 * With --trace 1 the timed passes alternate between an untraced pass
 * and a traced one. The traced pass records a span around every call
 * into the library and compiles through the public stage functions
 * in compileProgram's order, so the stage times can be set against
 * the untraced compile time; the per-layer metrics come from it.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Engine and thread options (parallelInterp, simThreads, SimProfile)
 * stay at their defaults throughout.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/chunk_dag.h"
#include "compiler/compiler.h"
#include "compiler/plan_cache.h"
#include "compiler/verifier.h"
#include "runtime/communicator.h"
#include "runtime/interpreter.h"
#include "runtime/reference.h"
#include "spans.h"
#include "workload/replay.h"
#include "workload/workload.h"

using namespace mscclang;
using perfbench::SpanRecorder;
using perfbench::SpanScope;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

/** Setups per run; setup_s is their median. */
constexpr int kSetupRepeats = 15;

/** Elements per input chunk of a "small buffer" data cell. */
constexpr std::uint64_t kSmallElemsPerChunk = 64;

/** The fleet: machine, storm victim and storm shape of
 *  `mscclang_replay --storm flap` (six 700 us stalls, 900 us apart,
 *  from 200 us, on the NIC of node 0's last GPU). */
const char *const kFleetMachine = "generic:2:8";
const char *const kStormVictim = "ib-send[0.7]";

/**
 * Ops of the fleet that fail every time at the parent code, each to
 * "retry budget exhausted":
 *  - under the storm, seed 7 op 1.0 and seed 9 op 0.0: the watchdog
 *    blames only the blocked 7->8 link, the reformed ring then sends
 *    7->9 through the same stalled NIC;
 *  - without the storm, seed 10 op 3.4 (a MoE alltoall): the 250 us
 *    no-progress watchdog fires on sends that contention alone holds
 *    up, with no fault armed.
 */
struct KnownFailure
{
    std::uint64_t seed;
    bool storm;
    int stream;
    int op;
};
constexpr KnownFailure kKnownFailures[] = {
    { 7, true, 1, 0 }, { 9, true, 0, 0 }, { 10, false, 3, 4 }
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of an ascending vector. */
double
percentile(const std::vector<double> &sorted, double p)
{
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Runs @p fn inside a span named @p name and returns its result. */
template <typename Fn>
auto
inSpan(SpanRecorder &spans, const char *name, Fn &&fn)
{
    SpanScope scope(spans, name);
    return fn();
}

std::vector<int>
shuffled(int n, Rng &rng)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; i++)
        order[i] = i;
    for (int i = n - 1; i > 0; i--)
        std::swap(order[i], order[rng.nextBelow(i + 1)]);
    return order;
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

struct PlanDef
{
    std::string name;
    /** Index into WorkloadDef::machines. */
    int machine = 0;
    std::function<std::unique_ptr<Program>()> make;
    /** Also compare the race verdict with verifyRaceFreeReference
     *  (affordable on the smaller plans only). */
    bool raceOracle = false;
};

/** One (plan, bytes per rank) simulation; bytes 0 means the small
 *  buffer of kSmallElemsPerChunk floats per input chunk. */
struct Cell
{
    int plan = 0;
    std::uint64_t bytes = 0;
};

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> machines;
    std::vector<PlanDef> plans;
    std::vector<Cell> simCells;
    std::vector<Cell> dataCells;
    std::vector<std::uint64_t> fleetSeeds;
};

AlgoConfig
algo(int instances, Protocol protocol)
{
    AlgoConfig config;
    config.instances = instances;
    config.protocol = protocol;
    return config;
}

std::vector<WorkloadDef>
workloadDefs()
{
    std::vector<WorkloadDef> defs;

    // Compiler-bound: programs of 8.6k to 131k IR instructions. Rings
    // load schedule; the hierarchical fan-out loads lower, verify and
    // the race check; alltoall is many small independent transfers.
    WorkloadDef large;
    large.name = "compile-large";
    large.machines = { "ndv4:16", "ndv4:32", "ndv4:8" };
    large.plans = {
        { "ring_allreduce_128", 0,
          [] { return makeRingAllReduce(128, 1, AlgoConfig{}); } },
        { "ring_allreduce_256", 1,
          [] { return makeRingAllReduce(256, 1, AlgoConfig{}); } },
        { "hierarchical_allreduce_16x8", 0,
          [] { return makeHierarchicalAllReduce(16, 8, 8, AlgoConfig{}); },
          true },
        { "hierarchical_allreduce_32x8", 1,
          [] { return makeHierarchicalAllReduce(32, 8, 8, AlgoConfig{}); } },
        { "twostep_alltoall_8x8", 2,
          [] { return makeTwoStepAllToAll(8, 8, AlgoConfig{}); }, true },
    };
    for (int p = 0; p < 5; p++) {
        large.simCells.push_back({ p, 64 * kMiB });
        large.dataCells.push_back({ p, 0 });
    }
    large.fleetSeeds = { 1, 2, 3, 4 };
    defs.push_back(std::move(large));

    // Simulator-bound: a geometric size ladder over four plans, and a
    // data-mode leg that moves real floats at MiB sizes.
    WorkloadDef sweep;
    sweep.name = "sim-sweep";
    sweep.machines = { "ndv4:16", "ndv4:8", "ndv4:2" };
    sweep.plans = {
        { "ring_allreduce_128", 0,
          [] { return makeRingAllReduce(128, 1, AlgoConfig{}); } },
        { "hierarchical_allreduce_8x8", 1,
          [] { return makeHierarchicalAllReduce(8, 8, 8, AlgoConfig{}); },
          true },
        { "twostep_alltoall_8x8", 1,
          [] { return makeTwoStepAllToAll(8, 8, AlgoConfig{}); }, true },
        { "ring_allgather_64", 1,
          [] { return makeRingAllGather(64, 1, AlgoConfig{}); }, true },
        { "ring_allreduce_16", 2,
          [] { return makeRingAllReduce(16, 1, AlgoConfig{}); }, true },
        { "ring_allgather_16", 2,
          [] { return makeRingAllGather(16, 1, AlgoConfig{}); }, true },
        { "twostep_alltoall_2x8", 2,
          [] { return makeTwoStepAllToAll(2, 8, AlgoConfig{}); }, true },
    };
    for (int p = 0; p < 4; p++) {
        for (std::uint64_t bytes = 64 * kKiB; bytes <= 256 * kMiB;
             bytes *= 4)
            sweep.simCells.push_back({ p, bytes });
    }
    sweep.dataCells = { { 4, 1 * kMiB }, { 4, 2 * kMiB }, { 5, 1 * kMiB },
                        { 6, 1 * kMiB }, { 6, 2 * kMiB } };
    sweep.fleetSeeds = { 1, 2, 3, 4 };
    defs.push_back(std::move(sweep));

    // Replay-bound: three concurrent open-loop streams per seed under
    // the storm. The plan set is the fleet's own plan library (the
    // plans registerWorkloadPlans serves on 16 ranks), compiled with
    // the machine attached; the sim cells run them clean and isolated
    // at the sizes the streams issue.
    WorkloadDef fleet;
    fleet.name = "fleet-storm";
    fleet.machines = { kFleetMachine };
    fleet.plans = {
        { "ring_allreduce_16_ll", 0,
          [] { return makeRingAllReduce(16, 1, algo(2, Protocol::LL)); },
          true },
        { "ring_allreduce_16_simple", 0,
          [] {
              return makeRingAllReduce(16, 2, algo(2, Protocol::Simple));
          },
          true },
        { "ring_allgather_16", 0,
          [] {
              return makeRingAllGather(16, 2, algo(2, Protocol::Simple));
          },
          true },
        { "twostep_alltoall_2x8", 0,
          [] { return makeTwoStepAllToAll(2, 8, AlgoConfig{}); }, true },
        { "ring_allreduce_16_fallback", 0,
          [] { return makeRingAllReduce(16, 1, AlgoConfig{}); }, true },
        { "ring_allgather_16_fallback", 0,
          [] { return makeRingAllGather(16, 1, AlgoConfig{}); }, true },
        { "naive_alltoall_16", 0,
          [] { return makeNaiveAllToAll(16, AlgoConfig{}); }, true },
    };
    fleet.simCells = { { 0, 256 * kKiB }, { 1, 1 * kMiB },
                       { 2, 512 * kKiB }, { 3, 1 * kMiB },
                       { 4, 1 * kMiB },   { 5, 512 * kKiB },
                       { 6, 1 * kMiB } };
    fleet.dataCells = { { 0, 256 * kKiB }, { 2, 512 * kKiB },
                        { 3, 1 * kMiB } };
    for (std::uint64_t seed = 1; seed <= 10; seed++)
        fleet.fleetSeeds.push_back(seed);
    defs.push_back(std::move(fleet));

    return defs;
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/** Collects failed output checks; any failure makes correct false. */
class Checks
{
  public:
    void
    fail(const std::string &what)
    {
        if (failures_.size() < 20)
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        failures_.push_back(what);
    }
    bool ok() const { return failures_.empty(); }

  private:
    std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

struct Env
{
    std::vector<std::unique_ptr<Topology>> machines;
    std::unique_ptr<Topology> fleetMachine;
    FaultSchedule storm;
    /** One spec per fleet seed, read back from its own JSON. */
    std::vector<WorkloadSpec> specs;
    double specJsonMs = 0.0;
};

/**
 * Builds the machines, the storm and the fleet specs (with a JSON
 * round trip per spec), and registers the fleet's plan library cold:
 * the process-wide plan cache is emptied first, so every setup
 * compiles the same plans.
 */
std::unique_ptr<Env>
setup(const WorkloadDef &def, SpanRecorder &spans, Checks &checks)
{
    SpanScope scope(spans, "setup");
    auto env = std::make_unique<Env>();
    for (const std::string &machine : def.machines) {
        env->machines.push_back(inSpan(spans, "topology.build", [&] {
            return std::make_unique<Topology>(parseTopology(machine));
        }));
    }
    env->fleetMachine = inSpan(spans, "topology.build", [] {
        return std::make_unique<Topology>(parseTopology(kFleetMachine));
    });
    std::vector<ResourceId> victims =
        resourcesMatching(*env->fleetMachine, kStormVictim);
    if (victims.empty())
        throw Error(std::string("no storm victim ") + kStormVictim);
    env->storm = makeLinkFlapStorm(victims, 6, 900.0, 700.0, 200.0);

    for (std::uint64_t seed : def.fleetSeeds) {
        WorkloadSpec spec = inSpan(spans, "workload.generate", [&] {
            return makeMixedInferenceWorkload(seed);
        });
        Clock::time_point t0 = Clock::now();
        std::string text;
        WorkloadSpec parsed;
        {
            SpanScope json(spans, "workload.spec_json");
            text = spec.toJson();
            parsed = WorkloadSpec::fromJson(text);
        }
        env->specJsonMs += msSince(t0);
        if (parsed.toJson() != text) {
            checks.fail(strprintf("seed %llu: spec JSON round trip differs",
                                  static_cast<unsigned long long>(seed)));
        }
        env->specs.push_back(std::move(parsed));
    }

    PlanCache::global().clear();
    Communicator comm(*env->fleetMachine);
    inSpan(spans, "runtime.register_plans",
           [&] { registerWorkloadPlans(comm, env->specs.front()); });
    return env;
}

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

/** The simulated outcome of one pass; must repeat in every pass. */
struct SimOutcome
{
    /** (simulated ns, messages) per sim and data cell. */
    std::vector<std::pair<TimeNs, std::uint64_t>> simCells;
    std::vector<std::pair<TimeNs, std::uint64_t>> dataCells;
    /** ReplayResult::fingerprint per fleet seed. */
    std::vector<std::uint64_t> storm;
    std::vector<std::uint64_t> baseline;

    bool operator==(const SimOutcome &) const = default;
};

/** Counts the traced run reports per pass. */
struct Counts
{
    double traceOps = 0, loweredInstrs = 0, irInstrs = 0, fusions = 0;
    double threadBlocks = 0, channels = 0, xmlBytes = 0, messages = 0;
    double cacheHits = 0, cacheMisses = 0;
    double attempts = 0, backoffs = 0, replans = 0, fallbacks = 0;
    double replanCompiles = 0, faultsFired = 0, quarantineChanges = 0;
};

struct Pass
{
    /** Host ms per leg. */
    double compileMs = 0, hitMs = 0, missMs = 0, loadMs = 0, simMs = 0;
    double dataMs = 0, stormMs = 0, baselineMs = 0;
    Counts counts;
    SimOutcome sim;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Per plan: the traced program, its IR and its XML. */
    std::vector<std::unique_ptr<Program>> programs;
    std::vector<IrProgram> ir;
    std::vector<std::string> xml;
    /** Per fleet seed. */
    std::vector<ReplayResult> storm;
    std::vector<ReplayResult> baseline;

    /** Frees the plans and replay records once they are checked, so
     *  the peak resident set does not grow with the number of passes. */
    void
    release()
    {
        programs.clear();
        ir.clear();
        xml.clear();
        storm.clear();
        baseline.clear();
    }

    double
    legsMs() const
    {
        return compileMs + hitMs + missMs + loadMs + simMs + dataMs +
               stormMs + baselineMs;
    }
};

CompileOptions
compileOptions(const Topology &machine)
{
    CompileOptions options;
    options.topology = &machine;
    return options;
}

/** State that outlives one pass: the warm-up's plans and inputs. */
struct Run
{
    const WorkloadDef &def;
    Env &env;
    SpanRecorder &spans;
    Checks &checks;
    Rng &rng;
    std::uint64_t seed;
    /** Warm-up IR and XML per plan; every later pass must match. */
    std::vector<IrProgram> ir;
    std::vector<std::string> xml;
    /** Bytes and per-rank inputs of each data cell. */
    std::vector<std::uint64_t> dataBytes;
    std::vector<std::vector<std::vector<float>>> dataInputs;
};

/** compileProgram's stages through their public functions, in its
 *  order (the topology connectivity check has no public function). */
IrProgram
compileStaged(Run &run, const Program &program,
              const CompileOptions &options, Counts &counts)
{
    SpanRecorder &spans = run.spans;
    inSpan(spans, "compiler.chunk_dag", [&] {
        return ChunkDag(program).criticalPathLength();
    });
    InstrGraph graph = inSpan(spans, "compiler.lower",
                              [&] { return lowerProgram(program); });
    counts.loweredInstrs += graph.numLive();
    FusionStats fusion = inSpan(spans, "compiler.fuse",
                                [&] { return fuseInstructions(graph); });
    counts.fusions += fusion.rcs + fusion.rrcs + fusion.rrs;
    ScheduleOptions sched;
    sched.maxThreadBlocks = options.maxThreadBlocks;
    sched.topology = options.topology;
    IrProgram ir = inSpan(spans, "compiler.schedule", [&] {
        return scheduleProgram(program, graph, sched);
    });
    VerifyOptions verify;
    verify.slots = options.verifySlots;
    inSpan(spans, "compiler.verify",
           [&] { verifyIr(ir, program.collective(), verify); });
    return ir;
}

void
compileLeg(Run &run, Pass &pass, bool staged)
{
    SpanScope leg(run.spans, "leg.compile");
    int n = static_cast<int>(run.def.plans.size());
    pass.programs.resize(n);
    pass.ir.resize(n);
    pass.xml.resize(n);
    for (int i : shuffled(n, run.rng)) {
        const PlanDef &plan = run.def.plans[i];
        CompileOptions options =
            compileOptions(*run.env.machines[plan.machine]);
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Program> program =
            inSpan(run.spans, "dsl.trace", [&] { return plan.make(); });
        IrProgram ir;
        if (staged) {
            ir = compileStaged(run, *program, options, pass.counts);
        } else {
            Compiled compiled = compileProgram(*program, options);
            ir = std::move(compiled.ir);
            pass.counts.loweredInstrs += compiled.stats.instrsBeforeFusion;
            pass.counts.fusions += compiled.stats.fusion.rcs +
                                   compiled.stats.fusion.rrcs +
                                   compiled.stats.fusion.rrs;
        }
        std::string xml =
            inSpan(run.spans, "ir.to_xml", [&] { return ir.toXml(); });
        pass.compileMs += msSince(t0);

        pass.counts.traceOps += static_cast<double>(program->ops().size());
        pass.counts.irInstrs += ir.totalInstructions();
        pass.counts.threadBlocks += ir.maxThreadBlocks();
        pass.counts.channels += ir.numChannels();
        pass.counts.xmlBytes += static_cast<double>(xml.size());
        pass.programs[i] = std::move(program);
        pass.ir[i] = std::move(ir);
        pass.xml[i] = std::move(xml);
    }
    pass.attempted += n;

    if (staged) {
        // compileProgram has no race check, so the traced pass times it
        // as its own layer, after the compile leg and outside its time.
        SpanScope race_leg(run.spans, "leg.race");
        for (int i = 0; i < n; i++) {
            SpanScope race(run.spans, "compiler.race");
            try {
                verifyRaceFree(pass.ir[i]);
            } catch (const Error &error) {
                run.checks.fail(run.def.plans[i].name + ": " + error.what());
            }
        }
    }
}

void
cacheLeg(Run &run, Pass &pass, bool expect_hits)
{
    SpanScope leg(run.spans, "leg.cache");
    PlanCache &cache = PlanCache::global();
    for (int i : shuffled(static_cast<int>(run.def.plans.size()),
                          run.rng)) {
        const PlanDef &plan = run.def.plans[i];
        CompileOptions options =
            compileOptions(*run.env.machines[plan.machine]);
        std::size_t hits = cache.hits();
        Clock::time_point t0 = Clock::now();
        {
            SpanScope call(run.spans, expect_hits ? "plan_cache.hit"
                                                  : "plan_cache.miss");
            cache.compile(*pass.programs[i], options);
        }
        double ms = msSince(t0);
        bool hit = cache.hits() > hits;
        (hit ? pass.hitMs : pass.missMs) += ms;
        if (hit != expect_hits) {
            run.checks.fail(strprintf("%s: plan cache %s where a %s was due",
                                      plan.name.c_str(),
                                      hit ? "hit" : "missed",
                                      expect_hits ? "hit" : "miss"));
        }
    }
}

void
loadLeg(Run &run, Pass &pass)
{
    SpanScope leg(run.spans, "leg.load");
    for (int i : shuffled(static_cast<int>(run.def.plans.size()),
                          run.rng)) {
        Clock::time_point t0 = Clock::now();
        IrProgram loaded = inSpan(run.spans, "ir.from_xml", [&] {
            return IrProgram::fromXml(pass.xml[i]);
        });
        pass.loadMs += msSince(t0);
        if (!(loaded == run.ir[i]))
            run.checks.fail(run.def.plans[i].name +
                            ": fromXml(toXml(ir)) != ir");
    }
}

void
simLeg(Run &run, Pass &pass)
{
    SpanScope leg(run.spans, "leg.sim");
    int n = static_cast<int>(run.def.simCells.size());
    pass.sim.simCells.resize(n);
    for (int c : shuffled(n, run.rng)) {
        const Cell &cell = run.def.simCells[c];
        const PlanDef &plan = run.def.plans[cell.plan];
        ExecOptions options;
        options.bytesPerRank = cell.bytes;
        Clock::time_point t0 = Clock::now();
        ExecStats stats = inSpan(run.spans, "sim.run", [&] {
            return runIr(*run.env.machines[plan.machine],
                         run.ir[cell.plan], options);
        });
        pass.simMs += msSince(t0);
        pass.sim.simCells[c] = { stats.endNs - stats.startNs,
                                 stats.messages };
        pass.counts.messages += static_cast<double>(stats.messages);
    }
    pass.attempted += n;
}

/** Runs the data cells; on the warm-up pass it also compares each
 *  output with computeReference, outside the timed region. */
void
dataLeg(Run &run, Pass &pass, bool check_outputs)
{
    SpanScope leg(run.spans, "leg.data");
    int n = static_cast<int>(run.def.dataCells.size());
    pass.sim.dataCells.resize(n);
    for (int c : shuffled(n, run.rng)) {
        const Cell &cell = run.def.dataCells[c];
        const PlanDef &plan = run.def.plans[cell.plan];
        const IrProgram &ir = run.ir[cell.plan];
        DataStore store;
        store.configure(ir, run.dataBytes[c]);
        for (int r = 0; r < ir.numRanks; r++)
            store.input(r) = run.dataInputs[c][r];
        ExecOptions options;
        options.dataMode = true;
        options.bytesPerRank = run.dataBytes[c];
        Clock::time_point t0 = Clock::now();
        ExecStats stats = inSpan(run.spans, "sim.data_run", [&] {
            return runIr(*run.env.machines[plan.machine], ir, options,
                         &store);
        });
        pass.dataMs += msSince(t0);
        pass.sim.dataCells[c] = { stats.endNs - stats.startNs,
                                  stats.messages };
        if (check_outputs) {
            std::vector<std::vector<float>> outputs(ir.numRanks);
            for (int r = 0; r < ir.numRanks; r++)
                outputs[r] = std::move(
                    store.buffer(r, BufferKind::Output, ir.inPlace));
            const Program &program = *pass.programs[cell.plan];
            std::string mismatch = compareToReference(
                program.collective(), run.dataInputs[c], outputs,
                program.options().reduceOp);
            if (!mismatch.empty())
                run.checks.fail(plan.name + " data cell: " + mismatch);
        }
    }
    pass.attempted += n;
}

/** Replays @p spec on a fresh communicator with the plan library
 *  registered; only replayWorkload itself is timed. */
ReplayResult
replayOnce(Run &run, const WorkloadSpec &spec, const FaultSchedule &storm,
           const char *span, double *ms)
{
    Communicator comm(*run.env.fleetMachine);
    inSpan(run.spans, "runtime.register_plans",
           [&] { registerWorkloadPlans(comm, spec); });
    Clock::time_point t0 = Clock::now();
    ReplayResult result = inSpan(run.spans, span, [&] {
        return replayWorkload(comm, spec, storm, ReplayOptions{});
    });
    *ms += msSince(t0);
    return result;
}

void
fleetLeg(Run &run, Pass &pass)
{
    SpanScope leg(run.spans, "leg.fleet");
    int n = static_cast<int>(run.def.fleetSeeds.size());
    pass.storm.resize(n);
    pass.baseline.resize(n);
    pass.sim.storm.resize(n);
    pass.sim.baseline.resize(n);
    for (int k : shuffled(n, run.rng)) {
        const WorkloadSpec &spec = run.env.specs[k];
        pass.storm[k] = replayOnce(run, spec, run.env.storm,
                                   "replay.storm", &pass.stormMs);
        pass.baseline[k] = replayOnce(run, spec, FaultSchedule{},
                                      "replay.baseline", &pass.baselineMs);
        pass.sim.storm[k] = pass.storm[k].fingerprint();
        pass.sim.baseline[k] = pass.baseline[k].fingerprint();
    }
    for (int k = 0; k < n; k++) {
        const ReplayResult &result = pass.storm[k];
        for (const OpRecord &op : result.ops) {
            pass.counts.attempts += op.attempts;
            pass.counts.backoffs += op.backoffs;
            pass.counts.replans += op.replanned ? 1 : 0;
            pass.counts.fallbacks += op.fellBack ? 1 : 0;
        }
        pass.counts.replanCompiles += result.replanCompiles;
        pass.counts.faultsFired += result.faultsFired;
        pass.counts.quarantineChanges += result.quarantineChanges;
        for (const ReplayResult *replay : { &pass.storm[k],
                                            &pass.baseline[k] }) {
            pass.attempted += replay->ops.size();
            for (const OpRecord &op : replay->ops)
                pass.failed += op.completed ? 0 : 1;
        }
    }
}

/** Fills each data cell's inputs from the run's seed. */
void
prepareDataInputs(Run &run)
{
    Rng fill(run.seed * 0x9e3779b97f4a7c15ULL + 1);
    for (const Cell &cell : run.def.dataCells) {
        const IrProgram &ir = run.ir[cell.plan];
        std::uint64_t bytes = cell.bytes;
        if (bytes == 0) {
            int chunks = 0;
            for (const IrGpu &gpu : ir.gpus)
                chunks = std::max(chunks, gpu.inputChunks);
            bytes = static_cast<std::uint64_t>(chunks) *
                    kSmallElemsPerChunk * sizeof(float);
        }
        run.dataBytes.push_back(bytes);
        std::vector<std::vector<float>> inputs(ir.numRanks);
        for (std::vector<float> &buffer : inputs) {
            buffer.resize(bytes / sizeof(float));
            for (float &value : buffer)
                value = fill.nextSignedFloat();
        }
        run.dataInputs.push_back(std::move(inputs));
    }
}

Pass
runPass(Run &run, bool warmup, bool staged)
{
    SpanScope scope(run.spans, warmup ? "pass.warmup" : "pass");
    Pass pass;
    std::size_t hits = PlanCache::global().hits();
    std::size_t misses = PlanCache::global().misses();
    compileLeg(run, pass, staged);
    if (warmup) {
        // The warm-up's IR feeds every later sim leg, and the small
        // data buffers follow its chunk counts.
        run.ir = pass.ir;
        run.xml = pass.xml;
        prepareDataInputs(run);
    }
    cacheLeg(run, pass, !warmup);
    loadLeg(run, pass);
    simLeg(run, pass);
    dataLeg(run, pass, warmup);
    fleetLeg(run, pass);
    pass.counts.cacheHits =
        static_cast<double>(PlanCache::global().hits() - hits);
    pass.counts.cacheMisses =
        static_cast<double>(PlanCache::global().misses() - misses);
    return pass;
}

// ---------------------------------------------------------------------
// Output checks (outside every timed region)
// ---------------------------------------------------------------------

/** The verdict of one race engine: empty when race-free. */
template <typename Fn>
std::string
raceVerdict(Fn &&check)
{
    try {
        check();
        return "";
    } catch (const Error &error) {
        return error.what();
    }
}

/**
 * Lower bound on the simulated time of a collective from the
 * machine's per-GPU bandwidth: every GPU can send at most NVLink plus
 * NIC bandwidth and receive as much. An allreduce sends at least
 * 2(R-1)/R * B per rank on average, an allgather rank receives
 * (R-1) * B and an alltoall rank receives (R-1)/R * B.
 */
double
bandwidthBoundUs(const Topology &machine, const IrProgram &ir,
                 std::uint64_t bytes)
{
    const MachineParams &params = machine.params();
    double port_gbps = params.nvlinkGpuBwGBps +
                       (machine.numNodes() > 1 ? params.ibNicBwGBps : 0.0);
    double ranks = ir.numRanks;
    double b = static_cast<double>(bytes);
    double must_move = 0.0;
    if (ir.collective == "allreduce")
        must_move = 2.0 * (ranks - 1.0) / ranks * b;
    else if (ir.collective == "allgather")
        must_move = (ranks - 1.0) * b;
    else if (ir.collective == "alltoall")
        must_move = (ranks - 1.0) / ranks * b;
    return must_move / (port_gbps * 1e3);
}

/** Checks one replay's op records against its spec. */
void
checkReplay(Checks &checks, const std::string &what,
            const WorkloadSpec &spec, const ReplayResult &result)
{
    if (static_cast<int>(result.ops.size()) != spec.totalOps()) {
        checks.fail(strprintf("%s: %zu op records for %d ops", what.c_str(),
                              result.ops.size(), spec.totalOps()));
        return;
    }
    std::map<std::pair<int, int>, const OpRecord *> records;
    for (const OpRecord &op : result.ops)
        records[{ op.stream, op.op }] = &op;
    int completed = 0;
    int failed = 0;
    for (const OpRecord &op : result.ops) {
        (op.completed ? completed : failed)++;
        if (!(op.issueUs <= op.startUs && op.startUs <= op.doneUs)) {
            checks.fail(strprintf("%s: op %d.%d issue %.3f start %.3f "
                                  "done %.3f out of order",
                                  what.c_str(), op.stream, op.op,
                                  op.issueUs, op.startUs, op.doneUs));
        }
        if (op.stream < 0 ||
            op.stream >= static_cast<int>(spec.streams.size()) ||
            op.op < 0 ||
            op.op >= static_cast<int>(spec.streams[op.stream].ops.size())) {
            checks.fail(what + ": op record outside the spec");
            continue;
        }
        const WorkloadOp &spec_op = spec.streams[op.stream].ops[op.op];
        std::vector<OpDep> deps = spec_op.deps;
        if (op.op > 0)
            deps.push_back({ op.stream, op.op - 1 });
        for (const OpDep &dep : deps) {
            auto it = records.find({ dep.stream, dep.op });
            if (it == records.end() || op.startUs < it->second->doneUs) {
                checks.fail(strprintf("%s: op %d.%d starts before its "
                                      "dependency %d.%d resolves",
                                      what.c_str(), op.stream, op.op,
                                      dep.stream, dep.op));
            }
        }
    }
    if (completed + failed != spec.totalOps())
        checks.fail(what + ": completed + failed != op count");
}

/**
 * One data-mode in-place allreduce through Communicator::run on the
 * storm-armed machine: an aborted attempt must roll the buffers back,
 * so the result still matches the reference.
 */
void
checkRollback(Run &run)
{
    Topology machine = *run.env.fleetMachine;
    machine.setFaultSchedule(run.env.storm);
    Communicator comm(machine);
    registerWorkloadPlans(comm, run.env.specs.front());

    constexpr std::uint64_t kBytes = 4 * kMiB;
    std::unique_ptr<Program> reference_program =
        makeRingAllReduce(machine.numRanks(), 1, AlgoConfig{});
    IrProgram sizing = compileProgram(*reference_program).ir;
    comm.store().configure(sizing, kBytes);
    Rng fill(run.seed + 77);
    std::vector<std::vector<float>> inputs(machine.numRanks());
    for (int r = 0; r < machine.numRanks(); r++) {
        for (float &value : comm.store().input(r))
            value = fill.nextSignedFloat();
        inputs[r] = comm.store().input(r);
    }
    RunOptions options;
    options.bytes = kBytes;
    options.dataMode = true;
    options.watchdogNoProgressUs = ReplayOptions{}.watchdogNoProgressUs;
    options.maxAttempts = ReplayOptions{}.maxAttempts;
    RunResult result = comm.run("allreduce", options);
    std::vector<std::vector<float>> outputs(machine.numRanks());
    for (int r = 0; r < machine.numRanks(); r++)
        outputs[r] = comm.store().buffer(r, BufferKind::Output, true);
    std::string mismatch = compareToReference(
        reference_program->collective(), inputs, outputs, ReduceOp::Sum);
    if (!mismatch.empty())
        run.checks.fail("allreduce under the storm: " + mismatch);
    std::printf("# rollback check: %d attempts, %d faults seen, "
                "rolled back %s, output %s\n",
                result.attempts, result.faultsSeen,
                result.rolledBack ? "yes" : "no",
                mismatch.empty() ? "matches the reference" : "WRONG");
}

bool
isKnownFailure(std::uint64_t seed, bool storm, const OpRecord &op)
{
    for (const KnownFailure &known : kKnownFailures) {
        if (known.seed == seed && known.storm == storm &&
            known.stream == op.stream && known.op == op.op)
            return true;
    }
    return false;
}

void
checkWarmup(Run &run, const Pass &warm)
{
    Checks &checks = run.checks;
    const WorkloadDef &def = run.def;
    for (std::size_t i = 0; i < def.plans.size(); i++) {
        const PlanDef &plan = def.plans[i];
        const IrProgram &ir = run.ir[i];
        std::string verdict =
            raceVerdict([&] { verifyRaceFree(ir); });
        if (!verdict.empty())
            checks.fail(plan.name + ": " + verdict);
        if (plan.raceOracle) {
            std::string oracle =
                raceVerdict([&] { verifyRaceFreeReference(ir); });
            if (oracle != verdict) {
                checks.fail(plan.name + ": race verdict '" + verdict +
                            "' but the reference says '" + oracle + "'");
            }
        }
        CompileOptions options =
            compileOptions(*run.env.machines[plan.machine]);
        Compiled hit = PlanCache::global().compile(*warm.programs[i],
                                                   options);
        if (hit.ir.toXml() != run.xml[i])
            checks.fail(plan.name + ": plan cache hit serializes "
                                    "differently from the cold compile");
    }

    for (std::size_t c = 0; c < def.simCells.size(); c++) {
        const Cell &cell = def.simCells[c];
        const PlanDef &plan = def.plans[cell.plan];
        double sim_us = warm.sim.simCells[c].first / 1000.0;
        double bound_us =
            bandwidthBoundUs(*run.env.machines[plan.machine],
                             run.ir[cell.plan], cell.bytes);
        if (sim_us < bound_us) {
            checks.fail(strprintf("%s at %llu B: %.3f us is below the "
                                  "bandwidth bound %.3f us",
                                  plan.name.c_str(),
                                  static_cast<unsigned long long>(
                                      cell.bytes),
                                  sim_us, bound_us));
        }
    }

    for (std::size_t k = 0; k < def.fleetSeeds.size(); k++) {
        std::uint64_t fleet_seed = def.fleetSeeds[k];
        std::string label = strprintf(
            "seed %llu", static_cast<unsigned long long>(fleet_seed));
        checkReplay(checks, label + " storm", run.env.specs[k],
                    warm.storm[k]);
        checkReplay(checks, label + " baseline", run.env.specs[k],
                    warm.baseline[k]);
        for (bool storm : { true, false }) {
            const ReplayResult &result =
                storm ? warm.storm[k] : warm.baseline[k];
            for (const OpRecord &op : result.ops) {
                if (!op.completed && !isKnownFailure(fleet_seed, storm, op)) {
                    std::fprintf(stderr,
                                 "note: %s %s op %d.%d failed outside the "
                                 "known faults: %s\n",
                                 label.c_str(), storm ? "storm" : "baseline",
                                 op.stream, op.op, op.failReason.c_str());
                }
            }
        }
    }
    checkRollback(run);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Geometric mean over the sim cells of bytes per rank over
 *  simulated time, GB/s. */
double
algbwGBps(const WorkloadDef &def, const SimOutcome &sim)
{
    double log_sum = 0.0;
    for (std::size_t c = 0; c < def.simCells.size(); c++) {
        double us = sim.simCells[c].first / 1000.0;
        log_sum += std::log(static_cast<double>(def.simCells[c].bytes) /
                            (us * 1e3));
    }
    return std::exp(log_sum / static_cast<double>(def.simCells.size()));
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

template <typename Fn>
std::vector<double>
collect(const std::vector<Pass> &passes, Fn &&field)
{
    std::vector<double> values;
    for (const Pass &pass : passes)
        values.push_back(field(pass));
    return values;
}

std::vector<Metric>
endToEndMetrics(const Run &run, const Pass &warm,
                const std::vector<Pass> &passes,
                const std::vector<double> &setup_ms)
{
    std::vector<double> latencies;
    std::vector<double> makespans;
    for (const ReplayResult &result : warm.storm) {
        for (const OpRecord &op : result.ops) {
            latencies.push_back(op.completed
                                    ? op.latencyUs
                                    : std::numeric_limits<double>::infinity());
        }
        makespans.push_back(result.makespanUs);
    }
    std::sort(latencies.begin(), latencies.end());
    auto sec = [&](double Pass::*field) {
        return median(collect(passes, [&](const Pass &pass) {
                   return pass.*field;
               })) /
               1000.0;
    };
    return {
        { "setup_s", median(setup_ms) / 1000.0, "s" },
        { "compile_s", sec(&Pass::compileMs), "s" },
        { "cache_hit_s", sec(&Pass::hitMs), "s" },
        { "plan_load_s", sec(&Pass::loadMs), "s" },
        { "sim_s", sec(&Pass::simMs), "s" },
        { "sim_data_s", sec(&Pass::dataMs), "s" },
        { "sim_algbw_gbps", algbwGBps(run.def, warm.sim), "GB/s" },
        { "replay_s", sec(&Pass::stormMs), "s" },
        { "op_p50_us", percentile(latencies, 0.50), "sim_us" },
        { "op_p95_us", percentile(latencies, 0.95), "sim_us" },
        { "makespan_us", median(makespans), "sim_us" },
        { "peak_rss_mb", peakRssMb(), "MB" },
    };
}

std::vector<Metric>
perLayerMetrics(
    const SpanRecorder &spans, const std::vector<Pass> &untraced,
    const std::vector<Pass> &traced,
    const std::vector<std::pair<std::size_t, std::size_t>> &windows,
    double spec_json_ms)
{
    // Per traced pass: the summed span time of one layer call.
    auto spanMs = [&](const char *name) {
        std::vector<double> values;
        for (const auto &[from, to] : windows)
            values.push_back(spans.sumMs(name, from, to));
        return median(values);
    };
    auto count = [&](double Counts::*field) {
        return median(collect(traced, [&](const Pass &pass) {
            return pass.counts.*field;
        }));
    };

    const char *stages[] = { "dsl.trace",       "compiler.chunk_dag",
                             "compiler.lower",  "compiler.fuse",
                             "compiler.schedule", "compiler.verify",
                             "ir.to_xml" };
    double stage_sum = 0.0;
    for (const char *stage : stages)
        stage_sum += spanMs(stage);
    double untraced_compile = median(collect(
        untraced, [](const Pass &pass) { return pass.compileMs; }));
    double sim_ms = spanMs("sim.run");
    double untraced_legs = median(collect(
        untraced, [](const Pass &pass) { return pass.legsMs(); }));
    double traced_legs = median(collect(
        traced, [](const Pass &pass) { return pass.legsMs(); }));
    // Only the warm-up pass misses: later passes find every plan.
    double miss_ms = spans.sumMs("plan_cache.miss", 0, spans.mark());

    return {
        { "dsl.trace_ms", spanMs("dsl.trace"), "ms" },
        { "dsl.trace_ops", count(&Counts::traceOps), "count" },
        { "compiler.chunk_dag_ms", spanMs("compiler.chunk_dag"), "ms" },
        { "compiler.lower_ms", spanMs("compiler.lower"), "ms" },
        { "compiler.fuse_ms", spanMs("compiler.fuse"), "ms" },
        { "compiler.schedule_ms", spanMs("compiler.schedule"), "ms" },
        { "compiler.verify_ms", spanMs("compiler.verify"), "ms" },
        { "compiler.race_ms", spanMs("compiler.race"), "ms" },
        { "compiler.stage_gap_ms", untraced_compile - stage_sum, "ms" },
        { "compiler.lowered_instrs", count(&Counts::loweredInstrs),
          "count" },
        { "compiler.ir_instrs", count(&Counts::irInstrs), "count" },
        { "compiler.fusions", count(&Counts::fusions), "count" },
        { "compiler.thread_blocks", count(&Counts::threadBlocks),
          "count" },
        { "compiler.channels", count(&Counts::channels), "count" },
        { "plan_cache.hit_ms", spanMs("plan_cache.hit"), "ms" },
        { "plan_cache.miss_ms", miss_ms, "ms" },
        { "plan_cache.hits", count(&Counts::cacheHits), "count" },
        { "plan_cache.misses", count(&Counts::cacheMisses), "count" },
        { "ir.to_xml_ms", spanMs("ir.to_xml"), "ms" },
        { "ir.from_xml_ms", spanMs("ir.from_xml"), "ms" },
        { "ir.xml_bytes", count(&Counts::xmlBytes), "bytes" },
        { "sim.run_ms", sim_ms, "ms" },
        { "sim.messages", count(&Counts::messages), "count" },
        { "sim.msgs_per_host_s",
          sim_ms > 0.0 ? count(&Counts::messages) / (sim_ms / 1000.0)
                       : 0.0,
          "1/s" },
        { "sim.data_run_ms", spanMs("sim.data_run"), "ms" },
        { "replay.storm_ms", spanMs("replay.storm"), "ms" },
        { "replay.baseline_ms", spanMs("replay.baseline"), "ms" },
        { "replay.attempts", count(&Counts::attempts), "count" },
        { "replay.backoffs", count(&Counts::backoffs), "count" },
        { "replay.replans", count(&Counts::replans), "count" },
        { "replay.fallbacks", count(&Counts::fallbacks), "count" },
        { "replay.replan_compiles", count(&Counts::replanCompiles),
          "count" },
        { "replay.faults_fired", count(&Counts::faultsFired), "count" },
        { "replay.quarantine_changes",
          count(&Counts::quarantineChanges), "count" },
        { "workload.spec_json_ms", spec_json_ms, "ms" },
        { "trace.overhead_pct",
          untraced_legs > 0.0
              ? (traced_legs - untraced_legs) / untraced_legs * 100.0
              : 0.0,
          "%" },
    };
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw Error("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                if (!(args.seconds > 0.0 && args.seconds <= 3600.0))
                    throw Error("--seconds must be in (0, 3600]");
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    throw Error("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--trace-out") {
                args.traceOut = value;
            } else {
                throw Error("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            throw Error("bad value '" + value + "' for " + flag);
        }
    }
    if (args.workload.empty())
        throw Error("--workload is required");
    return args;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    return strprintf("%.17g", value);
}

int
runBenchmark(const Args &args)
{
    std::vector<WorkloadDef> defs = workloadDefs();
    const WorkloadDef *def = nullptr;
    std::string known;
    for (const WorkloadDef &candidate : defs) {
        known += (known.empty() ? "" : ", ") + candidate.name;
        if (candidate.name == args.workload)
            def = &candidate;
    }
    if (def == nullptr)
        throw Error("unknown workload '" + args.workload +
                    "' (known: " + known + ")");

    SpanRecorder spans;
    spans.setRecording(args.trace);
    Checks checks;
    Rng rng(args.seed);

    std::vector<double> setup_ms;
    std::vector<double> spec_json_ms;
    std::unique_ptr<Env> env;
    for (int i = 0; i < kSetupRepeats; i++) {
        env.reset();
        Clock::time_point t0 = Clock::now();
        env = setup(*def, spans, checks);
        setup_ms.push_back(msSince(t0));
        spec_json_ms.push_back(env->specJsonMs);
    }

    Run run{ *def, *env, spans, checks, rng, args.seed, {}, {}, {}, {} };
    // The warm-up pass primes the plan cache and is left out of the
    // medians; the output checks run on it, untimed and unrecorded.
    Pass warm = runPass(run, true, false);
    spans.setRecording(false);
    checkWarmup(run, warm);

    // Timed passes: whole passes until the run length is used up. A
    // traced run alternates an untraced and a traced pass.
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    std::vector<std::pair<std::size_t, std::size_t>> windows;
    Clock::time_point start = Clock::now();
    do {
        spans.setRecording(false);
        untraced.push_back(runPass(run, false, false));
        if (args.trace) {
            spans.setRecording(true);
            std::size_t from = spans.mark();
            traced.push_back(runPass(run, false, true));
            windows.emplace_back(from, spans.mark());
        }
        for (const Pass *pass : { &untraced.back(),
                                  args.trace ? &traced.back() : nullptr }) {
            if (pass == nullptr)
                continue;
            if (!(pass->sim == warm.sim))
                checks.fail("simulated results differ between passes");
            if (pass->xml != run.xml)
                checks.fail("compiled plans differ between passes");
        }
        untraced.back().release();
        if (args.trace)
            traced.back().release();
    } while (msSince(start) < args.seconds * 1000.0);

    const Pass &counted = untraced.front();
    std::uint64_t passes = untraced.size() + traced.size();
    std::uint64_t attempted = counted.attempted * passes;
    std::uint64_t failed = counted.failed * passes;

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayerMetrics(spans, untraced, traced, windows,
                                  median(spec_json_ms));
        if (!args.traceOut.empty() &&
            !spans.writeTraceEvents(args.traceOut)) {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         args.traceOut.c_str());
        }
    } else {
        metrics = endToEndMetrics(run, warm, untraced, setup_ms);
    }

    std::printf("# workload %s seed %llu: %zu untraced + %zu traced "
                "passes, %d setups; %llu of %llu ops failed\n",
                def->name.c_str(),
                static_cast<unsigned long long>(args.seed),
                untraced.size(), traced.size(), kSetupRepeats,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const Metric &metric : metrics) {
        std::printf("# %-28s %16.6f %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    }
    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        checks.ok() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); i++) {
        json += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", metrics[i].name.c_str(),
                          jsonNumber(metrics[i].value).c_str(),
                          metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(parseArgs(argc, argv));
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
}
