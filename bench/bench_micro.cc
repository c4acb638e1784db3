/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's own hot paths:
 * BVH construction throughput, serialized-BVH traversal rays/second, the
 * functional VPTX executor, and one timed-simulation step. These measure
 * the *simulator* (how fast experiments run), not the modelled GPU.
 *
 * Besides the normal console table, every run writes a machine-readable
 * summary to BENCH_micro.json (override the path with the
 * VKSIM_BENCH_OUT environment variable): a JSON array with one object
 * per benchmark repetition, carrying name, iterations, real/cpu time,
 * the time unit, items-per-second, and any user counters.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "accel/nodetest.h"
#include "cache/cache.h"
#include "core/vulkansim.h"
#include "dram/fabric.h"
#include "reftrace/tracer.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "service/service.h"
#include "vptx/exec.h"

namespace {

using namespace vksim;

void
BM_BvhBuild(benchmark::State &state)
{
    Scene scene = makeExtScene(static_cast<float>(state.range(0)) / 100.f);
    std::size_t prims = scene.totalPrimitives();
    for (auto _ : state) {
        GlobalMemory gmem;
        AccelStruct accel = buildAccelStruct(scene, gmem);
        benchmark::DoNotOptimize(accel.stats.totalBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * prims);
}
BENCHMARK(BM_BvhBuild)->Arg(10)->Arg(30)->Unit(benchmark::kMillisecond);

void
BM_Traversal(benchmark::State &state)
{
    Scene scene = makeExtScene(0.2f);
    GlobalMemory gmem;
    AccelStruct accel = buildAccelStruct(scene, gmem);
    CpuTracer tracer(scene, gmem, accel);
    unsigned x = 0;
    std::int64_t rays = 0;
    for (auto _ : state) {
        Ray ray = scene.camera.generateRay(x % 64, (x / 64) % 64, 64, 64);
        ++x;
        HitRecord hit = tracer.trace(ray);
        benchmark::DoNotOptimize(hit.t);
        ++rays;
    }
    state.SetItemsProcessed(rays);
}
BENCHMARK(BM_Traversal);

void
BM_FunctionalSim(benchmark::State &state)
{
    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    params.extScale = 0.1f;
    for (auto _ : state) {
        wl::Workload workload(wl::WorkloadId::EXT, params);
        StatGroup stats;
        workload.runFunctional(vptx::WarpCflow::Mode::Stack, &stats);
        benchmark::DoNotOptimize(stats.get("instructions"));
    }
    state.SetLabel("16x16 EXT launch per iteration");
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

void
BM_TimedSim(benchmark::State &state)
{
    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    GpuConfig config = baselineGpuConfig();
    config.numSms = 8;
    config.fabric.numPartitions = 2;
    config.threads = 1;
    std::int64_t sim_cycles = 0;
    for (auto _ : state) {
        wl::Workload workload(wl::WorkloadId::TRI, params);
        RunResult run = service::defaultService().submit(workload, config).take().run;
        benchmark::DoNotOptimize(run.cycles);
        sim_cycles += static_cast<std::int64_t>(run.cycles);
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
    state.SetLabel("16x16 TRI cycle-level run per iteration");
}
BENCHMARK(BM_TimedSim)->Unit(benchmark::kMillisecond);

/**
 * Idle-skip speedup on a DRAM-bound scene: a small ray-traced launch on
 * the full 30-SM baseline machine leaves most SMs without warps and the
 * busy ones latency-bound on DRAM, so the event-stepped scheduler
 * (Arg 1) sleeps cold SMs and fast-forwards event-free fabric cycles,
 * while lock-step mode (Arg 0) cycles all 30 SMs every cycle. Both args
 * simulate the identical machine and produce identical stats; compare
 * sim_cycles_per_s for the speedup.
 */
void
BM_IdleSkip(benchmark::State &state)
{
    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    params.rtv6Prims = 400;
    GpuConfig config = baselineGpuConfig(); // 30 SMs, timed DRAM model
    config.threads = 1;
    config.idleSkip = state.range(0) != 0;
    std::int64_t sim_cycles = 0;
    std::int64_t skipped = 0;
    for (auto _ : state) {
        wl::Workload workload(wl::WorkloadId::RTV6, params);
        RunResult run = service::defaultService().submit(workload, config).take().run;
        benchmark::DoNotOptimize(run.cycles);
        sim_cycles += static_cast<std::int64_t>(run.cycles);
        skipped += static_cast<std::int64_t>(run.smCyclesSkipped);
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
    state.counters["sm_cycles_skipped"] = benchmark::Counter(
        static_cast<double>(skipped), benchmark::Counter::kAvgIterations);
    state.SetLabel(config.idleSkip
                       ? "16x16 RTV6, 30 SMs, idle-skip on"
                       : "16x16 RTV6, 30 SMs, lock-step");
}
BENCHMARK(BM_IdleSkip)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/**
 * Parallel-engine scaling on the DRAM-bound 30-SM RTV6 scene (the same
 * machine/launch BM_IdleSkip measures): real-time sim-cycles/s over the
 * full thread series, with the first point pinned to the 1-thread
 * lock-step oracle (epoch = 1) as the speedup baseline. The remaining
 * points run the epoch-stepped engine (default epoch length), which is
 * what lets the per-SM workers amortize the cycle barrier and scale.
 * Each point also records parallel efficiency — speedup over the
 * 1-thread epoch run divided by the thread count — so BENCH_micro.json
 * tracks scaling regressions, not just single-point throughput.
 * UseRealTime so the rate reflects the whole pool, not just the calling
 * thread.
 */
void
BM_TimedSimThreads(benchmark::State &state)
{
    // Rates from earlier points in the series (benchmarks registered
    // with the same function run in registration order).
    static double lockstep_rate = 0;
    static double epoch_one_thread_rate = 0;

    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    params.rtv6Prims = 400;
    GpuConfig config = baselineGpuConfig(); // 30 SMs, timed DRAM model
    config.threads = static_cast<unsigned>(state.range(0));
    config.epochCycles = static_cast<unsigned>(state.range(1));
    std::int64_t sim_cycles = 0;
    auto wall_start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        wl::Workload workload(wl::WorkloadId::RTV6, params);
        RunResult run = service::defaultService().submit(workload, config).take().run;
        benchmark::DoNotOptimize(run.cycles);
        sim_cycles += static_cast<std::int64_t>(run.cycles);
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    double rate = wall > 0 ? static_cast<double>(sim_cycles) / wall : 0;

    const unsigned threads = config.threads;
    const bool lockstep = config.epochCycles == 1;
    if (threads == 1 && lockstep)
        lockstep_rate = rate;
    if (threads == 1 && !lockstep)
        epoch_one_thread_rate = rate;

    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
    state.counters["epoch_cycles"] =
        static_cast<double>(config.epochCycles);
    // The host core count contextualizes the scaling points: a 4-thread
    // run on a 2-core CI machine is oversubscribed, and its parallel
    // efficiency must be judged (and trended) against that.
    state.counters["host_cores"] =
        static_cast<double>(std::thread::hardware_concurrency());
    if (lockstep_rate > 0)
        state.counters["speedup_vs_lockstep"] = rate / lockstep_rate;
    if (epoch_one_thread_rate > 0)
        state.counters["parallel_efficiency"] =
            rate / (epoch_one_thread_rate * threads);
    state.SetLabel(
        "16x16 RTV6, 30 SMs, threads = arg0, "
        + std::string(lockstep ? "lock-step" : "epoch-stepped"));
}
BENCHMARK(BM_TimedSimThreads)
    ->Args({1, 1})  // lock-step oracle baseline
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({8, 64})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Interpreter dispatch cost: the same vptx-bound launch through the
 * legacy structural-ISA interpreter (Arg 0) and the pre-decoded
 * micro-op stream (Arg 1). Both arms execute the identical dynamic
 * instruction sequence (the differential suite asserts bit-identity),
 * so items_per_second measures pure dispatch + operand-plumbing
 * overhead; compare the two arms for the micro-op speedup.
 */
void
BM_VptxDispatch(benchmark::State &state)
{
    using vptx::Instr;
    using vptx::Opcode;
    // Synthetic vptx-bound kernel: a counted loop of dependent ALU work
    // (the shader-library loop idiom — BraZ to the exit, Jmp back) so
    // the benchmark measures interpreter dispatch, not BVH traversal.
    auto op = [](Opcode o, int dst = -1, int s0 = -1, int s1 = -1) {
        Instr i;
        i.op = o;
        i.dst = static_cast<std::int16_t>(dst);
        i.src0 = static_cast<std::int16_t>(s0);
        i.src1 = static_cast<std::int16_t>(s1);
        return i;
    };
    auto imm = [&op](Opcode o, int dst, std::uint64_t v) {
        Instr i = op(o, dst);
        i.imm = v;
        return i;
    };
    std::vector<Instr> code = {
        imm(Opcode::LoadLaunchId, 1, 0),
        imm(Opcode::MovImm, 0, 100), // loop counter
        imm(Opcode::MovImm, 2, 0x9E3779B97F4A7C15ull),
        imm(Opcode::MovImm, 4, 1),
    };
    const std::uint32_t loop_start = static_cast<std::uint32_t>(code.size());
    for (int rep = 0; rep < 4; ++rep) {
        code.push_back(op(Opcode::Add, 3, 1, 2));
        code.push_back(op(Opcode::Xor, 1, 1, 3));
        code.push_back(op(Opcode::Mul, 3, 3, 2));
        code.push_back(op(Opcode::Shr, 5, 3, 4));
        code.push_back(op(Opcode::Or, 1, 1, 5));
        code.push_back(op(Opcode::U2F, 6, 5));
        code.push_back(op(Opcode::FMul, 7, 6, 6));
        code.push_back(op(Opcode::F2U, 8, 7));
    }
    code.push_back(op(Opcode::Sub, 0, 0, 4));
    Instr exit_branch = op(Opcode::BraZ, -1, 0);
    const std::uint32_t loop_exit =
        static_cast<std::uint32_t>(code.size()) + 2;
    exit_branch.target = loop_exit;
    exit_branch.reconv = loop_exit;
    code.push_back(exit_branch);
    Instr back = op(Opcode::Jmp);
    back.target = loop_start;
    code.push_back(back);
    code.push_back(op(Opcode::Exit));

    vptx::Program program;
    program.code = std::move(code);
    vptx::ShaderInfo raygen;
    raygen.name = "dispatch_bench";
    raygen.stage = vptx::ShaderStage::RayGen;
    raygen.entryPc = 0;
    raygen.numRegs = 12;
    program.shaders.push_back(raygen);
    program.raygenShader = 0;

    GlobalMemory gmem;
    vptx::LaunchContext ctx;
    ctx.program = &program;
    ctx.gmem = &gmem;
    ctx.launchSize[0] = 64;
    ctx.launchSize[1] = 4; // 256 threads = 8 warps
    ctx.rtStackBase =
        gmem.allocate(256 * vptx::kRtStackBytesPerThread, 64);
    ctx.scratchBase =
        gmem.allocate(256 * vptx::kRtScratchBytesPerThread, 64);

    vptx::ExecOptions opts;
    opts.structuralDispatch = state.range(0) == 0;
    std::int64_t instrs = 0;
    for (auto _ : state) {
        vptx::FunctionalRunner runner(ctx, opts);
        runner.run();
        benchmark::DoNotOptimize(runner.decodeCount());
        instrs += static_cast<std::int64_t>(
            runner.stats().get("instructions"));
    }
    state.SetItemsProcessed(instrs);
    state.SetLabel(opts.structuralDispatch
                       ? "ALU loop kernel, structural-ISA interpreter"
                       : "ALU loop kernel, pre-decoded micro-ops");
}
BENCHMARK(BM_VptxDispatch)->Arg(0)->Arg(1);

/**
 * Six-wide quantized-AABB node test: scalar reference (Arg 0) vs the
 * SSE2 kernel (Arg 1) over a fixed corpus of random nodes and rays
 * (including axis-parallel directions that take the containment path).
 * items_per_second counts node tests, i.e. six child boxes each.
 */
void
BM_NodeTestSimd(benchmark::State &state)
{
    const bool simd = state.range(0) != 0;
    Pcg32 rng(7);
    std::vector<InternalNode> nodes(64);
    for (InternalNode &node : nodes) {
        node.originX = rng.nextRange(-40.f, 40.f);
        node.originY = rng.nextRange(-40.f, 40.f);
        node.originZ = rng.nextRange(-40.f, 40.f);
        node.expX = node.expY = node.expZ = -3;
        node.childCount = 6;
        for (unsigned i = 0; i < 6; ++i)
            for (int axis = 0; axis < 3; ++axis) {
                std::uint8_t a =
                    static_cast<std::uint8_t>(rng.nextBelow(200));
                node.qlo[i][axis] = a;
                node.qhi[i][axis] = static_cast<std::uint8_t>(
                    a + 1 + rng.nextBelow(55));
            }
    }
    struct BenchRay
    {
        Ray ray;
        Vec3 inv;
    };
    std::vector<BenchRay> rays(256);
    for (BenchRay &br : rays) {
        br.ray.origin = {rng.nextRange(-60.f, 60.f),
                         rng.nextRange(-60.f, 60.f),
                         rng.nextRange(-60.f, 60.f)};
        br.ray.direction = {
            rng.nextBelow(8) == 0 ? 0.f : rng.nextRange(-1.f, 1.f),
            rng.nextBelow(8) == 0 ? 0.f : rng.nextRange(-1.f, 1.f),
            rng.nextBelow(8) == 0 ? 0.f : rng.nextRange(-1.f, 1.f)};
        br.ray.tmin = 0.f;
        br.ray.tmax = 1e30f;
        br.inv = safeInverse(br.ray.direction);
    }

    std::int64_t tests = 0;
    for (auto _ : state) {
        unsigned acc = 0;
        for (const BenchRay &br : rays)
            for (const InternalNode &node : nodes) {
                float t[6];
                acc += simd ? nodeTest6(node, br.ray, br.inv, 6, t)
                            : nodeTest6Scalar(node, br.ray, br.inv, 6, t);
            }
        benchmark::DoNotOptimize(acc);
        tests += static_cast<std::int64_t>(rays.size() * nodes.size());
    }
    state.SetItemsProcessed(tests);
    state.SetLabel(simd ? "SSE2 six-wide kernel" : "scalar rayAabb loop");
}
BENCHMARK(BM_NodeTestSimd)->Arg(0)->Arg(1);

/**
 * Tag-array cost per access at the two baseline associativities: one
 * 16-way L2 slice (Arg 0) and the fully associative 2048-way L1
 * (Arg 1), on the same hot/cold stream shape (85 % of accesses over a
 * hot three quarters of the cache, the rest over eight times its
 * capacity), misses filled at once so there is no MSHR pressure. The
 * indexed tag array costs about the same at both; a linear way scan
 * made Arg 1 about 20x slower than Arg 0.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    const GpuConfig gpu = baselineGpuConfig();
    const bool fully_assoc = state.range(0) != 0;
    const CacheConfig cfg = fully_assoc ? gpu.l1 : gpu.fabric.l2;
    const auto sectors = static_cast<std::uint32_t>(cfg.sizeBytes
                                                    / kSectorBytes);
    Pcg32 rng(11);
    std::vector<Addr> stream(1 << 16);
    for (Addr &a : stream) {
        const bool hot = rng.nextBelow(100) < 85;
        a = Addr(rng.nextBelow(hot ? sectors * 3 / 4 : sectors * 8))
            * kSectorBytes;
    }
    Cache cache(cfg);
    Cycle now = 0;
    for (auto _ : state) {
        for (Addr a : stream) {
            ++now;
            CacheOutcome outcome =
                cache.access(a, false, AccessOrigin::Shader, now, now);
            benchmark::DoNotOptimize(outcome);
            if (outcome == CacheOutcome::MissNew)
                cache.fill(a, now);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(stream.size()));
    state.SetLabel(fully_assoc ? "baseline L1, fully associative (2048 ways)"
                               : "baseline L2 slice, 16-way");
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

/**
 * One DRAM channel tick as the fabric drives it (DramChannel::tick(): a
 * real tick — one pass over the banks that makes the FR-FCFS pick from
 * the ready banks' per-bank request lists — when an event is due, else
 * a skipped one settled later). Arg 0 is the queue depth (4,
 * or the baseline queue size 64), Arg 1 picks the Table III baseline
 * timings (0) or the modern bank-group, tRRD and refresh timings (1),
 * Arg 2 the traffic: 0 refills the queue to its depth after every tick,
 * 1 enqueues one request every 64 ticks, so most ticks are skipped. The
 * stream alternates same-row runs with scattered sectors, so both row
 * hits and row misses issue.
 */
void
BM_DramChannelTick(benchmark::State &state)
{
    GpuConfig gpu = baselineGpuConfig();
    if (state.range(1) != 0)
        gpu = applyMemoryVariant(gpu, MemoryVariant::Modern);
    DramConfig cfg = gpu.fabric.dram;
    cfg.queueSize = static_cast<unsigned>(state.range(0));
    Pcg32 rng(17);
    std::vector<MemRequest> stream(1 << 12);
    Addr addr = 0;
    for (MemRequest &r : stream) {
        if (rng.nextBelow(2) == 0)
            addr += kSectorBytes;
        else
            addr = Addr(rng.nextBelow(1u << 20)) * kSectorBytes;
        r.addr = addr;
        r.write = rng.nextBelow(4) == 0;
    }
    StatGroup stats("dram");
    DramChannel channel(cfg, false, &stats);
    std::size_t next = 0;
    Cycle now = 0;
    const bool sparse = state.range(2) != 0;
    for (auto _ : state) {
        while (channel.canAccept() && (!sparse || now % 64 == 0)) {
            channel.enqueue(stream[next]);
            next = (next + 1) % stream.size();
            if (sparse)
                break;
        }
        channel.tick(now++);
        benchmark::DoNotOptimize(channel.completed().size());
        channel.clearCompleted();
    }
    channel.settle();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::string(state.range(1) != 0 ? "modern" : "baseline")
                   + " timings, queue depth "
                   + std::to_string(state.range(0))
                   + (sparse ? ", one request per 64 ticks" : ""));
}
BENCHMARK(BM_DramChannelTick)
    ->Args({4, 0, 0})
    ->Args({64, 0, 0})
    ->Args({4, 1, 0})
    ->Args({64, 1, 0})
    ->Args({64, 0, 1})
    ->Args({64, 1, 1});

/** Parallel reference renderer (tile fan-out) at 1/2/4/8 threads. */
void
BM_ReferenceRenderThreads(benchmark::State &state)
{
    wl::WorkloadParams params;
    params.width = 64;
    params.height = 64;
    wl::Workload workload(wl::WorkloadId::EXT, params);
    std::int64_t pixels = 0;
    for (auto _ : state) {
        Image img = workload.renderReferenceImage(
            nullptr, static_cast<unsigned>(state.range(0)));
        benchmark::DoNotOptimize(img.data().data());
        pixels += static_cast<std::int64_t>(params.width) * params.height;
    }
    state.SetItemsProcessed(pixels);
}
BENCHMARK(BM_ReferenceRenderThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Collects every finished run and dumps BENCH_micro.json on Finalize,
 * while delegating to the stock console reporter so the usual table
 * still prints. (Wrapping, rather than registering as a benchmark file
 * reporter, sidesteps the library's --benchmark_out requirement.)
 * Numbers go through formatJsonNumber for deterministic
 * shortest-round-trip formatting.
 */
class JsonPointsReporter : public benchmark::BenchmarkReporter
{
  public:
    explicit JsonPointsReporter(std::string path) : path_(std::move(path)) {}

    bool ReportContext(const Context &context) override
    {
        return console_.ReportContext(context);
    }

    void ReportRuns(const std::vector<Run> &runs) override
    {
        console_.ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            runs_.push_back(run);
        }
    }

    void Finalize() override
    {
        console_.Finalize();
        std::ofstream os(path_);
        if (!os) {
            std::fprintf(stderr, "bench_micro: cannot write %s\n",
                         path_.c_str());
            return;
        }
        os << "[\n";
        for (std::size_t ii = 0; ii < runs_.size(); ++ii) {
            const Run &run = runs_[ii];
            os << "  {\"name\": \"" << run.benchmark_name() << "\","
               << " \"iterations\": " << run.iterations << ","
               << " \"real_time\": "
               << vksim::formatJsonNumber(run.GetAdjustedRealTime()) << ","
               << " \"cpu_time\": "
               << vksim::formatJsonNumber(run.GetAdjustedCPUTime()) << ","
               << " \"time_unit\": \""
               << benchmark::GetTimeUnitString(run.time_unit) << "\"";
            if (run.counters.find("items_per_second")
                != run.counters.end()) {
                os << ", \"items_per_second\": "
                   << vksim::formatJsonNumber(
                          run.counters.at("items_per_second"));
            }
            for (const auto &kv : run.counters) {
                if (kv.first == "items_per_second")
                    continue;
                os << ", \"" << kv.first << "\": "
                   << vksim::formatJsonNumber(kv.second);
            }
            if (!run.report_label.empty())
                os << ", \"label\": \"" << run.report_label << "\"";
            os << "}" << (ii + 1 < runs_.size() ? "," : "") << "\n";
        }
        os << "]\n";
        std::printf("bench_micro: wrote %zu points to %s\n", runs_.size(),
                    path_.c_str());
    }

  private:
    std::string path_;
    benchmark::ConsoleReporter console_;
    std::vector<Run> runs_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const char *out = std::getenv("VKSIM_BENCH_OUT");
    JsonPointsReporter reporter(out ? out : "BENCH_micro.json");
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
