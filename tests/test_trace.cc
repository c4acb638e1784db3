/**
 * @file
 * Tests for trace dump/replay (the artifact's trace-runner path) and the
 * command-line option parser.
 */

#include <gtest/gtest.h>

#include "core/vulkansim.h"
#include "vulkan/trace.h"
#include "service/service.h"

namespace vksim {
namespace {

TEST(TraceTest, DumpAndReplayReproducesFunctionalImage)
{
    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    wl::Workload workload(wl::WorkloadId::TRI, params);

    std::string path = ::testing::TempDir() + "/tri.vktrace";
    ASSERT_TRUE(dumpTrace(path, workload.launch()));

    std::unique_ptr<LoadedTrace> trace = loadTrace(path);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->ctx.launchSize[0], 16u);
    EXPECT_EQ(trace->ctx.tlasRoot, workload.launch().tlasRoot);
    EXPECT_EQ(trace->program->code.size(),
              workload.pipeline().program().code.size());

    // Replay functionally and compare framebuffers.
    vptx::FunctionalRunner runner(trace->ctx);
    runner.run();
    Image original = workload.runFunctional();
    Addr fb = workload.framebuffer();
    for (unsigned i = 0; i < 16 * 16 * 3; ++i) {
        float a = trace->gmem->load<float>(fb + 4ull * i);
        float b = workload.device().memory().load<float>(fb + 4ull * i);
        ASSERT_FLOAT_EQ(a, b) << "pixel component " << i;
    }
    (void)original;
    std::remove(path.c_str());
}

TEST(TraceTest, TimedReplayMatchesCycleCount)
{
    wl::WorkloadParams params;
    params.width = 16;
    params.height = 16;
    wl::Workload workload(wl::WorkloadId::REF, params);
    GpuConfig cfg = baselineGpuConfig();
    cfg.numSms = 4;
    cfg.fabric.numPartitions = 2;

    std::string path = ::testing::TempDir() + "/ref.vktrace";
    ASSERT_TRUE(dumpTrace(path, workload.launch()));
    RunResult direct = service::defaultService().submit(workload, cfg).take().run;

    std::unique_ptr<LoadedTrace> trace = loadTrace(path);
    ASSERT_NE(trace, nullptr);
    GpuSimulator sim(cfg, trace->ctx);
    RunResult replay = sim.run();
    EXPECT_EQ(direct.cycles, replay.cycles)
        << "replay must be cycle-exact";
    std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage)
{
    std::string path = ::testing::TempDir() + "/garbage.vktrace";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_EQ(loadTrace(path), nullptr);
    std::remove(path.c_str());
    EXPECT_EQ(loadTrace("/nonexistent/file.vktrace"), nullptr);
}

} // namespace
} // namespace vksim
