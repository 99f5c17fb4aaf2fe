// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: XOR parity coding, the event queue, layout mapping and a
// full scheduler cycle at scale.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "layout/layout.h"
#include "parity/parity.h"
#include "sched/cycle_scheduler.h"
#include "sim/simulator.h"
#include "tests/sched_test_util.h"
#include "util/random.h"

namespace ftms {
namespace {

void BM_XorBlock(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Block a(size);
  Block b(size);
  for (size_t i = 0; i < size; ++i) {
    a[i] = static_cast<uint8_t>(rng.NextUint64());
    b[i] = static_cast<uint8_t>(rng.NextUint64());
  }
  for (auto _ : state) {
    XorInto(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_XorBlock)->Arg(512)->Arg(51200)->Arg(1 << 20);

void BM_ParityGroupEncode(benchmark::State& state) {
  // One 50 KB-track parity group of C-1 data blocks.
  const int c = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<Block> data;
  for (int i = 0; i < c - 1; ++i) {
    Block b(51200);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.NextUint64());
    data.push_back(std::move(b));
  }
  for (auto _ : state) {
    auto parity = ComputeParity(data);
    benchmark::DoNotOptimize(parity.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          51200 * (c - 1));
}
BENCHMARK(BM_ParityGroupEncode)->Arg(5)->Arg(7)->Arg(10);

void BM_Reconstruct(benchmark::State& state) {
  Rng rng(3);
  std::vector<Block> data;
  for (int i = 0; i < 4; ++i) {
    Block b(51200);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.NextUint64());
    data.push_back(std::move(b));
  }
  const Block parity = ComputeParity(data).value();
  std::vector<Block> survivors(data.begin() + 1, data.end());
  for (auto _ : state) {
    auto rebuilt = ReconstructMissing(survivors, parity);
    benchmark::DoNotOptimize(rebuilt.value().data());
  }
}
BENCHMARK(BM_Reconstruct);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(rng.NextDouble(), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_LayoutMapping(benchmark::State& state) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 100, 5).value();
  int64_t track = 0;
  for (auto _ : state) {
    const BlockLocation loc = layout->DataLocation(7, track++ % 100000);
    benchmark::DoNotOptimize(loc.disk);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LayoutMapping);

void BM_SchedulerCycle(benchmark::State& state) {
  // A full scheduling cycle with many active streams: the control-plane
  // cost per cycle (the paper's T_cyc is ~1 s of wall time, so anything
  // in the microseconds is negligible).
  const Scheme scheme = static_cast<Scheme>(state.range(0));
  const int c = 5;
  SchedRig rig = MakeRig(
      scheme, c, (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) * 20);
  for (int i = 0; i < 200; ++i) {
    rig.sched->AddStream(TestObject(i, 1 << 28)).value();
  }
  for (auto _ : state) {
    rig.sched->RunCycle();
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.SetLabel(std::string(SchemeName(scheme)));
}
BENCHMARK(BM_SchedulerCycle)
    ->Arg(static_cast<int>(Scheme::kStreamingRaid))
    ->Arg(static_cast<int>(Scheme::kStaggeredGroup))
    ->Arg(static_cast<int>(Scheme::kNonClustered))
    ->Arg(static_cast<int>(Scheme::kImprovedBandwidth));

}  // namespace
}  // namespace ftms

BENCHMARK_MAIN();
