// Degraded-datapath throughput: the byte-level read/reconstruct pipeline
// (synthesis, parity XOR folding, single-failure rebuilds) at realistic
// track sizes. Reconstruction speed bounds how fast a real server could
// serve a degraded cluster or scrub/rebuild a replacement disk, so this
// path must move at memory-bandwidth-class rates, not allocator rates.

#include <cstdio>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "parity/pq_kernels.h"
#include "verify/datapath.h"

namespace ftms {
namespace {

// One track approximately the paper's Table 1 granularity (~50 KB).
constexpr size_t kBlockBytes = 50 * 1024;

double MegabytesPerSecond(int64_t tracks, double seconds) {
  return static_cast<double>(tracks) *
         (static_cast<double>(kBlockBytes) / (1024.0 * 1024.0)) / seconds;
}

}  // namespace
}  // namespace ftms

int main() {
  using namespace ftms;
  bench::Banner(
      "Degraded datapath: synthesis / healthy readback / reconstruction "
      "throughput (50 KB tracks)");

  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const int64_t tracks = 6000;  // 1500 groups of 4 data tracks
  bench::Reporter report("degraded_read");
  std::printf("parity kernel: %s (pin with FTMS_PQ_KERNEL=<name>)\n",
              ActivePqKernelName());

  // Raw synthesis: the lower bound every readback path pays.
  {
    Block block;
    bench::WallTimer timer;
    for (int64_t t = 0; t < tracks; ++t) {
      SynthesizeDataBlockInto(1, t, kBlockBytes, &block);
    }
    const double s = timer.Seconds();
    std::printf("%-28s %8lld tracks  %8.3f s  %9.1f MB/s\n", "synthesize",
                static_cast<long long>(tracks), s,
                MegabytesPerSecond(tracks, s));
    report.Set("synthesize_mb_per_s", MegabytesPerSecond(tracks, s));
  }

  // Healthy readback: every track read directly and verified.
  {
    bench::WallTimer timer;
    const int64_t reconstructed =
        VerifyObjectReadback(*layout, 1, tracks, {}, kBlockBytes).value();
    const double s = timer.Seconds();
    std::printf("%-28s %8lld tracks  %8.3f s  %9.1f MB/s\n",
                "healthy readback", static_cast<long long>(tracks), s,
                MegabytesPerSecond(tracks, s));
    if (reconstructed != 0) {
      std::printf("ERROR: healthy run reconstructed %lld tracks\n",
                  static_cast<long long>(reconstructed));
      return 1;
    }
    report.Set("healthy_mb_per_s", MegabytesPerSecond(tracks, s));
  }

  // Degraded readback: disk 0 down, so one track per group on its home
  // cluster's groups reconstructs via the parity fold.
  {
    bench::WallTimer timer;
    const int64_t reconstructed =
        VerifyObjectReadback(*layout, 1, tracks, {0}, kBlockBytes).value();
    const double s = timer.Seconds();
    std::printf("%-28s %8lld tracks  %8.3f s  %9.1f MB/s  (%lld rebuilt)\n",
                "degraded readback", static_cast<long long>(tracks), s,
                MegabytesPerSecond(tracks, s),
                static_cast<long long>(reconstructed));
    if (reconstructed == 0) {
      std::printf("ERROR: degraded run reconstructed nothing\n");
      return 1;
    }
    report.Set("degraded_mb_per_s", MegabytesPerSecond(tracks, s));
    report.Set("reconstructed_tracks", static_cast<double>(reconstructed));
  }

  // Batched reconstruction: every track of the failed disk regenerated
  // through ReconstructTracksInto (the RebuildManager's byte path) —
  // consecutive same-group tracks share one group synthesis.
  {
    DiskSet failed;
    failed.Add(0);
    std::vector<int64_t> rebuild_tracks;
    for (int64_t t = 0; t < tracks; ++t) {
      if (layout->DataLocation(1, t).disk == 0) rebuild_tracks.push_back(t);
    }
    DegradedReadScratch scratch;
    std::vector<TrackRead> reads;
    bench::WallTimer timer;
    const Status status =
        ReconstructTracksInto(*layout, 1, rebuild_tracks, tracks, failed,
                              kBlockBytes, &scratch, &reads);
    const double s = timer.Seconds();
    if (!status.ok()) {
      std::printf("ERROR: batched reconstruction failed: %s\n",
                  status.message().c_str());
      return 1;
    }
    const int64_t n = static_cast<int64_t>(rebuild_tracks.size());
    std::printf("%-28s %8lld tracks  %8.3f s  %9.1f MB/s\n",
                "batched reconstruction", static_cast<long long>(n), s,
                MegabytesPerSecond(n, s));
    report.Set("batched_reconstruct_mb_per_s", MegabytesPerSecond(n, s));
    report.Set("batched_reconstruct_tracks", static_cast<double>(n));
  }

  report.WriteJson();
  std::printf(
      "\nReading: healthy readback pays synthesis twice (read + ground\n"
      "truth); degraded readback additionally folds the C-1 surviving\n"
      "group members through the XOR accumulator for the failed disk's\n"
      "tracks. All three paths reuse caller-owned blocks — zero\n"
      "steady-state allocations.\n");
  return 0;
}
