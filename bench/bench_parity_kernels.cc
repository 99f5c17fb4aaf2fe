// Parity kernel microbenchmark: per-kernel, per-group-size throughput of
// the one parity kernel table (parity/pq_kernels.h), first its XOR fold
// (xor_n) on reconstruct-shaped workloads — one ~50 KB destination block
// folded with C-1 surviving sources, exactly what a degraded read or
// rebuild pass does — then its fused P+Q syndromes, then its block
// synthesis and fused ground-truth check. The pairwise-scalar rows are
// the pre-dispatch baseline (C-1 separate dst passes); the multi-source
// rows make ONE pass over dst. Also cross-checks every runnable kernel
// against scalar byte for byte (any divergence is a hard failure: XOR
// and GF(2^8) are exact and scalar defines the synthesized bytes, so
// kernels may differ only in speed).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "parity/gf256.h"
#include "parity/pq_kernels.h"

namespace ftms {
namespace {

// One track approximately the paper's Table 1 granularity (~50 KB).
// Deliberately not a multiple of the widest vector width so every kernel
// exercises its tail path.
constexpr size_t kBlockBytes = 50 * 1024 + 40;
constexpr int kReps = 400;

// Group sizes to sweep: nsrc = C-1 surviving sources for cluster sizes
// C in {3, 5, 8} plus the paper's default C=5 midpoint.
constexpr int kSourceCounts[] = {2, 4, 7};

// Deterministic pseudo-random fill (same seeds every run, so the
// cross-kernel check is reproducible).
void FillBlock(std::vector<uint8_t>* block, uint64_t seed) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (uint8_t& b : *block) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
}

// Memory traffic of one fused fold: nsrc source reads + dst read + dst
// write. The pairwise baseline touches dst 2*nsrc times instead of 2.
double GigabytesPerSecond(double bytes_moved, double seconds) {
  return bytes_moved / seconds / (1024.0 * 1024.0 * 1024.0);
}

}  // namespace
}  // namespace ftms

int main() {
  using namespace ftms;
  bench::Banner(
      "Parity kernels: multi-source XOR throughput by kernel and group "
      "size (50 KB blocks)");

  std::printf("dispatched kernel (both folds, picked on P+Q): %s\n",
              ActivePqKernelName());
  for (const PqKernelMeasurement& m : PqKernelSelectionReport()) {
    std::printf("  %-8s %-11s %8.1f GiB/s%s\n", m.name,
                m.supported ? "runnable" : "unsupported", m.gb_per_s,
                m.selected ? "  <- selected" : "");
  }

  bench::Reporter report("parity_kernels");

  std::vector<std::vector<uint8_t>> sources(kMaxPqSources);
  for (int i = 0; i < kMaxPqSources; ++i) {
    sources[static_cast<size_t>(i)].resize(kBlockBytes);
    FillBlock(&sources[static_cast<size_t>(i)],
              static_cast<uint64_t>(i) + 1);
  }
  std::vector<uint8_t> dst(kBlockBytes);
  std::vector<uint8_t> reference(kBlockBytes);
  std::vector<const uint8_t*> srcs;

  const PqKernel* scalar = FindPqKernel("scalar").value();

  for (int nsrc : kSourceCounts) {
    bench::Section("group fold, nsrc = " + std::to_string(nsrc) +
                   " sources");
    srcs.clear();
    for (int i = 0; i < nsrc; ++i) {
      srcs.push_back(sources[static_cast<size_t>(i)].data());
    }

    // Baseline: what the datapath did before multi-source kernels — a
    // separate pairwise scalar pass per source, re-reading and
    // re-writing dst each time.
    {
      FillBlock(&dst, 99);
      bench::WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        for (int i = 0; i < nsrc; ++i) {
          scalar->xor_n(dst.data(), &srcs[static_cast<size_t>(i)], 1,
                        kBlockBytes);
        }
      }
      const double s = timer.Seconds();
      // Pairwise traffic: per source, read src + read dst + write dst.
      const double bytes = static_cast<double>(kReps) * 3.0 * nsrc *
                           static_cast<double>(kBlockBytes);
      const double gbps = GigabytesPerSecond(bytes, s);
      std::printf("  %-18s %8.2f GiB/s  (%d dst passes)\n",
                  "pairwise_scalar", gbps, nsrc);
      report.Set("pairwise_scalar_n" + std::to_string(nsrc) + "_gbps",
                 gbps);
    }

    // Ground truth for the cross-kernel check, from the scalar kernel.
    FillBlock(&reference, 99);
    scalar->xor_n(reference.data(), srcs.data(), nsrc, kBlockBytes);

    for (const PqKernel& kernel : CompiledPqKernels()) {
      if (!kernel.supported()) continue;
      FillBlock(&dst, 99);
      kernel.xor_n(dst.data(), srcs.data(), nsrc, kBlockBytes);
      if (std::memcmp(dst.data(), reference.data(), kBlockBytes) != 0) {
        std::printf("ERROR: kernel %s diverges from scalar at nsrc=%d\n",
                    kernel.name, nsrc);
        return 1;
      }
      bench::WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        kernel.xor_n(dst.data(), srcs.data(), nsrc, kBlockBytes);
      }
      const double s = timer.Seconds();
      // Fused traffic: nsrc source reads + one dst read + one dst write.
      const double bytes = static_cast<double>(kReps) *
                           static_cast<double>(nsrc + 2) *
                           static_cast<double>(kBlockBytes);
      const double gbps = GigabytesPerSecond(bytes, s);
      std::printf("  %-18s %8.2f GiB/s  (1 dst pass)%s\n", kernel.name,
                  gbps,
                  &kernel == &ActivePqKernel() ? "  <- dispatched" : "");
      report.Set(std::string(kernel.name) + "_n" + std::to_string(nsrc) +
                     "_gbps",
                 gbps);
    }
  }

  // ---- P+Q (RAID-6) syndrome kernels: same sweep shape, both parities
  // computed in one fused pass per kernel. The pairwise_scalar baseline
  // is the byte-at-a-time GF table path taken one source at a time — what
  // a naive RAID-6 implementation does.
  bench::Banner(
      "P+Q syndrome kernels: fused GF(2^8) throughput by kernel and "
      "group size");

  std::vector<uint8_t> p(kBlockBytes);
  std::vector<uint8_t> q(kBlockBytes);
  std::vector<uint8_t> p_ref(kBlockBytes);
  std::vector<uint8_t> q_ref(kBlockBytes);
  uint8_t coeffs[kMaxPqSources];
  for (int i = 0; i < kMaxPqSources; ++i) {
    coeffs[i] = gf256::Exp(i);
  }

  double scalar_gbps[kMaxPqSources + 1] = {0};

  for (int nsrc : kSourceCounts) {
    bench::Section("P+Q syndrome, k = " + std::to_string(nsrc) +
                   " data sources");
    srcs.clear();
    for (int i = 0; i < nsrc; ++i) {
      srcs.push_back(sources[static_cast<size_t>(i)].data());
    }

    // Baseline: one scalar table pass PER SOURCE (p and q re-read and
    // re-written every pass).
    {
      std::fill(p.begin(), p.end(), 0);
      std::fill(q.begin(), q.end(), 0);
      bench::WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        for (int i = 0; i < nsrc; ++i) {
          scalar->pq(p.data(), q.data(), &srcs[static_cast<size_t>(i)],
                     &coeffs[static_cast<size_t>(i)], 1, kBlockBytes);
        }
      }
      const double s = timer.Seconds();
      // Per source: read src + read/write p + read/write q.
      const double bytes = static_cast<double>(kReps) * 5.0 * nsrc *
                           static_cast<double>(kBlockBytes);
      const double gbps = GigabytesPerSecond(bytes, s);
      std::printf("  %-18s %8.2f GiB/s  (%d p/q passes)\n",
                  "pairwise_scalar", gbps, nsrc);
      report.Set("pq_pairwise_scalar_n" + std::to_string(nsrc) + "_gbps",
                 gbps);
    }

    // Ground truth from the scalar kernel's fused pass.
    std::fill(p_ref.begin(), p_ref.end(), 0);
    std::fill(q_ref.begin(), q_ref.end(), 0);
    scalar->pq(p_ref.data(), q_ref.data(), srcs.data(), coeffs, nsrc,
               kBlockBytes);

    for (const PqKernel& kernel : CompiledPqKernels()) {
      if (!kernel.supported()) continue;
      std::fill(p.begin(), p.end(), 0);
      std::fill(q.begin(), q.end(), 0);
      kernel.pq(p.data(), q.data(), srcs.data(), coeffs, nsrc,
                kBlockBytes);
      if (std::memcmp(p.data(), p_ref.data(), kBlockBytes) != 0 ||
          std::memcmp(q.data(), q_ref.data(), kBlockBytes) != 0) {
        std::printf(
            "ERROR: pq kernel %s diverges from scalar at k=%d\n",
            kernel.name, nsrc);
        return 1;
      }
      bench::WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        kernel.pq(p.data(), q.data(), srcs.data(), coeffs, nsrc,
                  kBlockBytes);
      }
      const double s = timer.Seconds();
      // Fused traffic: nsrc source reads + read/write p + read/write q.
      const double bytes = static_cast<double>(kReps) *
                           static_cast<double>(nsrc + 4) *
                           static_cast<double>(kBlockBytes);
      const double gbps = GigabytesPerSecond(bytes, s);
      const bool is_scalar = std::strcmp(kernel.name, "scalar") == 0;
      if (is_scalar) scalar_gbps[nsrc] = gbps;
      std::string note;
      if (!is_scalar && scalar_gbps[nsrc] > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "  %.1fx scalar",
                      gbps / scalar_gbps[nsrc]);
        note = buf;
      }
      std::printf("  %-18s %8.2f GiB/s  (1 fused pass)%s%s\n", kernel.name,
                  gbps, note.c_str(),
                  &kernel == &ActivePqKernel() ? "  <- dispatched" : "");
      report.Set("pq_" + std::string(kernel.name) + "_n" +
                     std::to_string(nsrc) + "_gbps",
                 gbps);
    }
  }

  // ---- Block synthesis: the bytes the datapath stands in for disk reads,
  // and the ground-truth check against them. synth writes a block;
  // synth_matches checks one in registers. The synth_then_compare row is
  // the check the datapath ran before the fused form: scalar synthesis
  // of an expected block, then memcmp. GiB/s counts block bytes written
  // or checked.
  bench::Banner("Block synthesis and the fused ground-truth check");
  constexpr uint64_t kSynthSeed = 0x5eed5eed5eed5eedull;
  std::vector<uint8_t> expected(kBlockBytes);
  scalar->synth(reference.data(), kSynthSeed, kBlockBytes);
  {
    bench::WallTimer timer;
    bool same = true;
    for (int r = 0; r < kReps; ++r) {
      scalar->synth(expected.data(), kSynthSeed, kBlockBytes);
      same &= std::memcmp(expected.data(), reference.data(),
                          kBlockBytes) == 0;
    }
    const double gbps = GigabytesPerSecond(
        static_cast<double>(kReps) * static_cast<double>(kBlockBytes),
        timer.Seconds());
    if (!same) {
      std::printf("ERROR: scalar synthesis is not deterministic\n");
      return 1;
    }
    std::printf("  %-18s %8.2f GiB/s  (scalar synth, then memcmp)\n",
                "synth_then_compare", gbps);
    report.Set("synth_then_compare_scalar_gbps", gbps);
  }
  for (const PqKernel& kernel : CompiledPqKernels()) {
    if (!kernel.supported()) continue;
    std::fill(dst.begin(), dst.end(), 0);
    kernel.synth(dst.data(), kSynthSeed, kBlockBytes);
    if (std::memcmp(dst.data(), reference.data(), kBlockBytes) != 0) {
      std::printf("ERROR: kernel %s synthesis diverges from scalar\n",
                  kernel.name);
      return 1;
    }
    dst[kBlockBytes - 1] ^= 1;
    if (!kernel.synth_matches(reference.data(), kSynthSeed, kBlockBytes) ||
        kernel.synth_matches(dst.data(), kSynthSeed, kBlockBytes)) {
      std::printf("ERROR: kernel %s synth_matches gives a wrong verdict\n",
                  kernel.name);
      return 1;
    }
    bench::WallTimer synth_timer;
    for (int r = 0; r < kReps; ++r) {
      kernel.synth(dst.data(), kSynthSeed, kBlockBytes);
    }
    const double synth_s = synth_timer.Seconds();
    bench::WallTimer check_timer;
    bool all_match = true;
    for (int r = 0; r < kReps; ++r) {
      all_match &=
          kernel.synth_matches(reference.data(), kSynthSeed, kBlockBytes);
    }
    const double check_s = check_timer.Seconds();
    if (!all_match) {
      std::printf("ERROR: kernel %s synth_matches rejected exact bytes\n",
                  kernel.name);
      return 1;
    }
    const double bytes =
        static_cast<double>(kReps) * static_cast<double>(kBlockBytes);
    const double synth_gbps = GigabytesPerSecond(bytes, synth_s);
    const double check_gbps = GigabytesPerSecond(bytes, check_s);
    std::printf("  %-18s %8.2f GiB/s synth  %8.2f GiB/s synth_matches%s\n",
                kernel.name, synth_gbps, check_gbps,
                &kernel == &ActivePqKernel() ? "  <- dispatched" : "");
    report.Set("synth_" + std::string(kernel.name) + "_gbps", synth_gbps);
    report.Set("synth_matches_" + std::string(kernel.name) + "_gbps",
               check_gbps);
  }

  // The dispatcher's own startup measurements, for the perf trajectory.
  for (const PqKernelMeasurement& m : PqKernelSelectionReport()) {
    if (!m.supported) continue;
    report.Set(std::string("pq_dispatch_") + m.name + "_gbps",
               m.gb_per_s);
    if (m.selected) report.Set("pq_dispatch_selected_gbps", m.gb_per_s);
  }

  report.WriteJson();
  std::printf(
      "\nReading: pairwise_scalar is the old datapath (one full pass over\n"
      "the destination per source); every other row folds all sources in\n"
      "one pass. GiB/s counts memory traffic, so at equal wall time the\n"
      "fused rows already score ~(n+2)/3n of pairwise — any further gap\n"
      "is vectorization. All kernels are byte-identical by construction\n"
      "(checked above); FTMS_PQ_KERNEL pins the dispatch of both\n"
      "folds. The P+Q rows compute BOTH RAID-6 syndromes per pass;\n"
      "the xN annotations are the vectorization speedup over the fused\n"
      "scalar GF table kernel. The synthesis rows write (synth) or check\n"
      "(synth_matches) one block; synth_then_compare is the check that\n"
      "writes an expected block first.\n");
  return 0;
}
