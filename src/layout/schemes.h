#ifndef FTMS_LAYOUT_SCHEMES_H_
#define FTMS_LAYOUT_SCHEMES_H_

#include <string_view>

namespace ftms {

// The four fault-tolerance schemes compared in the paper (Section 5),
// plus the dual-parity (P+Q / RAID-6) variants of SR and NC: same
// scheduling discipline, but each cluster dedicates TWO parity disks
// (P at C-2, Q at C-1) so a cluster survives any two concurrent disk
// failures.
enum class Scheme {
  kStreamingRaid,      // SR: Section 2, after Tobagi et al. [11]
  kStaggeredGroup,     // SG: Section 2
  kNonClustered,       // NC: Section 3, with shared buffer-server pool
  kImprovedBandwidth,  // IB: Section 4
  kStreamingRaid2,     // SR-2: SR with P+Q dual parity per cluster
  kNonClustered2,      // NC-2: NC with P+Q dual parity per cluster
};

// The paper's original comparison set. The dual-parity variants are
// deliberately NOT in this list: the golden tables/cost outputs
// reproduce the paper's four-scheme figures.
inline constexpr Scheme kAllSchemes[] = {
    Scheme::kStreamingRaid,
    Scheme::kStaggeredGroup,
    Scheme::kNonClustered,
    Scheme::kImprovedBandwidth,
};

inline constexpr Scheme kDualParitySchemes[] = {
    Scheme::kStreamingRaid2,
    Scheme::kNonClustered2,
};

std::string_view SchemeName(Scheme scheme);
std::string_view SchemeAbbrev(Scheme scheme);

// True for the P+Q variants with two parity disks per cluster.
constexpr bool IsDualParity(Scheme scheme) {
  return scheme == Scheme::kStreamingRaid2 ||
         scheme == Scheme::kNonClustered2;
}

// Number of dedicated parity disks per cluster (0 for IB, which spreads
// parity over the next cluster's data disks).
constexpr int ParityDisksPerCluster(Scheme scheme) {
  if (scheme == Scheme::kImprovedBandwidth) return 0;
  return IsDualParity(scheme) ? 2 : 1;
}

// The single-parity scheme a dual-parity variant derives its
// scheduling discipline from (identity for the original four).
constexpr Scheme BaseScheme(Scheme scheme) {
  switch (scheme) {
    case Scheme::kStreamingRaid2:
      return Scheme::kStreamingRaid;
    case Scheme::kNonClustered2:
      return Scheme::kNonClustered;
    default:
      return scheme;
  }
}

}  // namespace ftms

#endif  // FTMS_LAYOUT_SCHEMES_H_
