#ifndef FTMS_LAYOUT_INVARIANTS_H_
#define FTMS_LAYOUT_INVARIANTS_H_

#include "layout/layout.h"
#include "util/status.h"

namespace ftms {

// Structural invariants the paper's analysis depends on. Each checker
// walks the first `num_groups` parity groups of `num_objects` synthetic
// objects and returns the first violation found (or OK). They are used by
// property tests and can be run against any layout.

// Observation 1 is enforced by construction (a group's tracks come from a
// single object); what must be checked is that a group's blocks never
// collide: the C-1 data disks and the parity disk are pairwise distinct.
Status CheckNoDuplicateDisksInGroup(const Layout& layout, int num_objects,
                                    int64_t num_groups);

// Clustered family: all data blocks of a group live on one cluster and the
// parity block lives on that same cluster's dedicated parity disk.
Status CheckGroupWithinCluster(const Layout& layout, int num_objects,
                               int64_t num_groups);

// Improved-bandwidth: the parity block of every group lives on the cluster
// immediately to the right (mod Nc) of the group's data cluster — never on
// the data cluster itself.
Status CheckParityOnNextCluster(const Layout& layout, int num_objects,
                                int64_t num_groups);

// Successive groups of one object visit clusters round-robin: group j is
// on cluster (h + j) mod Nc.
Status CheckRoundRobinGroups(const Layout& layout, int num_objects,
                             int64_t num_groups);

// Load balance: over `num_groups` consecutive groups of one object, every
// data disk of the layout is touched a near-equal number of times (max and
// min per-disk counts differ by at most `tolerance`).
Status CheckDataLoadBalance(const Layout& layout, int object_id,
                            int64_t num_groups, int64_t tolerance);

// Dual-parity family (SR-2/NC-2): every group's P block lives on its
// cluster's slot C-2 and the Q block on slot C-1, both distinct from
// every data disk of the group, and the layout advertises two parity
// blocks per group.
Status CheckDualParityDisks(const Layout& layout, int num_objects,
                            int64_t num_groups);

}  // namespace ftms

#endif  // FTMS_LAYOUT_INVARIANTS_H_
