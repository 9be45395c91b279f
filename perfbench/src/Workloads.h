//===- Workloads.h - the benchmark's three workloads ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload runs its set-up SetupRepeats times (setup_s is their
/// median), one untraced timed run of several passes whose figures give the
/// end-to-end metrics, and, with --trace 1, a traced run of the same inputs
/// whose spans give the per-layer metrics. Deterministic figures must agree
/// exactly between the two runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

constexpr int SetupRepeats = 11;

/// Fewest timed passes of apps over its grid.
constexpr unsigned AppsMinPasses = 2;

/// The paper's Table 2 grid: six programs x two arches x {AOT, cold, warm}.
Outcome runApps(const Options &O);

/// Short process starts that each compile every kernel afresh.
Outcome runJitCold(const Options &O);

/// The same kind of specialization stream served from a warm persistent
/// cache.
Outcome runJitWarm(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
