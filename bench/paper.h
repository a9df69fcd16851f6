// The paper's results in one run: Tables 1–9, Figs 1 and 3–9, the §6
// ablations and two robustness ablations with no paper row (injected
// network faults, a PoP under abuse), printed by bench_paper and pinned by
// BenchPaper.OutputDigestIsPinned.
#pragma once

#include <cstdio>

#include "bench_common.h"

namespace origin::bench {

// Prints every section to `out` in EXPERIMENTS.md order: the §3 dataset
// tables, the §4 model and planner figures, the §5 deployment figures,
// the ablations, then the fault and overload ablations. Deterministic for
// a given --sites/--seed at any ORIGIN_THREADS. Returns whether the fault
// and overload ablations' in-run checks held; each failed check prints a
// FAIL line on stderr.
[[nodiscard]] bool print_paper(const Args& args, std::FILE* out);

}  // namespace origin::bench
