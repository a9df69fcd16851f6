// The origin_analyze invariant passes — the repo's one static-analysis
// binary, run by the default build. Each pass walks the modeled corpus
// and reports violations into the shared FindingSink; waiver application
// and output formatting happen afterwards in the driver.
#pragma once

#include <deque>

#include "callgraph.h"
#include "findings.h"
#include "model.h"

namespace origin::analyze {

// Hot-path allocation discipline: functions annotated ORIGIN_HOT may not
// allocate. Rules: hot-new (new / make_unique / make_shared),
// hot-string-construct (std::string construction or concatenation),
// hot-unreserved-growth (push_back/emplace_back/insert/operator[] growth on
// receivers that are not sanctioned scratch state), hot-owning-copy
// (by-value std::string / std::vector / std::function parameters).
void run_alloc_pass(const std::deque<FileModel>& corpus, FindingSink& sink);

// Determinism: iteration over unordered containers (util::FlatMap/FlatSet,
// std::unordered_*) feeding serialization or report output must be sorted
// first (det-unordered-iter); wall-clock reads, ambient rand(), and
// pointer-value formatting are confined to sanctioned modules
// (det-wall-clock, det-ambient-rand, det-pointer-value).
void run_determinism_pass(const std::deque<FileModel>& corpus,
                          FindingSink& sink);

// Layering: the module DAG is
//   util(0) → netsim,dns,tls(1) → h2,hpack,web,ct(2) →
//   server,cdn,browser(3) → dataset,measure,model(4)
// A module may include same-or-lower layers only (layer-upward), and the
// include graph must stay acyclic even within a layer (layer-cycle).
void run_layering_pass(const std::deque<FileModel>& corpus,
                       FindingSink& sink);

// Lint: per-line source rules scoped by module — no bare assert, no
// reinterpret_cast, [[nodiscard]] on Result/Status APIs, thread discipline
// (util::Mutex/ThreadPool only, no detach, no volatile, GUARDED_BY after a
// mutex member), and the module contracts for close reasons, server closes,
// durable dataset writes, and interned hot-path keys. The rules carry no
// pass prefix; pass_lint.cc documents each one.
void run_lint_pass(const std::deque<FileModel>& corpus, FindingSink& sink);

// Interprocedural passes over the call graph (callgraph.h).
//
// Hot-transitive: the transitive closure of ORIGIN_HOT over call edges.
// Every reachable unannotated callee gets the same body-level allocation
// check as an annotated function (hot-transitive findings carry the full
// hot call chain, e.g. `serialize_frame -> ByteWriter::raw`).
void run_hot_transitive_pass(const CallGraph& graph, FindingSink& sink);

// Lock-order: util::MutexLock acquisition sequences per function, held-lock
// sets propagated through call edges, cycle detection over the lock-order
// graph (lock-cycle), plus CondVar waits performed while a second lock
// class is held (lock-wait-while-holding). Lock identity is the mutex
// member/variable name — the lock *class* — so per-instance mutexes of the
// same family (per-worker `mu`) are one node, the standard conservative
// choice for ABBA detection.
void run_lock_order_pass(const CallGraph& graph, FindingSink& sink);

// Error-propagation: intra-body dataflow over util::Result/util::Status
// values returned by corpus functions. A bound result that is never read
// again (error-unchecked) or a `(void)`-discarded call (error-discard)
// silently swallows the error path — the §6.7 failure mode [[nodiscard]]
// alone cannot catch once the value is bound or cast away.
void run_error_prop_pass(const CallGraph& graph, FindingSink& sink);

}  // namespace origin::analyze
