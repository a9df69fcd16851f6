#include "model/coalescing_model.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/check.h"
#include "util/hot_path.h"
#include "util/thread_pool.h"

namespace origin::model {

using origin::util::Duration;
using origin::util::SimTime;

const char* grouping_name(Grouping grouping) {
  switch (grouping) {
    case Grouping::kAsn: return "asn";
    case Grouping::kProvider: return "provider";
    case Grouping::kService: return "service";
  }
  return "?";
}

namespace {

// "as<asn>" formatted into a caller-provided stack buffer: building a
// group key never allocates on the hot path.
ORIGIN_HOT std::string_view format_asn_key(char (&buffer)[16], std::uint32_t asn) {
  buffer[0] = 'a';
  buffer[1] = 's';
  const auto result =
      std::to_chars(buffer + 2, buffer + sizeof(buffer), asn);
  return {buffer, static_cast<std::size_t>(result.ptr - buffer)};
}

// Per-thread workspace for every analyze and reconstruct call: each worker
// reuses one arena across every page it replays, so a warm scratch
// allocates nothing.
AnalysisScratch& local_scratch() {
  static thread_local AnalysisScratch scratch;
  return scratch;
}

ORIGIN_HOT bool anchor_better(const AnalysisScratch::AnchorCandidate& a,
                   const AnalysisScratch::AnchorCandidate& b) {
  // Matches the seed's strict `>` scan: a strictly later end wins, and
  // among equal ends the smallest entry index (the one the scan saw
  // first) is kept.
  if (a.index < 0) return false;
  if (b.index < 0) return true;
  if (a.end != b.end) return b.end < a.end;
  return a.index < b.index;
}

// Fenwick (binary indexed tree) specialised to prefix-max of
// AnchorCandidate over entry indices.
ORIGIN_HOT void prefix_max_update(std::vector<AnalysisScratch::AnchorCandidate>& tree,
                       std::size_t position,
                       const AnalysisScratch::AnchorCandidate& candidate) {
  for (std::size_t k = position; k < tree.size(); k |= k + 1) {
    if (anchor_better(candidate, tree[k])) tree[k] = candidate;
  }
}

ORIGIN_HOT AnalysisScratch::AnchorCandidate prefix_max_query(
    const std::vector<AnalysisScratch::AnchorCandidate>& tree,
    std::size_t count) {
  AnalysisScratch::AnchorCandidate best;
  for (std::size_t k = count; k > 0; k &= k - 1) {
    if (anchor_better(tree[k - 1], best)) best = tree[k - 1];
  }
  return best;
}

// Anchor fast path: every start and end fits an unsigned 32-bit microsecond
// count (~71 minutes — every realistic waterfall), so (time, index) packs
// into one word and candidate comparison is a single integer compare.
//
// One ascending sort of packed (end << 32 | index) yields each entry's end
// rank; entries are then processed in index order, inserting entry i-1's
// candidate before querying entry i, which makes the seed's j < i
// constraint implicit. Eligibility (end_j <= start_i) becomes a prefix of
// the rank axis, found by binary search, and the Fenwick tree keeps a
// prefix-max of packed candidates (end << 32 | ~index): the maximum is the
// latest end, ties resolving to the smallest index — exactly the seed's
// strict `>` scan. Packed candidates are never 0 (index < 2^31 keeps the
// low word non-zero), so 0 doubles as the empty-tree sentinel.
ORIGIN_HOT void compute_anchors_fast(const web::PageLoad& load, AnalysisScratch& s) {
  const std::size_t n = load.entries.size();
  s.end_order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.end_order[i] =
        (static_cast<std::uint64_t>(s.ends[i].micros()) << 32) | i;
  }
  std::sort(s.end_order.begin(), s.end_order.end());
  s.rank_of.resize(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    s.rank_of[static_cast<std::uint32_t>(s.end_order[r])] = r;
  }

  s.anchor_tree.assign(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>(i - 1);
    const std::uint64_t candidate =
        (static_cast<std::uint64_t>(s.ends[j].micros()) << 32) |
        (0xFFFFFFFFu ^ j);
    for (std::size_t k = s.rank_of[j]; k < n; k |= k + 1) {
      if (candidate > s.anchor_tree[k]) s.anchor_tree[k] = candidate;
    }

    const std::uint64_t bound =
        (static_cast<std::uint64_t>(load.entries[i].start.micros()) << 32) |
        0xFFFFFFFFull;
    const std::size_t eligible = static_cast<std::size_t>(
        std::upper_bound(s.end_order.begin(), s.end_order.end(), bound) -
        s.end_order.begin());
    std::uint64_t best = 0;
    for (std::size_t k = eligible; k > 0; k &= k - 1) {
      if (s.anchor_tree[k - 1] > best) best = s.anchor_tree[k - 1];
    }
    if (best != 0) {
      s.anchor_of[i] = static_cast<std::int32_t>(
          0xFFFFFFFFu ^ static_cast<std::uint32_t>(best));
    }
  }
}

// Generic fallback for timestamps outside the packable range: sweep entries
// in start order, inserting ends into a prefix-max Fenwick tree over entry
// indices as they become eligible.
ORIGIN_HOT void compute_anchors_generic(const web::PageLoad& load, AnalysisScratch& s,
                             bool starts_sorted) {
  const std::size_t n = load.entries.size();
  s.order_by_end.resize(n);
  s.order_by_start.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.order_by_end[i] = i;
    s.order_by_start[i] = i;
  }
  std::sort(s.order_by_end.begin(), s.order_by_end.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.ends[a] != s.ends[b]) return s.ends[a] < s.ends[b];
              return a < b;
            });
  // Ties break by index, so when starts are already non-decreasing the
  // identity permutation is the sorted order.
  if (!starts_sorted) {
    std::sort(s.order_by_start.begin(), s.order_by_start.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const SimTime start_a = load.entries[a].start;
                const SimTime start_b = load.entries[b].start;
                if (start_a != start_b) return start_a < start_b;
                return a < b;
              });
  }

  s.prefix_max.assign(n, AnalysisScratch::AnchorCandidate{});
  std::size_t inserted = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const std::uint32_t i = s.order_by_start[q];
    const SimTime start = load.entries[i].start;
    while (inserted < n) {
      const std::uint32_t j = s.order_by_end[inserted];
      const SimTime end = s.ends[j];
      if (start < end) break;
      prefix_max_update(s.prefix_max, j,
                        {end, static_cast<std::int32_t>(j)});
      ++inserted;
    }
    if (i == 0) continue;  // entry 0 has no predecessors
    // Prefix query over [0, i) enforces the seed's j < i constraint.
    s.anchor_of[i] = prefix_max_query(s.prefix_max, i).index;
  }
}

// Anchor recovery, §4.1: for every entry, the latest earlier entry whose
// original end is <= this entry's original start. The seed scanned all
// predecessors per entry (O(n²), src/model/coalescing_model.cc:190 in the
// seed tree); anchors depend only on the *original* schedule, so they are
// precomputed here in O(n log n).
ORIGIN_HOT void compute_anchors(const web::PageLoad& load, AnalysisScratch& s) {
  const std::size_t n = load.entries.size();
  s.anchor_of.assign(n, -1);
  if (n < 2) return;

  // Original ends, computed once: end() sums seven phase durations, so
  // everything below reads this cache instead of re-deriving it per
  // comparison. The same pass establishes the fast-path bounds.
  s.ends.resize(n);
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool starts_sorted = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t start = load.entries[i].start.micros();
    s.ends[i] = load.entries[i].end();
    const std::int64_t end = s.ends[i].micros();
    lo = std::min(lo, std::min(start, end));
    hi = std::max(hi, std::max(start, end));
    if (i > 0 && load.entries[i].start < load.entries[i - 1].start) {
      starts_sorted = false;
    }
  }

  if (lo >= 0 && hi < 0x100000000LL && n < 0x40000000) {
    compute_anchors_fast(load, s);
  } else {
    compute_anchors_generic(load, s, starts_sorted);
  }
}

// Joins entry i to its group's concurrency batch (§4.1): entries whose
// original setup windows overlap share one batch. Only same-group batches
// can match, so the seed's global creation-order scan reduces to one hash
// probe plus this group's (short) chain, walked in creation order.
ORIGIN_HOT void batch_join(std::size_t i, util::SymbolId group,
                const web::HarEntry& entry, AnalysisScratch& s) {
  std::int32_t found = -1;
  std::int32_t* head = s.open_batches.find(group);
  if (head != nullptr) {
    for (std::int32_t b = *head; b >= 0;
         b = s.batches[static_cast<std::size_t>(b)].next) {
      if (entry.start <= s.batches[static_cast<std::size_t>(b)].window_end) {
        found = b;
        break;
      }
    }
  }
  if (found < 0) {
    found = static_cast<std::int32_t>(s.batches.size());
    s.batches.push_back(
        {group, entry.start + entry.timings.dns, entry.timings.dns, -1});
    if (head != nullptr) {
      // Append at the tail so the chain stays in creation order.
      std::int32_t tail = *head;
      while (s.batches[static_cast<std::size_t>(tail)].next >= 0) {
        tail = s.batches[static_cast<std::size_t>(tail)].next;
      }
      s.batches[static_cast<std::size_t>(tail)].next = found;
    } else {
      s.open_batches.emplace(group, found);
    }
  }
  AnalysisScratch::Batch& batch = s.batches[static_cast<std::size_t>(found)];
  batch.window_end =
      std::max(batch.window_end, entry.start + entry.timings.dns);
  batch.min_dns = std::min(batch.min_dns, entry.timings.dns);
  s.batch_of[i] = found;
}

// Rebuilds the waterfall in place once s.batch_of / s.batches are filled.
// Reads of an entry's original fields happen before that entry is mutated,
// and anchors always point backwards (j < i), so by the time entry i needs
// out.entries[j].end() the anchor has already been rebuilt — in-place
// mutation of the copy is safe.
ORIGIN_HOT void rebuild_in_place(web::PageLoad& page, AnalysisScratch& s) {
  // Re-anchoring (see compute_anchors): the HAR does not retain dependency
  // edges (same as the paper's input data), so the anchor is recovered
  // from the original schedule: the latest earlier entry that ended before
  // this one started is, by construction of the waterfall, the dependency
  // whose parsing dispatched it; the gap between them is browser CPU time
  // and is preserved verbatim (§4.1).
  compute_anchors(page, s);

  const std::size_t n = page.entries.size();
  for (std::size_t i = 0; i < n; ++i) {
    web::HarEntry& entry = page.entries[i];

    // batch_of is non-negative exactly for the entries the scan admitted.
    const std::int32_t batch = s.batch_of[i];
    if (batch >= 0) {
      const Duration reduction =
          s.batches[static_cast<std::size_t>(batch)].min_dns;
      entry.timings.dns = entry.timings.dns - reduction;
      entry.timings.connect = Duration();
      entry.timings.ssl = Duration();
      entry.timings.blocked = Duration();  // no 421s under correct ORIGIN
      entry.new_dns_query = false;
      entry.new_tls_connection = false;
      entry.cert_san_count = -1;
      entry.cert_serial = 0;
    }

    const std::int32_t anchor = s.anchor_of[i];
    if (anchor >= 0) {
      const std::size_t j = static_cast<std::size_t>(anchor);
      // s.ends still holds the *original* schedule (compute_anchors filled
      // it before any mutation); page.entries[j] has already been rebuilt
      // because anchors always point backwards (j < i).
      const Duration gap = entry.start - s.ends[j];
      entry.start = page.entries[j].end() + gap;
    }
  }
}

}  // namespace

CoalescingModel::CoalescingModel(const browser::Environment& env,
                                 Grouping grouping)
    : env_(env), grouping_(grouping) {
  // Serial id-assignment pass (the determinism contract, DESIGN.md §10):
  // every group key the serving world can produce is interned here, in
  // service order, before any analysis can run concurrently.
  char buffer[16];
  asn_groups_.emplace(0, groups_.intern(format_asn_key(buffer, 0)));
  const auto& services = env_.services();
  service_groups_.reserve(services.size());
  for (const auto& service : services) {
    if (!asn_groups_.contains(service.asn)) {
      asn_groups_.emplace(service.asn,
                          groups_.intern(format_asn_key(buffer, service.asn)));
    }
    switch (grouping_) {
      case Grouping::kAsn:
        service_groups_.push_back(*asn_groups_.find(service.asn));
        break;
      case Grouping::kProvider:
        service_groups_.push_back(intern_key("org:", service.provider));
        break;
      case Grouping::kService:
        service_groups_.push_back(intern_key("svc:", service.name));
        break;
    }
  }
}

util::SymbolId CoalescingModel::intern_key(std::string_view prefix,
                                           std::string_view rest) const {
  char stack[96];
  std::string heap;
  std::string_view key;
  if (prefix.size() + rest.size() <= sizeof(stack)) {
    std::memcpy(stack, prefix.data(), prefix.size());
    std::memcpy(stack + prefix.size(), rest.data(), rest.size());
    key = {stack, prefix.size() + rest.size()};
  } else {
    heap.reserve(prefix.size() + rest.size());
    heap.append(prefix);
    heap.append(rest);
    key = heap;
  }
  const util::SymbolId id = groups_.lookup(key);
  return id != util::kInvalidSymbol ? id : groups_.intern(key);
}

util::SymbolId CoalescingModel::asn_group(std::uint32_t asn) const {
  if (const util::SymbolId* id = asn_groups_.find(asn)) return *id;
  // AS outside the primed world (services added after construction, or
  // hand-built loads): intern on sight. lookup() first keeps the repeat
  // path lock-free.
  char buffer[16];
  const std::string_view key = format_asn_key(buffer, asn);
  const util::SymbolId id = groups_.lookup(key);
  return id != util::kInvalidSymbol ? id : groups_.intern(key);
}

util::SymbolId CoalescingModel::group_of(const std::string& hostname,
                                         std::uint32_t asn) const {
  switch (grouping_) {
    case Grouping::kAsn:
      return asn_group(asn);
    case Grouping::kProvider: {
      const std::size_t index = env_.service_index(hostname);
      if (index == browser::Environment::kNoService) return asn_group(asn);
      if (index < service_groups_.size()) return service_groups_[index];
      return intern_key("org:", env_.services()[index].provider);
    }
    case Grouping::kService: {
      const std::size_t index = env_.service_index(hostname);
      if (index == browser::Environment::kNoService) {
        return intern_key("host:", hostname);
      }
      if (index < service_groups_.size()) return service_groups_[index];
      return intern_key("svc:", env_.services()[index].name);
    }
  }
  return util::kInvalidSymbol;
}

void CoalescingModel::analyze_into(const web::PageLoad& load,
                                   PageAnalysis* out,
                                   AnalysisScratch& scratch) const {
  PageAnalysis& analysis = *out;
  analysis.entries.assign(load.entries.size(), EntryAnalysis{});

  // Measured counts accumulate inside the main loop below (one pass over
  // the entries instead of the three PageLoad count methods would take).
  std::size_t new_dns_queries = 0;
  std::size_t new_tls_connections = 0;
  std::size_t validations = 0;

  // §4.2's ideal is best-case: every service is assumed to deploy ORIGIN
  // frames and correct SANs (servers still on HTTP/1.1 are imagined
  // upgraded — the ideal counts *services*, not today's protocol status).
  // Only plaintext hosts stay outside: they cannot ride a TLS connection.
  auto coalescable = [](const web::HarEntry& entry) { return entry.secure; };

  scratch.groups_seen.clear();       // ideal-ORIGIN connections
  scratch.solo_tls_hosts.clear();    // secure but unattributable:
                                     // one TLS connection per host
  scratch.plaintext_hosts.clear();   // DNS yes, TLS never
  scratch.addresses_seen.clear();    // ideal-IP connections
  std::size_t ip_connections = 0;

  for (std::size_t i = 0; i < load.entries.size(); ++i) {
    const web::HarEntry& entry = load.entries[i];
    EntryAnalysis& ea = analysis.entries[i];
    ea.group = group_of(entry.hostname, entry.asn);

    if (entry.asn != 0 && coalescable(entry)) {
      // insert() is the seed's contains()+insert() in one probe.
      if (!scratch.groups_seen.insert(ea.group)) {
        ea.coalescable_origin = true;
      }
    } else if (entry.secure) {
      // Views into the load's own hostname strings: the load outlives
      // this call and the set is cleared on entry, so no dangling reads.
      scratch.solo_tls_hosts.insert(std::string_view(entry.hostname));
    } else {
      scratch.plaintext_hosts.insert(std::string_view(entry.hostname));
    }

    new_dns_queries += entry.new_dns_query ? 1 : 0;
    new_tls_connections += entry.new_tls_connection ? 1 : 0;
    validations += entry.cert_san_count >= 0 ? 1 : 0;

    // Ideal IP coalescing operates on the measured connections only.
    if (entry.new_tls_connection) {
      if (!scratch.addresses_seen.insert(entry.server_address)) {
        ea.coalescable_ip = true;
      } else {
        ++ip_connections;
      }
    }
  }

  // Same totals as PageLoad::dns_query_count() etc. (race extras included).
  analysis.measured_dns = load.extra_dns_queries + new_dns_queries;
  analysis.measured_tls = load.extra_tls_connections + new_tls_connections;
  analysis.measured_validations = validations;

  // §4.2: the ideal equals the number of separate services. Unattributable
  // secure hosts keep one TLS connection each; plaintext hosts still need
  // their DNS lookup but never a TLS handshake.
  analysis.ideal_origin_dns = scratch.groups_seen.size() +
                              scratch.solo_tls_hosts.size() +
                              scratch.plaintext_hosts.size();
  analysis.ideal_origin_tls =
      scratch.groups_seen.size() + scratch.solo_tls_hosts.size();
  analysis.ideal_origin_validations =
      scratch.groups_seen.size() + scratch.solo_tls_hosts.size();

  // Ideal IP: IP-based coalescing still *requires* the DNS query (the
  // address match is the authority check), so only the race-duplicate
  // queries disappear with the merged sockets. TLS shrinks to one
  // connection per distinct server address.
  analysis.ideal_ip_dns = analysis.measured_dns - load.extra_dns_queries;
  analysis.ideal_ip_tls = ip_connections;
}

PageAnalysis CoalescingModel::analyze(const web::PageLoad& load) const {
  PageAnalysis analysis;
  analyze_into(load, &analysis, local_scratch());
  return analysis;
}

web::PageLoad CoalescingModel::reconstruct(
    const web::PageLoad& load, const PageAnalysis& analysis,
    const std::string& restrict_to_group) const {
  const bool restricted = !restrict_to_group.empty();
  // An unknown key was never assigned to any entry, so it restricts the
  // reconstruction to nothing — the seed's behaviour for unknown groups.
  const util::SymbolId restrict_to =
      restricted ? groups_.lookup(restrict_to_group) : util::kInvalidSymbol;
  return reconstruct_impl(load, analysis, restricted, restrict_to,
                          local_scratch());
}

web::PageLoad CoalescingModel::reconstruct_impl(
    const web::PageLoad& load, const PageAnalysis& analysis, bool restricted,
    util::SymbolId restrict_to, AnalysisScratch& s) const {
  ORIGIN_CHECK(analysis.entries.size() == load.entries.size(),
               "reconstruct: analysis does not match load");
  web::PageLoad out = load;
  out.extra_dns_queries = 0;  // races ride on avoided connections
  out.extra_tls_connections = 0;
  const std::size_t n = load.entries.size();

  auto applies = [&](std::size_t i) {
    const EntryAnalysis& ea = analysis.entries[i];
    return ea.coalescable_origin && (!restricted || ea.group == restrict_to);
  };

  // §4.1: for concurrently-blocked coalescable requests, only the minimum
  // DNS time among them is truly avoided; the spread between response
  // times is kept. Identify concurrency batches per group: entries whose
  // original setup windows overlap. Membership is recorded per entry
  // (batch_of), replacing the seed's member lists + std::map<size_t,
  // Duration> — with warm scratch capacity this loop does not allocate.
  s.batches.clear();
  s.open_batches.clear();
  s.batch_of.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!applies(i)) continue;
    batch_join(i, analysis.entries[i].group, load.entries[i], s);
  }

  // No entry coalesces (restricted replay missing the page, or a page with
  // nothing coalescable): nothing's timing changes, so re-anchoring would
  // reproduce every start verbatim. Return the copy as-is.
  if (s.batches.empty()) return out;

  rebuild_in_place(out, s);
  return out;
}

void CoalescingModel::intern_groups(
    const std::vector<web::PageLoad>& loads) const {
  // Serial prepass: assign any not-yet-seen group id in input order, so
  // the parallel region below only ever *reads* the symbol table and ids
  // are identical at every thread count.
  for (const auto& load : loads) {
    for (const auto& entry : load.entries) {
      (void)group_of(entry.hostname, entry.asn);
    }
  }
}

std::vector<PageAnalysis> CoalescingModel::analyze_batch(
    const std::vector<web::PageLoad>& loads, std::size_t threads) const {
  intern_groups(loads);
  std::vector<PageAnalysis> out(loads.size());
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(loads.size(), [&](std::size_t i) {
    analyze_into(loads[i], &out[i], local_scratch());
  });
  return out;
}

std::vector<web::PageLoad> CoalescingModel::reconstruct_batch(
    const std::vector<web::PageLoad>& loads,
    const std::vector<PageAnalysis>& analyses,
    const std::string& restrict_to_group, std::size_t threads) const {
  ORIGIN_CHECK(loads.size() == analyses.size(),
               "reconstruct_batch: loads/analyses size mismatch");
  const bool restricted = !restrict_to_group.empty();
  const util::SymbolId restrict_to =
      restricted ? groups_.lookup(restrict_to_group) : util::kInvalidSymbol;
  std::vector<web::PageLoad> out(loads.size());
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(loads.size(), [&](std::size_t i) {
    out[i] = reconstruct_impl(loads[i], analyses[i], restricted, restrict_to,
                              local_scratch());
  });
  return out;
}

}  // namespace origin::model
