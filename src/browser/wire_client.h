// Wire-level page loader: the same coalescing decisions as PageLoader, but
// executed over real HTTP/2 connections (frames, HPACK, flow control,
// ORIGIN frames) across the simulated network.
//
// Every protocol artifact is real here: the client opens TCP connections
// through netsim, performs simulated TLS handshakes validated against the
// trust store, receives the server's ORIGIN frame on stream 0, consults its
// coalescing policy before every subresource, retries on 421, and survives
// (or doesn't — §6.7) middlebox interference. Used by tests, examples, and
// the middlebox ablation; the analytic PageLoader covers corpus scale.
//
// Graceful degradation (DegradationOptions.enabled) layers browser-like
// robustness on top: connect/request timeouts, capped exponential backoff
// under a per-load retry budget, a coalescing avoid-list (a host pair that
// failed coalesced is retried on a dedicated connection and never
// re-coalesced, mirroring post-421/RST browser behavior), and
// GOAWAY/abrupt-close re-dispatch of in-flight streams. Every degradation
// event lands in WireLoadResult.robustness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "browser/environment.h"
#include "browser/page_loader.h"
#include "browser/policy.h"
#include "dns/resolver.h"
#include "h2/connection.h"
#include "netsim/faults.h"
#include "netsim/network.h"
#include "web/har.h"
#include "web/resource.h"

namespace origin::browser {

// Robustness knobs. `enabled = false` (the default) reproduces the
// pre-degradation client exactly — no timeouts, no retries, no avoid-list —
// except for the load deadline, which always applies so a stalled load
// terminates with complete = false instead of hanging forever.
struct DegradationOptions {
  bool enabled = false;
  // A connect attempt whose SYN-ACK has not arrived by then is abandoned
  // (covers injected SYN blackholes).
  origin::util::Duration connect_timeout = origin::util::Duration::seconds(6);
  // A submitted request without a terminal response by then is cancelled
  // with RST_STREAM(CANCEL) and retried.
  origin::util::Duration request_timeout = origin::util::Duration::seconds(10);
  bool use_avoid_list = true;
  // Hard simulated wall-clock bound on the whole load.
  origin::util::Duration load_deadline = origin::util::Duration::seconds(60);
};

struct WireLoadResult {
  web::PageLoad har;
  std::size_t connections_opened = 0;
  std::size_t coalesced_requests = 0;
  std::size_t retries_after_421 = 0;
  bool complete = false;  // every resource got a terminal outcome
  std::vector<std::string> errors;
  netsim::RobustnessStats robustness;
};

class WireClient {
 public:
  WireClient(Environment& env, netsim::Network& network, LoaderOptions options,
             DegradationOptions degradation = {});

  // Starts an asynchronous load; `done` fires on the simulator when every
  // resource has completed or failed (or the load deadline expired). Run
  // the simulator to completion.
  void load(const web::Webpage& page, std::function<void(WireLoadResult)> done);

 private:
  struct PendingStream {
    int resource = -1;
    bool coalesced = false;
  };

  struct LiveConnection {
    std::shared_ptr<h2::Connection> h2;
    netsim::TcpEndpoint endpoint;
    ConnectionRecord record;
    const Service* service = nullptr;
    std::map<std::uint32_t, PendingStream> streams;
    bool alive = true;
    // Set by GOAWAY: the connection finishes current streams but accepts
    // no new coalesced requests.
    bool draining = false;
    std::string close_reason;
  };

  struct LoadState {
    web::Webpage page;  // owned copy: loads outlive the caller's argument
    // Indices of the resources that have a parent, ordered by parent and
    // then by page order: a completion finds its children by binary search
    // instead of scanning the page.
    std::vector<int> children;
    web::PageLoad har;
    std::size_t completed = 0;
    std::vector<std::shared_ptr<LiveConnection>> pool;
    std::unique_ptr<dns::Resolver> resolver;
    WireLoadResult result;
    std::function<void(WireLoadResult)> done;
    bool finished = false;
    // Per-resource terminal flag: guards against double completion when a
    // timeout, a teardown, and a late response race.
    std::vector<std::uint8_t> resource_done;
    // Per-resource attempt count (0 = first try) — a retry invalidates any
    // request timer armed for an earlier attempt.
    std::vector<int> attempts;
    int retry_budget_left = 0;
    // Canonical (min,max) host pairs that failed while coalesced; consulted
    // before every cross-host reuse.
    std::set<std::pair<std::string, std::string>> avoid;
  };

  void dispatch(std::shared_ptr<LoadState> state, int resource_index,
                bool dedicated);
  void send_request(std::shared_ptr<LoadState> state, int resource_index,
                    std::shared_ptr<LiveConnection> conn, bool coalesced);
  void open_connection(std::shared_ptr<LoadState> state, int resource_index,
                       const dns::Answer& answer);
  void complete_resource(std::shared_ptr<LoadState> state, int resource_index,
                         bool success, const std::string& error);
  void maybe_finish(std::shared_ptr<LoadState> state);
  void finish_load(std::shared_ptr<LoadState> state, bool complete);

  // Schedules a retry after backoff. Returns false (caller must fail the
  // resource) when degradation is off, the budget or per-resource attempt
  // cap is exhausted, or the load already finished.
  bool retry_resource(std::shared_ptr<LoadState> state, int resource_index);
  // Immediate budget-free re-dispatch for streams a graceful GOAWAY
  // (NO_ERROR drain) left unprocessed: the server promised it never
  // touched them, so replaying on another connection is always safe and
  // costs no retry budget or backoff. Works even with degradation off;
  // still bounded by the per-resource attempt cap.
  bool redispatch_resource(std::shared_ptr<LoadState> state,
                           int resource_index);
  void add_avoid(std::shared_ptr<LoadState> state, const std::string& a,
                 const std::string& b);
  bool should_avoid(const std::shared_ptr<LoadState>& state,
                    const std::string& a, const std::string& b) const;
  // Fails pending streams of a dead connection, retrying what the budget
  // allows; `avoid_coalesced` records coalesced victims in the avoid-list.
  void fail_pending_streams(std::shared_ptr<LoadState> state,
                            std::shared_ptr<LiveConnection> conn,
                            const std::string& error, bool avoid_coalesced);

  Environment& env_;
  netsim::Network& network_;
  LoaderOptions options_;
  DegradationOptions degradation_;
  Policy policy_;
  // Keeps in-flight loads alive between simulator events (endpoint
  // callbacks hold only weak references to avoid cycles); drained as each
  // load finishes.
  std::vector<std::shared_ptr<LoadState>> active_;
  std::uint64_t next_connection_id_ = 1;
  std::uint64_t resolver_seed_ = 0x5eed;
};

}  // namespace origin::browser
