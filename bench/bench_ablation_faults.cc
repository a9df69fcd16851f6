// Ablation: page-load completion and PLT under injected network faults,
// with the graceful-degradation layer on and off.
//
// Sweeps the headline fault rate over {0, 2, 5, 10, 20}% — every
// connection draws connect failure / mid-stream fault / TLS failure at the
// rate, DNS faults at half of it (FaultConfig::uniform) — and runs a batch
// of wire-level page loads per cell, each load a fresh world with its own
// seeded schedule. The paper's §6.7 incident shows what one hostile device
// does to coalescing; this bench quantifies how much of a generally faulty
// network the client's timeout/backoff/avoid-list machinery absorbs.
//
// Also replays the §6.7 incident against the CDN ORIGIN kill-switch: loads
// behind the buggy agent trip the per-tag breaker while control clients
// keep coalescing, and probes re-enable ORIGIN after the fix.
//
// Emits BENCH_faults.json through bench/report.h, which gates the degraded
// 5%-cell median PLT against the committed copy (see the gate table there).
// Exit status is also nonzero if the degraded-path completion rate at the
// 5% cell drops below 99% — the acceptance floor. --seed sets the schedule
// seed.
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "report.h"
#include "util/json.h"
#include "browser/environment.h"
#include "browser/wire_client.h"
#include "cdn/kill_switch.h"
#include "netsim/faults.h"
#include "h2/middleboxes.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace origin;
using dns::IpAddress;

constexpr std::size_t kLoadsPerCell = 40;
const double kRates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

server::Handler body(const char* text) {
  return [text](std::string_view) {
    server::Response response;
    response.body = origin::util::from_string(text);
    return response;
  };
}

// One disposable world per load: a CDN service (www + static on one
// address), a third-party tracker, and matching servers.
struct LoadWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  browser::Environment env;
  server::Http2Server cdn_server;
  server::Http2Server tracker_server;
  std::unique_ptr<netsim::FaultInjector> injector;

  LoadWorld() {
    auto cert = *env.default_ca().issue(
        "www.site.com", {"www.site.com", "static.site.com"},
        origin::util::SimTime::from_micros(0));
    browser::Service cdn_service;
    cdn_service.name = "cdn";
    cdn_service.asn = 13335;
    cdn_service.provider = "ExampleCDN";
    cdn_service.addresses = {IpAddress::v4(0x0A000001)};
    cdn_service.served_hostnames = {"www.site.com", "static.site.com"};
    cdn_service.certificate = std::make_shared<tls::Certificate>(cert);
    env.add_service(std::move(cdn_service));

    server::ServerConfig config;
    config.origin_set = {"https://www.site.com", "https://static.site.com"};
    cdn_server = server::Http2Server(config);
    cdn_server.set_certificate(cert);
    cdn_server.add_vhost("www.site.com", body("<html>base</html>"));
    cdn_server.add_vhost("static.site.com", body("body{}"));
    cdn_server.listen(net, IpAddress::v4(0x0A000001));

    auto tracker_cert = *env.default_ca().issue(
        "tracker.net", {"tracker.net"}, origin::util::SimTime::from_micros(0));
    browser::Service tracker_service;
    tracker_service.name = "tracker";
    tracker_service.asn = 15169;
    tracker_service.provider = "TrackerCo";
    tracker_service.addresses = {IpAddress::v4(0x0B000001)};
    tracker_service.served_hostnames = {"tracker.net"};
    tracker_service.certificate =
        std::make_shared<tls::Certificate>(tracker_cert);
    env.add_service(std::move(tracker_service));

    tracker_server.set_certificate(tracker_cert);
    tracker_server.add_vhost("tracker.net", body("track();"));
    tracker_server.listen(net, IpAddress::v4(0x0B000001));
  }

  static web::Webpage page() {
    web::Webpage page;
    page.tranco_rank = 7;
    page.base_hostname = "www.site.com";
    const char* hosts[] = {"www.site.com", "static.site.com", "tracker.net"};
    const char* paths[] = {"/", "/app.js", "/t.js"};
    for (int i = 0; i < 3; ++i) {
      web::Resource resource;
      resource.hostname = hosts[i];
      resource.path = paths[i];
      if (i == 0) {
        resource.mode = web::RequestMode::kNavigation;
      } else {
        resource.parent = 0;
        resource.discovery_cpu_ms = 1.0;
      }
      page.resources.push_back(resource);
    }
    return page;
  }
};

struct Cell {
  double rate = 0;
  bool degraded = false;
  measure::RobustnessReport report;
  std::vector<double> success_plt_ms;
  std::uint64_t successes = 0;

  double success_rate() const {
    return static_cast<double>(successes) / kLoadsPerCell;
  }
  double median_plt_ms() const {
    if (success_plt_ms.empty()) return 0;
    std::vector<double> sorted = success_plt_ms;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
};

Cell run_cell(double rate, bool degraded, std::uint64_t seed) {
  Cell cell;
  cell.rate = rate;
  cell.degraded = degraded;
  for (std::size_t i = 0; i < kLoadsPerCell; ++i) {
    LoadWorld world;
    if (rate > 0) {
      world.injector = std::make_unique<netsim::FaultInjector>(
          netsim::FaultConfig::uniform(rate, seed + i));
      world.net.set_fault_injector(world.injector.get());
    }
    browser::LoaderOptions options;
    options.policy = "origin-frame";
    browser::DegradationOptions degradation;
    degradation.enabled = degraded;
    browser::WireClient client(world.env, world.net, options, degradation);
    browser::WireLoadResult result;
    client.load(LoadWorld::page(),
                [&](browser::WireLoadResult r) { result = std::move(r); });
    world.sim.run_until_idle();

    const double plt = result.har.page_load_time().as_millis();
    cell.report.add(result.robustness, result.har.success, plt);
    if (result.har.success) {
      ++cell.successes;
      cell.success_plt_ms.push_back(plt);
    }
  }
  return cell;
}

// Rounds as printf("%.Nf") does. The report carries completion rates at 4
// and median PLTs at 2 decimals, the precision of the committed baseline
// its gate compares against.
double fixed(double value, int decimals) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", decimals, value);
  return std::strtod(text, nullptr);
}

struct KillSwitchReplay {
  int loads_until_disabled = -1;
  std::uint64_t suppressed = 0;
  bool control_unaffected = false;
  bool suppressed_load_ok = false;
  bool reenabled = false;
};

KillSwitchReplay run_kill_switch_replay() {
  KillSwitchReplay replay;
  LoadWorld world;
  cdn::KillSwitchOptions options;
  options.window = 8;
  options.min_observations = 2;
  options.teardown_threshold = 0.5;
  options.probe_after = 4;
  cdn::OriginKillSwitch ks(options);
  world.cdn_server.set_origin_gate(
      [&ks](const std::string& tag) { return ks.should_send_origin(tag); });
  world.cdn_server.set_close_feedback(
      [&ks](const std::string& tag, bool origin_sent,
            const std::string& reason) {
        ks.record_outcome(tag, origin_sent, cdn::abnormal_close(reason));
      });
  world.net.install_middlebox(
      "affected", std::make_shared<h2::StrictFrameMiddlebox>());

  auto run_tagged = [&world](const std::string& tag) {
    browser::LoaderOptions options;
    options.policy = "origin-frame";
    options.network_tag = tag;
    browser::WireClient client(world.env, world.net, options,
                               browser::DegradationOptions{});
    browser::WireLoadResult result;
    client.load(LoadWorld::page(),
                [&](browser::WireLoadResult r) { result = std::move(r); });
    world.sim.run_until_idle();
    return result;
  };

  for (int i = 0; i < 8 && !ks.disabled("affected"); ++i) {
    (void)run_tagged("affected");
    auto control = run_tagged("control");
    replay.control_unaffected = control.har.success;
    replay.loads_until_disabled = i + 1;
  }
  auto suppressed_load = run_tagged("affected");
  replay.suppressed_load_ok =
      ks.disabled("affected") && suppressed_load.har.success;
  replay.suppressed = world.cdn_server.stats().origin_frames_suppressed;

  world.net.uninstall_middleboxes("affected");
  for (int i = 0; i < 8 && ks.disabled("affected"); ++i) {
    (void)run_tagged("affected");
  }
  replay.reenabled = !ks.disabled("affected") && ks.reenables() > 0;
  return replay;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  std::printf("== Fault ablation: completion and PLT vs injected fault rate ==\n");
  std::printf(
      "reproduces: no paper figure; robustness floor for the §6 wire "
      "experiments (fault model of §6.7's incident family)\n");
  std::printf("loads per cell: %zu, schedule seed %llu\n\n", kLoadsPerCell,
              static_cast<unsigned long long>(args.seed));

  std::vector<Cell> cells;
  for (double rate : kRates) {
    for (bool degraded : {false, true}) {
      cells.push_back(run_cell(rate, degraded, args.seed));
    }
  }

  origin::util::Table table({"fault rate", "degradation", "completion",
                             "median PLT (ms)", "retries", "torn down",
                             "avoided"});
  for (const Cell& cell : cells) {
    table.add_row({origin::util::format_pct(cell.rate, 0),
                   cell.degraded ? "on" : "off",
                   origin::util::format_pct(cell.success_rate(), 1),
                   origin::util::format_double(cell.median_plt_ms(), 1),
                   origin::util::format_count(cell.report.totals().retries),
                   origin::util::format_count(
                       cell.report.totals().connections_torn_down),
                   origin::util::format_count(
                       cell.report.totals().avoided_coalescings)});
  }
  std::fputs(table.render(2).c_str(), stdout);

  const Cell* five_on = nullptr;
  const Cell* five_off = nullptr;
  for (const Cell& cell : cells) {
    if (cell.rate == 0.05) (cell.degraded ? five_on : five_off) = &cell;
  }

  std::printf("\n-- degradation detail at the 5%% cell --\n");
  std::fputs(five_on->report.table().render(2).c_str(), stdout);

  auto replay = run_kill_switch_replay();
  std::printf("\n-- §6.7 kill-switch replay --\n");
  std::printf("  ORIGIN disabled for affected tag after %d load(s)\n",
              replay.loads_until_disabled);
  std::printf("  control tag unaffected: %s\n",
              replay.control_unaffected ? "yes" : "NO");
  std::printf("  suppressed-ORIGIN load succeeds behind the agent: %s\n",
              replay.suppressed_load_ok ? "yes" : "NO");
  std::printf("  ORIGIN frames suppressed: %llu\n",
              static_cast<unsigned long long>(replay.suppressed));
  std::printf("  re-enabled by probe after fix: %s\n",
              replay.reenabled ? "yes" : "NO");

  // Acceptance floor: ≥99% completion at 5% faults with degradation on,
  // and the degraded path must measurably beat the raw one.
  bool ok = true;
  if (five_on->success_rate() < 0.99) {
    std::fprintf(stderr,
                 "FAIL: completion at 5%% faults with degradation is %.1f%% "
                 "(floor: 99%%)\n",
                 100.0 * five_on->success_rate());
    ok = false;
  }
  if (five_on->success_rate() <= five_off->success_rate()) {
    std::fprintf(stderr,
                 "FAIL: degradation does not improve completion at 5%% "
                 "(%.1f%% vs %.1f%%)\n",
                 100.0 * five_on->success_rate(),
                 100.0 * five_off->success_rate());
    ok = false;
  }
  if (!replay.suppressed_load_ok || !replay.reenabled ||
      !replay.control_unaffected) {
    std::fprintf(stderr, "FAIL: kill-switch replay did not converge\n");
    ok = false;
  }

  util::Json::Array cell_array;
  for (const Cell& cell : cells) {
    const auto& totals = cell.report.totals();
    util::Json::Object entry;
    entry["rate"] = cell.rate;
    entry["degradation"] = cell.degraded;
    entry["completion_rate"] = fixed(cell.success_rate(), 4);
    entry["median_plt_ms"] = fixed(cell.median_plt_ms(), 2);
    entry["retries"] = totals.retries;
    entry["connections_torn_down"] = totals.connections_torn_down;
    entry["avoided_coalescings"] = totals.avoided_coalescings;
    entry["deadline_expirations"] = totals.deadline_expirations;
    cell_array.push_back(util::Json(std::move(entry)));
  }
  util::Json::Object kill_switch;
  kill_switch["disabled_after_loads"] = replay.loads_until_disabled;
  kill_switch["control_unaffected"] = replay.control_unaffected;
  kill_switch["suppressed_load_ok"] = replay.suppressed_load_ok;
  kill_switch["origin_frames_suppressed"] = replay.suppressed;
  kill_switch["reenabled"] = replay.reenabled;
  util::Json::Object doc;
  doc["bench"] = "faults";
  doc["seed"] = args.seed;
  doc["loads_per_cell"] = kLoadsPerCell;
  doc["peak_rss_bytes"] = bench::peak_rss_bytes();
  doc["cells"] = util::Json(std::move(cell_array));
  doc["kill_switch"] = util::Json(std::move(kill_switch));
  return bench::publish(util::Json(std::move(doc)), ok, bench::kFaultsGate);
}
