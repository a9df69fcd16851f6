// Ablation: PoP overload protection under an abusive client mix at 2x the
// admission capacity.
//
// Each world offers the serving stack twice its session capacity: a batch
// of staggered well-behaved page loads (degradation enabled, so admission
// refusals retry) plus the ORIGIN_ABUSE_MIX attacker set from h2/abuse.h.
// Cells toggle the defenses (per-session budgets + deadline sweep +
// admission control) and the attack itself:
//
//   defenses off, clean    baseline PLT for the well-behaved load
//   defenses off, attack   attackers pin sessions forever (slowloris) and
//                          the server absorbs their full frame schedule
//   defenses on,  clean    armed defenses must not tax normal traffic
//   defenses on,  attack   every attacker shed with a distinct reason,
//                          nothing pinned, well-behaved loads unaffected
//
// Every cell runs its worlds across a thread pool at 1 and 8 threads; the
// concatenated per-world server ledgers (Stats::serialize) must be
// byte-identical — the determinism contract extended to every overload
// counter and close reason.
//
// Emits BENCH_overload.json through bench/report.h, which gates the
// defended p99 under attack against the committed copy (see the gate table
// there). Exit status is also nonzero if:
//   * well-behaved completion under attack with defenses on drops
//     below 99%;
//   * any attacker survives the armed defenses, or any session stays
//     pinned at idle;
//   * defenses off fails to show the damage (no pinned sessions means the
//     ablation proves nothing);
//   * p99 well-behaved PLT under attack exceeds the bound;
//   * the ledgers differ across thread counts.
//
// Env: ORIGIN_ABUSE_MIX overrides the attacker mix; --seed sets the
// schedule seed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "browser/environment.h"
#include "browser/wire_client.h"
#include "cdn/admission.h"
#include "h2/abuse.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "report.h"
#include "server/http2_server.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace origin;
using dns::IpAddress;
using origin::util::Duration;

constexpr std::size_t kWorldsPerCell = 10;
constexpr std::size_t kGoodClients = 8;
// Admission capacity; the offered load (good clients + attackers) is 2x.
constexpr std::size_t kCapacity = 8;
constexpr double kP99BoundMs = 2000.0;

server::OverloadConfig armed_defenses() {
  server::OverloadConfig overload;
  overload.enabled = true;
  // Tighter reaping than the 30s default keeps each world's simulated
  // horizon short without changing any shed decision.
  overload.stall_timeout = Duration::seconds(5);
  overload.sweep_interval = Duration::seconds(1);
  return overload;
}

cdn::AdmissionOptions pop_admission() {
  cdn::AdmissionOptions options;
  options.max_sessions = kCapacity;
  options.window = 8;
  options.min_observations = 2;
  options.abusive_threshold = 0.5;
  options.probe_after = 4;
  return options;
}

h2::AbuseMix abuse_mix() {
  std::string text =
      "rapid_reset=2,header_bomb=1,ping_flood=2,settings_flood=1,slowloris=2";
  if (const char* env_mix = std::getenv("ORIGIN_ABUSE_MIX")) text = env_mix;
  auto mix = h2::AbuseMix::parse(text);
  if (!mix.ok()) {
    std::fprintf(stderr, "bad ORIGIN_ABUSE_MIX: %s\n",
                 mix.error().message.c_str());
    std::exit(1);
  }
  return *mix;
}

// Per-world outcome, aggregated per cell in world-index order so the
// rollup is independent of the thread schedule.
struct WorldResult {
  std::uint64_t good_successes = 0;
  std::vector<double> good_plt_ms;
  std::size_t attackers = 0;
  std::size_t attackers_shed = 0;
  std::uint64_t attacker_frames = 0;
  std::size_t pinned_sessions = 0;
  std::string ledger;
};

WorldResult run_world(bool defenses, bool attack, const h2::AbuseMix& mix,
                      std::uint64_t seed) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  browser::Environment env;

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
  if (defenses) config.overload = armed_defenses();
  server::Http2Server server(config);
  server.set_certificate(cert);
  auto body = [](const char* text) {
    return [text](std::string_view) {
      server::Response response;
      response.body = origin::util::from_string(text);
      return response;
    };
  };
  server.add_vhost("www.site.com", body("<html>base</html>"));
  server.add_vhost("static.site.com", body("body{}"));
  server.listen(net, IpAddress::v4(0x0A000001));

  cdn::AdmissionController admission(pop_admission());
  if (defenses) {
    server.set_admission_gate(
        [&admission](const std::string& tag) { return admission.admit(tag); });
    server.set_admission_feedback(
        [&admission](const std::string& tag, const std::string& reason) {
          admission.record_close(tag, reason);
        });
  }

  web::Webpage page;
  page.tranco_rank = 7;
  page.base_hostname = "www.site.com";
  web::Resource base;
  base.hostname = "www.site.com";
  base.path = "/";
  base.mode = web::RequestMode::kNavigation;
  page.resources.push_back(base);
  for (int i = 0; i < 3; ++i) {
    web::Resource sub;
    sub.hostname = "static.site.com";
    sub.path = "/asset" + std::to_string(i) + ".css";
    sub.parent = 0;
    sub.discovery_cpu_ms = 1.0;
    page.resources.push_back(sub);
  }

  // Attackers land first (staggered from 2ms) so the well-behaved loads
  // contend with a PoP already at capacity.
  std::vector<std::unique_ptr<h2::AbusiveClient>> attackers;
  if (attack) {
    std::size_t i = 0;
    for (h2::AbuseKind kind : mix.expand()) {
      attackers.push_back(std::make_unique<h2::AbusiveClient>(
          net, kind, seed * 1000 + i));
      auto* attacker = attackers.back().get();
      const auto start_at = Duration::millis(2.0 + static_cast<double>(i));
      sim.schedule(start_at, [attacker]() {
        attacker->start(IpAddress::v4(0x0A000001));
      });
      ++i;
    }
  }

  std::vector<std::unique_ptr<browser::WireClient>> clients;
  std::vector<browser::WireLoadResult> results(kGoodClients);
  std::vector<bool> done(kGoodClients, false);
  for (std::size_t i = 0; i < kGoodClients; ++i) {
    browser::LoaderOptions options;
    options.policy = "origin-frame";
    options.network_tag = "user" + std::to_string(i);
    browser::DegradationOptions degradation;
    degradation.enabled = true;
    clients.push_back(std::make_unique<browser::WireClient>(
        env, net, options, degradation));
    auto* client = clients.back().get();
    auto* result = &results[i];
    // std::vector<bool> hands out proxies, not bool*; capture the index.
    sim.schedule(Duration::millis(static_cast<double>(i) * 20.0),
                 [client, page, result, &done, i]() {
                   client->load(page, [result, &done, i](
                                          browser::WireLoadResult r) {
                     *result = std::move(r);
                     done[i] = true;
                   });
                 });
  }
  sim.run_until_idle();

  WorldResult world;
  for (std::size_t i = 0; i < kGoodClients; ++i) {
    if (done[i] && results[i].har.success) {
      ++world.good_successes;
      world.good_plt_ms.push_back(results[i].har.page_load_time().as_millis());
    }
  }
  world.attackers = attackers.size();
  for (const auto& attacker : attackers) {
    if (attacker->shed()) ++world.attackers_shed;
    world.attacker_frames += attacker->frames_sent();
  }
  world.pinned_sessions = server.live_sessions();
  world.ledger = server.stats().serialize();
  return world;
}

struct Cell {
  bool defenses = false;
  bool attack = false;
  std::uint64_t good_successes = 0;
  std::size_t good_loads = 0;
  std::vector<double> plts;
  std::size_t attackers = 0;
  std::size_t attackers_shed = 0;
  std::uint64_t attacker_frames = 0;
  std::size_t pinned_sessions = 0;
  std::string ledger;

  double completion() const {
    return good_loads == 0
               ? 0.0
               : static_cast<double>(good_successes) /
                     static_cast<double>(good_loads);
  }
  double percentile_ms(double p) const {
    if (plts.empty()) return 0.0;
    std::vector<double> sorted = plts;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
};

Cell run_cell(bool defenses, bool attack, const h2::AbuseMix& mix,
              std::uint64_t seed, std::size_t threads) {
  Cell cell;
  cell.defenses = defenses;
  cell.attack = attack;
  std::vector<WorldResult> worlds(kWorldsPerCell);
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(kWorldsPerCell, [&](std::size_t i) {
    worlds[i] = run_world(defenses, attack, mix, seed + i);
  });
  // Aggregate in index order: the rollup (and the ledger string the
  // determinism gate compares) is independent of the thread schedule.
  for (std::size_t i = 0; i < kWorldsPerCell; ++i) {
    const WorldResult& world = worlds[i];
    cell.good_successes += world.good_successes;
    cell.good_loads += kGoodClients;
    cell.plts.insert(cell.plts.end(), world.good_plt_ms.begin(),
                     world.good_plt_ms.end());
    cell.attackers += world.attackers;
    cell.attackers_shed += world.attackers_shed;
    cell.attacker_frames += world.attacker_frames;
    cell.pinned_sessions += world.pinned_sessions;
    cell.ledger += "# world " + std::to_string(i) + "\n" + world.ledger;
  }
  return cell;
}

std::vector<Cell> run_all(const h2::AbuseMix& mix, std::uint64_t seed,
                          std::size_t threads) {
  std::vector<Cell> cells;
  for (bool defenses : {false, true}) {
    for (bool attack : {false, true}) {
      cells.push_back(run_cell(defenses, attack, mix, seed, threads));
    }
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const h2::AbuseMix mix = abuse_mix();

  std::printf("== Overload ablation: PoP under abuse at 2x capacity ==\n");
  std::printf(
      "reproduces: no paper figure; serving-stack robustness floor for the "
      "§5 deployment machinery\n");
  std::printf("worlds per cell: %zu, good loads per world: %zu, capacity: "
              "%zu, mix: %s, seed %llu\n\n",
              kWorldsPerCell, kGoodClients, kCapacity,
              mix.serialize().c_str(),
              static_cast<unsigned long long>(args.seed));

  auto cells = run_all(mix, args.seed, /*threads=*/8);
  const auto serial = run_all(mix, args.seed, /*threads=*/1);
  bool deterministic = cells.size() == serial.size();
  for (std::size_t i = 0; deterministic && i < cells.size(); ++i) {
    deterministic = cells[i].ledger == serial[i].ledger;
  }

  std::printf("%-10s %-8s %-11s %-10s %-10s %-7s %-13s %-7s\n", "defenses",
              "attack", "completion", "p50 (ms)", "p99 (ms)", "shed",
              "abuse frames", "pinned");
  for (const Cell& cell : cells) {
    std::printf("%-10s %-8s %-11.4f %-10.1f %-10.1f %zu/%-5zu %-13llu %zu\n",
                cell.defenses ? "on" : "off", cell.attack ? "yes" : "no",
                cell.completion(), cell.percentile_ms(0.5),
                cell.percentile_ms(0.99), cell.attackers_shed, cell.attackers,
                static_cast<unsigned long long>(cell.attacker_frames),
                cell.pinned_sessions);
  }
  std::printf("\nledgers byte-identical at 1 vs 8 threads: %s\n",
              deterministic ? "yes" : "NO");

  const Cell* off_attack = &cells[1];
  const Cell* on_attack = &cells[3];

  util::Json::Object doc;
  doc["bench"] = "overload";
  doc["seed"] = args.seed;
  doc["mix"] = mix.serialize();
  doc["worlds_per_cell"] = kWorldsPerCell;
  doc["good_loads_per_world"] = kGoodClients;
  doc["capacity"] = kCapacity;
  util::Json::Array cell_array;
  for (const Cell& cell : cells) {
    util::Json::Object entry;
    entry["defenses"] = cell.defenses;
    entry["attack"] = cell.attack;
    entry["completion_rate"] = cell.completion();
    entry["p50_plt_ms"] = cell.percentile_ms(0.5);
    entry["p99_plt_ms"] = cell.percentile_ms(0.99);
    entry["attackers_shed"] = static_cast<std::uint64_t>(cell.attackers_shed);
    entry["attackers"] = static_cast<std::uint64_t>(cell.attackers);
    entry["attacker_frames_absorbed"] = cell.attacker_frames;
    entry["pinned_sessions"] = static_cast<std::uint64_t>(
        cell.pinned_sessions);
    cell_array.push_back(util::Json(std::move(entry)));
  }
  doc["cells"] = util::Json(std::move(cell_array));
  doc["defended_attack_completion"] = on_attack->completion();
  doc["defended_attack_p99_ms"] = on_attack->percentile_ms(0.99);
  doc["deterministic_across_threads"] = deterministic;
  doc["peak_rss_bytes"] = bench::peak_rss_bytes();

  bool passed = true;
  if (on_attack->completion() < 0.99) {
    std::fprintf(stderr,
                 "FAIL: defended completion under attack is %.2f%% "
                 "(floor: 99%%)\n",
                 100.0 * on_attack->completion());
    passed = false;
  }
  if (on_attack->attackers_shed != on_attack->attackers) {
    std::fprintf(stderr, "FAIL: only %zu/%zu attackers shed\n",
                 on_attack->attackers_shed, on_attack->attackers);
    passed = false;
  }
  if (on_attack->pinned_sessions != 0) {
    std::fprintf(stderr, "FAIL: %zu sessions still pinned with defenses on\n",
                 on_attack->pinned_sessions);
    passed = false;
  }
  if (off_attack->pinned_sessions == 0) {
    std::fprintf(stderr,
                 "FAIL: defenses-off cell pinned no sessions — the ablation "
                 "shows no damage to defend against\n");
    passed = false;
  }
  if (on_attack->percentile_ms(0.99) > kP99BoundMs) {
    std::fprintf(stderr,
                 "FAIL: defended p99 PLT under attack is %.1fms "
                 "(bound: %.0fms)\n",
                 on_attack->percentile_ms(0.99), kP99BoundMs);
    passed = false;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: ledgers differ across thread counts\n");
    passed = false;
  }
  return bench::publish(util::Json(std::move(doc)), passed,
                        bench::kOverloadGate);
}
