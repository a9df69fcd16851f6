// Every paper table, figure and ablation, as sections of one run.
//
// The run builds the corpus once and collects it once with the §3 vantage
// (chromium-ip); that collect's sink feeds every section that reads the
// unchanged world: the dataset tables, the §4 model and planner figures,
// Fig 9's model predictions and the privacy, secondary-certificate and CT
// ablations. One Deployment::prepare() then serves the §5 deployment
// figures. prepare() reissues certificates, so nothing it changes may feed
// an unchanged-world section: those all read the collect made before it.
// The policy ablation rewrites services and certificates, so it builds a
// second corpus of its own.
//
// The §6.7 middlebox ablation and the two robustness ablations that close
// the run (faults, then overload) load pages over the wire from one
// hand-built CDN PoP (SiteWorld) instead of the corpus. The robustness
// ablations make in-run checks, and print_paper reports whether they held.
#include "paper.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "cdn/admission.h"
#include "cdn/deployment.h"
#include "cdn/kill_switch.h"
#include "ct/ct_log.h"
#include "dataset/catalog.h"
#include "h2/abuse.h"
#include "h2/middleboxes.h"
#include "h2/secondary_certs.h"
#include "model/cert_planner.h"
#include "model/coalescing_model.h"
#include "netsim/faults.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "tls/ca.h"
#include "tls/handshake.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace origin::bench {
namespace {

// Corpus build, collects and the longitudinal run all take `threads = 0`
// (ORIGIN_THREADS); each is bit-identical at any thread count.
dataset::Corpus make_corpus(const Args& args) {
  dataset::CorpusOptions options;
  options.site_count = args.sites;
  options.seed = args.seed;
  options.threads = 0;
  return dataset::Corpus(options);
}

dataset::CollectOptions collect_options(const char* policy) {
  dataset::CollectOptions options = chrome_collect_options();
  options.loader.policy = policy;
  options.threads = 0;
  return options;
}

void print_table(std::FILE* out, const util::Table& table) {
  std::fputs(table.render().c_str(), out);
}

std::vector<std::string> quartile_row(const char* name,
                                      const std::vector<double>& v) {
  auto s = util::summarize(v);
  return {name, util::format_double(s.p25, 0), util::format_double(s.median, 0),
          util::format_double(s.p75, 0), util::format_double(s.p90, 0)};
}

util::Histogram histogram(const std::vector<double>& v) {
  util::Histogram h;
  for (double x : v) h.add(static_cast<std::int64_t>(x));
  return h;
}

// What the one collect of the unchanged world yields, one entry per page.
struct World {
  measure::DatasetReport report;
  // The §4 model at AS grouping.
  std::vector<double> measured_dns, measured_tls, ip_dns, ip_tls, origin_dns,
      origin_tls, measured_validations, origin_validations;
  // Fig 9 top: page load times, measured and reconstructed.
  std::vector<double> measured_plt, ideal_ip_plt, ideal_origin_plt,
      cdn_only_plt;
  // The ideal ORIGIN counts at service and provider grouping.
  std::vector<double> service_dns, service_tls, provider_dns, provider_tls;
  model::PlannerAggregate asn_plans;       // AS-grouped certificate plans
  model::PlannerAggregate provider_plans;  // provider-grouped (Table 9)
  // Per site needing changes: its additions priced as SAN bytes and as
  // secondary CERTIFICATE frames.
  std::vector<double> san_delta_bytes, frame_bytes, additions;
};

World collect_world(dataset::Corpus& corpus) {
  World w;
  const browser::Environment& env = corpus.env();
  model::CoalescingModel asn_model(env);
  model::CoalescingModel service_model(env, model::Grouping::kService);
  model::CoalescingModel provider_model(env, model::Grouping::kProvider);
  model::CertPlanner asn_planner(env, model::Grouping::kAsn);
  model::CertPlanner provider_planner(env, model::Grouping::kProvider);
  tls::CertificateAuthority frame_ca("Secondary Frame CA", 0xF0CA, 10'000);
  // The deployment CDN's AS (Cloudflare in the paper).
  const std::string cdn_group = "as13335";

  auto push = [](std::vector<double>& v, std::size_t x) {
    v.push_back(static_cast<double>(x));
  };
  dataset::collect(
      corpus, collect_options("chromium-ip"),
      [&](const dataset::SiteInfo& site, const web::PageLoad& load) {
        w.report.add(site, load);

        auto analysis = asn_model.analyze(load);
        push(w.measured_dns, analysis.measured_dns);
        push(w.measured_tls, analysis.measured_tls);
        push(w.ip_dns, analysis.ideal_ip_dns);
        push(w.ip_tls, analysis.ideal_ip_tls);
        push(w.origin_dns, analysis.ideal_origin_dns);
        push(w.origin_tls, analysis.ideal_origin_tls);
        push(w.measured_validations, analysis.measured_validations);
        push(w.origin_validations, analysis.ideal_origin_validations);

        w.measured_plt.push_back(load.page_load_time().as_millis());
        w.ideal_origin_plt.push_back(asn_model.reconstruct(load, analysis)
                                         .page_load_time()
                                         .as_millis());
        w.cdn_only_plt.push_back(
            asn_model.reconstruct(load, analysis, cdn_group)
                .page_load_time()
                .as_millis());
        // Ideal IP: reconstruct using the IP-coalescable flags.
        auto ip_analysis = analysis;
        for (auto& entry : ip_analysis.entries) {
          entry.coalescable_origin = entry.coalescable_ip;
        }
        w.ideal_ip_plt.push_back(asn_model.reconstruct(load, ip_analysis)
                                     .page_load_time()
                                     .as_millis());

        const auto by_service = service_model.analyze(load);
        push(w.service_dns, by_service.ideal_origin_dns);
        push(w.service_tls, by_service.ideal_origin_tls);
        const auto by_provider = provider_model.analyze(load);
        push(w.provider_dns, by_provider.ideal_origin_dns);
        push(w.provider_tls, by_provider.ideal_origin_tls);

        const auto plan = asn_planner.plan(load);
        w.asn_plans.add(env, plan, site.provider);
        w.provider_plans.add(env, provider_planner.plan(load), site.provider);

        if (!plan.needs_change()) return;
        const auto* service = env.find_service(site.domain);
        if (service == nullptr || service->certificate == nullptr) return;
        const tls::Certificate& cert = *service->certificate;
        // Strategy A: reissue with the additions appended.
        std::size_t enlarged = cert.size_bytes();
        for (const auto& name : plan.additions) enlarged += name.size() + 4;
        push(w.san_delta_bytes, enlarged - cert.size_bytes());
        // Strategy B: one secondary certificate per added origin.
        std::size_t total = 0;
        for (const auto& name : plan.additions) {
          auto secondary = frame_ca.issue(
              name, {name}, origin::util::SimTime::from_micros(0));
          if (secondary.ok()) {
            total += h2::certificate_frame_wire_size(*secondary);
          }
        }
        push(w.frame_bytes, total);
        push(w.additions, plan.additions.size());
      });
  return w;
}

// ---------------------------------------------------------------------------
// §3: Tables 1–7 and Fig 1, the dataset characterization.

void dataset_tables(std::FILE* out, const Args& args,
                    const measure::DatasetReport& report) {
  print_header("Table 1: dataset summary by Tranco rank bucket",
               "Table 1 (median #Reqs 89/83/80/79/78, PLT ~5746ms, "
               "#DNS 14, #TLS 16 overall)",
               args, out);
  print_table(out, report.table1_summary());
  std::fprintf(out,
               "\npaper reference row: Total 315,796 | #Reqs 81 | PLT "
               "5746.0 | #DNS 14 | #TLS 16  (mean #Reqs 113, PLT 8088)\n");

  print_header("Table 2: top destination ASes by request share",
               "Table 2 (Google 22.10%, Cloudflare 13.75%, Amazon-02 "
               "8.40%; top-10 total 63.68%)",
               args, out);
  print_table(out, report.table2_ases());
  std::fprintf(out, "\ntotal requests: %s (paper: 35,882,587)\n",
               util::format_count(report.total_requests()).c_str());

  print_header("Table 3: request protocol mix",
               "Table 3 (HTTP/2 73.64%, HTTP/1.1 19.09%, N/A 6.80%; "
               "secure 98.53%)",
               args, out);
  print_table(out, report.table3_protocols());

  print_header("Table 4: certificate issuers by validation count",
               "Table 4 (GTS 25.86%, LE R3 9.58%, Amazon 9.15%, CF ECC "
               "CA-3 7.61%; validations = 16.24% of requests)",
               args, out);
  print_table(out, report.table4_issuers());

  print_header("Table 5: requests by content type",
               "Table 5 (js 14.26%, jpeg 13.02%, png 10.67%, html "
               "10.32%, gif 8.97%, css 7.79%)",
               args, out);
  print_table(out, report.table5_content_types());

  print_header(
      "Table 6: top content types within the top ASes",
      "Table 6 (Google: text/javascript 21.69%, html 14.39%; Cloudflare: "
      "application/javascript 22.32%, jpeg 19.43%)",
      args, out);
  print_table(out, report.table6_as_content());

  print_header("Table 7: top subresource hostnames",
               "Table 7 (fonts.gstatic.com 2.23%, google-analytics "
               "1.67%, facebook 1.58%; top-10 = 12.5% of requests)",
               args, out);
  print_table(out, report.table7_hostnames());

  print_header(
      "Figure 1: unique ASes contacted per page load",
      "Fig 1 (6.5% single-AS pages; largest bin 14% at 2 ASes; CDF crosses "
      "0.5 at 6 ASes)",
      args, out);
  print_table(out, report.fig1_unique_ases());
}

// ---------------------------------------------------------------------------
// §4: the coalescing model and the certificate planner.

// Fig 3: measured DNS queries and TLS connections per page against the
// ideal IP-based and ideal ORIGIN-based predictions, plus the §4.2
// certificate-validation reductions.
void fig3(std::FILE* out, const Args& args, const World& w) {
  print_header(
      "Figure 3: measured vs ideal coalescing (DNS queries, TLS connections)",
      "Fig 3 (measured medians DNS 14 / TLS 16; ideal IP 13/13; ideal ORIGIN "
      "5/5 => -64% DNS, -67% TLS; validations p75 30 -> 9)",
      args, out);
  util::Table table({"Series", "p25", "median", "p75", "p90"});
  table.add_row(quartile_row("Measured DNS Requests", w.measured_dns));
  table.add_row(quartile_row("Measured TLS Requests", w.measured_tls));
  table.add_row(quartile_row("Ideal Modelled IP Coalescing (DNS)", w.ip_dns));
  table.add_row(quartile_row("Ideal Modelled IP Coalescing (TLS)", w.ip_tls));
  table.add_row(
      quartile_row("Ideal Modelled Origin Coalescing (DNS)", w.origin_dns));
  table.add_row(
      quartile_row("Ideal Modelled Origin Coalescing (TLS)", w.origin_tls));
  table.add_row(
      quartile_row("Measured Cert Validations", w.measured_validations));
  table.add_row(
      quartile_row("Ideal Origin Cert Validations", w.origin_validations));
  print_table(out, table);

  const double dns_med = util::percentile(w.measured_dns, 50);
  const double tls_med = util::percentile(w.measured_tls, 50);
  const double odns_med = util::percentile(w.origin_dns, 50);
  const double otls_med = util::percentile(w.origin_tls, 50);
  const double ipdns_med = util::percentile(w.ip_dns, 50);
  const double iptls_med = util::percentile(w.ip_tls, 50);
  std::fprintf(
      out,
      "\nmedian reductions vs measured:\n"
      "  ideal IP:     DNS %.0f -> %.0f (%.0f%%), TLS %.0f -> %.0f (%.0f%%)"
      "   [paper: ~7%% DNS, ~19%% TLS]\n"
      "  ideal ORIGIN: DNS %.0f -> %.0f (%.0f%%), TLS %.0f -> %.0f (%.0f%%)"
      "   [paper: ~64%% DNS, ~67%% TLS]\n",
      dns_med, ipdns_med, 100.0 * (1.0 - ipdns_med / dns_med), tls_med,
      iptls_med, 100.0 * (1.0 - iptls_med / tls_med), dns_med, odns_med,
      100.0 * (1.0 - odns_med / dns_med), tls_med, otls_med,
      100.0 * (1.0 - otls_med / tls_med));

  auto mv = util::summarize(w.measured_validations);
  auto ov = util::summarize(w.origin_validations);
  std::fprintf(
      out,
      "validations: median %.0f -> %.0f, IQR %.0f -> %.0f, p75 %.0f -> %.0f "
      "(%.2f%% reduction)   [paper: IQR 22 -> 6, p75 30 -> 9 (76.67%%)]\n",
      mv.median, ov.median, mv.iqr(), ov.iqr(), mv.p75, ov.p75,
      100.0 * (1.0 - ov.p75 / mv.p75));

  std::fprintf(out, "\nCDF (TLS connections, 0..40):\n");
  std::fprintf(out, "  measured      |%s|\n",
               util::Cdf::from(w.measured_tls).ascii(0, 40).c_str());
  std::fprintf(out, "  ideal IP      |%s|\n",
               util::Cdf::from(w.ip_tls).ascii(0, 40).c_str());
  std::fprintf(out, "  ideal ORIGIN  |%s|\n",
               util::Cdf::from(w.origin_tls).ascii(0, 40).c_str());
}

// Fig 4: CDF of DNS SAN names in existing certificates vs the planner's
// ideal certificates (§4.3).
void fig4(std::FILE* out, const Args& args,
          const model::PlannerAggregate& aggregate) {
  print_header(
      "Figure 4: SAN entries in existing vs ideal certificates",
      "Fig 4 (median shifts 2 -> 3; p75 3 -> 7; long tail above the 94th "
      "percentile; ~3% of sites have no SAN extension)",
      args, out);
  auto existing = util::summarize(aggregate.existing_san_counts);
  auto ideal = util::summarize(aggregate.ideal_san_counts);
  util::Table table({"Distribution", "p25", "median", "p75", "p90", "p99", "max"});
  auto row = [](const char* name, const util::Summary& s) {
    return std::vector<std::string>{name,
                                    util::format_double(s.p25, 0),
                                    util::format_double(s.median, 0),
                                    util::format_double(s.p75, 0),
                                    util::format_double(s.p90, 0),
                                    util::format_double(s.p99, 0),
                                    util::format_double(s.max, 0)};
  };
  table.add_row(row("Existing Certificates", existing));
  table.add_row(row("Ideal Certificates", ideal));
  print_table(out, table);

  util::Cdf excdf = util::Cdf::from(aggregate.existing_san_counts);
  util::Cdf idcdf = util::Cdf::from(aggregate.ideal_san_counts);
  std::fprintf(out, "\nCDF points (value: existing / ideal):\n");
  for (double x : {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 40.0}) {
    std::fprintf(out, "  <=%4.0f SANs: %.3f / %.3f\n", x, excdf.at(x),
                 idcdf.at(x));
  }
  std::fprintf(
      out,
      "\nno-SAN certificates: %zu (%s of sites; paper: 11,131 = ~3%%), of "
      "which %zu need changes (paper: 2)\n",
      aggregate.no_san_sites,
      util::format_pct(static_cast<double>(aggregate.no_san_sites) /
                       static_cast<double>(aggregate.sites))
          .c_str(),
      aggregate.no_san_needing_change);
}

// Fig 5: websites ranked by existing SAN size, with the per-certificate
// change counts and resulting ideal sizes (§4.3).
void fig5(std::FILE* out, const Args& args,
          const model::PlannerAggregate& aggregate) {
  print_header(
      "Figure 5: ranked SAN-size tail, existing vs ideal",
      "Fig 5 (62.41% of certs need no modification; 92.66% coalesce with "
      "<=10 changes; ~1% need >78 additions; >250-SAN certs grow 230 -> 529; "
      "max 1951)",
      args, out);
  const std::size_t n = aggregate.sites;
  std::vector<std::size_t> changes = aggregate.additions_per_site;
  std::sort(changes.begin(), changes.end());
  auto frac_with_changes_at_most = [&](std::size_t k) {
    auto it = std::upper_bound(changes.begin(), changes.end(), k);
    return static_cast<double>(it - changes.begin()) / static_cast<double>(n);
  };

  std::fprintf(out, "sites: %zu\n", n);
  std::fprintf(out, "no modification needed: %zu (%s)   [paper: 62.41%%]\n",
               aggregate.unchanged_sites,
               util::format_pct(static_cast<double>(aggregate.unchanged_sites) /
                                static_cast<double>(n))
                   .c_str());
  std::fprintf(out, "<=10 additions: %s   [paper: 92.66%%]\n",
               util::format_pct(frac_with_changes_at_most(10)).c_str());
  std::fprintf(out, ">78 additions: %s   [paper: ~1%%]\n",
               util::format_pct(1.0 - frac_with_changes_at_most(78)).c_str());

  auto count_over = [](const std::vector<double>& v, double threshold) {
    return std::count_if(v.begin(), v.end(),
                         [=](double x) { return x > threshold; });
  };
  std::fprintf(
      out,
      ">250-SAN certificates: %td existing -> %td ideal   [paper: 230 -> 529 "
      "(+130%%)]\n",
      count_over(aggregate.existing_san_counts, 250),
      count_over(aggregate.ideal_san_counts, 250));
  std::fprintf(out, "largest ideal certificate: %.0f SANs   [paper: 1951]\n",
               util::summarize(aggregate.ideal_san_counts).max);

  // The ranked tail itself (log-spaced ranks).
  std::vector<double> existing_sorted = aggregate.existing_san_counts;
  std::sort(existing_sorted.rbegin(), existing_sorted.rend());
  std::vector<double> ideal_sorted = aggregate.ideal_san_counts;
  std::sort(ideal_sorted.rbegin(), ideal_sorted.rend());
  util::Table table({"Rank", "Existing SANs", "Ideal SANs"});
  for (std::size_t rank = 1; rank < n; rank *= 4) {
    table.add_row({std::to_string(rank),
                   util::format_double(existing_sorted[rank - 1], 0),
                   util::format_double(ideal_sorted[rank - 1], 0)});
  }
  std::fprintf(out, "\n%s", table.render().c_str());
}

// Table 8: the top-10 SAN-count bins before and after the planner's
// additions, with rank movements.
void table8(std::FILE* out, const Args& args,
            const model::PlannerAggregate& aggregate) {
  print_header(
      "Table 8: distribution of SAN counts, measured vs ideal",
      "Table 8 (measured head: 2:143037, 3:73124, 1:30278, 0:11131; ideal "
      "head keeps 2 and 3 on top; 81.94% of sites end with <=11 SANs)",
      args, out);
  util::Histogram measured = histogram(aggregate.existing_san_counts);
  util::Histogram ideal = histogram(aggregate.ideal_san_counts);
  auto measured_ranked = measured.by_count_desc();
  auto ideal_ranked = ideal.by_count_desc();

  util::Table table({"Rank", "Measured #SANs", "Count", "Ideal #SANs",
                     "Count", "Pct. Change"});
  for (std::size_t i = 0; i < 10; ++i) {
    std::string m_bin = "-", m_count = "-", i_bin = "-", i_count = "-",
                change = "-";
    if (i < measured_ranked.size()) {
      m_bin = std::to_string(measured_ranked[i].first);
      m_count = util::format_count(measured_ranked[i].second);
    }
    if (i < ideal_ranked.size()) {
      i_bin = std::to_string(ideal_ranked[i].first);
      i_count = util::format_count(ideal_ranked[i].second);
      const auto before = measured.count(ideal_ranked[i].first);
      if (before > 0) {
        change = util::format_double(
                     100.0 * (static_cast<double>(ideal_ranked[i].second) -
                              static_cast<double>(before)) /
                         static_cast<double>(before),
                     1) +
                 "%";
      }
    }
    table.add_row({std::to_string(i + 1), m_bin, m_count, i_bin, i_count,
                   change});
  }
  print_table(out, table);

  std::uint64_t ideal_le11 = 0;
  for (const auto& [bin, count] : ideal.cells()) {
    if (bin <= 11) ideal_le11 += count;
  }
  std::fprintf(out, "\nsites with <=11 ideal SANs: %s   [paper: 81.94%%]\n",
               util::format_pct(static_cast<double>(ideal_le11) /
                                static_cast<double>(ideal.total()))
                   .c_str());
}

// Table 9: for the top hosting providers, the most frequently needed SAN
// additions — the "least-effort" certificate changes (§4.3). Provider
// grouping: Table 9 aggregates per organization, not per AS.
void table9(std::FILE* out, const Args& args,
            model::PlannerAggregate& aggregate) {
  print_header(
      "Table 9: top hostnames to add per hosting provider",
      "Table 9 (Cloudflare hosts 24.74% of sites, cdnjs.cloudflare.com "
      "wanted by 16.21% of them; Amazon 7.75%; Google 5.09% with "
      "google-analytics at 85.68%)",
      args, out);
  util::Table table({"Provider", "#Sites", "%", "Hostname", "Count", "%"});
  for (const std::string provider : {"Cloudflare", "Amazon 02", "Google"}) {
    const std::size_t provider_sites = aggregate.provider_site_counts[provider];
    auto additions = aggregate.provider_addition_counts[provider];
    std::vector<std::pair<std::string, std::size_t>> ranked(additions.begin(),
                                                            additions.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
      table.add_row(
          {i == 0 ? provider : "",
           i == 0 ? util::format_count(provider_sites) : "",
           i == 0 ? util::format_pct(static_cast<double>(provider_sites) /
                                     static_cast<double>(aggregate.sites))
                  : "",
           ranked[i].first, util::format_count(ranked[i].second),
           util::format_pct(static_cast<double>(ranked[i].second) /
                            static_cast<double>(provider_sites))});
    }
  }
  print_table(out, table);
}

// ---------------------------------------------------------------------------
// §5: the deployment experiments, on one prepared sample.

// Fig 6: the byte-equalized certificate issuance (§5.1). Every experiment
// certificate gains the third-party domain; every control certificate
// gains an unused domain of identical byte length, so both groups'
// handshakes grow identically.
void fig6(std::FILE* out, const Args& args, dataset::Corpus& corpus,
          const cdn::Deployment& deployment, std::size_t enrolled) {
  print_header(
      "Figure 6: experiment setup — byte-equalized certificate issuance",
      "Fig 6 (LenBytes(third party) == LenBytes(control pad); 5000 domains, "
      "~22% dropped as subpage-only)",
      args, out);
  std::fprintf(out, "third-party domain: %s (%zu bytes)\n",
               deployment.third_party().c_str(),
               deployment.third_party().size());
  std::fprintf(out, "control pad domain: %s (%zu bytes)\n",
               deployment.control_pad_domain().c_str(),
               deployment.control_pad_domain().size());
  std::fprintf(out, "byte lengths equal: %s\n",
               deployment.third_party().size() ==
                       deployment.control_pad_domain().size()
                   ? "yes"
                   : "NO — INVALID SETUP");
  std::fprintf(
      out,
      "enrolled: %zu sites (experiment %zu / control %zu)  [paper: 5000 "
      "candidates, 22%% dropped]\n\n",
      enrolled, deployment.experiment_sites().size(),
      deployment.control_sites().size());

  // Show one certificate from each group.
  auto show = [&](const char* label, std::size_t site_index) {
    auto* service = corpus.service_for_site(site_index);
    if (service == nullptr || service->certificate == nullptr) return;
    const auto& cert = *service->certificate;
    std::fprintf(out, "%s certificate (%s):\n", label,
                 corpus.sites()[site_index].domain.c_str());
    std::fprintf(out, "  serial: %llu  issuer: %s  size: %zu bytes\n",
                 static_cast<unsigned long long>(cert.serial),
                 cert.issuer.c_str(), cert.size_bytes());
    std::fprintf(out, "  SAN (%zu):", cert.san_dns.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(6, cert.san_dns.size());
         ++i) {
      std::fprintf(out, " %s", cert.san_dns[i].c_str());
    }
    if (cert.san_dns.size() > 6) std::fprintf(out, " ...");
    std::fprintf(out, "\n");
  };
  if (!deployment.experiment_sites().empty()) {
    show("experiment", deployment.experiment_sites().front());
  }
  if (!deployment.control_sites().empty()) {
    show("control   ", deployment.control_sites().front());
  }

  // Verify the invariant across the whole sample.
  std::size_t covered = 0, padded = 0;
  for (std::size_t site : deployment.experiment_sites()) {
    auto* service = corpus.service_for_site(site);
    if (service != nullptr &&
        service->certificate->covers(deployment.third_party())) {
      ++covered;
    }
  }
  for (std::size_t site : deployment.control_sites()) {
    auto* service = corpus.service_for_site(site);
    if (service != nullptr &&
        service->certificate->covers(deployment.control_pad_domain())) {
      ++padded;
    }
  }
  std::fprintf(
      out,
      "\nreissue verification: %zu/%zu experiment certs cover the third "
      "party; %zu/%zu control certs carry the pad\n",
      covered, deployment.experiment_sites().size(), padded,
      deployment.control_sites().size());
}

// Figs 7a/7b: the distribution of new TLS connections to the third-party
// domain per page visit, experiment vs control, for 0..max_connections.
util::Table new_connections_table(const cdn::Deployment::ActiveResult& result,
                                  int max_connections) {
  util::Histogram experiment = histogram(result.experiment_new_connections);
  util::Histogram control = histogram(result.control_new_connections);
  util::Table table({"# New Connections", "Experiment %", "Exp CDF",
                     "Control %", "Ctrl CDF"});
  double exp_cdf = 0, ctrl_cdf = 0;
  for (int connections = 0; connections <= max_connections; ++connections) {
    const double exp_frac =
        experiment.total() ? static_cast<double>(experiment.count(connections)) /
                                 static_cast<double>(experiment.total())
                           : 0;
    const double ctrl_frac =
        control.total() ? static_cast<double>(control.count(connections)) /
                              static_cast<double>(control.total())
                        : 0;
    exp_cdf += exp_frac;
    ctrl_cdf += ctrl_frac;
    table.add_row({std::to_string(connections),
                   util::format_double(exp_frac * 100, 1),
                   util::format_double(exp_cdf, 3),
                   util::format_double(ctrl_frac * 100, 1),
                   util::format_double(ctrl_cdf, 3)});
  }
  return table;
}

// Fig 7a: client-side active measurement of IP-based coalescing (§5.2).
// Firefox (the only ORIGIN-capable browser) is the measurement client for
// comparability with Fig 7b.
void fig7a(std::FILE* out, const Args& args, cdn::Deployment& deployment,
           std::size_t enrolled) {
  print_header(
      "Figure 7a: active measurement, IP-based coalescing",
      "Fig 7a (control: ~9% zero / ~83% one new connection; experiment: "
      "~70% zero / ~28% one; no site above 7)",
      args, out);
  std::fprintf(out, "enrolled sample: %zu sites\n\n", enrolled);
  deployment.deploy_ip_coalescing();
  auto result = deployment.run_active("firefox-transitive", 0xF1A);
  deployment.undo_ip_coalescing();
  print_table(out, new_connections_table(result, 7));
  std::fprintf(
      out,
      "\n0 = coalescing. paper: experiment ~70%% at zero, 28%% at one; "
      "control 9%% zero, 83%% one.\n");
}

// Fig 7b: client-side active measurement of ORIGIN-frame coalescing
// (§5.3), Firefox v96-equivalent client.
void fig7b(std::FILE* out, const Args& args, cdn::Deployment& deployment,
           std::size_t enrolled) {
  print_header(
      "Figure 7b: active measurement, ORIGIN frame coalescing",
      "Fig 7b (control: ~6% zero / ~84% one; experiment: ~64% zero / ~33% "
      "one; nothing above 4)",
      args, out);
  std::fprintf(out, "enrolled sample: %zu sites\n\n", enrolled);
  deployment.deploy_origin_frames();
  auto result = deployment.run_active("firefox-transitive", 0xF1B);
  deployment.undo_origin_frames();
  print_table(out, new_connections_table(result, 4));
  std::fprintf(
      out,
      "\n0 = coalescing. paper: experiment ~64%% zero / 33%% one (CORS "
      "crossorigin=anonymous and fetch() requests did not coalesce); "
      "control 6%% zero / 84%% one.\n");
}

// Fig 8 plus the §5.2/§5.3 passive headlines: the longitudinal rate of new
// TLS connections to the coalesced third party for experiment vs control,
// before / during / after the two-week ORIGIN deployment, measured by the
// 1%-sampled flag-bit pipeline.
void fig8(std::FILE* out, const Args& args, dataset::Corpus& corpus,
          cdn::Deployment& deployment, std::size_t enrolled) {
  print_header(
      "Figure 8: longitudinal new-TLS-connection rate to the third party",
      "Fig 8 (experiment drops to ~half of control inside the treatment "
      "window, indistinguishable outside); §5.2 passive: 56% reduction under "
      "IP coalescing",
      args, out);
  std::fprintf(out, "enrolled sample: %zu sites\n\n", enrolled);

  // --- §5.2 headline: passive measurement under the IP deployment -------
  {
    deployment.deploy_ip_coalescing();
    measure::PassivePipeline pipeline(0.01, 0x52);
    browser::LoaderOptions loader_options;
    loader_options.policy = "firefox-transitive";
    browser::PageLoader loader(corpus.env(), loader_options);
    auto observe_group = [&](const std::vector<std::size_t>& sites,
                             measure::Treatment treatment) {
      for (std::size_t site : sites) {
        auto load = loader.load(corpus.page_for_site(site));
        pipeline.observe(load, deployment.third_party(), treatment, 0);
      }
    };
    observe_group(deployment.experiment_sites(),
                  measure::Treatment::kExperiment);
    observe_group(deployment.control_sites(), measure::Treatment::kControl);
    deployment.undo_ip_coalescing();
    std::fprintf(
        out,
        "§5.2 IP-coalescing passive: new TLS connections exp=%llu ctrl=%llu "
        "-> %.0f%% reduction  [paper: 56%%]\n",
        static_cast<unsigned long long>(
            pipeline.new_connections(measure::Treatment::kExperiment)),
        static_cast<unsigned long long>(
            pipeline.new_connections(measure::Treatment::kControl)),
        pipeline.reduction_vs_control() * 100.0);
    std::fprintf(
        out,
        "    flag-bit coalesced connections (sampled): exp=%llu ctrl=%llu\n\n",
        static_cast<unsigned long long>(
            pipeline.coalesced_connections(measure::Treatment::kExperiment)),
        static_cast<unsigned long long>(
            pipeline.coalesced_connections(measure::Treatment::kControl)));
  }

  // --- Figure 8: 8-week ORIGIN longitudinal ------------------------------
  const std::uint64_t days = 56, window_begin = 21, window_end = 35;
  auto result = deployment.run_passive_longitudinal(
      days, window_begin, window_end,
      std::clamp<std::size_t>(enrolled / 4, 8, 150), "firefox-transitive");

  util::Table table({"Day", "Phase", "Experiment conns", "Control conns",
                     "Exp/Ctrl"});
  std::uint64_t in_exp = 0, in_ctrl = 0, out_exp = 0, out_ctrl = 0;
  for (std::uint64_t day = 0; day < days; ++day) {
    const auto exp =
        result.pipeline.new_connections_on_day(measure::Treatment::kExperiment,
                                               day);
    const auto ctrl =
        result.pipeline.new_connections_on_day(measure::Treatment::kControl,
                                               day);
    const bool in_window = day >= window_begin && day < window_end;
    (in_window ? in_exp : out_exp) += exp;
    (in_window ? in_ctrl : out_ctrl) += ctrl;
    if (day % 7 == 0) {  // weekly rows keep the table readable
      table.add_row({std::to_string(day),
                     in_window ? "TREATMENT" : "baseline",
                     util::format_count(exp), util::format_count(ctrl),
                     ctrl ? util::format_double(
                                static_cast<double>(exp) /
                                    static_cast<double>(ctrl),
                                2)
                          : "-"});
    }
  }
  print_table(out, table);
  std::fprintf(
      out,
      "\nwindow days %llu-%llu: experiment/control connection ratio %.2f "
      "inside vs %.2f outside  [paper: ~0.5 inside, ~1.0 outside]\n",
      static_cast<unsigned long long>(window_begin),
      static_cast<unsigned long long>(window_end - 1),
      in_ctrl ? static_cast<double>(in_exp) / static_cast<double>(in_ctrl) : 0,
      out_ctrl ? static_cast<double>(out_exp) / static_cast<double>(out_ctrl)
               : 0);
  std::fprintf(out, "§5.3 during-window reduction: %.0f%%  [paper: ~50%%]\n",
               in_ctrl ? 100.0 * (1.0 - static_cast<double>(in_exp) /
                                            static_cast<double>(in_ctrl))
                       : 0);
}

// Fig 9: page-load-time CDFs. Top: the model's predictions (measured vs
// ideal-IP vs ideal-ORIGIN reconstruction, plus the deployment-CDN-only
// prediction). Bottom: measured PLTs at the deployed CDN, experiment vs
// control.
void fig9(std::FILE* out, const Args& args, const World& w,
          cdn::Deployment& deployment) {
  print_header(
      "Figure 9: PLT under coalescing — model (top) and deployment (bottom)",
      "Fig 9 (model: ORIGIN ~27% median PLT gain, IP ~10%, deployment-CDN-"
      "only ~1.5%; measured deployment ~1%, i.e. 'no worse')",
      args, out);
  std::fprintf(out, "--- model predictions (top) ---\n");
  util::Table top({"Series (PLT ms)", "p25", "median", "p75", "p90"});
  top.add_row(quartile_row("Measured", w.measured_plt));
  top.add_row(quartile_row("I.M. IP Coalescing", w.ideal_ip_plt));
  top.add_row(quartile_row("I.M. Origin Coalescing", w.ideal_origin_plt));
  top.add_row(quartile_row("I.M. CDN Origin Coalescing", w.cdn_only_plt));
  print_table(out, top);

  const double base = util::percentile(w.measured_plt, 50);
  std::fprintf(
      out,
      "\nmedian PLT improvement: ORIGIN %.1f%% [paper ~27%%], IP %.1f%% "
      "[paper ~10%%], deployment-CDN-only %.1f%% [paper ~1.5%%]\n\n",
      100.0 * (1.0 - util::percentile(w.ideal_origin_plt, 50) / base),
      100.0 * (1.0 - util::percentile(w.ideal_ip_plt, 50) / base),
      100.0 * (1.0 - util::percentile(w.cdn_only_plt, 50) / base));

  deployment.deploy_origin_frames();
  auto active = deployment.run_active("firefox-transitive", 0xF19);
  deployment.undo_origin_frames();

  std::fprintf(out, "--- deployment measurement (bottom) ---\n");
  util::Table bottom({"Group (PLT ms)", "p25", "median", "p75", "p90"});
  bottom.add_row(quartile_row("Control", active.control_plt_ms));
  bottom.add_row(quartile_row("Experiment", active.experiment_plt_ms));
  print_table(out, bottom);
  const double ctrl_median = util::percentile(active.control_plt_ms, 50);
  const double exp_median = util::percentile(active.experiment_plt_ms, 50);
  std::fprintf(
      out,
      "\nmeasured deployment median PLT change: %.1f%%  [paper: ~1%% "
      "improvement — 'no worse', not 'faster']\n",
      100.0 * (1.0 - exp_median / ctrl_median));
}

// Builds the corpus, collects it, and prints §3–§5 from it. The corpus
// lives only here; the returned World feeds the later ablations.
World print_corpus_sections(std::FILE* out, const Args& args) {
  dataset::Corpus corpus = make_corpus(args);
  World w = collect_world(corpus);
  dataset_tables(out, args, w.report);
  fig3(out, args, w);
  fig4(out, args, w.asn_plans);
  fig5(out, args, w.asn_plans);
  table8(out, args, w.asn_plans);
  table9(out, args, w.provider_plans);

  cdn::DeploymentOptions options;
  options.threads = 0;
  cdn::Deployment deployment(corpus, options);
  const std::size_t enrolled = deployment.prepare();
  fig6(out, args, corpus, deployment, enrolled);
  fig7a(out, args, deployment, enrolled);
  fig7b(out, args, deployment, enrolled);
  fig8(out, args, corpus, deployment, enrolled);
  fig9(out, args, w, deployment);
  return w;
}

// ---------------------------------------------------------------------------
// Ablations.

// Every service deploys RFC 8336: advertises all its hostnames.
void enable_origin_frames(dataset::Corpus& corpus) {
  for (auto& service : corpus.env().services()) {
    service.origin_frame_enabled = true;
    service.origin_advertisement.clear();
    for (const auto& host : service.served_hostnames) {
      service.origin_advertisement.push_back("https://" + host);
    }
  }
}

// §4.3 least-effort changes: each site's certificate gains the
// same-provider hostnames its page needs; the provider's edges serve and
// advertise them on the site's connections.
void add_least_effort_certificates(dataset::Corpus& corpus) {
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    const auto& site = corpus.sites()[i];
    auto* service = corpus.service_for_site(i);
    if (service == nullptr || service->certificate == nullptr) continue;
    std::vector<std::string> additions;
    for (const auto& host : site.third_party_hosts) {
      const auto* third = corpus.env().find_service(host);
      if (third == nullptr || third->provider != service->provider) {
        continue;
      }
      if (!service->certificate->covers(host)) additions.push_back(host);
      service->served_hostnames.insert(host);
      service->origin_advertisement.push_back("https://" + host);
    }
    for (const auto& shard : site.shard_hostnames) {
      if (!service->certificate->covers(shard)) additions.push_back(shard);
    }
    if (additions.empty()) continue;
    auto* ca = corpus.env().find_ca(service->certificate->issuer);
    if (ca == nullptr) continue;
    if (service->certificate->san_dns.size() + additions.size() >
        ca->max_san_entries()) {
      ca = corpus.env().find_ca("Sectigo RSA DV Secure Server CA");
    }
    auto reissued = ca->reissue_with_sans(
        *service->certificate, additions,
        origin::util::SimTime::from_micros(0));
    if (reissued.ok()) {
      service->certificate = std::make_shared<tls::Certificate>(
          std::move(reissued).value());
    }
  }
}

// Browser coalescing policies (Chromium connected-set, Firefox transitive,
// spec-pure ORIGIN) on the identical corpus, with and without server-side
// ORIGIN frame deployment, plus the model's grouping granularity (AS /
// provider / service), the §4.1 design choice.
void policy_ablation(std::FILE* out, const Args& args, const World& w) {
  print_header(
      "Ablation: coalescing policy x server ORIGIN support; model grouping",
      "§2.3 browser differences; §4.1 AS==service assumption",
      args, out);

  // Worlds: 0 = today's world; 1 = ORIGIN frames deployed but certificates
  // unchanged; 2 = ORIGIN frames + the §4.3 least-effort certificate
  // changes (same-provider hostnames added to site SANs and edges
  // configured to serve them). Only world 2 unlocks the cross-service
  // coalescing the paper models — certificates, not client policy, are the
  // gating factor. World 0 under chromium-ip is the collect every other
  // section read; the rest load this corpus, rewritten into world 1 and
  // then world 2.
  util::Table table({"World", "Client policy", "median DNS", "median TLS",
                     "median PLT (ms)"});
  const char* kWorlds[] = {"as-is", "ORIGIN, certs as-is",
                           "ORIGIN + ideal certs"};
  auto add_row = [&](int world, const char* policy,
                     const std::vector<double>& dns,
                     const std::vector<double>& tls,
                     const std::vector<double>& plt) {
    table.add_row({kWorlds[world], policy,
                   util::format_double(util::percentile(dns, 50), 0),
                   util::format_double(util::percentile(tls, 50), 0),
                   util::format_double(util::percentile(plt, 50), 0)});
  };
  dataset::Corpus corpus = make_corpus(args);
  for (int world = 0; world < 3; ++world) {
    if (world == 1) enable_origin_frames(corpus);
    if (world == 2) add_least_effort_certificates(corpus);
    for (const char* policy :
         {"chromium-ip", "firefox-transitive", "origin-frame"}) {
      if (world == 0 && std::strcmp(policy, "chromium-ip") == 0) {
        add_row(world, policy, w.measured_dns, w.measured_tls,
                w.measured_plt);
        continue;
      }
      std::vector<double> dns, tls, plt;
      dataset::collect(corpus, collect_options(policy),
                       [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                         dns.push_back(static_cast<double>(load.dns_query_count()));
                         tls.push_back(
                             static_cast<double>(load.tls_connection_count()));
                         plt.push_back(load.page_load_time().as_millis());
                       });
      add_row(world, policy, dns, tls, plt);
    }
  }
  print_table(out, table);
  std::fprintf(
      out,
      "\nexpected ordering: chromium >= firefox >= origin-frame in TLS "
      "connections; ORIGIN deployment only helps ORIGIN-aware clients.\n\n");

  // --- grouping granularity (§4.1) ---------------------------------------
  util::Table grouping_table(
      {"Model grouping", "median ideal DNS", "median ideal TLS"});
  auto grouping_row = [&](model::Grouping grouping,
                          const std::vector<double>& dns,
                          const std::vector<double>& tls) {
    grouping_table.add_row(
        {model::grouping_name(grouping),
         util::format_double(util::percentile(dns, 50), 0),
         util::format_double(util::percentile(tls, 50), 0)});
  };
  grouping_row(model::Grouping::kService, w.service_dns, w.service_tls);
  grouping_row(model::Grouping::kAsn, w.origin_dns, w.origin_tls);
  grouping_row(model::Grouping::kProvider, w.provider_dns, w.provider_tls);
  print_table(out, grouping_table);
  std::fprintf(
      out,
      "\nservice grouping is the sound lower bound; the paper's AS "
      "assumption sits between service and whole-provider granularity.\n");
}

// §6.5: certificate size vs handshake cost. Sweeps SAN counts, reports
// TLS-record fragmentation, extra round trips, and the point where
// browsers give up (the 10000-SAN badssl failure), plus per-CA issuance
// limits.
void cert_size_ablation(std::FILE* out) {
  std::fprintf(out,
               "== Ablation: certificate size vs TLS handshake cost (§6.5) ==\n");
  std::fprintf(
      out,
      "reproduces: §6.5 (cert > 16KB record fragments; badssl 10000-SAN "
      "fails; LE/DigiCert/GoDaddy cap 100 names, Comodo 2000)\n\n");

  tls::CertificateAuthority ca("Unbounded CA", 0xAB1A, 50'000);
  util::Table table({"SAN count", "chain bytes", "TLS records", "round trips",
                     "handshake ms", "loads?"});
  for (std::size_t sans :
       {1ul, 3ul, 7ul, 10ul, 50ul, 100ul, 250ul, 500ul, 1000ul, 2000ul,
        5000ul, 10000ul}) {
    std::vector<std::string> names;
    names.reserve(sans);
    for (std::size_t i = 0; i < sans; ++i) {
      names.push_back("subject-alt-name-" + std::to_string(i) +
                      ".example.com");
    }
    auto cert = ca.issue("example.com", names,
                         origin::util::SimTime::from_micros(0));
    auto result = tls::simulate_handshake(*cert);
    table.add_row({std::to_string(sans),
                   util::format_count(result.chain_bytes),
                   std::to_string(result.tls_records),
                   std::to_string(result.round_trips),
                   util::format_double(result.duration.as_millis(), 1),
                   result.ok ? "yes" : "SSL_PROTOCOL_ERROR"});
  }
  print_table(out, table);

  std::fprintf(
      out,
      "\nleast-effort additions (paper: <=3 names for 50%% of sites, <=7 at "
      "p75, <=10 for 92%%) never leave the 1-record/1-RTT regime.\n\n");

  std::fprintf(out, "per-CA SAN issuance limits:\n");
  util::Table limits({"CA", "max SANs", "101-name issuance"});
  for (const auto& issuer : dataset::issuers()) {
    tls::CertificateAuthority test_ca(issuer.name, 0x11, issuer.max_san_entries);
    std::vector<std::string> names;
    for (int i = 0; i < 101; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      name += ".example.org";
      names.push_back(std::move(name));
    }
    auto attempt = test_ca.issue("example.org", names,
                                 origin::util::SimTime::from_micros(0));
    limits.add_row({issuer.name, std::to_string(issuer.max_san_entries),
                    attempt.ok() ? "issued" : "REFUSED (limit)"});
  }
  print_table(out, limits);
}

server::Handler body(const char* text) {
  return [text](std::string_view) {
    server::Response response;
    response.body = util::from_string(text);
    return response;
  };
}

// One CDN PoP on a simulated network: a service serving www.site.com and
// static.site.com from 10.0.0.1 under one certificate, and its server
// advertising both origins in an ORIGIN frame.
struct SiteWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  browser::Environment env;
  server::Http2Server cdn_server;
  server::Http2Server tracker_server;  // serves once add_tracker() ran

  // `overload` arms the server's per-session budgets (off by default).
  explicit SiteWorld(server::OverloadConfig overload = {}) {
    auto cert = *env.default_ca().issue(
        "www.site.com", {"www.site.com", "static.site.com"},
        util::SimTime::from_micros(0));
    browser::Service service;
    service.name = "cdn";
    service.asn = 13335;
    service.provider = "ExampleCDN";
    service.addresses = {dns::IpAddress::v4(0x0A000001)};
    service.served_hostnames = {"www.site.com", "static.site.com"};
    service.certificate = std::make_shared<tls::Certificate>(cert);
    env.add_service(std::move(service));

    server::ServerConfig config;
    config.origin_set = {"https://www.site.com", "https://static.site.com"};
    config.overload = overload;
    cdn_server = server::Http2Server(config);
    cdn_server.set_certificate(cert);
    cdn_server.add_vhost("www.site.com", body("<html>base</html>"));
    cdn_server.add_vhost("static.site.com", body("body{}"));
    cdn_server.listen(net, dns::IpAddress::v4(0x0A000001));
  }
  // The network and the listening servers hold this world's addresses.
  SiteWorld(const SiteWorld&) = delete;
  SiteWorld& operator=(const SiteWorld&) = delete;

  // Adds tracker.net: a third party on its own service, address and server.
  void add_tracker() {
    auto cert = *env.default_ca().issue("tracker.net", {"tracker.net"},
                                        util::SimTime::from_micros(0));
    browser::Service service;
    service.name = "tracker";
    service.asn = 15169;
    service.provider = "TrackerCo";
    service.addresses = {dns::IpAddress::v4(0x0B000001)};
    service.served_hostnames = {"tracker.net"};
    service.certificate = std::make_shared<tls::Certificate>(cert);
    env.add_service(std::move(service));

    tracker_server.set_certificate(cert);
    tracker_server.add_vhost("tracker.net", body("track();"));
    tracker_server.listen(net, dns::IpAddress::v4(0x0B000001));
  }

  // One page load by a fresh client, run until the network is idle.
  browser::WireLoadResult load(const web::Webpage& page,
                               const browser::LoaderOptions& options,
                               browser::DegradationOptions degradation = {}) {
    browser::WireClient client(env, net, options, degradation);
    browser::WireLoadResult result;
    client.load(page,
                [&](browser::WireLoadResult r) { result = std::move(r); });
    sim.run_until_idle();
    return result;
  }
};

// A page on www.site.com: the navigation, then each (host, path) of
// `subresources`, which it discovers after 1 ms of parsing.
web::Webpage site_page(
    const std::vector<std::pair<const char*, std::string>>& subresources) {
  web::Webpage page;
  page.tranco_rank = 7;
  page.base_hostname = "www.site.com";
  web::Resource base;
  base.hostname = "www.site.com";
  base.path = "/";
  base.mode = web::RequestMode::kNavigation;
  page.resources.push_back(base);
  for (const auto& [host, path] : subresources) {
    web::Resource resource;
    resource.hostname = host;
    resource.path = path;
    resource.parent = 0;
    resource.discovery_cpu_ms = 1.0;
    page.resources.push_back(resource);
  }
  return page;
}

browser::LoaderOptions origin_frame_options(std::string network_tag) {
  browser::LoaderOptions options;
  options.policy = "origin-frame";
  options.network_tag = std::move(network_tag);
  return options;
}

// One wire-level page load: 0 = clean path, 1 = compliant passive
// inspector, 2 = the buggy agent, 3 = the agent after the vendor's fix.
browser::WireLoadResult run_middlebox_case(bool server_origin,
                                           int middlebox_kind) {
  SiteWorld world;
  if (!server_origin) world.cdn_server.set_origin_set({});
  if (middlebox_kind == 1) {
    world.net.install_middlebox("wire-client",
                                std::make_shared<h2::PassiveInspector>());
  } else if (middlebox_kind == 2) {
    world.net.install_middlebox("wire-client",
                                std::make_shared<h2::StrictFrameMiddlebox>());
  } else if (middlebox_kind == 3) {
    auto fixed = std::make_shared<h2::StrictFrameMiddlebox>();
    fixed->add_known_type(0x0c);  // the vendor's September-2022 fix
    fixed->add_known_type(0x0a);
    world.net.install_middlebox("wire-client", fixed);
  }
  return world.load(site_page({{"static.site.com", "/app.js"}}),
                    origin_frame_options("wire-client"));
}

// §6.7: the non-compliant middlebox incident. Runs identical wire-level
// page loads through each middlebox case, with and without server-side
// ORIGIN frames.
void middlebox_ablation(std::FILE* out) {
  std::fprintf(out, "== Ablation: non-compliant HTTP/2 middlebox (§6.7) ==\n");
  std::fprintf(
      out,
      "reproduces: §6.7 (AV agent tore down TLS connections on the unknown "
      "ORIGIN frame instead of ignoring it per RFC 9113 §4.1; fixed Sept "
      "2022)\n\n");

  util::Table table({"Path", "Server ORIGIN", "Page loads?", "Teardowns",
                     "Coalesced reqs"});
  const char* kinds[] = {"clean", "compliant inspector", "buggy AV agent",
                         "AV agent after fix"};
  for (int kind = 0; kind <= 3; ++kind) {
    for (bool origin_frames : {false, true}) {
      auto outcome = run_middlebox_case(origin_frames, kind);
      table.add_row({kinds[kind], origin_frames ? "on" : "off",
                     outcome.har.success ? "yes" : "NO",
                     std::to_string(outcome.robustness.connections_torn_down),
                     std::to_string(outcome.coalesced_requests)});
    }
  }
  print_table(out, table);
  std::fprintf(
      out,
      "\nonly the buggy agent with ORIGIN enabled breaks the page — exactly "
      "the incident that paused the paper's experiment.\n");
}

// §6.2: cleartext exposure. Every un-coalesced connection leaks a
// plaintext SNI in its ClientHello, and every blocking lookup over Do53
// leaks the queried name. The paper argues privacy — not speed — is the
// primary ORIGIN benefit: coalesced requests produce neither signal.
void privacy_ablation(std::FILE* out, const Args& args, const World& w) {
  print_header(
      "Ablation: on-path cleartext exposure per page load (§6.2)",
      "§6.2 (each coalesced connection hides one plaintext SNI and at least "
      "one UDP/TCP-53 DNS query from on-path observers)",
      args, out);
  util::Table table({"World", "median SNI leaks", "median DNS(53) leaks",
                     "median total"});
  auto med = [](const std::vector<double>& v) {
    return util::percentile(v, 50);
  };
  table.add_row({"measured (Do53, no coalescing changes)",
                 util::format_double(med(w.measured_tls), 0),
                 util::format_double(med(w.measured_dns), 0),
                 util::format_double(med(w.measured_tls) + med(w.measured_dns),
                                     0)});
  table.add_row({"ideal ORIGIN (Do53)",
                 util::format_double(med(w.origin_tls), 0),
                 util::format_double(med(w.origin_dns), 0),
                 util::format_double(med(w.origin_tls) + med(w.origin_dns), 0)});
  table.add_row({"ideal ORIGIN + DoH/DoT",
                 util::format_double(med(w.origin_tls), 0), "0",
                 util::format_double(med(w.origin_tls), 0)});
  table.add_row({"ideal ORIGIN + DoH + ECH", "0", "0", "0"});
  print_table(out, table);

  // Every new TLS connection leaks its SNI; every DNS query over Do53
  // leaks a hostname.
  auto total = [](const std::vector<double>& tls,
                  const std::vector<double>& dns) {
    return std::accumulate(tls.begin(), tls.end(), 0.0) +
           std::accumulate(dns.begin(), dns.end(), 0.0);
  };
  const double measured_total = total(w.measured_tls, w.measured_dns);
  const double origin_total = total(w.origin_tls, w.origin_dns);
  std::fprintf(
      out,
      "\ntotal cleartext hostname signals across the corpus: %s measured -> "
      "%s under ideal ORIGIN (%.0f%% fewer)\n",
      util::format_count(static_cast<std::uint64_t>(measured_total)).c_str(),
      util::format_count(static_cast<std::uint64_t>(origin_total)).c_str(),
      100.0 * (1.0 - origin_total / measured_total));
  std::fprintf(
      out,
      "ORIGIN removes the signals per-connection; DoH/DoT and ECH (§6.2) "
      "remove the remaining query and SNI channels respectively.\n");
}

// §6.5: SAN additions vs secondary certificate frames. The least-effort
// plan appends a few names to the existing certificate; the
// secondary-certs draft ships complete certificates on stream 0 instead.
// For the <=10 names most sites need, SAN additions are strictly smaller;
// certificate frames pay a per-certificate overhead that only amortizes as
// flexibility, not bytes.
void secondary_certs_ablation(std::FILE* out, const Args& args,
                              const World& w) {
  print_header(
      "Ablation: SAN additions vs secondary certificate frames (§6.5)",
      "§6.5 (certificate frames ship complete certificates with key and "
      "signature — larger than the SAN modification they replace)",
      args, out);
  auto summarize_row = [](const char* name, const std::vector<double>& v) {
    auto s = util::summarize(v);
    return std::vector<std::string>{
        name, util::format_double(s.median, 0), util::format_double(s.p75, 0),
        util::format_double(s.p99, 0), util::format_double(s.max, 0)};
  };
  util::Table table({"Strategy (bytes per site)", "median", "p75", "p99", "max"});
  table.add_row(
      summarize_row("SAN additions to existing cert", w.san_delta_bytes));
  table.add_row(summarize_row("secondary CERTIFICATE frames", w.frame_bytes));
  print_table(out, table);

  const double san_total =
      std::accumulate(w.san_delta_bytes.begin(), w.san_delta_bytes.end(), 0.0);
  const double frame_total =
      std::accumulate(w.frame_bytes.begin(), w.frame_bytes.end(), 0.0);
  std::fprintf(
      out, "\nsites needing changes: %zu; median additions per site: %.0f\n",
      w.additions.size(), util::percentile(w.additions, 50));
  std::fprintf(
      out,
      "per-handshake extra bytes, corpus-wide: SAN strategy %s vs secondary "
      "frames %s (%.1fx)\n",
      util::format_count(static_cast<std::uint64_t>(san_total)).c_str(),
      util::format_count(static_cast<std::uint64_t>(frame_total)).c_str(),
      frame_total / san_total);
  std::fprintf(
      out,
      "secondary frames remain attractive only when origin sets are huge or "
      "churn faster than reissuance (the paper defers that study).\n");
}

// §6.4: impact of the one-time certificate reissuance on the Certificate
// Transparency ecosystem. The paper's calibration points: global issuance
// runs at ~257,034 certificates/hour; the §4.3 plan modifies 37.59% of
// websites (120,103 certificates), a burst it argues "would not adversely
// affect CT log infrastructure", with operator imbalance the real concern.
// This replays baseline issuance plus the burst through the CT ecosystem
// and reports the burst in units of normal traffic, plus the §6.4
// imbalance with and without least-loaded submission.
void ct_ablation(std::FILE* out, const Args& args,
                 const model::PlannerAggregate& aggregate) {
  print_header(
      "Ablation: CT-log impact of the certificate reissuance burst (§6.4)",
      "§6.4 (global rate 257,034 certs/hour; burst = 120,103 certs = 37.59% "
      "of sites; 5-10% of daily issuance)",
      args, out);

  // How many corpus sites actually need reissuance (the burst).
  const std::size_t sites = aggregate.sites;
  const std::size_t burst = aggregate.sites - aggregate.unchanged_sites;
  const double change_share =
      static_cast<double>(burst) / static_cast<double>(sites);

  // Scale the paper's global numbers to this corpus.
  constexpr double kGlobalHourlyRate = 257'034.0;
  constexpr double kPaperSites = 315'796.0;
  const double scale = static_cast<double>(sites) / kPaperSites;
  const double hourly_rate = kGlobalHourlyRate * scale;

  std::fprintf(out,
               "sites needing reissuance: %zu of %zu (%s)  [paper: 120,103 = "
               "37.59%%]\n",
               burst, sites, util::format_pct(change_share).c_str());
  std::fprintf(
      out,
      "burst at corpus scale vs normal issuance: %.1f hours of global "
      "traffic  [paper: 120,103 / 257,034 = 0.47 hours]\n",
      static_cast<double>(burst) / hourly_rate);
  std::fprintf(
      out,
      "spread over a day the burst adds %s to daily issuance  [paper: "
      "5-10%%]\n\n",
      util::format_pct(static_cast<double>(burst) / (hourly_rate * 24.0))
          .c_str());

  // Replay an hour of baseline issuance + the burst through two ecosystem
  // configurations and compare operator imbalance.
  tls::CertificateAuthority issue_ca("Burst CA", 0xB1, 100);
  auto run_ecosystem = [&](bool balanced) {
    ct::CtEcosystem ecosystem(2);
    // The paper names Cloudflare and Google as the stressed large
    // operators; model a realistic mix of big and small operators.
    ecosystem.add_log("nimbus", "Cloudflare");
    ecosystem.add_log("argon", "Google");
    ecosystem.add_log("xenon", "Google");
    ecosystem.add_log("yeti", "DigiCert");
    ecosystem.add_log("sabre", "Sectigo");
    ecosystem.add_log("oak", "LetsEncrypt");
    origin::util::Rng rng(7);
    const auto total = static_cast<std::size_t>(hourly_rate) + burst;
    for (std::size_t i = 0; i < total; ++i) {
      auto cert = issue_ca.issue("bulk" + std::to_string(i) + ".example", {},
                                 origin::util::SimTime::from_micros(0));
      if (!cert.ok()) continue;
      if (balanced) {
        ecosystem.submit(*cert, origin::util::SimTime::from_micros(0));
      } else {
        // Historic behaviour: CAs pin two famous logs (the imbalance §6.4
        // describes) — always Cloudflare + Google.
        ecosystem.logs()[0]->submit(*cert,
                                    origin::util::SimTime::from_micros(0));
        ecosystem.logs()[1]->submit(*cert,
                                    origin::util::SimTime::from_micros(0));
      }
    }
    return ecosystem.max_operator_share();
  };

  std::fprintf(
      out, "operator imbalance (share of entries at the busiest operator):\n");
  std::fprintf(out, "  pinned famous logs:      %s   [the §6.4 stress pattern]\n",
               util::format_pct(run_ecosystem(false)).c_str());
  std::fprintf(out, "  least-loaded submission: %s   [the §6.4 mitigation]\n",
               util::format_pct(run_ecosystem(true)).c_str());
}

// §6.1: response scheduling under coalescing. A server can order responses
// on ONE coalesced connection exactly along the rendering-critical path,
// but once objects are spread over parallel connections, independent
// network jitter and slow-start decide the arrival order — high-priority
// objects can land late, and no server-side scheduling can prevent it.
// This delivers the same prioritized object set both ways, many times, and
// measures priority inversions and the time until the render-critical head
// is complete.
struct Object {
  int priority;  // 0 = most render-critical
  std::size_t bytes;
};

struct Arrival {
  int priority;
  double finish_ms;
};

constexpr double kBandwidthBytesPerMs = 1250.0;  // 10 Mbit/s aggregate
constexpr double kBaseRttMs = 40.0;

// One coalesced connection: server transmits strictly in priority order;
// aggregate bandwidth is not shared with anyone.
std::vector<Arrival> run_coalesced(const std::vector<Object>& objects) {
  std::vector<Object> ordered = objects;
  std::sort(ordered.begin(), ordered.end(),
            [](const Object& a, const Object& b) { return a.priority < b.priority; });
  std::vector<Arrival> arrivals;
  double clock_ms = kBaseRttMs;  // request flight
  for (const Object& object : ordered) {
    clock_ms += static_cast<double>(object.bytes) / kBandwidthBytesPerMs;
    arrivals.push_back({object.priority, clock_ms});
  }
  return arrivals;
}

// K parallel connections: objects are striped across connections (the
// sharding layout); each connection suffers its own handshake stagger and
// RTT jitter, and the bottleneck bandwidth is shared.
std::vector<Arrival> run_parallel(const std::vector<Object>& objects,
                                  std::size_t connections, util::Rng& rng) {
  std::vector<double> conn_clock(connections);
  std::vector<double> conn_rate(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    // Handshake stagger + per-path RTT jitter (§6.1: "the sequence ... may
    // be altered by network effects").
    conn_clock[c] = kBaseRttMs * (1.0 + rng.uniform_double()) +
                    rng.exponential(15.0);
    // Bottleneck share with jitter; slow-start handicaps every connection.
    conn_rate[c] = (kBandwidthBytesPerMs / static_cast<double>(connections)) *
                   (0.6 + 0.8 * rng.uniform_double());
  }
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const std::size_t c = i % connections;
    conn_clock[c] += static_cast<double>(objects[i].bytes) / conn_rate[c];
    arrivals.push_back({objects[i].priority, conn_clock[c]});
  }
  return arrivals;
}

// Pairs (i, j) with priority(i) < priority(j) but arrival(i) > arrival(j).
int priority_inversions(std::vector<Arrival> arrivals) {
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.finish_ms < b.finish_ms;
            });
  int inversions = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    for (std::size_t j = i + 1; j < arrivals.size(); ++j) {
      if (arrivals[i].priority > arrivals[j].priority) ++inversions;
    }
  }
  return inversions;
}

double critical_head_done_ms(const std::vector<Arrival>& arrivals,
                             int head_size) {
  double worst = 0;
  for (const Arrival& arrival : arrivals) {
    if (arrival.priority < head_size) {
      worst = std::max(worst, arrival.finish_ms);
    }
  }
  return worst;
}

void scheduling_ablation(std::FILE* out) {
  std::fprintf(
      out, "== Ablation: response scheduling, coalesced vs parallel (§6.1) ==\n");
  std::fprintf(
      out,
      "reproduces: §6.1 ('coalesced resources are always received in the "
      "ordering intended to optimize the critical path')\n\n");

  // A page's worth of objects: priorities 0..11; critical head = CSS/JS
  // (small), tail = images (large).
  std::vector<Object> objects;
  for (int p = 0; p < 12; ++p) {
    objects.push_back({p, p < 4 ? 16'000ul : 60'000ul});
  }

  util::Rng rng(2022);
  constexpr int kTrials = 2000;
  util::Table table({"Delivery", "inversions p50", "inversions p95",
                     "critical head done p50 (ms)", "p95 (ms)"});
  for (std::size_t connections : {1ul, 2ul, 4ul, 6ul}) {
    std::vector<double> inversions, head_ms;
    for (int trial = 0; trial < kTrials; ++trial) {
      auto arrivals = connections == 1
                          ? run_coalesced(objects)
                          : run_parallel(objects, connections, rng);
      inversions.push_back(priority_inversions(arrivals));
      head_ms.push_back(critical_head_done_ms(arrivals, 4));
    }
    table.add_row(
        {connections == 1 ? "coalesced (1 conn)"
                          : std::to_string(connections) + " parallel conns",
         util::format_double(util::percentile(inversions, 50), 0),
         util::format_double(util::percentile(inversions, 95), 0),
         util::format_double(util::percentile(head_ms, 50), 0),
         util::format_double(util::percentile(head_ms, 95), 0)});
  }
  print_table(out, table);
  std::fprintf(
      out,
      "\nthe coalesced connection has zero inversions by construction; "
      "parallel connections reorder arrivals and delay the render-critical "
      "head's completion tail.\n");
}

// ---------------------------------------------------------------------------
// Robustness ablations, with no paper row. Both run wire-level loads in
// simulated time on SiteWorlds. They do not read --sites; --seed is their
// schedule seed. Each returns whether its in-run checks held, with a FAIL
// line on stderr for each one that did not.

// The value at rank round(p * (n - 1)) of the n sorted `values`; 0 when
// there are none. At p = 0.5 that is the upper median.
double rank_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

constexpr std::size_t kFaultLoadsPerCell = 40;

struct FaultCell {
  double rate = 0;
  bool degraded = false;
  measure::RobustnessReport report;
};

FaultCell run_fault_cell(double rate, bool degraded, std::uint64_t seed) {
  FaultCell cell{rate, degraded, {}};
  const web::Webpage page =
      site_page({{"static.site.com", "/app.js"}, {"tracker.net", "/t.js"}});
  for (std::size_t i = 0; i < kFaultLoadsPerCell; ++i) {
    netsim::FaultInjector injector(
        netsim::FaultConfig::uniform(rate, seed + i));
    SiteWorld world;
    world.add_tracker();
    if (rate > 0) world.net.set_fault_injector(&injector);
    browser::DegradationOptions degradation;
    degradation.enabled = degraded;
    const auto result =
        world.load(page, origin_frame_options("wire-client"), degradation);
    cell.report.add(result.robustness, result.har.success,
                    result.har.page_load_time().as_millis());
  }
  return cell;
}

struct KillSwitchReplay {
  int loads_until_disabled = -1;
  std::uint64_t suppressed = 0;
  bool control_unaffected = true;  // every control load succeeded
  bool suppressed_load_ok = false;
  bool reenabled = false;
};

// §6.7 against the CDN's ORIGIN kill-switch: loads behind the buggy agent
// trip the breaker for their tag while a control tag keeps coalescing, and
// probes re-enable ORIGIN once the agent is gone.
KillSwitchReplay run_kill_switch_replay() {
  KillSwitchReplay replay;
  SiteWorld world;
  world.add_tracker();
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

  const web::Webpage page =
      site_page({{"static.site.com", "/app.js"}, {"tracker.net", "/t.js"}});
  auto run_tagged = [&](const char* tag) {
    return world.load(page, origin_frame_options(tag));
  };
  for (int i = 0; i < 8 && !ks.disabled("affected"); ++i) {
    (void)run_tagged("affected");
    replay.control_unaffected &= run_tagged("control").har.success;
    replay.loads_until_disabled = i + 1;
  }
  const auto suppressed_load = run_tagged("affected");
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

// Page-load completion and PLT under injected network faults, with the
// graceful-degradation layer on and off. Every connection draws connect
// failure, mid-stream fault and TLS failure at the cell's rate, and DNS
// faults at half of it (FaultConfig::uniform). §6.7 shows what one hostile
// device does to coalescing; this measures how much of a generally faulty
// network the client's timeout, backoff and avoid-list machinery absorbs.
bool fault_ablation(std::FILE* out, std::uint64_t seed) {
  std::fprintf(
      out, "== Fault ablation: completion and PLT vs injected fault rate ==\n");
  std::fprintf(
      out,
      "reproduces: no paper figure; robustness floor for the §6 wire "
      "experiments (fault model of §6.7's incident family)\n");
  std::fprintf(out, "loads per cell: %zu, schedule seed %llu\n\n",
               kFaultLoadsPerCell, static_cast<unsigned long long>(seed));

  std::vector<FaultCell> cells;
  for (double rate : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    for (bool degraded : {false, true}) {
      cells.push_back(run_fault_cell(rate, degraded, seed));
    }
  }

  util::Table table({"fault rate", "degradation", "completion",
                     "median PLT (ms)", "retries", "torn down", "avoided"});
  for (const FaultCell& cell : cells) {
    const auto& totals = cell.report.totals();
    table.add_row(
        {util::format_pct(cell.rate, 0), cell.degraded ? "on" : "off",
         util::format_pct(cell.report.completion_rate(), 1),
         util::format_double(rank_percentile(cell.report.plt_ms(), 0.5), 1),
         util::format_count(totals.retries),
         util::format_count(totals.connections_torn_down),
         util::format_count(totals.avoided_coalescings)});
  }
  std::fputs(table.render(2).c_str(), out);

  const FaultCell& five_off = cells[4];
  const FaultCell& five_on = cells[5];
  std::fprintf(out, "\n-- degradation detail at the 5%% cell --\n");
  std::fputs(five_on.report.table().render(2).c_str(), out);

  const auto replay = run_kill_switch_replay();
  std::fprintf(out, "\n-- §6.7 kill-switch replay --\n");
  std::fprintf(out, "  ORIGIN disabled for affected tag after %d load(s)\n",
               replay.loads_until_disabled);
  std::fprintf(out, "  control tag unaffected: %s\n",
               replay.control_unaffected ? "yes" : "NO");
  std::fprintf(out, "  suppressed-ORIGIN load succeeds behind the agent: %s\n",
               replay.suppressed_load_ok ? "yes" : "NO");
  std::fprintf(out, "  ORIGIN frames suppressed: %llu\n",
               static_cast<unsigned long long>(replay.suppressed));
  std::fprintf(out, "  re-enabled by probe after fix: %s\n",
               replay.reenabled ? "yes" : "NO");

  // The floor: at least 99% completion at 5% faults with degradation on,
  // measurably above the raw path.
  bool ok = true;
  const double on = five_on.report.completion_rate();
  const double off = five_off.report.completion_rate();
  if (on < 0.99) {
    std::fprintf(stderr,
                 "FAIL: completion at 5%% faults with degradation is %.1f%% "
                 "(floor: 99%%)\n",
                 100.0 * on);
    ok = false;
  }
  if (on <= off) {
    std::fprintf(stderr,
                 "FAIL: degradation does not improve completion at 5%% "
                 "(%.1f%% vs %.1f%%)\n",
                 100.0 * on, 100.0 * off);
    ok = false;
  }
  if (!replay.suppressed_load_ok || !replay.reenabled ||
      !replay.control_unaffected) {
    std::fprintf(stderr, "FAIL: kill-switch replay did not converge\n");
    ok = false;
  }
  return ok;
}

constexpr std::size_t kOverloadWorldsPerCell = 10;
constexpr std::size_t kGoodClients = 8;
// Admission capacity; the offered load (good clients + attackers) is 2x.
constexpr std::size_t kCapacity = 8;
constexpr double kP99BoundMs = 2000.0;

server::OverloadConfig armed_defenses() {
  server::OverloadConfig overload;
  overload.enabled = true;
  // Tighter reaping than the 30s default keeps each world's simulated
  // horizon short without changing any shed decision.
  overload.stall_timeout = util::Duration::seconds(5);
  overload.sweep_interval = util::Duration::seconds(1);
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

// One world's outcome; cells sum these in world-index order, so the rollup
// is independent of the thread schedule.
struct OverloadWorld {
  std::uint64_t good_successes = 0;
  std::vector<double> good_plt_ms;
  std::size_t attackers = 0;
  std::size_t attackers_shed = 0;
  std::uint64_t attacker_frames = 0;
  std::size_t pinned_sessions = 0;
  std::string ledger;
};

OverloadWorld run_overload_world(bool defenses, bool attack,
                                 const h2::AbuseMix& mix, std::uint64_t seed) {
  SiteWorld world(defenses ? armed_defenses() : server::OverloadConfig{});
  cdn::AdmissionController admission(pop_admission());
  if (defenses) {
    world.cdn_server.set_admission_gate(
        [&admission](const std::string& tag) { return admission.admit(tag); });
    world.cdn_server.set_admission_feedback(
        [&admission](const std::string& tag, const std::string& reason) {
          admission.record_close(tag, reason);
        });
  }
  const web::Webpage page = site_page({{"static.site.com", "/asset0.css"},
                                       {"static.site.com", "/asset1.css"},
                                       {"static.site.com", "/asset2.css"}});

  // Attackers land first (staggered from 2ms) so the well-behaved loads
  // contend with a PoP already at capacity.
  std::vector<std::unique_ptr<h2::AbusiveClient>> attackers;
  if (attack) {
    std::size_t i = 0;
    for (h2::AbuseKind kind : mix.expand()) {
      attackers.push_back(std::make_unique<h2::AbusiveClient>(
          world.net, kind, seed * 1000 + i));
      auto* attacker = attackers.back().get();
      world.sim.schedule(
          util::Duration::millis(2.0 + static_cast<double>(i)),
          [attacker]() { attacker->start(dns::IpAddress::v4(0x0A000001)); });
      ++i;
    }
  }

  std::vector<std::unique_ptr<browser::WireClient>> clients;
  std::vector<browser::WireLoadResult> results(kGoodClients);
  std::vector<bool> done(kGoodClients, false);
  browser::DegradationOptions degradation;
  degradation.enabled = true;
  for (std::size_t i = 0; i < kGoodClients; ++i) {
    clients.push_back(std::make_unique<browser::WireClient>(
        world.env, world.net,
        origin_frame_options("user" + std::to_string(i)), degradation));
    auto* client = clients.back().get();
    auto* result = &results[i];
    // std::vector<bool> hands out proxies, not bool*; capture the index.
    world.sim.schedule(util::Duration::millis(static_cast<double>(i) * 20.0),
                       [client, &page, result, &done, i]() {
                         client->load(page, [result, &done, i](
                                                browser::WireLoadResult r) {
                           *result = std::move(r);
                           done[i] = true;
                         });
                       });
  }
  world.sim.run_until_idle();

  OverloadWorld outcome;
  for (std::size_t i = 0; i < kGoodClients; ++i) {
    if (done[i] && results[i].har.success) {
      ++outcome.good_successes;
      outcome.good_plt_ms.push_back(
          results[i].har.page_load_time().as_millis());
    }
  }
  outcome.attackers = attackers.size();
  for (const auto& attacker : attackers) {
    if (attacker->shed()) ++outcome.attackers_shed;
    outcome.attacker_frames += attacker->frames_sent();
  }
  outcome.pinned_sessions = world.cdn_server.live_sessions();
  outcome.ledger = world.cdn_server.stats().serialize();
  return outcome;
}

struct OverloadCell {
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
    return good_loads == 0 ? 0.0
                           : static_cast<double>(good_successes) /
                                 static_cast<double>(good_loads);
  }
};

// The four cells (defenses off/on x attack off/on), each over its worlds on
// a pool of `threads`.
std::vector<OverloadCell> run_overload_cells(const h2::AbuseMix& mix,
                                             std::uint64_t seed,
                                             std::size_t threads) {
  std::vector<OverloadCell> cells;
  util::ThreadPool pool(threads);
  for (bool defenses : {false, true}) {
    for (bool attack : {false, true}) {
      OverloadCell cell;
      cell.defenses = defenses;
      cell.attack = attack;
      std::vector<OverloadWorld> worlds(kOverloadWorldsPerCell);
      pool.parallel_for_index(kOverloadWorldsPerCell, [&](std::size_t i) {
        worlds[i] = run_overload_world(defenses, attack, mix, seed + i);
      });
      for (std::size_t i = 0; i < kOverloadWorldsPerCell; ++i) {
        const OverloadWorld& world = worlds[i];
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
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// A PoP under abuse at twice its admission capacity: staggered well-behaved
// page loads (degradation on, so admission refusals retry) plus a fixed
// attacker mix from h2/abuse.h. The cells toggle the defenses (per-session
// budgets, the deadline sweep and admission control) and the attack:
//
//   defenses off, clean    baseline PLT for the well-behaved load
//   defenses off, attack   attackers pin sessions forever (slowloris) and
//                          the server absorbs their full frame schedule
//   defenses on,  clean    armed defenses must not tax normal traffic
//   defenses on,  attack   every attacker shed with a distinct reason,
//                          nothing pinned, well-behaved loads unaffected
//
// The cells run at 8 and then at 1 thread, and the concatenated per-world
// server ledgers (Stats::serialize) must be byte-identical: the
// determinism contract extended to every overload counter and close reason.
bool overload_ablation(std::FILE* out, std::uint64_t seed) {
  const h2::AbuseMix mix{.rapid_reset = 2,
                         .header_bomb = 1,
                         .ping_flood = 2,
                         .settings_flood = 1,
                         .slowloris = 2};
  std::fprintf(out,
               "== Overload ablation: PoP under abuse at 2x capacity ==\n");
  std::fprintf(
      out,
      "reproduces: no paper figure; serving-stack robustness floor for the "
      "§5 deployment machinery\n");
  std::fprintf(out,
               "worlds per cell: %zu, good loads per world: %zu, capacity: "
               "%zu, mix: %s, seed %llu\n\n",
               kOverloadWorldsPerCell, kGoodClients, kCapacity,
               mix.serialize().c_str(), static_cast<unsigned long long>(seed));

  const auto cells = run_overload_cells(mix, seed, /*threads=*/8);
  const auto serial = run_overload_cells(mix, seed, /*threads=*/1);
  bool deterministic = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    deterministic = deterministic && cells[i].ledger == serial[i].ledger;
  }

  std::fprintf(out, "%-10s %-8s %-11s %-10s %-10s %-7s %-13s %-7s\n",
               "defenses", "attack", "completion", "p50 (ms)", "p99 (ms)",
               "shed", "abuse frames", "pinned");
  for (const OverloadCell& cell : cells) {
    std::fprintf(out,
                 "%-10s %-8s %-11.4f %-10.1f %-10.1f %zu/%-5zu %-13llu %zu\n",
                 cell.defenses ? "on" : "off", cell.attack ? "yes" : "no",
                 cell.completion(), rank_percentile(cell.plts, 0.5),
                 rank_percentile(cell.plts, 0.99), cell.attackers_shed,
                 cell.attackers,
                 static_cast<unsigned long long>(cell.attacker_frames),
                 cell.pinned_sessions);
  }
  std::fprintf(out, "\nledgers byte-identical at 1 vs 8 threads: %s\n",
               deterministic ? "yes" : "NO");

  const OverloadCell& off_attack = cells[1];
  const OverloadCell& on_attack = cells[3];
  bool ok = true;
  if (on_attack.completion() < 0.99) {
    std::fprintf(stderr,
                 "FAIL: defended completion under attack is %.2f%% "
                 "(floor: 99%%)\n",
                 100.0 * on_attack.completion());
    ok = false;
  }
  if (on_attack.attackers_shed != on_attack.attackers) {
    std::fprintf(stderr, "FAIL: only %zu/%zu attackers shed\n",
                 on_attack.attackers_shed, on_attack.attackers);
    ok = false;
  }
  if (on_attack.pinned_sessions != 0) {
    std::fprintf(stderr, "FAIL: %zu sessions still pinned with defenses on\n",
                 on_attack.pinned_sessions);
    ok = false;
  }
  if (off_attack.pinned_sessions == 0) {
    std::fprintf(stderr,
                 "FAIL: defenses-off cell pinned no sessions — the ablation "
                 "shows no damage to defend against\n");
    ok = false;
  }
  if (rank_percentile(on_attack.plts, 0.99) > kP99BoundMs) {
    std::fprintf(stderr,
                 "FAIL: defended p99 PLT under attack is %.1fms "
                 "(bound: %.0fms)\n",
                 rank_percentile(on_attack.plts, 0.99), kP99BoundMs);
    ok = false;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: ledgers differ across thread counts\n");
    ok = false;
  }
  return ok;
}

}  // namespace

bool print_paper(const Args& args, std::FILE* out) {
  const World w = print_corpus_sections(out, args);
  policy_ablation(out, args, w);
  cert_size_ablation(out);
  middlebox_ablation(out);
  privacy_ablation(out, args, w);
  secondary_certs_ablation(out, args, w);
  ct_ablation(out, args, w.asn_plans);
  scheduling_ablation(out);
  const bool faults_ok = fault_ablation(out, args.seed);
  const bool overload_ok = overload_ablation(out, args.seed);
  return faults_ok && overload_ok;
}

}  // namespace origin::bench
