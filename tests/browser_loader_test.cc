#include <gtest/gtest.h>

#include "browser/environment.h"
#include "browser/page_loader.h"
#include "dns/zone.h"

namespace origin::browser {
namespace {

using dns::IpAddress;
using origin::util::SimTime;

// A small world: one CDN service hosting the site and its shards, one
// third-party service.
struct World {
  Environment env;
  Service* cdn = nullptr;
  Service* tracker = nullptr;

  explicit World(bool origin_frames = false, bool cert_covers_shards = true) {
    std::vector<std::string> cdn_hosts = {"www.site.com", "static.site.com",
                                          "img.site.com"};
    Service cdn_service;
    cdn_service.name = "cdn-pop";
    cdn_service.asn = 13335;
    cdn_service.provider = "ExampleCDN";
    cdn_service.addresses = {IpAddress::v4(0x0A0A0A01),
                             IpAddress::v4(0x0A0A0A02)};
    cdn_service.served_hostnames = {cdn_hosts.begin(), cdn_hosts.end()};
    std::vector<std::string> sans =
        cert_covers_shards ? cdn_hosts
                           : std::vector<std::string>{"www.site.com"};
    cdn_service.certificate = std::make_shared<tls::Certificate>(
        *env.default_ca().issue("www.site.com", sans, SimTime::from_micros(0)));
    if (origin_frames) {
      cdn_service.origin_frame_enabled = true;
      for (const auto& host : cdn_hosts) {
        cdn_service.origin_advertisement.push_back("https://" + host);
      }
    }
    cdn = &env.add_service(std::move(cdn_service));

    Service tracker_service;
    tracker_service.name = "tracker";
    tracker_service.asn = 15169;
    tracker_service.provider = "TrackerCo";
    tracker_service.addresses = {IpAddress::v4(0x0B0B0B01)};
    tracker_service.served_hostnames = {"tracker.example.net"};
    tracker_service.certificate = std::make_shared<tls::Certificate>(
        *env.default_ca().issue("tracker.example.net", {"tracker.example.net"},
                                SimTime::from_micros(0)));
    tracker = &env.add_service(std::move(tracker_service));
  }
};

web::Webpage make_page() {
  web::Webpage page;
  page.tranco_rank = 1;
  page.base_hostname = "www.site.com";
  web::Resource base;
  base.hostname = "www.site.com";
  base.path = "/";
  base.content_type = web::ContentType::kHtml;
  base.mode = web::RequestMode::kNavigation;
  base.size_bytes = 40000;
  page.resources.push_back(base);

  auto add = [&page](const std::string& host, const std::string& path,
                     web::ContentType type, int parent) {
    web::Resource r;
    r.hostname = host;
    r.path = path;
    r.content_type = type;
    r.parent = parent;
    r.discovery_cpu_ms = 2.0;
    page.resources.push_back(r);
  };
  add("static.site.com", "/app.js", web::ContentType::kJavascript, 0);
  add("static.site.com", "/style.css", web::ContentType::kCss, 0);
  add("img.site.com", "/hero.jpg", web::ContentType::kJpeg, 0);
  add("static.site.com", "/font.woff2", web::ContentType::kFontWoff2, 2);
  add("tracker.example.net", "/t.js", web::ContentType::kJavascript, 0);
  return page;
}

LoaderOptions no_race_options(const std::string& policy) {
  LoaderOptions options;
  options.policy = policy;
  options.happy_eyeballs_extra_dns = 0.0;
  options.speculative_extra_connection = 0.0;
  return options;
}

TEST(PageLoader, FixedDnsOrderLetsChromiumCoalesce) {
  World world;
  PageLoader loader(world.env, no_race_options("chromium-ip"));
  auto load = loader.load(make_page());
  ASSERT_EQ(load.entries.size(), 6u);
  // Fixed answer order -> every shard's answer contains the connected
  // address -> one connection per service.
  EXPECT_EQ(load.tls_connection_count(), 2u);
  EXPECT_EQ(load.unique_connection_count(), 2u);
}

TEST(PageLoader, DnsLoadBalancingBreaksChromiumButNotFirefox) {
  // The paper's §2.3 example: the base connection lands on address A (the
  // www answer is {A, B}); the DNS load balancer hands the shards address B
  // only. Chromium's connected-set check misses; Firefox's available-set
  // transitivity still matches through B.
  auto shard_to_b = [](World& world) {
    world.env.repoint_dns("static.site.com", {IpAddress::v4(0x0A0A0A02)});
    world.env.repoint_dns("img.site.com", {IpAddress::v4(0x0A0A0A02)});
  };
  World chromium_world;
  shard_to_b(chromium_world);
  PageLoader chromium(chromium_world.env, no_race_options("chromium-ip"));
  auto chromium_load = chromium.load(make_page());

  World firefox_world;
  shard_to_b(firefox_world);
  PageLoader firefox(firefox_world.env, no_race_options("firefox-transitive"));
  auto firefox_load = firefox.load(make_page());

  EXPECT_GT(chromium_load.tls_connection_count(),
            firefox_load.tls_connection_count());
  EXPECT_EQ(firefox_load.tls_connection_count(), 2u);
}

TEST(PageLoader, OriginPolicySkipsDnsForOriginSetMembers) {
  World world(/*origin_frames=*/true);
  PageLoader loader(world.env, no_race_options("origin-frame"));
  auto load = loader.load(make_page());
  // DNS: base page + tracker only. Shards ride the origin set.
  EXPECT_EQ(load.dns_query_count(), 2u);
  EXPECT_EQ(load.tls_connection_count(), 2u);
  // And the coalesced entries carry zero dns/connect/ssl time.
  for (const auto& entry : load.entries) {
    if (entry.hostname == "static.site.com" ||
        entry.hostname == "img.site.com") {
      EXPECT_EQ(entry.timings.setup().count_micros(), 0);
      EXPECT_FALSE(entry.new_tls_connection);
    }
  }
}

TEST(PageLoader, WithoutOriginFramesOriginPolicyQueriesDns) {
  World world(/*origin_frames=*/false);
  PageLoader loader(world.env, no_race_options("origin-frame"));
  auto load = loader.load(make_page());
  // Falls back to IP transitivity: DNS per unique hostname.
  EXPECT_EQ(load.dns_query_count(), 4u);
  EXPECT_EQ(load.tls_connection_count(), 2u);
}

TEST(PageLoader, CertificateGapForcesNewConnections) {
  // Certificate covers only www.site.com: shards cannot coalesce under any
  // policy, even with ORIGIN frames (RFC 8336 §2.4).
  World world(/*origin_frames=*/true, /*cert_covers_shards=*/false);
  PageLoader loader(world.env, no_race_options("origin-frame"));
  auto load = loader.load(make_page());
  EXPECT_EQ(load.tls_connection_count(), 4u);  // www, static, img, tracker
}

TEST(PageLoader, MisdirectedRequestCosts421) {
  // The origin set advertises a host the deployment cannot actually serve:
  // the client's optimistic reuse gets 421, retries on a new connection.
  World world(/*origin_frames=*/true);
  world.cdn->origin_advertisement.push_back("https://elsewhere.site.com");
  Service elsewhere;
  elsewhere.name = "elsewhere";
  elsewhere.asn = 99;
  elsewhere.provider = "Other";
  elsewhere.addresses = {IpAddress::v4(0x0C0C0C01)};
  elsewhere.served_hostnames = {"elsewhere.site.com"};
  elsewhere.certificate = world.cdn->certificate;  // same cert, covers it?
  // Issue a fresh cert that covers the host so only reachability fails.
  elsewhere.certificate = std::make_shared<tls::Certificate>(
      *world.env.default_ca().issue("elsewhere.site.com",
                                    {"elsewhere.site.com"},
                                    SimTime::from_micros(0)));
  world.env.add_service(std::move(elsewhere));
  // Make the CDN cert cover the host so the ORIGIN path is taken.
  world.cdn->certificate = std::make_shared<tls::Certificate>(
      *world.env.default_ca().issue(
          "www.site.com",
          {"www.site.com", "static.site.com", "img.site.com",
           "elsewhere.site.com"},
          SimTime::from_micros(0)));

  auto page = make_page();
  web::Resource extra;
  extra.hostname = "elsewhere.site.com";
  extra.path = "/x.js";
  extra.parent = 0;
  page.resources.push_back(extra);

  PageLoader loader(world.env, no_race_options("origin-frame"));
  auto load = loader.load(page);
  const auto& entry = load.entries.back();
  EXPECT_TRUE(entry.status_421);
  EXPECT_TRUE(entry.new_tls_connection);  // fell back to its own connection
  EXPECT_GT(entry.timings.blocked.count_micros(), 0);
}

TEST(PageLoader, CorsAnonymousUsesSeparatePool) {
  World world(/*origin_frames=*/true);
  auto page = make_page();
  web::Resource cors;
  cors.hostname = "static.site.com";
  cors.path = "/cors.json";
  cors.mode = web::RequestMode::kCorsAnonymous;
  cors.parent = 0;
  page.resources.push_back(cors);

  PageLoader loader(world.env, no_race_options("origin-frame"));
  auto load = loader.load(page);
  // The CORS request cannot ride the credentialed pool: one extra
  // connection (§5.3's observed obstruction).
  EXPECT_EQ(load.tls_connection_count(), 3u);
  EXPECT_TRUE(load.entries.back().new_tls_connection);
}

TEST(PageLoader, DependencyGateOrdersWaterfall) {
  World world;
  PageLoader loader(world.env, no_race_options("chromium-ip"));
  auto page = make_page();
  auto load = loader.load(page);
  // font.woff2 (index 4) is discovered by style.css (index 2).
  EXPECT_GE(load.entries[4].start.micros(),
            load.entries[2].end().micros());
  // Children of the base start after the base completes.
  for (std::size_t i = 1; i < load.entries.size(); ++i) {
    if (page.resources[i].parent == 0) {
      EXPECT_GE(load.entries[i].start.micros(),
                load.entries[0].end().micros());
    }
  }
}

TEST(PageLoader, PltImprovesWithOriginCoalescing) {
  World plain_world;
  // Disjoint shard addresses defeat IP coalescing for the baseline.
  plain_world.env.repoint_dns("static.site.com", {IpAddress::v4(0x0A0A0A02)});
  plain_world.env.repoint_dns("img.site.com", {IpAddress::v4(0x0A0A0A02)});
  PageLoader plain(plain_world.env, no_race_options("chromium-ip"));
  auto baseline = plain.load(make_page());

  World origin_world(/*origin_frames=*/true);
  PageLoader coalescing(origin_world.env, no_race_options("origin-frame"));
  auto improved = coalescing.load(make_page());

  EXPECT_LT(improved.page_load_time().as_millis(),
            baseline.page_load_time().as_millis());
}

TEST(PageLoader, DeterministicAcrossRuns) {
  World w1, w2;
  PageLoader l1(w1.env, no_race_options("firefox-transitive"));
  PageLoader l2(w2.env, no_race_options("firefox-transitive"));
  auto a = l1.load(make_page());
  auto b = l2.load(make_page());
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].start.micros(), b.entries[i].start.micros());
    EXPECT_EQ(a.entries[i].timings.total().count_micros(),
              b.entries[i].timings.total().count_micros());
  }
  EXPECT_EQ(a.page_load_time().count_micros(),
            b.page_load_time().count_micros());
}

TEST(PageLoader, RaceConditionsInflateCounts) {
  World world;
  LoaderOptions options = no_race_options("chromium-ip");
  options.happy_eyeballs_extra_dns = 1.0;       // force the races
  options.speculative_extra_connection = 1.0;
  PageLoader loader(world.env, options);
  auto load = loader.load(make_page());
  EXPECT_GT(load.extra_dns_queries, 0u);
  EXPECT_GT(load.extra_tls_connections, 0u);
  EXPECT_GT(load.dns_query_count(), 2u);
  EXPECT_GT(load.tls_connection_count(), 2u);
}

TEST(PageLoader, InsecureResourcesSkipTls) {
  World world;
  auto page = make_page();
  web::Resource insecure;
  insecure.hostname = "tracker.example.net";
  insecure.path = "/pixel.gif";
  insecure.secure = false;
  insecure.version = web::HttpVersion::kH11;
  insecure.parent = 0;
  page.resources.push_back(insecure);
  PageLoader loader(world.env, no_race_options("chromium-ip"));
  auto load = loader.load(page);
  const auto& entry = load.entries.back();
  EXPECT_FALSE(entry.new_tls_connection);
  EXPECT_EQ(entry.timings.ssl.count_micros(), 0);
  EXPECT_GT(entry.timings.connect.count_micros(), 0);
}

TEST(PageLoader, H1KeepAliveReusesIdleConnection) {
  World world;
  auto page = make_page();
  // Two sequential h1 requests to the same host: second reuses keep-alive.
  web::Resource h1a;
  h1a.hostname = "tracker.example.net";
  h1a.path = "/a.js";
  h1a.version = web::HttpVersion::kH11;
  h1a.parent = 0;
  page.resources.push_back(h1a);
  web::Resource h1b = h1a;
  h1b.path = "/b.js";
  h1b.parent = static_cast<int>(page.resources.size() - 1);
  page.resources.push_back(h1b);

  PageLoader loader(world.env, no_race_options("chromium-ip"));
  auto load = loader.load(page);
  const auto& first = load.entries[load.entries.size() - 2];
  const auto& second = load.entries.back();
  EXPECT_TRUE(first.new_tls_connection);
  EXPECT_FALSE(second.new_tls_connection);
  EXPECT_EQ(first.connection_id, second.connection_id);
}

}  // namespace
}  // namespace origin::browser
