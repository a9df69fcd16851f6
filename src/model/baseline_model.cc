// Seed implementation, frozen as the golden reference for the interned
// hot path. See baseline_model.h. The string-keyed tree containers are the
// point of this file, hence the no-string-keyed-tree waivers.
#include "model/baseline_model.h"

#include <algorithm>
#include <map>
#include <set>

namespace origin::model::baseline {

using origin::util::Duration;
using origin::util::SimTime;

std::string BaselineCoalescingModel::group_of(const std::string& hostname,
                                              std::uint32_t asn) const {
  switch (grouping_) {
    case Grouping::kAsn:
      return "as" + std::to_string(asn);
    case Grouping::kProvider: {
      const auto* service = env_.find_service(hostname);
      return service != nullptr ? "org:" + service->provider
                                : "as" + std::to_string(asn);
    }
    case Grouping::kService: {
      const auto* service = env_.find_service(hostname);
      return service != nullptr ? "svc:" + service->name
                                : "host:" + hostname;
    }
  }
  return "?";
}

PageAnalysis BaselineCoalescingModel::analyze(const web::PageLoad& load) const {
  PageAnalysis analysis;
  analysis.entries.resize(load.entries.size());

  analysis.measured_dns = load.dns_query_count();
  analysis.measured_tls = load.tls_connection_count();
  analysis.measured_validations = load.certificate_validation_count();

  auto coalescable = [](const web::HarEntry& entry) { return entry.secure; };

  std::set<std::string> groups_seen;      // analyze:allow(no-string-keyed-tree): frozen seed oracle, string keys on purpose
  std::set<std::string> solo_tls_hosts;   // analyze:allow(no-string-keyed-tree): frozen seed oracle, string keys on purpose
  std::set<std::string> plaintext_hosts;  // analyze:allow(no-string-keyed-tree): frozen seed oracle, string keys on purpose
  std::set<dns::IpAddress> addresses_seen;
  std::size_t ip_connections = 0;

  for (std::size_t i = 0; i < load.entries.size(); ++i) {
    const web::HarEntry& entry = load.entries[i];
    EntryAnalysis& ea = analysis.entries[i];
    ea.group_key = group_of(entry.hostname, entry.asn);

    if (entry.asn != 0 && coalescable(entry)) {
      if (groups_seen.contains(ea.group_key)) {
        ea.coalescable_origin = true;
      } else {
        groups_seen.insert(ea.group_key);
      }
    } else if (entry.secure) {
      solo_tls_hosts.insert(entry.hostname);
    } else {
      plaintext_hosts.insert(entry.hostname);
    }

    if (entry.new_tls_connection) {
      if (addresses_seen.contains(entry.server_address)) {
        ea.coalescable_ip = true;
      } else {
        addresses_seen.insert(entry.server_address);
        ++ip_connections;
      }
    }
  }

  analysis.ideal_origin_dns = groups_seen.size() + solo_tls_hosts.size() +
                              plaintext_hosts.size();
  analysis.ideal_origin_tls = groups_seen.size() + solo_tls_hosts.size();
  analysis.ideal_origin_validations =
      groups_seen.size() + solo_tls_hosts.size();

  analysis.ideal_ip_dns = analysis.measured_dns - load.extra_dns_queries;
  analysis.ideal_ip_tls = ip_connections;
  return analysis;
}

web::PageLoad BaselineCoalescingModel::reconstruct(
    const web::PageLoad& load, const PageAnalysis& analysis,
    const std::string& restrict_to_group) const {
  web::PageLoad out = load;
  out.extra_dns_queries = 0;
  out.extra_tls_connections = 0;

  auto applies = [&](std::size_t i) {
    if (!analysis.entries[i].coalescable_origin) return false;
    return restrict_to_group.empty() ||
           analysis.entries[i].group_key == restrict_to_group;
  };

  struct Batch {
    std::string group;
    SimTime window_end;
    Duration min_dns;
    std::vector<std::size_t> members;
  };
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < load.entries.size(); ++i) {
    if (!applies(i)) continue;
    const auto& entry = load.entries[i];
    const std::string& group = analysis.entries[i].group_key;
    Batch* batch = nullptr;
    for (auto& candidate : batches) {
      if (candidate.group == group && entry.start <= candidate.window_end) {
        batch = &candidate;
        break;
      }
    }
    if (batch == nullptr) {
      batches.push_back(Batch{group, entry.start + entry.timings.dns,
                              entry.timings.dns, {}});
      batch = &batches.back();
    }
    batch->window_end =
        std::max(batch->window_end, entry.start + entry.timings.dns);
    batch->min_dns = std::min(batch->min_dns, entry.timings.dns);
    batch->members.push_back(i);
  }
  std::map<std::size_t, Duration> dns_reduction;
  for (const auto& batch : batches) {
    for (std::size_t member : batch.members) {
      dns_reduction[member] = batch.min_dns;
    }
  }

  for (std::size_t i = 0; i < out.entries.size(); ++i) {
    web::HarEntry& entry = out.entries[i];
    const web::HarEntry& orig = load.entries[i];

    if (applies(i)) {
      auto it = dns_reduction.find(i);
      const Duration reduction =
          it != dns_reduction.end() ? it->second : orig.timings.dns;
      entry.timings.dns = orig.timings.dns - reduction;
      entry.timings.connect = Duration();
      entry.timings.ssl = Duration();
      entry.timings.blocked = Duration();
      entry.new_dns_query = false;
      entry.new_tls_connection = false;
      entry.cert_san_count = -1;
      entry.cert_serial = 0;
    }

    // O(n²) anchor recovery — the complexity the interned path replaces
    // with the sorted-by-end prefix sweep; kept here as the semantic spec.
    SimTime orig_anchor_end;
    SimTime new_anchor_end;
    bool anchored = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (load.entries[j].end() <= orig.start &&
          (!anchored || load.entries[j].end() > orig_anchor_end)) {
        orig_anchor_end = load.entries[j].end();
        new_anchor_end = out.entries[j].end();
        anchored = true;
      }
    }
    if (anchored) {
      const Duration gap = orig.start - orig_anchor_end;
      entry.start = new_anchor_end + gap;
    }
  }
  return out;
}

}  // namespace origin::model::baseline
