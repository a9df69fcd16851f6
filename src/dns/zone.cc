#include "dns/zone.h"

#include <algorithm>

namespace origin::dns {

void Zone::add_a(const std::string& name, IpAddress address,
                 std::uint32_t ttl_seconds) {
  ResourceRecord record;
  record.name = name;
  record.type = address.family == Family::kV4 ? RecordType::kA
                                              : RecordType::kAAAA;
  record.ttl_seconds = ttl_seconds;
  record.address = address;
  names_[name].records.push_back(std::move(record));
}

void Zone::add_cname(const std::string& name, const std::string& target,
                     std::uint32_t ttl_seconds) {
  ResourceRecord record;
  record.name = name;
  record.type = RecordType::kCNAME;
  record.ttl_seconds = ttl_seconds;
  record.target = target;
  names_[name].records.push_back(std::move(record));
}

void Zone::set_policy(const std::string& name, AnswerPolicy policy) {
  names_[name].policy = policy;
}

void Zone::clear_addresses(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return;
  auto& records = it->second.records;
  records.erase(std::remove_if(records.begin(), records.end(),
                               [](const ResourceRecord& r) {
                                 return r.type != RecordType::kCNAME;
                               }),
                records.end());
}

bool Zone::authoritative_for(std::string_view name) const {
  if (name.size() <= apex_.size()) return name == apex_;
  return name[name.size() - apex_.size() - 1] == '.' &&
         name.ends_with(apex_);
}

namespace {

// Applies a zone's answer policy at the given rotation position. Pure: the
// stateful query() advances a counter and delegates here; the parallel
// pipeline supplies the position itself (derived per page) so two threads
// querying the same name never perturb each other's answers.
std::vector<ResourceRecord> answers_at(std::vector<ResourceRecord> matches,
                                       AnswerPolicy policy,
                                       std::uint64_t rotation) {
  switch (policy) {
    case AnswerPolicy::kAllFixed:
      break;
    case AnswerPolicy::kRoundRobin:
      std::rotate(matches.begin(),
                  matches.begin() +
                      static_cast<std::ptrdiff_t>(rotation % matches.size()),
                  matches.end());
      break;
    case AnswerPolicy::kSingle: {
      ResourceRecord chosen = matches[rotation % matches.size()];
      matches = {std::move(chosen)};
      break;
    }
    case AnswerPolicy::kSubset: {
      std::vector<ResourceRecord> window;
      window.push_back(matches[rotation % matches.size()]);
      if (matches.size() > 1) {
        window.push_back(matches[(rotation + 1) % matches.size()]);
      }
      matches = std::move(window);
      break;
    }
  }
  return matches;
}

}  // namespace

std::vector<ResourceRecord> Zone::query_at(const std::string& name,
                                           RecordType type,
                                           std::uint64_t rotation) const {
  auto it = names_.find(name);
  if (it == names_.end()) return {};
  const NameEntry& entry = it->second;
  // CNAMEs answer any type query for the name.
  std::vector<ResourceRecord> cnames;
  std::vector<ResourceRecord> matches;
  for (const auto& record : entry.records) {
    if (record.type == RecordType::kCNAME) {
      cnames.push_back(record);
    } else if (record.type == type) {
      matches.push_back(record);
    }
  }
  if (!cnames.empty()) return cnames;
  if (matches.empty()) return {};
  return answers_at(std::move(matches), entry.policy, rotation);
}

std::vector<ResourceRecord> Zone::query(const std::string& name,
                                        RecordType type) {
  auto it = names_.find(name);
  if (it == names_.end()) return {};
  NameEntry& entry = it->second;
  auto result = query_at(name, type, entry.rotation);
  // Only address answers consume a rotation step (CNAME chains and misses
  // did not rotate before either).
  if (!result.empty() && result[0].type != RecordType::kCNAME) {
    entry.rotation++;
  }
  return result;
}

Zone& AuthoritativeDns::add_zone(const std::string& apex) {
  auto [it, inserted] = zones_.emplace(apex, Zone(apex));
  return it->second;
}

namespace {

// The apexes authoritative_for accepts for `name` are the name itself and
// each suffix that follows a '.'. Looking those up longest first, the
// first hit is the longest such apex.
template <typename Zones>
auto longest_suffix_zone(Zones& zones, std::string_view name)
    -> decltype(&zones.begin()->second) {
  for (std::size_t start = 0;;) {
    if (auto it = zones.find(name.substr(start)); it != zones.end()) {
      return &it->second;
    }
    const std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) return nullptr;
    start = dot + 1;
  }
}

}  // namespace

Zone* AuthoritativeDns::find_zone_for(std::string_view name) {
  return longest_suffix_zone(zones_, name);
}

const Zone* AuthoritativeDns::find_zone_for(std::string_view name) const {
  return longest_suffix_zone(zones_, name);
}

std::vector<ResourceRecord> AuthoritativeDns::query(const std::string& name,
                                                    RecordType type) {
  Zone* zone = find_zone_for(name);
  if (zone == nullptr) return {};
  return zone->query(name, type);
}

std::vector<ResourceRecord> AuthoritativeDns::query_at(
    const std::string& name, RecordType type, std::uint64_t rotation) const {
  const Zone* zone = find_zone_for(name);
  if (zone == nullptr) return {};
  return zone->query_at(name, type, rotation);
}

}  // namespace origin::dns
