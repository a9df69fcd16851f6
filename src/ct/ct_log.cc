#include "ct/ct_log.h"

#include <algorithm>

#include "util/strings.h"

namespace origin::ct {

std::string encode_log_entry(const tls::Certificate& cert) {
  // subject|issuer|serial|san,san,... — enough for monitors to match
  // domains and for leaves to be unique per certificate.
  std::string entry = cert.subject_common_name;
  entry += '|';
  entry += cert.issuer;
  entry += '|';
  entry += std::to_string(cert.serial);
  entry += '|';
  for (const auto& san : cert.san_dns) {
    entry += san;
    entry += ',';
  }
  return entry;
}

Sct CtLog::submit(const tls::Certificate& cert, origin::util::SimTime now) {
  std::string entry = encode_log_entry(cert);
  Sct sct;
  sct.log_name = name_;
  sct.leaf_index = tree_.append(entry);
  sct.timestamp = now;
  sct.leaf_hash = hash_leaf(entry);
  raw_entries_.push_back(std::move(entry));
  ++hourly_[now.micros() / 3'600'000'000LL];
  return sct;
}

std::vector<std::string> CtLog::entries_since(std::uint64_t index) const {
  if (index >= raw_entries_.size()) return {};
  return {raw_entries_.begin() + static_cast<std::ptrdiff_t>(index),
          raw_entries_.end()};
}

CtLog& CtEcosystem::add_log(const std::string& name,
                            const std::string& operator_org) {
  logs_.push_back(std::make_unique<CtLog>(name, operator_org));
  return *logs_.back();
}

std::vector<Sct> CtEcosystem::submit(const tls::Certificate& cert,
                                     origin::util::SimTime now) {
  // Least-loaded logs first, one per operator.
  std::vector<CtLog*> ordered;
  ordered.reserve(logs_.size());
  for (const auto& log : logs_) ordered.push_back(log.get());
  std::sort(ordered.begin(), ordered.end(), [](const CtLog* a, const CtLog* b) {
    if (a->entry_count() != b->entry_count()) {
      return a->entry_count() < b->entry_count();
    }
    return a->name() < b->name();
  });
  std::vector<Sct> scts;
  std::set<std::string> operators_used;
  for (CtLog* log : ordered) {
    if (scts.size() >= required_logs_) break;
    if (operators_used.contains(log->operator_org())) continue;
    scts.push_back(log->submit(cert, now));
    operators_used.insert(log->operator_org());
  }
  return scts;
}

double CtEcosystem::max_operator_share() const {
  std::map<std::string, std::uint64_t> per_operator;
  std::uint64_t total = 0;
  for (const auto& log : logs_) {
    per_operator[log->operator_org()] += log->entry_count();
    total += log->entry_count();
  }
  if (total == 0) return 0.0;
  std::uint64_t max_entries = 0;
  for (const auto& [op, count] : per_operator) {
    max_entries = std::max(max_entries, count);
  }
  return static_cast<double>(max_entries) / static_cast<double>(total);
}

std::vector<CtMonitor::Hit> CtMonitor::poll(const CtEcosystem& ecosystem) {
  std::vector<Hit> hits;
  for (const auto& log : ecosystem.logs()) {
    std::uint64_t& cursor = cursor_[log->name()];
    auto fresh = log->entries_since(cursor);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const std::string& entry = fresh[i];
      const auto fields = origin::util::split(entry, '|');
      if (fields.size() < 4) continue;
      const auto sans = origin::util::split(fields[3], ',');
      for (const auto& watched : watched_) {
        bool matches = false;
        for (const auto& san : sans) {
          if (san.empty()) continue;
          if (origin::util::wildcard_matches(san, watched) || san == watched) {
            matches = true;
            break;
          }
        }
        if (matches || fields[0] == watched) {
          hits.push_back(Hit{log->name(), cursor + i, watched, fields[0]});
        }
      }
    }
    cursor += fresh.size();
  }
  return hits;
}

}  // namespace origin::ct
