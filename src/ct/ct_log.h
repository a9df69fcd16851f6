// Certificate Transparency ecosystem (paper §6.4).
//
// CAs write every issued certificate to multiple CT logs run by different
// operators; the paper checks that its one-time burst of ~120K certificate
// reissuances (37.59% of modified sites) would not stress the ecosystem,
// against a global issuance rate of ~257,034 certificates/hour, and notes
// the operator-imbalance problem. This module provides the log (an
// RFC 6962 Merkle tree issuing SCTs), the multi-operator ecosystem with a
// two-distinct-operators submission policy, per-hour issuance accounting,
// and a monitor that watches logs for certificates naming watched domains.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ct/merkle.h"
#include "tls/certificate.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace origin::ct {

// Signed Certificate Timestamp: the log's promise of inclusion.
struct Sct {
  std::string log_name;
  std::uint64_t leaf_index = 0;
  origin::util::SimTime timestamp;
  Digest leaf_hash = 0;
};

class CtLog {
 public:
  CtLog(std::string name, std::string operator_org)
      : name_(std::move(name)), operator_(std::move(operator_org)) {}

  const std::string& name() const { return name_; }
  const std::string& operator_org() const { return operator_; }

  Sct submit(const tls::Certificate& cert, origin::util::SimTime now);

  std::uint64_t entry_count() const { return tree_.size(); }
  Digest tree_head() const { return tree_.root(); }
  const MerkleTree& tree() const { return tree_; }

  // Entries appended during [begin, end) — what monitors poll.
  std::vector<std::string> entries_since(std::uint64_t index) const;

  // Per-hour submission counts (hour = floor(sim time / 1h)).
  const std::map<std::int64_t, std::uint64_t>& hourly_submissions() const {
    return hourly_;
  }

 private:
  std::string name_;
  std::string operator_;
  MerkleTree tree_;
  std::vector<std::string> raw_entries_;
  std::map<std::int64_t, std::uint64_t> hourly_;
};

// The set of logs a CA submits to. Policy: every certificate goes to
// `required_logs` logs operated by distinct organizations (Chrome's CT
// policy shape).
class CtEcosystem {
 public:
  explicit CtEcosystem(std::size_t required_logs = 2)
      : required_logs_(required_logs) {}

  CtLog& add_log(const std::string& name, const std::string& operator_org);

  // Submits to `required_logs` distinct-operator logs chosen by current
  // load (least-loaded-first — the mitigation §6.4 suggests), or
  // round-robin-by-weight when `weighted` operators dominate.
  std::vector<Sct> submit(const tls::Certificate& cert,
                          origin::util::SimTime now);

  const std::vector<std::unique_ptr<CtLog>>& logs() const { return logs_; }

  // Share of entries held by the busiest operator (the §6.4 imbalance).
  double max_operator_share() const;

 private:
  std::size_t required_logs_;
  std::vector<std::unique_ptr<CtLog>> logs_;
};

// A CT monitor (paper ref [37]): watches all logs for certificates that
// cover any watched domain.
class CtMonitor {
 public:
  void watch(std::string domain) { watched_.insert(std::move(domain)); }

  struct Hit {
    std::string log_name;
    std::uint64_t index;
    std::string domain;
    std::string subject;
  };
  // Polls every log for new entries; returns hits on watched domains.
  std::vector<Hit> poll(const CtEcosystem& ecosystem);

 private:
  std::set<std::string> watched_;
  std::map<std::string, std::uint64_t> cursor_;  // per-log next index
};

// Serialized log-entry format shared by CtLog and CtMonitor.
std::string encode_log_entry(const tls::Certificate& cert);

}  // namespace origin::ct
