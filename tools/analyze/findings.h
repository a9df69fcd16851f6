// Findings: the shared output format of the origin_analyze passes.
//
// A finding is (rule, file, line span, message). Waivers come in two forms:
//   - inline:  `// analyze:allow(rule): reason` on the offending line or in
//     the //-comment block directly above it;
//   - file:    a waiver file with `rule path-fragment reason...` lines,
//     matching any finding whose rule equals `rule` and whose path contains
//     `path-fragment`.
// finalize() applies waivers, drops duplicates, merges overlapping spans of
// the same rule, and sorts (file, line, rule) so output is deterministic.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace origin::analyze {

struct Finding {
  std::string rule;
  std::string file;          // repo-relative path
  std::size_t line = 0;      // 1-based first line of the span
  std::size_t end_line = 0;  // last line; == line for single-line findings
  std::string message;
  bool waived = false;
  std::string waiver_reason;  // set when waived
};

struct FileWaiver {
  std::string rule;
  std::string path_fragment;
  std::string reason;
};

// Parses a waiver file into `waivers`. Blank lines and `#` comments are
// skipped; malformed lines (fewer than three fields) are reported on stderr
// and ignored. Returns false, after reporting it, if the file cannot be
// opened.
bool load_waiver_file(const std::string& path,
                      std::vector<FileWaiver>& waivers);

// Writes `text` with JSON string escaping. Exposed so the driver's
// findings-drift gate can compute keys in exactly the form write_json
// emits them.
void json_escape(std::ostream& out, std::string_view text);

class FindingSink {
 public:
  void add(Finding finding);
  void add(std::string rule, std::string file, std::size_t line,
           std::string message, std::size_t end_line = 0);

  // Applies waivers, dedupes, merges same-rule overlapping spans, sorts.
  // `lines_of(file)` must return the file's source lines (1-based via
  // index-1) so inline waivers can be matched; it may return an empty
  // vector for files the caller never modeled.
  template <typename LinesOf>
  void finalize(const std::vector<FileWaiver>& waivers, LinesOf lines_of) {
    for (Finding& f : findings_) {
      apply_inline_waiver(f, lines_of(f.file));
      if (!f.waived) apply_file_waiver(f, waivers);
    }
    sort_and_dedupe();
  }

  const std::vector<Finding>& findings() const { return findings_; }
  std::size_t unwaived_count() const;

  // Human-readable report: one `file:line: [rule] message` per finding,
  // waived ones tagged. Returns the unwaived count.
  std::size_t print(std::ostream& out) const;

  // Machine-readable report: {"findings":[...],"unwaived":N}.
  void write_json(std::ostream& out) const;

 private:
  static void apply_inline_waiver(
      Finding& f, const std::vector<std::string_view>& lines);
  static void apply_file_waiver(Finding& f,
                                const std::vector<FileWaiver>& waivers);
  void sort_and_dedupe();

  std::vector<Finding> findings_;
};

}  // namespace origin::analyze
