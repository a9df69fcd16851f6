#include "findings.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <tuple>

namespace origin::analyze {

namespace {

// Returns true, with the text after the marker in `reason`, if `line`
// carries an `analyze:allow(<rule>)` comment for `rule`.
bool match_allow(std::string_view line, std::string_view rule,
                 std::string& reason) {
  static constexpr std::string_view kMarker = "analyze:allow(";
  std::size_t at = 0;
  while ((at = line.find(kMarker, at)) != std::string_view::npos) {
    const std::size_t open = at + kMarker.size();
    const std::size_t close = line.find(')', open);
    if (close == std::string_view::npos) break;
    if (line.substr(open, close - open) == rule) {
      std::string_view rest = line.substr(close + 1);
      if (!rest.empty() && rest.front() == ':') rest.remove_prefix(1);
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      reason = std::string(rest);
      return true;
    }
    at = close;
  }
  return false;
}

}  // namespace

void json_escape(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

bool load_waiver_file(const std::string& path,
                      std::vector<FileWaiver>& waivers) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "origin_analyze: cannot open waiver file " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    FileWaiver w;
    if (!(fields >> w.rule >> w.path_fragment)) {
      std::cerr << "analyze: malformed waiver line ignored: " << line
                << "\n";
      continue;
    }
    std::getline(fields >> std::ws, w.reason);
    if (w.reason.empty()) {
      std::cerr << "analyze: waiver without reason ignored: " << line
                << "\n";
      continue;
    }
    waivers.push_back(std::move(w));
  }
  return true;
}

void FindingSink::add(Finding finding) {
  if (finding.end_line < finding.line) finding.end_line = finding.line;
  findings_.push_back(std::move(finding));
}

void FindingSink::add(std::string rule, std::string file, std::size_t line,
                      std::string message, std::size_t end_line) {
  Finding f;
  f.rule = std::move(rule);
  f.file = std::move(file);
  f.line = line;
  f.end_line = end_line == 0 ? line : end_line;
  f.message = std::move(message);
  add(std::move(f));
}

namespace {

bool is_comment_line(std::string_view line) {
  const std::size_t at = line.find_first_not_of(" \t");
  return at != std::string_view::npos && line.substr(at, 2) == "//";
}

}  // namespace

void FindingSink::apply_inline_waiver(
    Finding& f, const std::vector<std::string_view>& lines) {
  auto try_line = [&](std::size_t ln) {
    if (ln == 0 || ln > lines.size()) return false;
    std::string reason;
    if (!match_allow(lines[ln - 1], f.rule, reason)) return false;
    // Multi-line reasons: when the allow-marker is a full-line comment,
    // the //-comment lines that follow it (still above the finding, and
    // not themselves allow-markers) continue the reason. A reason should
    // not have to fit one line to survive clang-format.
    if (is_comment_line(lines[ln - 1])) {
      for (std::size_t nl = ln + 1; nl <= lines.size() && nl < f.line;
           ++nl) {
        const std::string_view cont = lines[nl - 1];
        if (!is_comment_line(cont) ||
            cont.find(":allow(") != std::string_view::npos) {
          break;
        }
        std::string_view text = cont.substr(cont.find("//") + 2);
        while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
        while (!text.empty() &&
               (text.back() == ' ' || text.back() == '\t')) {
          text.remove_suffix(1);
        }
        if (!text.empty()) {
          if (!reason.empty()) reason += ' ';
          reason += text;
        }
      }
    }
    f.waived = true;
    f.waiver_reason = reason.empty() ? "inline waiver" : reason;
    return true;
  };
  // The allow-comment may sit on any line of the span…
  for (std::size_t ln = f.line; ln <= f.end_line; ++ln) {
    if (try_line(ln)) return;
  }
  // …or anywhere in the contiguous //-comment block directly above it.
  for (std::size_t ln = f.line; ln > 1; --ln) {
    if (!is_comment_line(lines.size() >= ln - 1 ? lines[ln - 2]
                                                : std::string_view{})) {
      break;
    }
    if (try_line(ln - 1)) return;
  }
}

void FindingSink::apply_file_waiver(Finding& f,
                                    const std::vector<FileWaiver>& waivers) {
  for (const FileWaiver& w : waivers) {
    if (w.rule == f.rule &&
        f.file.find(w.path_fragment) != std::string::npos) {
      f.waived = true;
      f.waiver_reason = w.reason;
      return;
    }
  }
}

void FindingSink::sort_and_dedupe() {
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.end_line,
                              a.message) < std::tie(b.file, b.line, b.rule,
                                                    b.end_line, b.message);
            });
  // Merge same-rule findings in the same file whose spans touch or
  // overlap (a multi-line match and its per-line echoes collapse to one).
  std::vector<Finding> merged;
  for (Finding& f : findings_) {
    if (!merged.empty()) {
      Finding& prev = merged.back();
      if (prev.file == f.file && prev.rule == f.rule &&
          f.line <= prev.end_line + 1 && prev.waived == f.waived) {
        prev.end_line = std::max(prev.end_line, f.end_line);
        continue;
      }
    }
    merged.push_back(std::move(f));
  }
  findings_ = std::move(merged);
}

std::size_t FindingSink::unwaived_count() const {
  std::size_t count = 0;
  for (const Finding& f : findings_) {
    if (!f.waived) ++count;
  }
  return count;
}

std::size_t FindingSink::print(std::ostream& out) const {
  for (const Finding& f : findings_) {
    out << f.file << ':' << f.line;
    if (f.end_line > f.line) out << '-' << f.end_line;
    out << ": [" << f.rule << "] " << f.message;
    if (f.waived) out << "  (waived: " << f.waiver_reason << ')';
    out << '\n';
  }
  return unwaived_count();
}

void FindingSink::write_json(std::ostream& out) const {
  out << "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings_) {
    out << (first ? "\n" : ",\n") << "    {\"rule\": \"";
    json_escape(out, f.rule);
    out << "\", \"file\": \"";
    json_escape(out, f.file);
    out << "\", \"line\": " << f.line << ", \"end_line\": " << f.end_line
        << ", \"waived\": " << (f.waived ? "true" : "false")
        << ", \"message\": \"";
    json_escape(out, f.message);
    out << "\"";
    if (f.waived) {
      out << ", \"waiver_reason\": \"";
      json_escape(out, f.waiver_reason);
      out << "\"";
    }
    out << "}";
    first = false;
  }
  out << "\n  ],\n  \"unwaived\": " << unwaived_count() << "\n}\n";
}

}  // namespace origin::analyze
