// origin_analyze: multi-pass static analysis for the repro tree.
//
// Usage:
//   origin_analyze [--pass=alloc|determinism|layering|lint|hot-transitive|
//                          lock-order|error-prop|all]
//                  [--waivers=FILE] [--json=FILE] [--root=DIR]
//                  [--baseline=FILE] [--min-reason-chars=N]
//                  [--dump-callgraph] [--dump-unresolved] PATH...
//
// PATHs are files or directories relative to --root (default: the current
// directory). The intraprocedural passes (alloc, determinism, layering)
// walk each file's token stream, the lint pass its raw lines; the
// interprocedural passes (hot-transitive, lock-order, error-prop) run over
// a call graph built from the whole corpus (callgraph.h).
//
// --min-reason-chars=N (default 30, 0 disables) is the waiver-hygiene
// gate: every *applied* waiver whose reason is shorter than N characters
// gets a waiver-short-reason finding. A waiver is a claim that an
// invariant is safe to break here; a reason too short to say why is not a
// claim, it is a mute button.
//
// --baseline=FILE is the findings-drift gate: FILE is a previous --json
// output, and any *waived* finding present now but absent from the
// baseline fails the run. New unwaived findings already fail via the exit
// code; this closes the quieter channel where a finding sneaks in
// pre-waived and nobody reviews the reason.
//
// Exit status: 0 when every finding is waived and there is no baseline
// drift, 1 otherwise, 2 on usage or I/O errors (a malformed option value,
// an unreadable --waivers or --baseline file, an unwritable --json file).
#include <array>
#include <charconv>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "findings.h"
#include "model.h"
#include "passes.h"

namespace {

using origin::analyze::CallGraph;
using origin::analyze::FileModel;
using origin::analyze::FileWaiver;
using origin::analyze::Finding;
using origin::analyze::FindingSink;

int usage() {
  std::cerr
      << "usage: origin_analyze [--pass=alloc|determinism|layering|lint|"
         "hot-transitive|lock-order|error-prop|all]\n"
         "                      [--waivers=FILE] [--json=FILE] "
         "[--root=DIR]\n"
         "                      [--baseline=FILE] [--min-reason-chars=N]\n"
         "                      [--dump-callgraph] [--dump-unresolved] "
         "PATH...\n";
  return 2;
}

// The pass a rule belongs to, for the per-pass summary counts. Lint rules
// are the ones without a pass prefix.
std::string_view pass_of_rule(std::string_view rule) {
  if (rule == "hot-transitive") return "hot-transitive";
  if (rule.rfind("hot-", 0) == 0) return "alloc";
  if (rule.rfind("det-", 0) == 0) return "determinism";
  if (rule.rfind("layer-", 0) == 0) return "layering";
  if (rule.rfind("lock-", 0) == 0) return "lock-order";
  if (rule.rfind("error-", 0) == 0) return "error-prop";
  if (rule.rfind("waiver-", 0) == 0) return "waiver-hygiene";
  return "lint";
}

// The drift-gate key for a finding: rule|file|message, with the message in
// the same escaped form write_json emits, so keys computed from a live
// finding and keys parsed back out of a baseline file compare equal.
std::string drift_key(std::string_view rule, std::string_view file,
                      std::string_view escaped_message) {
  std::string key(rule);
  key += '|';
  key += file;
  key += '|';
  key += escaped_message;
  return key;
}

// Extracts the value of `"field": "` starting at or after `from` on
// `line`, honoring backslash escapes, into `out`. Returns false when the
// field is absent.
bool extract_json_string(std::string_view line, std::string_view field,
                         std::string& out) {
  std::string needle = "\"";
  needle += field;
  needle += "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  out.clear();
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[i];
      out += line[i + 1];
      ++i;
      continue;
    }
    if (line[i] == '"') return true;
    out += line[i];
  }
  return false;
}

// Loads the waived-finding keys from a previous --json output. The format
// is our own (one finding object per line), so line-oriented scanning is
// exact, not approximate.
bool load_baseline(const std::string& path, std::set<std::string>& keys) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "origin_analyze: cannot open baseline " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"waived\": true") == std::string::npos) continue;
    std::string rule;
    std::string file;
    std::string message;
    if (extract_json_string(line, "rule", rule) &&
        extract_json_string(line, "file", file) &&
        extract_json_string(line, "message", message)) {
      keys.insert(drift_key(rule, file, message));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string pass = "all";
  std::string waiver_path;
  std::string json_path;
  std::string baseline_path;
  std::string root = ".";
  std::size_t min_reason_chars = 30;
  bool dump_callgraph = false;
  bool dump_unresolved = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pass=", 0) == 0) {
      pass = arg.substr(7);
    } else if (arg.rfind("--waivers=", 0) == 0) {
      waiver_path = arg.substr(10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--min-reason-chars=", 0) == 0) {
      const std::string_view value = std::string_view(arg).substr(19);
      const char* end = value.data() + value.size();
      const auto parsed =
          std::from_chars(value.data(), end, min_reason_chars);
      if (parsed.ec != std::errc() || parsed.ptr != end) return usage();
    } else if (arg == "--dump-callgraph") {
      dump_callgraph = true;
    } else if (arg == "--dump-unresolved") {
      dump_unresolved = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();
  const bool interprocedural = pass == "all" || pass == "hot-transitive" ||
                               pass == "lock-order" || pass == "error-prop";
  if (!interprocedural && pass != "alloc" && pass != "determinism" &&
      pass != "layering" && pass != "lint") {
    return usage();
  }

  std::vector<FileWaiver> waivers;
  if (!waiver_path.empty() &&
      !origin::analyze::load_waiver_file(waiver_path, waivers)) {
    return 2;
  }

  const std::deque<FileModel> corpus =
      origin::analyze::load_corpus(root, paths);
  if (corpus.empty()) {
    std::cerr << "origin_analyze: no .h/.cc files found under the given "
                 "paths\n";
    return 2;
  }

  FindingSink sink;
  if (pass == "all" || pass == "alloc") {
    origin::analyze::run_alloc_pass(corpus, sink);
  }
  if (pass == "all" || pass == "determinism") {
    origin::analyze::run_determinism_pass(corpus, sink);
  }
  if (pass == "all" || pass == "layering") {
    origin::analyze::run_layering_pass(corpus, sink);
  }
  if (pass == "all" || pass == "lint") {
    origin::analyze::run_lint_pass(corpus, sink);
  }
  if (interprocedural || dump_callgraph || dump_unresolved) {
    const CallGraph graph = CallGraph::build(corpus);
    if (dump_callgraph) graph.dump(std::cout);
    if (dump_unresolved) graph.report_unresolved(std::cout);
    if (pass == "all" || pass == "hot-transitive") {
      origin::analyze::run_hot_transitive_pass(graph, sink);
    }
    if (pass == "all" || pass == "lock-order") {
      origin::analyze::run_lock_order_pass(graph, sink);
    }
    if (pass == "all" || pass == "error-prop") {
      origin::analyze::run_error_prop_pass(graph, sink);
    }
  }

  auto lines_of = [&corpus](const std::string& file)
      -> const std::vector<std::string_view>& {
    static const std::vector<std::string_view> kNone;
    for (const FileModel& m : corpus) {
      if (m.rel == file) return m.lines;
    }
    return kNone;
  };
  sink.finalize(waivers, lines_of);

  // Waiver hygiene: a reason below the minimum gets its own finding. These
  // are added after the first finalize so they key off the *applied*
  // reasons (including multi-line continuation joins), then the sink is
  // finalized again so a hygiene finding is itself waivable.
  if (min_reason_chars > 0) {
    std::vector<Finding> short_reasons;
    for (const Finding& f : sink.findings()) {
      if (!f.waived || f.rule == "waiver-short-reason") continue;
      if (f.waiver_reason.size() >= min_reason_chars) continue;
      Finding h;
      h.rule = "waiver-short-reason";
      h.file = f.file;
      h.line = f.line;
      h.message = "waiver for [" + f.rule + "] gives a " +
                  std::to_string(f.waiver_reason.size()) +
                  "-char reason (\"" + f.waiver_reason + "\"); minimum " +
                  std::to_string(min_reason_chars) +
                  " — say why the invariant is safe to break here";
      short_reasons.push_back(std::move(h));
    }
    for (Finding& h : short_reasons) sink.add(std::move(h));
    sink.finalize(waivers, lines_of);
  }

  // Findings-drift gate: every currently-waived finding must already be in
  // the committed baseline. Unwaived findings fail via the exit code; this
  // catches the pre-waived kind that would otherwise land unreviewed.
  std::size_t drifted = 0;
  if (!baseline_path.empty()) {
    std::set<std::string> baseline;
    if (!load_baseline(baseline_path, baseline)) return 2;
    for (const Finding& f : sink.findings()) {
      if (!f.waived) continue;
      std::ostringstream escaped;
      origin::analyze::json_escape(escaped, f.message);
      if (baseline.count(drift_key(f.rule, f.file, escaped.str())) == 0) {
        std::cerr << "origin_analyze: waived finding not in baseline: "
                  << f.file << ':' << f.line << ": [" << f.rule << "] "
                  << f.message << "  (waived: " << f.waiver_reason << ")\n";
        ++drifted;
      }
    }
    if (drifted > 0) {
      std::cerr << "origin_analyze: " << drifted
                << " waived finding(s) drifted from " << baseline_path
                << " — review them, then regenerate the baseline with "
                   "--json\n";
    }
  }

  const std::size_t unwaived = sink.print(std::cerr);
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "origin_analyze: cannot write " << json_path << "\n";
      return 2;
    }
    sink.write_json(json);
  }

  static constexpr std::array<std::string_view, 8> kPassOrder = {
      "alloc",          "determinism", "layering",   "lint",
      "hot-transitive", "lock-order",  "error-prop", "waiver-hygiene",
  };
  std::string counts;
  for (const std::string_view p : kPassOrder) {
    std::size_t n = 0;
    for (const Finding& f : sink.findings()) {
      if (pass_of_rule(f.rule) == p) ++n;
    }
    if (!counts.empty()) counts += ' ';
    counts += p;
    counts += '=';
    counts += std::to_string(n);
  }
  std::cerr << "origin_analyze: " << corpus.size() << " files, "
            << sink.findings().size() << " findings, " << unwaived
            << " unwaived (pass=" << pass << ")\n"
            << "origin_analyze: per-pass findings: " << counts << "\n";
  return unwaived == 0 && drifted == 0 ? 0 : 1;
}
