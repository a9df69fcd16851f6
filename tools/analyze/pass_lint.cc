// Lint pass: per-line invariants the compiler alone does not enforce.
//
// Each rule is a regular expression (or a small line-state machine) over a
// file's raw lines, scoped by FileModel::module — so files outside src/
// get only the repo-wide rules:
//
//   no-bare-assert        `assert(` and <cassert> are forbidden. NDEBUG
//                         strips assert from RelWithDebInfo — the default
//                         build — so its checks never run where it matters.
//                         Use ORIGIN_CHECK (util/check.h), which stays
//                         active in every build type.
//
//   no-reinterpret-cast   Raw reinterpret_cast is forbidden; parser code
//                         views bytes as text through the single audited
//                         helper util::as_string_view.
//
//   nodiscard-parse-api   Every header declaration returning util::Result
//                         or util::Status must carry [[nodiscard]]: a
//                         dropped return value silently swallows the error
//                         path of a parse (the §6.7 failure mode).
//
//   no-c-style-int-cast   C-style integer casts like (uint8_t)x are
//                         forbidden in the parser modules (h2, hpack, web,
//                         util); narrowing must be a searchable, explicit
//                         static_cast.
//
//   nodiscard-result-type src/util/result.h itself must keep Result and
//                         Status declared [[nodiscard]] (the class-level
//                         attribute is what makes the compiler flag silent
//                         drops).
//
// Thread-discipline rules (enforced on every compiler, so the clang-only
// thread-safety analysis has a floor that gcc builds keep too):
//
//   no-raw-std-mutex      `std::mutex` / `std::lock_guard` / std locks and
//                         condition variables are forbidden outside util/;
//                         use util::Mutex / util::MutexLock / util::CondVar
//                         (util/thread_annotations.h), whose capability
//                         annotations the clang analysis can see.
//
//   no-raw-std-thread     `std::thread` is forbidden outside util/; shard
//                         work through util::ThreadPool so the determinism
//                         and shutdown discipline live in one audited place.
//
//   no-thread-detach      `.detach()` is forbidden everywhere: a detached
//                         thread outlives the state it touches and no test
//                         can join on its failures.
//
//   no-volatile-sync      `volatile` is forbidden: it is not a
//                         synchronization primitive. Use std::atomic for
//                         order-independent counters or a util::Mutex.
//
//   guarded-by-annotation members declared in the block following a mutex
//                         member must carry ORIGIN_GUARDED_BY /
//                         ORIGIN_PT_GUARDED_BY (sync primitives, immutable
//                         const/static members, and annotated lines are
//                         exempt) — the heuristic that keeps new shared
//                         state from silently skipping the clang analysis.
//
// Module contracts:
//
//   close-reason-handled  In browser, cdn, and server, every set_on_close
//                         registration must bind the close reason
//                         (`const std::string& <name>`). The reason string
//                         carries the teardown cause (middlebox name,
//                         injected fault, GOAWAY) that the degradation and
//                         kill-switch layers key on; an unnamed parameter
//                         silently drops it.
//
//   no-string-keyed-tree  In model, measure, and dataset (the
//                         measurement→model hot paths), std::map/std::set
//                         keyed by std::string are forbidden: every lookup
//                         re-hashes/re-compares whole strings down a
//                         pointer-chasing tree. Intern keys once through
//                         util::Interner and use util::FlatMap/util::FlatSet
//                         over SymbolIds (DESIGN.md §10). The frozen
//                         baseline (baseline_model.cc) and deliberately
//                         ordered report tables carry audited waivers.
//
//   server-close-recorded In server, calling close() on a transport
//                         endpoint directly is forbidden: every
//                         server-initiated close must funnel through
//                         Http2Server::close_endpoint, which records the
//                         verbatim reason in Stats::close_reasons before
//                         tearing the transport down. A bypassed close is
//                         an unaudited shed — the overload ledger (and the
//                         1-vs-8-thread determinism checks built on it)
//                         silently loses an entry. The one audited call
//                         site inside close_endpoint carries the waiver.
//
//   durable-write-only    In dataset (the spill/journal layer), raw
//                         file-writing primitives — std::ofstream, fopen
//                         with a write/append mode, fwrite — are forbidden:
//                         every byte that lands in a spill directory must
//                         funnel through util/durable_file.h
//                         (temp → fsync → rename, or the fsynced
//                         DurableLog), otherwise a crash can leave a torn
//                         file that resume would read as data
//                         (DESIGN.md §15). Read-only opens are fine.
#include <regex>
#include <string>
#include <vector>

#include "passes.h"

namespace origin::analyze {

namespace {

// Modules holding hand-rolled parsers; the narrowing-cast rule applies only
// here, the rest of the rules repo-wide.
bool in_parser_module(const std::string& module) {
  return module == "h2" || module == "hpack" || module == "web" ||
         module == "util";
}

// Layers where a dropped close reason loses degradation/kill-switch signal.
bool in_close_reason_module(const std::string& module) {
  return module == "browser" || module == "cdn" || module == "server";
}

// Measurement→model hot paths where string-keyed trees are banned in favour
// of interned SymbolIds + flat hash containers (DESIGN.md §10).
bool in_interned_hot_path(const std::string& module) {
  return module == "model" || module == "measure" || module == "dataset";
}

std::string trimmed(const std::string& line) {
  const auto begin = line.find_first_not_of(" \t");
  return begin == std::string::npos ? "" : line.substr(begin);
}

bool is_comment_line(const std::string& line) {
  const std::string t = trimmed(line);
  return t.rfind("//", 0) == 0 || t.rfind("*", 0) == 0 || t.rfind("/*", 0) == 0;
}

// Lints one modeled file. The model's raw lines drive the text rules (the
// close-reason rule needs lookahead: a lambda's parameter list may wrap
// onto the following lines); waiver matching happens later in
// FindingSink::finalize against the same lines.
void lint_file(const FileModel& file, FindingSink& sink) {
  std::vector<std::string> lines;
  lines.reserve(file.lines.size());
  for (const std::string_view raw : file.lines) lines.emplace_back(raw);

  // Multi-line matches (the close-reason lookahead window) carry the full
  // span so the waiver can sit on any of its lines.
  auto report = [&](std::size_t line, std::size_t end_line, std::string rule,
                    std::string message) {
    sink.add(std::move(rule), file.rel, line, std::move(message), end_line);
  };

  const std::string& module = file.module;
  const bool header = file.is_header;
  const bool parser_module = in_parser_module(module);
  const bool close_reason_module = in_close_reason_module(module);
  const bool util_module = module == "util";
  const bool is_result_header = file.rel == "src/util/result.h";
  const bool is_check_header = file.rel == "src/util/check.h";

  static const std::regex bare_assert(R"((^|[^_\w])assert\s*\()");
  static const std::regex cassert_include(R"(#\s*include\s*<cassert>)");
  static const std::regex reinterpret(R"(reinterpret_cast)");
  static const std::regex result_decl(
      R"(^\s*(\[\[nodiscard\]\]\s*)?(static\s+)?(virtual\s+)?((origin::)?util::)?(Result<|Status\s+[A-Za-z_]))");
  static const std::regex c_int_cast(
      R"(\(\s*(std::)?u?int(8|16|32|64)_t\s*\)\s*[\w(])");
  static const std::regex raw_mutex(
      R"(std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable|condition_variable_any)\b)");
  static const std::regex raw_thread(R"(std::j?thread\b)");
  static const std::regex thread_detach(R"(\.\s*detach\s*\()");
  static const std::regex volatile_kw(R"((^|[^\w_])volatile([^\w_]|$))");
  // A mutex member declaration opens a "guarded block": following member
  // declarations must carry ORIGIN_GUARDED_BY until the block ends.
  static const std::regex mutex_member(
      R"(^\s*((origin::)?util::)?(Mutex|std::mutex)\s+\w+)");
  // Member declaration with no parentheses: `type name = init;` — the
  // no-parens shape excludes functions and already-annotated members.
  static const std::regex plain_member(
      R"(^\s*(const\s+|static\s+|constexpr\s+|mutable\s+)*[\w:]+(<[^;()]*>)?(\s*[*&])?\s+\w+\s*(=\s*[^;()]*)?(\{[^;()]*\})?\s*;)");
  static const std::regex access_specifier(R"(^\s*(public|private|protected)\s*:)");

  // Transport-level close calls (`x.close(` / `x->close(`); plain
  // `close_endpoint(...)` / `close_session(...)` calls do not match.
  static const std::regex endpoint_close(R"((\.|->)\s*close\s*\()");
  static const std::regex close_reason_bound(
      R"(const\s+std::string&\s*[A-Za-z_])");
  // Matches std::string and std::string_view keys alike (the latter by
  // prefix) in any ordered-tree container.
  static const std::regex string_keyed_tree(
      R"(std::(multi)?(map|set)\s*<\s*std::string)");
  // Raw write-capable file primitives: ofstream construction, fopen with
  // any mode containing 'w' or 'a' (appends included), and fwrite. The
  // POSIX open(2) with O_WRONLY is matched too — util/durable_file.cc is
  // the one audited home for it, and it sits outside dataset/.
  static const std::regex raw_file_write(
      R"(std::ofstream|\bfwrite\s*\(|\bf?open\s*\([^;)]*,\s*(\"[^\"]*[wa][^\"]*\"|O_WRONLY|O_RDWR|O_APPEND))");

  bool saw_nodiscard_result = false;
  bool saw_nodiscard_status = false;
  bool in_guarded_block = false;

  std::string previous;
  for (std::size_t index = 0; index < lines.size(); ++index) {
    const std::string& line = lines[index];
    const std::size_t lineno = index + 1;
    const bool comment = is_comment_line(line);

    if (!comment && !is_check_header &&
        line.find("static_assert") == std::string::npos &&
        (std::regex_search(line, bare_assert) ||
         std::regex_search(line, cassert_include))) {
      report(lineno, lineno, "no-bare-assert",
             "use ORIGIN_CHECK from util/check.h; assert is stripped from "
             "RelWithDebInfo builds");
    }

    if (!comment && std::regex_search(line, reinterpret)) {
      report(lineno, lineno, "no-reinterpret-cast",
             "view bytes as text via util::as_string_view instead of a raw "
             "reinterpret_cast");
    }

    if (header && !comment) {
      std::smatch m;
      if (std::regex_search(line, m, result_decl) &&
          line.find("using ") == std::string::npos) {
        const bool marked = m[1].matched ||
                            previous.find("[[nodiscard]]") != std::string::npos;
        if (!marked) {
          report(lineno, lineno, "nodiscard-parse-api",
                 "declarations returning util::Result/util::Status must be "
                 "[[nodiscard]]");
        }
      }
    }

    if (parser_module && !comment && std::regex_search(line, c_int_cast)) {
      report(lineno, lineno, "no-c-style-int-cast",
             "use static_cast for integer narrowing in parser code");
    }

    if (is_result_header) {
      if (line.find("class [[nodiscard]] Result") != std::string::npos) {
        saw_nodiscard_result = true;
      }
      if (line.find("class [[nodiscard]] Status") != std::string::npos) {
        saw_nodiscard_status = true;
      }
    }

    // --- thread discipline -------------------------------------------
    if (!util_module && !comment && std::regex_search(line, raw_mutex)) {
      report(lineno, lineno, "no-raw-std-mutex",
             "use util::Mutex / util::MutexLock / util::CondVar from "
             "util/thread_annotations.h so clang's thread-safety analysis "
             "sees the lock");
    }

    if (!util_module && !comment && std::regex_search(line, raw_thread)) {
      report(lineno, lineno, "no-raw-std-thread",
             "shard work through util::ThreadPool instead of spawning raw "
             "std::thread");
    }

    if (!comment && std::regex_search(line, thread_detach)) {
      report(lineno, lineno, "no-thread-detach",
             "detached threads outlive the state they touch; keep the "
             "handle and join");
    }

    // close-reason-handled: the handler's parameter list (this line plus
    // up to two continuation lines) must name the reason string. The
    // netsim declaration itself (`void set_on_close(...)`) has no '['.
    if (close_reason_module && !comment &&
        line.find("set_on_close(") != std::string::npos &&
        line.find('[') != std::string::npos) {
      std::string window = line;
      std::size_t last = lineno;
      for (std::size_t ahead = 1; ahead <= 2 && index + ahead < lines.size();
           ++ahead) {
        window += ' ';
        window += lines[index + ahead];
        last = lineno + ahead;
      }
      if (!std::regex_search(window, close_reason_bound)) {
        report(lineno, last, "close-reason-handled",
               "set_on_close handlers in browser/cdn/server must bind the "
               "close reason (const std::string& reason) — it carries the "
               "teardown cause the degradation layer keys on");
      }
    }

    // server-close-recorded: a direct transport close in server bypasses
    // the close_endpoint audit that records the reason in
    // Stats::close_reasons; only the audited call site is waived.
    if (module == "server" && !comment &&
        std::regex_search(line, endpoint_close)) {
      report(lineno, lineno, "server-close-recorded",
             "server-initiated closes must go through "
             "Http2Server::close_endpoint so the reason lands in "
             "Stats::close_reasons; a raw close() is an unaudited shed");
    }

    // durable-write-only: dataset writes spill shards and the manifest
    // journal; a raw write path can tear a file a resume would trust.
    if (module == "dataset" && !comment &&
        std::regex_search(line, raw_file_write)) {
      report(lineno, lineno, "durable-write-only",
             "dataset/ writes must go through util/durable_file.h "
             "(durable_write_file or DurableLog: temp -> fsync -> rename "
             "commit); a raw write can leave a torn file that a "
             "crash-resume would read as data (DESIGN.md #15)");
    }

    if (in_interned_hot_path(module) && !comment &&
        std::regex_search(line, string_keyed_tree)) {
      report(lineno, lineno, "no-string-keyed-tree",
             "string-keyed std::map/std::set on the measurement->model hot "
             "path; intern the key through util::Interner and use "
             "util::FlatMap/util::FlatSet over SymbolIds (DESIGN.md #10)");
    }

    if (!comment && std::regex_search(line, volatile_kw)) {
      report(lineno, lineno, "no-volatile-sync",
             "volatile is not a synchronization primitive; use std::atomic "
             "or a util::Mutex");
    }

    // guarded-by-annotation: members following a mutex member must be
    // annotated. Sync primitives, const/static/constexpr members, and
    // lines already carrying an annotation are exempt; the block ends at
    // a blank line, access specifier, or closing brace.
    if (!comment) {
      const std::string t = trimmed(line);
      if (in_guarded_block) {
        if (t.empty() || t.find('}') != std::string::npos ||
            std::regex_search(line, access_specifier)) {
          in_guarded_block = false;
        } else if (line.find("GUARDED_BY") == std::string::npos &&
                   line.find("Mutex") == std::string::npos &&
                   line.find("CondVar") == std::string::npos &&
                   line.find("atomic") == std::string::npos &&
                   t.rfind("const ", 0) != 0 &&
                   t.rfind("static ", 0) != 0 &&
                   t.rfind("constexpr ", 0) != 0 &&
                   std::regex_search(line, plain_member)) {
          report(lineno, lineno, "guarded-by-annotation",
                 "member declared after a mutex must be ORIGIN_GUARDED_BY "
                 "(or exempted with analyze:allow)");
        }
      }
      if (std::regex_search(line, mutex_member)) in_guarded_block = true;
    }

    previous = line;
  }

  if (is_result_header && (!saw_nodiscard_result || !saw_nodiscard_status)) {
    report(1, 1, "nodiscard-result-type",
           "util::Result and util::Status must be class-level [[nodiscard]]");
  }
}

}  // namespace

void run_lint_pass(const std::deque<FileModel>& corpus, FindingSink& sink) {
  for (const FileModel& file : corpus) lint_file(file, sink);
}

}  // namespace origin::analyze
