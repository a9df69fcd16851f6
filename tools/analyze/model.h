// File/function model shared by the origin_analyze passes.
//
// Each scanned file becomes a FileModel: its raw source (owned, so every
// Token::text view stays valid for the life of the corpus), its token
// stream, its `#include "..."` edges, and the body spans of all functions
// annotated ORIGIN_HOT. Models live in a std::deque so growing the corpus
// never relocates a file another pass is still pointing into.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "token.h"

namespace origin::analyze {

// One parameter of an ORIGIN_HOT function, as written: `AnalysisScratch& s`
// keeps type text "AnalysisScratch&" and name "s". Type text is the joined
// token spelling, which is all the alloc pass needs to recognize sanctioned
// scratch receivers.
struct HotParam {
  std::string type_text;
  std::string name;
};

// A function the source marked ORIGIN_HOT. begin/end are token indices into
// FileModel::tokens: begin is the token after the body's '{', end is the
// index of the matching '}'. Declarations without bodies produce no entry.
struct HotFunction {
  std::string name;            // unqualified spelling, e.g. "batch_join"
  std::size_t line = 0;        // line of the ORIGIN_HOT marker
  std::size_t body_begin = 0;  // first token inside the body
  std::size_t body_end = 0;    // token index of the closing '}'
  std::vector<HotParam> params;
};

// One `#include "..."` edge, path as written (src-relative in this repo's
// convention, e.g. "h2/frame.h").
struct Include {
  std::string path;
  std::size_t line = 0;
};

struct FileModel {
  std::string rel;      // path relative to the repo root, '/' separators
  std::string module;   // top-level dir under src/ ("h2", "util", ...);
                        // empty for files outside src/
  bool is_header = false;
  std::string source;   // owned bytes; tokens view into this
  std::vector<std::string_view> lines;  // 1-based via lines[i-1]
  std::vector<Token> tokens;
  std::vector<Include> includes;  // quoted includes only
  std::vector<HotFunction> hot_functions;
};

// Loads and models one file. Returns false (and leaves `out` untouched)
// only if the file cannot be read.
bool load_file_model(const std::string& repo_root, const std::string& rel,
                     FileModel& out);

// Walks `roots` (paths relative to repo_root; files or directories) and
// models every *.h / *.cc found, sorted by rel path so runs are
// deterministic regardless of directory iteration order.
std::deque<FileModel> load_corpus(const std::string& repo_root,
                                  const std::vector<std::string>& roots);

// Joins token spellings with single spaces — used for parameter type text
// and diagnostics.
std::string join_tokens(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t end);

// Finds the index of the matching closer for the opener at `open`, honoring
// nesting of the same pair. Returns tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open,
                          std::string_view open_text,
                          std::string_view close_text);

// Parses the parameter list between tokens[open]=='(' and its matching ')'
// into type-text/name pairs (shared by the hot-function model and the call
// graph's function definitions).
void parse_param_list(const std::vector<Token>& tokens, std::size_t open,
                      std::size_t close, std::vector<HotParam>& params);

}  // namespace origin::analyze
