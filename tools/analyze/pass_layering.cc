// Layering pass.
//
// The module DAG mirrors the measurement story of the paper: primitives at
// the bottom, the HTTP/2 machinery in the middle, deployments above that,
// and the measurement/model pipeline on top consuming everything:
//
//   layer 0: util
//   layer 1: netsim, dns, tls
//   layer 2: h2, hpack, web, ct
//   layer 3: server, cdn, browser
//   layer 4: dataset, measure, model
//
//   layer-upward  a module includes a header from a strictly higher layer
//   layer-cycle   the module-level include graph has a cycle (checked over
//                 all edges, so same-layer tangles are caught too)
//
// Quoted includes in this repo are src-relative ("h2/frame.h"), so the
// target module is the include path's first component. Unknown modules
// (new directories) default to the top layer and a layer-unknown finding,
// so growing the tree forces a conscious layer assignment here.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "passes.h"

namespace origin::analyze {

namespace {

const std::map<std::string, int> kLayer = {
    {"util", 0},    {"netsim", 1},  {"dns", 1},    {"tls", 1},
    {"h2", 2},      {"hpack", 2},   {"web", 2},    {"ct", 2},
    {"server", 3},  {"cdn", 3},     {"browser", 3},
    {"dataset", 4}, {"measure", 4}, {"model", 4},
};

std::string include_module(const std::string& path) {
  const std::size_t slash = path.find('/');
  if (slash == std::string::npos) return {};  // same-directory include
  return path.substr(0, slash);
}

}  // namespace

void run_layering_pass(const std::deque<FileModel>& corpus,
                       FindingSink& sink) {
  // Module-level edges with one representative include site each, kept in
  // ordered maps so cycle reports are stable.
  struct Site {
    std::string file;
    std::size_t line;
  };
  std::map<std::string, std::map<std::string, Site>> edges;

  for (const FileModel& file : corpus) {
    if (file.module.empty()) continue;  // tests/tools/bench are exempt
    const auto from_it = kLayer.find(file.module);
    if (from_it == kLayer.end()) {
      sink.add("layer-unknown", file.rel, 1,
               "module '" + file.module +
                   "' has no layer assignment — add it to kLayer in "
                   "tools/analyze/pass_layering.cc");
      continue;
    }
    for (const Include& inc : file.includes) {
      const std::string to = include_module(inc.path);
      if (to.empty() || to == file.module) continue;
      const auto to_it = kLayer.find(to);
      if (to_it == kLayer.end()) continue;  // not a module header
      edges[file.module].emplace(to, Site{file.rel, inc.line});
      if (to_it->second > from_it->second) {
        sink.add("layer-upward", file.rel, inc.line,
                 "module '" + file.module + "' (layer " +
                     std::to_string(from_it->second) + ") includes '" +
                     inc.path + "' from module '" + to + "' (layer " +
                     std::to_string(to_it->second) + ")");
      }
    }
  }

  // Cycle detection over the module graph: iterative DFS with a path
  // stack; each cycle is reported once, at the representative include site
  // of the edge that closes it.
  std::set<std::string> done;
  std::set<std::string> reported;
  for (const auto& [start, unused] : edges) {
    (void)unused;
    if (done.count(start) > 0) continue;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    // Recursive lambda via explicit stack of (module, next-edge iterator).
    struct Frame {
      std::string module;
      std::map<std::string, Site>::const_iterator next;
    };
    std::vector<Frame> stack;
    auto push = [&](const std::string& m) {
      path.push_back(m);
      on_path.insert(m);
      static const std::map<std::string, Site> kEmpty;
      const auto it = edges.find(m);
      stack.push_back(
          Frame{m, it == edges.end() ? kEmpty.begin() : it->second.begin()});
    };
    push(start);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto eit = edges.find(frame.module);
      if (eit == edges.end() || frame.next == eit->second.end()) {
        done.insert(frame.module);
        on_path.erase(frame.module);
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string& to = frame.next->first;
      const Site& site = frame.next->second;
      ++frame.next;
      if (on_path.count(to) > 0) {
        // Found a cycle: to → ... → frame.module → to.
        std::string cycle = to;
        bool in_cycle = false;
        for (const std::string& m : path) {
          if (m == to) in_cycle = true;
          if (in_cycle && m != to) cycle += " -> " + m;
        }
        cycle += " -> " + to;
        if (reported.insert(cycle).second) {
          sink.add("layer-cycle", site.file, site.line,
                   "include cycle between modules: " + cycle);
        }
        continue;
      }
      if (done.count(to) == 0) push(to);
    }
  }
}

}  // namespace origin::analyze
