// Shared helpers for the benches: flag parsing, the collection
// configuration and headers. Every bench accepts:
//   --sites N   corpus size (default 20000 unless the bench sets its own;
//               the paper crawled 315,796)
//   --seed  S   corpus seed (default 42)
//   --dir   D   spill directory, for the benches that spill shards
// bench_paper's defaults reproduce the committed EXPERIMENTS.md numbers
// exactly.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "dataset/collector.h"
#include "dataset/generator.h"
#include "measure/reports.h"

namespace origin::bench {

// Peak resident set size of this process so far, in bytes (ru_maxrss is
// kilobytes on Linux). Monotonic over the process lifetime — order legs
// smallest-footprint-first when comparing phases within one run.
inline std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Args {
  std::size_t sites = 20'000;
  std::uint64_t seed = 42;
  std::string dir;

  // `defaults` carries a bench's own default size and spill directory
  // (omitted: the member initializers above).
  static Args parse(int argc, char** argv, Args defaults);
};

inline Args Args::parse(int argc, char** argv, Args defaults = {}) {
  Args args = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      args.sites = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      args.dir = argv[++i];
    }
  }
  return args;
}

// The Chrome-v88-equivalent collection configuration used for the §3
// dataset (measured vantage).
inline dataset::CollectOptions chrome_collect_options() {
  dataset::CollectOptions options;
  options.loader.policy = "chromium-ip";
  // Recursive resolution from the collection vantage averaged ~25ms.
  options.loader.resolver.recursive_base = origin::util::Duration::millis(55);
  return options;
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const Args& args, std::FILE* out = stdout) {
  std::fprintf(out, "== %s ==\n", experiment);
  std::fprintf(out, "reproduces: %s\n", paper_ref);
  std::fprintf(out, "corpus: %zu sites, seed %llu (paper: 315,796 sites)\n\n",
               args.sites, static_cast<unsigned long long>(args.seed));
}

}  // namespace origin::bench
