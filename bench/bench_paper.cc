// Regenerates every paper table, figure and analytic ablation (bench/paper.h)
// on stdout: `bench_paper [--sites N] [--seed S]`. The default run is the
// committed bench_output.txt.
#include "paper.h"

int main(int argc, char** argv) {
  origin::bench::print_paper(origin::bench::Args::parse(argc, argv), stdout);
  return 0;
}
