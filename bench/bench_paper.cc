// Regenerates every paper table, figure and ablation (bench/paper.h) on
// stdout: `bench_paper [--sites N] [--seed S]`. The default run is the
// committed bench_output.txt. Exits 1 when an in-run check of the fault or
// overload ablation failed.
#include "paper.h"

int main(int argc, char** argv) {
  return origin::bench::print_paper(origin::bench::Args::parse(argc, argv),
                                    stdout)
             ? 0
             : 1;
}
