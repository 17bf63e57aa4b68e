#include <cstdio>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  const std::string role = argc > 1 ? argv[1] : "";
  if (role == "serve") return mocha_bench::run_serve(argc - 2, argv + 2);
  if (role == "drive") return mocha_bench::run_drive(argc - 2, argv + 2);
  if (role == "check") return mocha_bench::run_check(argc - 2, argv + 2);
  std::fprintf(stderr,
               "usage: mocha_bench serve|drive|check ...\n"
               "  run the benchmark with: python3 benchmark/run.py\n");
  return 2;
}
