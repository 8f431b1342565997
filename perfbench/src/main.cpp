// Benchmark binary: `ehja_perfbench oracle|bulk|serve --key=value ...`.
// perfbench/run.py builds this binary and passes it the workload's keys
// from perfbench/workloads.json; see perfbench/README.md.
#include <cstdio>
#include <cstring>
#include <exception>

#include "perfbench.hpp"
#include "runtime/socket_runtime.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  // The socket runtime's worker processes are re-executions of this binary.
  if (const auto worker_exit = ehja::maybe_run_socket_worker(argc, argv)) {
    return *worker_exit;
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: ehja_perfbench oracle|bulk|serve --key=value ...\n");
    return 2;
  }
  ehja::set_log_level(ehja::LogLevel::kError);
  perfbench::now_s();  // start the span clock
  try {
    const perfbench::Options opt(argc, argv, 2);
    if (std::strcmp(argv[1], "oracle") == 0) return perfbench::run_oracle(opt);
    if (std::strcmp(argv[1], "bulk") == 0) return perfbench::run_bulk(opt);
    if (std::strcmp(argv[1], "serve") == 0) return perfbench::run_serve(opt);
    std::fprintf(stderr, "ehja_perfbench: unknown mode %s\n", argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ehja_perfbench: %s\n", e.what());
  }
  return 2;
}
