// rased_perfbench: `gen` writes one run's inputs and expected answers;
// `run` is the measured process. run.py drives both; see README.md.
//
//   rased_perfbench gen|run --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --work-dir <dir> [--trace-out <file>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_io.h"
#include "gen.h"
#include "run.h"

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  if (argc < 2) {
    std::fprintf(stderr, "usage: rased_perfbench gen|run --workload <name> "
                         "--seed <n> --seconds <s> --trace <0|1> "
                         "--work-dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  const std::string mode = argv[1];
  perfbench::BenchConfig cfg;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cfg.seconds = std::stoi(value);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else if (key == "--trace-out") {
      cfg.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  auto parsed = perfbench::ParseWorkload(workload);
  if (!parsed.ok() || cfg.work_dir.empty() || cfg.seconds < 1) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 parsed.ok() ? "need --work-dir and --seconds >= 1"
                             : parsed.status().ToString().c_str());
    return 2;
  }
  cfg.workload = parsed.value();
  if (mode == "gen") {
    rased::Status s = perfbench::Generate(cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench gen: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "run") return perfbench::RunMeasured(cfg, process_start);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
