#ifndef RASED_PERFBENCH_RUN_H_
#define RASED_PERFBENCH_RUN_H_

#include <chrono>

#include "bench_io.h"

namespace perfbench {

/// Set-up, measured window, output checks and the result line of one run.
/// Returns the process exit code.
int RunMeasured(const BenchConfig& cfg,
                std::chrono::steady_clock::time_point process_start);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_RUN_H_
