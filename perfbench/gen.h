#ifndef RASED_PERFBENCH_GEN_H_
#define RASED_PERFBENCH_GEN_H_

#include <string>

#include "bench_io.h"

namespace perfbench {

/// Writes every input and expected answer of one run into cfg.work_dir.
Status Generate(const BenchConfig& cfg);

/// Monthly full-history and changeset files of one month.
std::string MonthHistoryPath(const BenchConfig& cfg, Date month);
std::string MonthChangesetsPath(const BenchConfig& cfg, Date month);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_GEN_H_
