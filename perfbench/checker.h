// Output checker: compares the dashboard's answers with the expected rows
// the generator computed apart from the program, and records every
// mismatch. A self-test feeds it perturbed answers to show it can fail.
#ifndef RASED_PERFBENCH_CHECKER_H_
#define RASED_PERFBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_io.h"

namespace perfbench {

/// One parsed /api/query or /api/sql answer.
struct ParsedAnswer {
  RowMap rows;
  uint64_t cubes_total = 0;
  uint64_t cubes_from_cache = 0;
  uint64_t page_reads = 0;
  int64_t cpu_micros = 0;
  int64_t device_micros = 0;  // total_micros - cpu_micros
};

Result<ParsedAnswer> ParseAnswer(const std::string& body);

/// Empty when equal, else a description of the first difference. Counts
/// must match exactly; percentages to the six significant digits the
/// dashboard prints.
std::string CompareRows(const RowMap& expected, const RowMap& actual,
                        bool percentage);

/// Exact comparison of named counts (day totals, month totals, ...).
std::string CompareCounts(const std::map<std::string, uint64_t>& expected,
                          const std::map<std::string, uint64_t>& actual);

/// Sums a date-grouped answer over its dates (dropping the "d=" part of
/// every key), for comparison with the ungrouped answer of the window.
RowMap SumOverDates(const RowMap& series);

/// Thread-safe record of failed checks.
class CheckLog {
 public:
  void Fail(const std::string& what);
  uint64_t failures() const { return failures_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<uint64_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Feeds the checker one answer with a count raised by one and one with a
/// single update dropped; both must be reported. Returns a failure
/// description, or empty when the checker caught both.
std::string CheckerSelfTest(const RowMap& answer, bool percentage);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_CHECKER_H_
