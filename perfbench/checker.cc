#include "checker.h"

#include <cinttypes>
#include <cmath>

#include "http_json.h"
#include "util/str_util.h"

namespace perfbench {

Result<ParsedAnswer> ParseAnswer(const std::string& body) {
  RASED_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(body));
  const JsonValue* rows = doc.Get("rows");
  const JsonValue* stats = doc.Get("stats");
  if (rows == nullptr || stats == nullptr) {
    return Status::Corruption("answer without rows/stats: " +
                              body.substr(0, 200));
  }
  ParsedAnswer out;
  auto field = [](const JsonValue& row, const char* key) {
    const JsonValue* v = row.Get(key);
    return v != nullptr ? v->text : std::string();
  };
  for (const JsonValue& row : rows->items) {
    const JsonValue* count = row.Get("count");
    if (count == nullptr) return Status::Corruption("row without count");
    std::string key = RowKey(field(row, "country"), field(row, "date"),
                             field(row, "element_type"),
                             field(row, "road_type"),
                             field(row, "update_type"));
    ExpectedRow& r = out.rows[key];
    r.count += count->Uint();
    if (const JsonValue* pct = row.Get("percentage")) {
      r.percentage = pct->Number();
    }
  }
  auto stat = [stats](const char* key) -> int64_t {
    const JsonValue* v = stats->Get(key);
    return v != nullptr ? std::strtoll(v->text.c_str(), nullptr, 10) : 0;
  };
  out.cubes_total = static_cast<uint64_t>(stat("cubes_total"));
  out.cubes_from_cache = static_cast<uint64_t>(stat("cubes_from_cache"));
  out.page_reads = static_cast<uint64_t>(stat("page_reads"));
  out.cpu_micros = stat("cpu_micros");
  out.device_micros = stat("total_micros") - out.cpu_micros;
  return out;
}

std::string CompareRows(const RowMap& expected, const RowMap& actual,
                        bool percentage) {
  for (const auto& [key, want] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) return "missing row " + key;
    if (it->second.count != want.count) {
      return rased::StrFormat("row %s: count %" PRIu64 ", expected %" PRIu64,
                              key.c_str(), it->second.count, want.count);
    }
    if (percentage &&
        std::fabs(it->second.percentage - want.percentage) >
            1e-5 * std::fabs(want.percentage) + 1e-12) {
      return rased::StrFormat("row %s: percentage %.9g, expected %.9g",
                              key.c_str(), it->second.percentage,
                              want.percentage);
    }
  }
  for (const auto& [key, got] : actual) {
    if (expected.find(key) == expected.end()) {
      return rased::StrFormat("unexpected row %s (count %" PRIu64 ")",
                              key.c_str(), got.count);
    }
  }
  return "";
}

std::string CompareCounts(const std::map<std::string, uint64_t>& expected,
                          const std::map<std::string, uint64_t>& actual) {
  RowMap e, a;
  for (const auto& [k, v] : expected) e[k].count = v;
  for (const auto& [k, v] : actual) a[k].count = v;
  return CompareRows(e, a, /*percentage=*/false);
}

RowMap SumOverDates(const RowMap& series) {
  RowMap out;
  for (const auto& [key, row] : series) {
    std::string rest;
    for (const std::string& part : rased::Split(key, ';')) {
      if (part.compare(0, 2, "d=") == 0) continue;
      if (!rest.empty()) rest += ';';
      rest += part;
    }
    out[rest].count += row.count;
  }
  return out;
}

void CheckLog::Fail(const std::string& what) {
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 20) messages_.push_back(what);
}

std::vector<std::string> CheckLog::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

std::string CheckerSelfTest(const RowMap& answer, bool percentage) {
  if (answer.empty()) return "self-test needs a non-empty answer";
  if (!CompareRows(answer, answer, percentage).empty()) {
    return "checker rejects an unmodified answer";
  }
  RowMap perturbed = answer;
  perturbed.begin()->second.count += 1;
  if (CompareRows(answer, perturbed, percentage).empty()) {
    return "checker accepted an answer with one count raised by one";
  }
  RowMap dropped = answer;
  auto last = std::prev(dropped.end());
  if (last->second.count == 1) {
    dropped.erase(last);
  } else {
    last->second.count -= 1;
  }
  if (CompareRows(answer, dropped, percentage).empty()) {
    return "checker accepted an answer with one update dropped";
  }
  return "";
}

}  // namespace perfbench
