// Loopback HTTP/1.1 client and a small JSON reader: the benchmark talks to
// the dashboard the way a browser would and parses its answers without
// going through the program's own code.
#ifndef RASED_PERFBENCH_HTTP_JSON_H_
#define RASED_PERFBENCH_HTTP_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// GET `target` (path plus query string) from 127.0.0.1:`port`; one
/// connection per request, read to EOF (the server closes).
rased::Result<HttpReply> HttpGet(int port, const std::string& target);

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  /// Strings hold their decoded text; numbers their source text.
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Get(std::string_view key) const;
  double Number() const;
  uint64_t Uint() const;
};

rased::Result<JsonValue> ParseJson(std::string_view text);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_HTTP_JSON_H_
