#include "http_json.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

using rased::Result;
using rased::Status;

Result<HttpReply> HttpGet(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = strerror(errno);
    ::close(fd);
    return Status::IOError("connect: " + err);
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IOError("recv failed");
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || header_end == std::string::npos) {
    return Status::Corruption("malformed HTTP response");
  }
  HttpReply reply;
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(header_end + 4);
  return reply;
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::Number() const { return std::strtod(text.c_str(), nullptr); }

uint64_t JsonValue::Uint() const {
  return std::strtoull(text.c_str(), nullptr, 10);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Result<JsonValue> Document() {
    RASED_ASSIGN_OR_RETURN(JsonValue v, Value());
    SkipSpace();
    if (pos_ != s_.size()) return Error("trailing characters");
    return v;
  }

 private:
  Status Error(const char* what) const {
    return Status::Corruption("JSON: " + std::string(what) + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> String() {
    if (!Consume('"')) return Error("expected string");
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return Error("bad escape");
      char e = s_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("bad \\u escape");
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16));
          pos_ += 4;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: out += e;
      }
    }
    if (pos_ >= s_.size()) return Error("unterminated string");
    ++pos_;
    return out;
  }

  Result<JsonValue> Value() {
    if (++depth_ > 64) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Error("unexpected end");
    JsonValue v;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::kObject;
      if (!Consume('}')) {
        do {
          RASED_ASSIGN_OR_RETURN(std::string key, String());
          if (!Consume(':')) return Error("expected ':'");
          RASED_ASSIGN_OR_RETURN(JsonValue item, Value());
          v.fields.emplace_back(std::move(key), std::move(item));
        } while (Consume(','));
        if (!Consume('}')) return Error("expected '}'");
      }
    } else if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::kArray;
      if (!Consume(']')) {
        do {
          RASED_ASSIGN_OR_RETURN(JsonValue item, Value());
          v.items.push_back(std::move(item));
        } while (Consume(','));
        if (!Consume(']')) return Error("expected ']'");
      }
    } else if (c == '"') {
      v.type = JsonValue::Type::kString;
      RASED_ASSIGN_OR_RETURN(v.text, String());
    } else if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.type = JsonValue::Type::kBool;
    } else if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      size_t start = pos_;
      while (pos_ < s_.size() &&
             std::strchr("+-0123456789.eE", s_[pos_]) != nullptr) {
        ++pos_;
      }
      if (pos_ == start) return Error("unexpected character");
      v.type = JsonValue::Type::kNumber;
      v.text = std::string(s_.substr(start, pos_ - start));
    }
    --depth_;
    return v;
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace perfbench
