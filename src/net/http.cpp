#include "net/http.hpp"

#include <charconv>

namespace rfs::net {

namespace {

void append(Bytes& out, const std::string& s) {
  out.insert(out.end(), s.begin(), s.end());
}

/// A message: `start_line`, the headers plus Content-Length, a blank
/// line and the body.
Bytes write_message(const std::string& start_line, std::map<std::string, std::string> headers,
                    const std::string& body) {
  Bytes out;
  append(out, start_line + "\r\n");
  headers["Content-Length"] = std::to_string(body.size());
  for (const auto& [k, v] : headers) append(out, k + ": " + v + "\r\n");
  append(out, "\r\n");
  append(out, body);
  return out;
}

struct LineCursor {
  const Bytes& raw;
  std::size_t pos = 0;

  /// Returns the next CRLF-terminated line (without the terminator).
  Result<std::string> line() {
    for (std::size_t i = pos; i + 1 < raw.size(); ++i) {
      if (raw[i] == '\r' && raw[i + 1] == '\n') {
        std::string s(reinterpret_cast<const char*>(raw.data() + pos), i - pos);
        pos = i + 2;
        return s;
      }
    }
    return Error::make(1, "http: missing CRLF");
  }

  [[nodiscard]] std::string rest() const {
    return std::string(reinterpret_cast<const char*>(raw.data() + pos), raw.size() - pos);
  }
};

Result<std::map<std::string, std::string>> parse_headers(LineCursor& cur) {
  std::map<std::string, std::string> headers;
  while (true) {
    auto l = cur.line();
    if (!l) return l.error();
    if (l.value().empty()) break;
    auto colon = l.value().find(':');
    if (colon == std::string::npos) return Error::make(2, "http: malformed header");
    std::string key = l.value().substr(0, colon);
    std::size_t vstart = colon + 1;
    while (vstart < l.value().size() && l.value()[vstart] == ' ') ++vstart;
    headers[key] = l.value().substr(vstart);
  }
  return headers;
}

}  // namespace

Bytes HttpRequest::serialize() const {
  return write_message(method + " " + path + " HTTP/1.1", headers, body);
}

Result<HttpRequest> HttpRequest::parse(const Bytes& raw) {
  LineCursor cur{raw};
  auto start = cur.line();
  if (!start) return start.error();
  HttpRequest req;
  auto sp1 = start.value().find(' ');
  auto sp2 = start.value().rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return Error::make(3, "http: bad request line");
  req.method = start.value().substr(0, sp1);
  req.path = start.value().substr(sp1 + 1, sp2 - sp1 - 1);
  auto hdrs = parse_headers(cur);
  if (!hdrs) return hdrs.error();
  req.headers = std::move(hdrs).take();
  req.body = cur.rest();
  if (auto it = req.headers.find("Content-Length"); it != req.headers.end()) {
    std::size_t expected = 0;
    std::from_chars(it->second.data(), it->second.data() + it->second.size(), expected);
    if (expected != req.body.size()) return Error::make(4, "http: Content-Length mismatch");
  }
  return req;
}

Bytes HttpResponse::serialize() const {
  const char* reason = status == 200   ? "OK"
                       : status == 202 ? "Accepted"
                       : status == 400 ? "Bad Request"
                       : status == 413 ? "Payload Too Large"
                       : status == 429 ? "Too Many Requests"
                       : status == 500 ? "Internal Server Error"
                                       : "Unknown";
  return write_message("HTTP/1.1 " + std::to_string(status) + " " + reason, headers, body);
}

Result<HttpResponse> HttpResponse::parse(const Bytes& raw) {
  LineCursor cur{raw};
  auto start = cur.line();
  if (!start) return start.error();
  HttpResponse resp;
  auto sp1 = start.value().find(' ');
  if (sp1 == std::string::npos) return Error::make(3, "http: bad status line");
  int status = 0;
  const char* begin = start.value().data() + sp1 + 1;
  std::from_chars(begin, start.value().data() + start.value().size(), status);
  if (status < 100 || status > 599) return Error::make(3, "http: bad status code");
  resp.status = status;
  auto hdrs = parse_headers(cur);
  if (!hdrs) return hdrs.error();
  resp.headers = std::move(hdrs).take();
  resp.body = cur.rest();
  return resp;
}

}  // namespace rfs::net
