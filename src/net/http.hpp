// Minimal HTTP/1.1 message model with real text serialization/parsing.
// The cloud baselines (AWS Lambda gateway, OpenWhisk API gateway)
// serialize and parse genuine HTTP messages and charge the wire time of
// their real sizes as delays, so header overheads and base64 body
// inflation are measured, not assumed.
#pragma once

#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace rfs::net {

struct HttpRequest {
  std::string method = "POST";
  std::string path = "/";
  std::map<std::string, std::string> headers;
  std::string body;

  [[nodiscard]] Bytes serialize() const;
  static Result<HttpRequest> parse(const Bytes& raw);
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;

  [[nodiscard]] Bytes serialize() const;
  static Result<HttpResponse> parse(const Bytes& raw);

  [[nodiscard]] bool ok() const { return status >= 200 && status < 300; }
};

}  // namespace rfs::net
