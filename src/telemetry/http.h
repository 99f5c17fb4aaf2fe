#ifndef FTMS_TELEMETRY_HTTP_H_
#define FTMS_TELEMETRY_HTTP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ftms {

// Minimal dependency-free HTTP/1.1 plumbing for the telemetry plane: a
// request-head parser, a response serializer and a tiny blocking GET
// client (used by `ftms top` and the exporter tests). Deliberately small:
// GET only, no keep-alive, no chunked transfer, bodies ignored on the
// request side — the exporter is a scrape target, not a web server.

// A parsed request head. `target` is the raw request-target
// ("/journal/tail?n=8"); `path` and `query` are its split form.
struct HttpRequest {
  std::string method;  // "GET", "HEAD", ...
  std::string target;  // raw, as received
  std::string path;    // target before '?'
  std::vector<std::pair<std::string, std::string>> query;  // decoded pairs
};

// Parses everything up to (not including) the blank line: request line
// plus headers (headers are tolerated and discarded). Returns
// InvalidArgument on a malformed request line.
StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head);

// First value for `key` in the query string, if present.
std::optional<std::string> QueryParam(const HttpRequest& request,
                                      std::string_view key);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Standard reason phrase ("OK", "Not Found", ...; "Unknown" otherwise).
std::string_view HttpStatusReason(int status);

// Full wire form: status line, Content-Type, Content-Length,
// Connection: close, blank line, body.
std::string SerializeHttpResponse(const HttpResponse& response);

// All of `digits` as a decimal integer in [lo, hi]: digits only, after an
// optional '-' (no '+', no spaces, nothing after the last digit), and a
// value out of range fails rather than wraps. Every number the telemetry
// plane reads from a URL, a query or the environment goes through here.
std::optional<int64_t> ParseDecimal(std::string_view digits, int64_t lo,
                                    int64_t hi);

// "http://host:port/path" -> parts. Only the http scheme is accepted;
// the target defaults to "/". The port, when given, must be all digits
// in [1, 65535].
struct ParsedUrl {
  std::string host;
  int port = 80;
  std::string target;  // "/..." (includes query)
};
StatusOr<ParsedUrl> ParseHttpUrl(const std::string& url);

// Blocking GET against `url`. Connects, sends the request, reads until
// EOF and splits off the head. Returns the parsed status and body;
// Unavailable on connect/IO failure, timeout or a malformed response.
StatusOr<HttpResponse> HttpGet(const std::string& url,
                               int timeout_ms = 5000);

// Splits a whole response (head, blank line, body) into its status code,
// Content-Type and body. The status code must be three digits in
// [100, 599]; InvalidArgument otherwise, or when the head is malformed.
StatusOr<HttpResponse> ParseHttpResponse(std::string_view raw);

}  // namespace ftms

#endif  // FTMS_TELEMETRY_HTTP_H_
