#include "telemetry/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "util/parse.h"

namespace ftms {

namespace {

// %xx and '+' decoding for query values; invalid escapes pass through.
std::string UrlDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() &&
               std::isxdigit(static_cast<unsigned char>(in[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      const char hex[3] = {in[i + 1], in[i + 2], '\0'};
      out.push_back(
          static_cast<char>(std::strtol(hex, nullptr, 16)));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

void ParseQuery(std::string_view query,
                std::vector<std::pair<std::string, std::string>>* out) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      out->emplace_back(UrlDecode(pair), "");
    } else {
      out->emplace_back(UrlDecode(pair.substr(0, eq)),
                        UrlDecode(pair.substr(eq + 1)));
    }
  }
}

}  // namespace

StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head) {
  const size_t eol = head.find("\r\n");
  std::string_view line =
      eol == std::string_view::npos ? head : head.substr(0, eol);
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  const std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") {
    return Status::InvalidArgument("not an HTTP request");
  }

  HttpRequest request;
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const size_t qmark = request.target.find('?');
  if (qmark == std::string::npos) {
    request.path = request.target;
  } else {
    request.path = request.target.substr(0, qmark);
    ParseQuery(std::string_view(request.target).substr(qmark + 1),
               &request.query);
  }
  return request;
}

std::optional<std::string> QueryParam(const HttpRequest& request,
                                      std::string_view key) {
  for (const auto& [k, v] : request.query) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += HttpStatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  if (response.status == 405) out += "\r\nAllow: GET, HEAD";
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

StatusOr<ParsedUrl> ParseHttpUrl(const std::string& url) {
  constexpr std::string_view kScheme = "http://";
  if (url.substr(0, kScheme.size()) != kScheme) {
    return Status::InvalidArgument("only http:// URLs are supported: " +
                                   url);
  }
  const std::string rest = url.substr(kScheme.size());
  const size_t slash = rest.find('/');
  const std::string authority =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  ParsedUrl parsed;
  parsed.target = slash == std::string::npos ? "/" : rest.substr(slash);
  const size_t colon = authority.rfind(':');
  parsed.host = authority.substr(0, colon);
  if (colon != std::string::npos) {
    const std::optional<int64_t> port = ParseDecimal(
        std::string_view(authority).substr(colon + 1), 1, 65535);
    if (!port) {
      return Status::InvalidArgument("malformed http URL port: " + url);
    }
    parsed.port = static_cast<int>(*port);
  }
  if (parsed.host.empty()) {
    return Status::InvalidArgument("malformed http URL authority: " + url);
  }
  return parsed;
}

StatusOr<HttpResponse> HttpGet(const std::string& url, int timeout_ms) {
  StatusOr<ParsedUrl> parsed = ParseHttpUrl(url);
  if (!parsed.ok()) return parsed.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket(): out of descriptors");

  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(parsed->port));
  const std::string host =
      parsed->host == "localhost" ? "127.0.0.1" : parsed->host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        "telemetry client resolves numeric IPv4 hosts only: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::Unavailable("connect to " + url + " failed: " +
                               std::strerror(errno));
  }

  std::string request = "GET " + parsed->target + " HTTP/1.1\r\nHost: " +
                        parsed->host + "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::Unavailable("send to " + url + " failed");
    }
    sent += static_cast<size_t>(n);
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return Status::Unavailable("recv from " + url + " failed: " +
                                 std::strerror(errno));
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  StatusOr<HttpResponse> response = ParseHttpResponse(raw);
  if (!response.ok()) {
    return Status::Unavailable(std::string(response.status().message()) +
                               " from " + url);
  }
  return response;
}

StatusOr<HttpResponse> ParseHttpResponse(std::string_view raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos || raw.substr(0, 5) != "HTTP/") {
    return Status::InvalidArgument("malformed HTTP response");
  }
  const std::string_view head = raw.substr(0, head_end);
  // Status line: "HTTP/1.1 200 OK"; the code is exactly three digits.
  std::optional<int64_t> status;
  const size_t sp = head.find(' ');
  if (sp != std::string_view::npos) {
    const std::string_view code =
        head.substr(sp + 1, head.find_first_of(" \r", sp + 1) - (sp + 1));
    if (code.size() == 3) status = ParseDecimal(code, 100, 599);
  }
  if (!status) {
    return Status::InvalidArgument("malformed HTTP status line");
  }
  HttpResponse response;
  response.status = static_cast<int>(*status);
  // Pull Content-Type out of the head; other headers are irrelevant here.
  size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string_view::npos) {
    pos += 2;
    constexpr std::string_view kKey = "Content-Type:";
    if (head.compare(pos, kKey.size(), kKey) == 0) {
      size_t start = pos + kKey.size();
      while (start < head.size() && head[start] == ' ') ++start;
      const size_t end = head.find("\r\n", start);
      response.content_type = head.substr(
          start,
          (end == std::string_view::npos ? head.size() : end) - start);
    }
  }
  response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace ftms
