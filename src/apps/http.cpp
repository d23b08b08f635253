#include "apps/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace hipcloud::apps {

using crypto::Buffer;

namespace {

constexpr std::string_view kContentLength = "content-length";
// A head longer than this without its blank line is a header flood.
constexpr std::size_t kMaxHead = 64 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// Calls fn(name, value) for every header in the order they go on the
/// wire: sorted, with content-length set to `length` in its sorted place.
template <typename Fn>
void for_each_header(const std::map<std::string, std::string>& headers,
                     std::string_view length, Fn&& fn) {
  bool length_done = false;
  for (const auto& [name, value] : headers) {
    if (!length_done && std::string_view(name) >= kContentLength) {
      fn(kContentLength, length);
      length_done = true;
      if (name == kContentLength) continue;
    }
    fn(std::string_view(name), std::string_view(value));
  }
  if (!length_done) fn(kContentLength, length);
}

/// Start line, headers, blank line and body, in one buffer of the exact
/// size.
Buffer write_message(std::initializer_list<std::string_view> start_line,
                     const std::map<std::string, std::string>& headers,
                     const Buffer& body, crypto::BufferPool* pool) {
  char digits[24];
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof digits, body.size());
  (void)ec;  // 24 digits always fit a size_t
  const std::string_view length(digits, static_cast<std::size_t>(end - digits));

  std::size_t size = 2 + body.size();  // blank line + body
  for (const std::string_view part : start_line) size += part.size();
  for_each_header(headers, length, [&](std::string_view n, std::string_view v) {
    size += n.size() + 2 + v.size() + 2;
  });

  Buffer out = Buffer::allocate(pool, size);
  std::uint8_t* p = out.data();
  const auto put = [&p](std::string_view s) {
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  for (const std::string_view part : start_line) put(part);
  for_each_header(headers, length, [&](std::string_view n, std::string_view v) {
    put(n);
    put(": ");
    put(v);
    put("\r\n");
  });
  put("\r\n");
  if (!body.empty()) std::memcpy(p, body.data(), body.size());
  return out;
}

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

Buffer HttpRequest::serialize(crypto::BufferPool* pool) const {
  return write_message({method, " ", path, " HTTP/1.1\r\n"}, headers, body,
                       pool);
}

std::string_view HttpRequest::path_only() const {
  const std::string_view p(path);
  return p.substr(0, p.find('?'));
}

std::optional<std::string> HttpRequest::query_param(
    std::string_view name) const {
  const std::string_view p(path);
  const auto q = p.find('?');
  if (q == std::string_view::npos) return std::nullopt;
  std::string_view query = p.substr(q + 1);
  for (;;) {
    const auto amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const auto eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) return std::nullopt;
    query.remove_prefix(amp + 1);
  }
}

Buffer HttpResponse::serialize(crypto::BufferPool* pool) const {
  char digits[16];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, status);
  (void)ec;  // any int fits
  const std::string_view code(digits, static_cast<std::size_t>(end - digits));
  return write_message({"HTTP/1.1 ", code, " ", status_text(status), "\r\n"},
                       headers, body, pool);
}

HttpResponse HttpResponse::make(int status, Buffer body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

void HttpParser::feed(Buffer chunk) {
  if (error_) return;
  buf_.append(std::move(chunk));
  while (try_parse()) {
  }
}

std::optional<std::size_t> HttpParser::find_head_end() {
  static constexpr char kSep[] = "\r\n\r\n";
  std::size_t skip = scanned_;
  for (std::size_t i = 0; i < buf_.segments(); ++i) {
    const Buffer& seg = buf_.segment(i);
    if (skip >= seg.size()) {
      skip -= seg.size();
      continue;
    }
    for (std::size_t k = skip; k < seg.size(); ++k) {
      const char c = static_cast<char>(seg[k]);
      ++scanned_;
      if (c == kSep[matched_]) {
        if (++matched_ == 4) return scanned_;
      } else {
        matched_ = c == '\r' ? 1 : 0;
      }
    }
    skip = 0;
  }
  return std::nullopt;
}

bool HttpParser::try_parse() {
  if (!have_head_) {
    const auto head_len = find_head_end();
    if (!head_len) {
      if (buf_.size() > kMaxHead) error_ = true;  // header flood guard
      return false;
    }
    scanned_ = 0;
    matched_ = 0;
    // Parse the head where it lies when one chunk holds all of it;
    // otherwise gather it into one buffer first.
    bool ok;
    if (buf_.segment(0).size() >= *head_len) {
      const Buffer& seg = buf_.segment(0);
      ok = parse_head(std::string_view(
          reinterpret_cast<const char*>(seg.data()), *head_len - 4));
      buf_.consume(*head_len);
    } else {
      const Buffer head = buf_.take(*head_len);
      ok = parse_head(std::string_view(
          reinterpret_cast<const char*>(head.data()), *head_len - 4));
    }
    if (!ok) {
      error_ = true;
      return false;
    }
    have_head_ = true;
  }
  if (buf_.size() < content_length_) return false;  // need body
  Buffer body = buf_.take(content_length_);
  have_head_ = false;
  if (bad_start_line_) {
    error_ = true;
    return false;
  }
  if (kind_ == Kind::kRequest) {
    request_.body = std::move(body);
    requests_.push_back(std::move(request_));
    request_ = HttpRequest{};
  } else {
    response_.body = std::move(body);
    responses_.push_back(std::move(response_));
    response_ = HttpResponse{};
  }
  return true;
}

bool HttpParser::parse_head(std::string_view head) {
  auto& headers = kind_ == Kind::kRequest ? request_.headers
                                          : response_.headers;
  const auto eol = head.find("\r\n");
  const std::string_view start_line = head.substr(0, eol);
  std::string_view rest = eol == std::string_view::npos
                              ? std::string_view()
                              : head.substr(eol + 2);
  bool more = eol != std::string_view::npos;
  while (more) {
    const auto end = rest.find("\r\n");
    const std::string_view line = rest.substr(0, end);
    more = end != std::string_view::npos;
    if (more) rest.remove_prefix(end + 2);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string_view value = line.substr(colon + 1);
    const auto start = value.find_first_not_of(' ');
    value = start == std::string_view::npos ? std::string_view()
                                            : value.substr(start);
    headers.insert_or_assign(lowercase(line.substr(0, colon)),
                             std::string(value));
  }

  content_length_ = 0;
  if (const auto cl = headers.find(std::string(kContentLength));
      cl != headers.end()) {
    const auto& s = cl->second;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), content_length_);
    if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  }

  // A malformed start line fails the message once its body has arrived.
  bad_start_line_ = false;
  const auto sp1 = start_line.find(' ');
  if (kind_ == Kind::kRequest) {
    const auto sp2 = start_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      bad_start_line_ = true;
      return true;
    }
    request_.method = start_line.substr(0, sp1);
    request_.path = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  } else {
    if (sp1 == std::string_view::npos) {
      bad_start_line_ = true;
      return true;
    }
    const std::string status(start_line.substr(sp1 + 1));
    response_.status = std::atoi(status.c_str());
  }
  return true;
}

std::optional<HttpRequest> HttpParser::next_request() {
  if (requests_.empty()) return std::nullopt;
  HttpRequest req = std::move(requests_.front());
  requests_.erase(requests_.begin());
  return req;
}

std::optional<HttpResponse> HttpParser::next_response() {
  if (responses_.empty()) return std::nullopt;
  HttpResponse resp = std::move(responses_.front());
  responses_.erase(responses_.begin());
  return resp;
}

}  // namespace hipcloud::apps
