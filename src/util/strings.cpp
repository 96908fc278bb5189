#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace haven::util {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  std::size_t e = s.size();
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '\n') {
      std::size_t len = i - start;
      if (len > 0 && s[start + len - 1] == '\r') --len;
      out.emplace_back(s.substr(start, len));
      start = i + 1;
    }
  }
  // A trailing newline should not produce a phantom empty last line.
  if (!out.empty() && out.back().empty() && !s.empty() && s.back() == '\n') out.pop_back();
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const std::string h = to_lower(haystack);
  const std::string n = to_lower(needle);
  return h.find(n) != std::string::npos;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return out;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  const char c0 = s[0];
  if (!(std::isalpha(static_cast<unsigned char>(c0)) || c0 == '_')) return false;
  for (char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$')) return false;
  }
  return true;
}

std::size_t word_count(std::string_view s) { return split_ws(s).size(); }

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

namespace {

// std::from_chars over the whole string: no whitespace, no '+', no sign at
// all for unsigned types, nothing left over, nothing out of range.
template <typename T>
bool parse_whole(const std::string& s, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_i64(const std::string& s, long long* out) { return parse_whole(s, out); }

bool parse_int(const std::string& s, int* out) { return parse_whole(s, out); }

bool parse_u64(const std::string& s, std::uint64_t* out) { return parse_whole(s, out); }

bool parse_f64(const std::string& s, double* out) { return parse_whole(s, out); }

std::string indent(std::string_view s, int n) {
  const std::string pad(static_cast<std::size_t>(n > 0 ? n : 0), ' ');
  std::string out;
  for (const auto& line : split_lines(s)) {
    if (!line.empty()) out += pad;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace haven::util
