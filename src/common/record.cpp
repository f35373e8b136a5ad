#include "common/record.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace am::record {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // istream::read turns a failing read (a directory, EIO) into badbit;
  // a streambuf iterator would let the filebuf's exception escape.
  std::string text;
  char buf[1 << 14];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  if (in.bad()) return std::nullopt;
  return text;
}

bool next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  const std::size_t nl = text.find('\n');
  line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  return true;
}

bool take_header(std::string_view& text, std::string_view header) {
  std::string_view line;
  return next_line(text, line) && line == header;
}

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> out;
  for (;;) {
    const std::size_t tab = line.find('\t');
    out.push_back(line.substr(0, tab));
    if (tab == std::string_view::npos) return out;
    line.remove_prefix(tab + 1);
  }
}

std::pair<std::string_view, std::string_view> split_key(
    std::string_view line) {
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return {line, {}};
  return {line.substr(0, tab), line.substr(tab + 1)};
}

std::optional<std::uint64_t> parse_u64(std::string_view field) {
  // from_chars takes no sign, blank or prefix for an unsigned type and
  // reports overflow, so "digits only, within 64 bits" is exactly a
  // successful parse that consumes the whole field.
  std::uint64_t v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view field) {
  // A NUL-terminated copy: strtod must stop inside the field, and an
  // embedded NUL then shows up as unparsed trailing bytes.
  const std::string s(field);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE)
    return std::nullopt;
  return v;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace am::record
