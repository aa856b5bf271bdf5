#include "jfm/support/strings.hpp"

#include <cctype>

namespace jfm::support {

namespace {
/// std::isspace's set in the "C" locale. The file formats are ASCII, so
/// the tokenizers below, which sit on every design-file parse, skip the
/// per-character locale lookup.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
}  // namespace

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

void split_ws(std::string_view text, std::vector<std::string_view>& fields) {
  fields.clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && is_space(text[b])) ++b;
  while (e > b && is_space(text[e - 1])) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(name[0]);
  if (!std::isalpha(first) && first != '_') return false;
  for (char c : name.substr(1)) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && u != '_' && u != '.' && u != '-') return false;
  }
  return true;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out.push_back(text[i]);
      continue;
    }
    ++i;
    switch (text[i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case '\\': out.push_back('\\'); break;
      default: out.push_back(text[i]);
    }
  }
  return out;
}

}  // namespace jfm::support
