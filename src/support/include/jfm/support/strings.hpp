#pragma once
// Small string utilities shared by the file formats (.meta files, OMS
// export, schematic/layout serializations) and the extension language.

#include <string>
#include <string_view>
#include <vector>

namespace jfm::support {

/// Split on a single character; empty fields are preserved. The fields
/// are views into `text`, which must outlive them.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Split on any whitespace into `fields` (cleared first); empty fields
/// are dropped. The fields are views into `text`. Passing the same
/// vector for every line of a document reuses its storage, so
/// tokenizing allocates nothing per line.
void split_ws(std::string_view text, std::vector<std::string_view>& fields);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Is `name` a legal framework identifier ([a-zA-Z_][a-zA-Z0-9_.-]*)?
/// Both frameworks restrict object names; the mapper relies on this.
bool is_identifier(std::string_view name);

/// Escape/unescape for the line-oriented .meta and OMS export formats:
/// '\\' -> "\\\\", '\n' -> "\\n", '\t' -> "\\t".
std::string escape(std::string_view text);
std::string unescape(std::string_view text);

}  // namespace jfm::support
