#include "jfm/fmcad/meta.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;

bool LibraryMeta::has_cell(std::string_view name) const {
  return std::find(cells.begin(), cells.end(), name) != cells.end();
}

const ViewDef* LibraryMeta::find_view(std::string_view name) const {
  for (const auto& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const CellViewRecord* LibraryMeta::find_cellview(const CellViewKey& key) const {
  auto it = cellviews.find(key);
  return it == cellviews.end() ? nullptr : &it->second;
}

CellViewRecord* LibraryMeta::find_cellview(const CellViewKey& key) {
  auto it = cellviews.find(key);
  return it == cellviews.end() ? nullptr : &it->second;
}

const ConfigRecord* LibraryMeta::find_config(std::string_view name) const {
  auto it = configs.find(std::string(name));
  return it == configs.end() ? nullptr : &it->second;
}

std::string LibraryMeta::serialize() const {
  std::string out = "fmcadmeta 1\n";
  out += "library " + library + "\n";
  out += "generation " + std::to_string(generation) + "\n";
  for (const auto& v : views) out += "view " + v.name + " " + v.viewtype + "\n";
  for (const auto& c : cells) out += "cell " + c + "\n";
  for (const auto& [key, record] : cellviews) {
    out += "cellview " + key.cell + " " + key.view + "\n";
    for (const auto& ver : record.versions) {
      out += "version " + key.cell + " " + key.view + " " + std::to_string(ver.number) + " " +
             ver.file + " " + std::to_string(ver.mtime) + " " + ver.author + "\n";
    }
    if (record.checkout) {
      out += "checkout " + key.cell + " " + key.view + " " + record.checkout->user + " " +
             std::to_string(record.checkout->base_version) + " " + record.checkout->work_file +
             "\n";
    }
  }
  for (const auto& [name, config] : configs) {
    out += "config " + name + "\n";
    for (const auto& [key, version] : config.members) {
      out += "member " + name + " " + key.cell + " " + key.view + " " +
             std::to_string(version) + "\n";
    }
  }
  out += "end\n";
  return out;
}

Result<LibraryMeta> Library_meta_parse_fail(const std::string& why) {
  return Result<LibraryMeta>::failure(Errc::parse_error, ".meta: " + why);
}

Result<LibraryMeta> LibraryMeta::parse(const std::string& text) {
  auto lines = support::split(text, '\n');
  if (lines.empty() || support::trim(lines[0]) != "fmcadmeta 1") {
    return Library_meta_parse_fail("bad header");
  }
  LibraryMeta meta;
  bool saw_end = false;
  std::vector<std::string_view> f;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    std::string_view line = support::trim(lines[n]);
    if (line.empty()) continue;
    if (saw_end) return Library_meta_parse_fail("content after end");
    support::split_ws(line, f);
    auto field = [&f](std::size_t i) { return std::string(f[i]); };
    const std::string_view kind = f[0];
    if (kind == "end") {
      saw_end = true;
    } else if (kind == "library" && f.size() == 2) {
      meta.library = f[1];
    } else if (kind == "generation" && f.size() == 2) {
      meta.generation = std::stoull(field(1));
    } else if (kind == "view" && f.size() == 3) {
      meta.views.push_back({field(1), field(2)});
    } else if (kind == "cell" && f.size() == 2) {
      meta.cells.push_back(field(1));
    } else if (kind == "cellview" && f.size() == 3) {
      CellViewKey key{field(1), field(2)};
      meta.cellviews[key].key = key;
    } else if (kind == "version" && f.size() == 7) {
      CellViewKey key{field(1), field(2)};
      auto* record = meta.find_cellview(key);
      if (record == nullptr) return Library_meta_parse_fail("version before cellview");
      VersionInfo ver;
      ver.number = std::stoi(field(3));
      ver.file = f[4];
      ver.mtime = std::stoull(field(5));
      ver.author = f[6];
      record->versions.push_back(ver);
    } else if (kind == "checkout" && f.size() == 6) {
      CellViewKey key{field(1), field(2)};
      auto* record = meta.find_cellview(key);
      if (record == nullptr) return Library_meta_parse_fail("checkout before cellview");
      record->checkout = CheckOutStatus{field(3), std::stoi(field(4)), field(5)};
    } else if (kind == "config" && f.size() == 2) {
      meta.configs[field(1)].name = f[1];
    } else if (kind == "member" && f.size() == 5) {
      auto it = meta.configs.find(field(1));
      if (it == meta.configs.end()) return Library_meta_parse_fail("member before config");
      it->second.members[CellViewKey{field(2), field(3)}] = std::stoi(field(4));
    } else {
      return Library_meta_parse_fail("bad record '" + std::string(line) + "'");
    }
  }
  if (!saw_end) return Library_meta_parse_fail("truncated (no end)");
  return meta;
}

}  // namespace jfm::fmcad
