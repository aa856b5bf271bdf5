#include "jfm/coupling/resolvers.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <optional>

namespace jfm::coupling {

using support::Errc;
using support::Result;

namespace {
Result<tools::Schematic> schematic_from_text(const std::string& text,
                                             const fmcad::CellViewKey& key) {
  auto file = fmcad::DesignFile::parse(text);
  if (!file.ok()) {
    return Result<tools::Schematic>::failure(file.error().code,
                                             key.str() + ": " + file.error().message);
  }
  if (file->viewtype != "schematic") {
    return Result<tools::Schematic>::failure(Errc::invalid_argument,
                                             key.str() + " is not a schematic");
  }
  return tools::Schematic::parse(file->payload);
}
}  // namespace

tools::SchematicResolver make_fmcad_resolver(std::shared_ptr<fmcad::Library> library) {
  return [library](const fmcad::CellViewKey& key) -> Result<tools::Schematic> {
    const auto* record = library->meta().find_cellview(key);
    if (record == nullptr || record->default_version() == nullptr) {
      return Result<tools::Schematic>::failure(Errc::not_found,
                                               "cellview " + key.str() + " has no versions");
    }
    auto text = library->fs().read_file(
        library->cellview_dir(key).child(record->default_version()->file));
    if (!text.ok()) {
      return Result<tools::Schematic>::failure(text.error().code, text.error().message);
    }
    return schematic_from_text(*text, key);
  };
}

tools::SchematicResolver make_fmcad_resolver(fmcad::LibrarySet libraries) {
  return [libraries = std::move(libraries)](
             const fmcad::CellViewKey& key) -> Result<tools::Schematic> {
    auto text = libraries.read_default_text(key);
    if (!text.ok()) {
      return Result<tools::Schematic>::failure(text.error().code, text.error().message);
    }
    return schematic_from_text(*text, key);
  };
}

tools::SchematicResolver make_jcf_resolver(jcf::JcfFramework* jcf, jcf::ProjectRef project,
                                           jcf::UserRef reader) {
  return [jcf, project, reader](const fmcad::CellViewKey& key) -> Result<tools::Schematic> {
    auto cell = jcf->find_cell(project, key.cell);
    if (!cell.ok()) {
      return Result<tools::Schematic>::failure(cell.error().code, cell.error().message);
    }
    auto cv = jcf->latest_cell_version(*cell);
    if (!cv.ok()) {
      return Result<tools::Schematic>::failure(cv.error().code, cv.error().message);
    }
    auto variants = jcf->variants(*cv);
    if (!variants.ok() || variants->empty()) {
      return Result<tools::Schematic>::failure(Errc::not_found,
                                               key.cell + " has no variants in JCF");
    }
    auto dobj = jcf->find_design_object(variants->front(), key.view);
    if (!dobj.ok()) {
      return Result<tools::Schematic>::failure(dobj.error().code, dobj.error().message);
    }
    auto dov = jcf->latest_dov(*dobj);
    if (!dov.ok()) {
      return Result<tools::Schematic>::failure(dov.error().code, dov.error().message);
    }
    auto data = jcf->dov_data(*dov, reader);
    if (!data.ok()) {
      return Result<tools::Schematic>::failure(data.error().code, data.error().message);
    }
    return schematic_from_text(*data, key);
  };
}

tools::SchematicResolver make_jcf_config_resolver(jcf::JcfFramework* jcf, jcf::ConfigRef config,
                                                  jcf::UserRef reader,
                                                  tools::SchematicResolver fallback) {
  // The members keyed by (cell, view), the first member of a key winning.
  // Built on first use and again whenever the store's epoch has moved,
  // so that a member pinned after the resolver was made is seen.
  struct Members {
    std::mutex mu;
    bool built = false;
    std::uint64_t epoch = 0;
    std::map<fmcad::CellViewKey, jcf::DovRef> by_key;

    support::Status refresh(jcf::JcfFramework& jcf, jcf::ConfigRef config) {
      const std::uint64_t now = jcf.store().epoch();
      if (built && epoch == now) return {};
      auto dovs = jcf.config_members(config);
      if (!dovs.ok()) return support::Status(dovs.error());
      by_key.clear();
      for (auto dov : *dovs) {
        // walk up: design object -> variant -> cell version -> cell name
        auto dobj = jcf.design_object_of(dov);
        if (!dobj.ok()) continue;
        auto dobj_name = jcf.name_of(dobj->id);
        if (!dobj_name.ok()) continue;
        auto variants = jcf.store().sources(jcf::rel::variant_do, dobj->id);
        if (!variants.ok() || variants->empty()) continue;
        auto cv = jcf.cell_version_of(jcf::VariantRef(variants->front()));
        if (!cv.ok()) continue;
        auto cell = jcf.cell_of(*cv);
        if (!cell.ok()) continue;
        auto cell_name = jcf.name_of(cell->id);
        if (!cell_name.ok()) continue;
        by_key.try_emplace({*cell_name, *dobj_name}, dov);
      }
      built = true;
      epoch = now;
      return {};
    }
  };
  return [jcf, config, reader, members = std::make_shared<Members>(),
          fallback = std::move(fallback)](const fmcad::CellViewKey& key)
             -> Result<tools::Schematic> {
    std::optional<jcf::DovRef> pinned;
    {
      std::lock_guard<std::mutex> lock(members->mu);
      if (auto st = members->refresh(*jcf, config); !st.ok()) {
        return Result<tools::Schematic>::failure(st.error().code, st.error().message);
      }
      auto it = members->by_key.find(key);
      if (it != members->by_key.end()) pinned = it->second;
    }
    if (pinned) {
      auto data = jcf->dov_data(*pinned, reader);
      if (!data.ok()) {
        return Result<tools::Schematic>::failure(data.error().code, data.error().message);
      }
      return schematic_from_text(*data, key);
    }
    if (fallback) return fallback(key);
    return Result<tools::Schematic>::failure(Errc::not_found,
                                             key.str() + " is not pinned in the configuration");
  };
}

}  // namespace jfm::coupling
