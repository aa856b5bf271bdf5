#include "internal.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::jcf {

using support::Errc;
using support::Result;

// "This results in a more powerful data consistency check in
// JCF-FMCAD" (paper s3.2): because the hierarchy and the derivation
// relations are framework metadata, JCF can sweep a whole project for
// violations that FMCAD -- where the hierarchy hides inside design
// files -- cannot even express.

Result<std::vector<std::string>> JcfFramework::check_consistency(ProjectRef project) const {
  JFM_SPAN("jcf", "check_consistency");
  if (auto st = detail::expect(store_, project, cls::Project); !st.ok()) {
    return Result<std::vector<std::string>>::failure(st.error().code, st.error().message);
  }
  std::vector<std::string> problems;
  auto pname = name_of(project.id);
  auto project_cells = cells(project);
  if (!project_cells.ok()) {
    return Result<std::vector<std::string>>::failure(project_cells.error().code,
                                                     project_cells.error().message);
  }

  for (auto cell : *project_cells) {
    auto cname = name_of(cell.id);
    const std::string cell_label = cname.ok() ? *cname : "?";
    auto versions = cell_versions(cell);
    if (!versions.ok()) continue;
    for (auto cv : *versions) {
      auto number = version_number(cv);
      const std::string cv_label =
          cell_label + " v" + (number.ok() ? std::to_string(*number) : "?");

      // 1. flow attachment: a cell version must carry a frozen flow
      auto flow = effective_flow(cv);
      if (!flow.ok()) {
        problems.push_back(cv_label + ": no flow attached");
      } else {
        auto frozen = flow_frozen(*flow);
        if (frozen.ok() && !*frozen) {
          problems.push_back(cv_label + ": attached flow is not frozen");
        }
      }

      // 2. hierarchy: children must be published before a published
      //    parent may reference them (a released design cannot depend
      //    on private data)
      auto published = store_.get_bool(cv.id, "published");
      auto kids = children(cv);
      if (kids.ok()) {
        for (auto child : *kids) {
          auto child_published = store_.get_bool(child.id, "published");
          if (published.ok() && *published && child_published.ok() && !*child_published) {
            problems.push_back(cv_label + ": published version uses unpublished child");
          }
        }
      }

      // 3. per-variant checks
      auto all_variants = variants(cv);
      if (!all_variants.ok()) continue;
      for (auto variant : *all_variants) {
        auto vname = name_of(variant.id);
        const std::string var_label = cv_label + "/" + (vname.ok() ? *vname : "?");
        auto dobjs = design_objects(variant);
        if (!dobjs.ok()) continue;
        for (auto dobj : *dobjs) {
          auto vt = viewtype_of(dobj);
          if (!vt.ok()) {
            auto dname = name_of(dobj.id);
            problems.push_back(var_label + ": design object " +
                               (dname.ok() ? *dname : "?") + " has no viewtype");
          }
          // 4. derivation sanity: a non-first version should either be
          //    derived from something or be preceded by an older version
          auto dovs = dov_versions(dobj);
          if (!dovs.ok()) continue;
          for (auto dov : *dovs) {
            auto n = dov_number(dov);
            if (!n.ok() || *n <= 1) continue;
            auto sources = derivation_sources(dov);
            auto preceded = store_.sources(rel::dov_precedes, dov.id);
            bool has_lineage = (sources.ok() && !sources->empty()) ||
                               (preceded.ok() && !preceded->empty());
            if (!has_lineage) {
              auto dname = name_of(dobj.id);
              problems.push_back(var_label + ": version " + std::to_string(*n) + " of " +
                                 (dname.ok() ? *dname : "?") + " has no recorded lineage");
            }
          }
        }

        // 5. configurations must reference versions that still exist
        //    within this cell version's variants
        auto configs = store_.targets(rel::cv_config, cv.id);
        if (configs.ok()) {
          for (auto config : *configs) {
            auto members = store_.targets(rel::config_member, config);
            if (!members.ok()) continue;
            for (auto member : *members) {
              if (!store_.exists(member)) {
                auto cfg_name = name_of(config);
                problems.push_back(cv_label + ": configuration " +
                                   (cfg_name.ok() ? *cfg_name : "?") +
                                   " references a destroyed design object version");
              }
            }
          }
        }
      }
    }
  }
  (void)pname;
  return problems;
}

}  // namespace jfm::jcf
