#include "internal.hpp"

namespace jfm::jcf {

using detail::expect;
using support::Errc;
using support::Result;
using support::Status;

namespace {
/// Names of children under a 1:n relation must be unique; scan targets.
Result<bool> name_taken(const oms::Store& store, const char* relation, oms::ObjectId owner,
                        const std::string& name) {
  auto ids = store.targets(relation, owner);
  if (!ids.ok()) return Result<bool>::failure(ids.error().code, ids.error().message);
  for (auto id : *ids) {
    auto n = store.get_text(id, "name");
    if (n.ok() && *n == name) return true;
  }
  return false;
}

/// The first of `candidates` that `project` reaches through `relation`,
/// in that relation's link order -- what a walk of targets() would find.
/// Link order is only consulted when two candidates are linked, which
/// takes same-named cells shared from different owners.
std::optional<oms::ObjectId> first_linked(const oms::Store& store, const char* relation,
                                          oms::ObjectId project,
                                          const std::vector<oms::ObjectId>& candidates) {
  std::vector<oms::ObjectId> hits;
  for (auto id : candidates) {
    if (store.linked(relation, project, id)) hits.push_back(id);
  }
  if (hits.size() < 2) {
    return hits.empty() ? std::nullopt : std::optional<oms::ObjectId>(hits.front());
  }
  auto order = store.targets(relation, project);
  if (order.ok()) {
    for (auto id : *order) {
      if (std::find(hits.begin(), hits.end(), id) != hits.end()) return id;
    }
  }
  return hits.front();
}
}  // namespace

Result<ProjectRef> JcfFramework::create_project(const std::string& name, TeamRef team) {
  if (auto st = expect(store_, team, cls::Team); !st.ok()) {
    return Result<ProjectRef>::failure(st.error().code, st.error().message);
  }
  auto id = detail::create_named(store_, cls::Project, name);
  if (!id.ok()) return Result<ProjectRef>::failure(id.error().code, id.error().message);
  (void)store_.link(rel::project_team, *id, team.id);
  return ProjectRef(*id);
}

Result<CellRef> JcfFramework::create_cell(ProjectRef project, const std::string& name,
                                          FlowRef flow, TeamRef team) {
  if (auto st = expect(store_, project, cls::Project); !st.ok()) {
    return Result<CellRef>::failure(st.error().code, st.error().message);
  }
  if (auto st = expect(store_, flow, cls::Flow); !st.ok()) {
    return Result<CellRef>::failure(st.error().code, st.error().message);
  }
  if (auto st = expect(store_, team, cls::Team); !st.ok()) {
    return Result<CellRef>::failure(st.error().code, st.error().message);
  }
  auto frozen = flow_frozen(flow);
  if (!frozen.ok()) return Result<CellRef>::failure(frozen.error().code, frozen.error().message);
  if (!*frozen) {
    // "each design flow has to be defined in advance" (s2.1)
    return Result<CellRef>::failure(Errc::invalid_argument,
                                    "flow must be frozen before it can drive a cell");
  }
  const auto named = store_.find(cls::Cell, "name", oms::AttrValue(name));
  if (first_linked(store_, rel::project_cell, project.id, named)) {
    return Result<CellRef>::failure(Errc::already_exists,
                                    "cell '" + name + "' in this project");
  }
  auto id = store_.create(cls::Cell);
  if (!id.ok()) return Result<CellRef>::failure(id.error().code, id.error().message);
  (void)store_.set(*id, "name", oms::AttrValue(name));
  (void)store_.link(rel::project_cell, project.id, *id);
  (void)store_.link(rel::cell_flow, *id, flow.id);
  (void)store_.link(rel::cell_team, *id, team.id);
  structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return CellRef(*id);
}

Result<CellRef> JcfFramework::find_cell(ProjectRef project, const std::string& name) const {
  // Every cell of that name in the store, from the (Cell, name) attribute
  // index (docs/oms-indexing.md); own cells shadow shared ones.
  const auto named = store_.find(cls::Cell, "name", oms::AttrValue(name));
  for (const char* relation : {rel::project_cell, rel::project_shared}) {
    if (auto id = first_linked(store_, relation, project.id, named)) return CellRef(*id);
  }
  return Result<CellRef>::failure(Errc::not_found, "cell '" + name + "'");
}

Status JcfFramework::share_cell(ProjectRef borrower, CellRef cell) {
  if (auto st = expect(store_, borrower, cls::Project); !st.ok()) return st;
  if (auto st = expect(store_, cell, cls::Cell); !st.ok()) return st;
  auto owner = project_of(cell);
  if (!owner.ok()) return Status(owner.error());
  if (*owner == borrower) {
    return support::fail(Errc::invalid_argument, "cell already belongs to this project");
  }
  // only published designs can be seen from outside their project
  auto cv = latest_cell_version(cell);
  if (!cv.ok()) return Status(cv.error());
  auto published = store_.get_bool(cv->id, "published");
  if (!published.ok() || !*published) {
    return support::fail(Errc::permission_denied,
                         "only published cells can be shared between projects");
  }
  if (store_.linked(rel::project_shared, borrower.id, cell.id)) {
    return support::fail(Errc::already_exists, "cell is already shared into this project");
  }
  auto st = store_.link(rel::project_shared, borrower.id, cell.id);
  if (st.ok()) structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return st;
}

Result<std::vector<CellRef>> JcfFramework::shared_cells(ProjectRef project) const {
  if (auto st = expect(store_, project, cls::Project); !st.ok()) {
    return Result<std::vector<CellRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<CellTag>(store_, rel::project_shared, project.id);
}

Result<ProjectRef> JcfFramework::project_of(CellRef cell) const {
  auto id = detail::single_source(store_, rel::project_cell, cell.id, "cell");
  if (!id.ok()) return Result<ProjectRef>::failure(id.error().code, id.error().message);
  return ProjectRef(*id);
}

Result<std::vector<CellRef>> JcfFramework::cells(ProjectRef project) const {
  if (auto st = expect(store_, project, cls::Project); !st.ok()) {
    return Result<std::vector<CellRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<CellTag>(store_, rel::project_cell, project.id);
}

Result<CellVersionRef> JcfFramework::create_cell_version(CellRef cell, UserRef creator) {
  if (auto st = expect(store_, cell, cls::Cell); !st.ok()) {
    return Result<CellVersionRef>::failure(st.error().code, st.error().message);
  }
  if (auto st = expect(store_, creator, cls::User); !st.ok()) {
    return Result<CellVersionRef>::failure(st.error().code, st.error().message);
  }
  // Only members of the cell's team create versions of it.
  auto team = detail::single_target(store_, rel::cell_team, cell.id, "cell team");
  if (!team.ok()) return Result<CellVersionRef>::failure(team.error().code, team.error().message);
  if (!store_.linked(rel::team_member, *team, creator.id)) {
    auto who = name_of(creator.id);
    return Result<CellVersionRef>::failure(Errc::permission_denied,
                                           (who.ok() ? *who : "user") +
                                               " is not in the cell's team");
  }
  auto existing = store_.targets(rel::cell_version, cell.id);
  if (!existing.ok()) {
    return Result<CellVersionRef>::failure(existing.error().code, existing.error().message);
  }
  auto id = store_.create(cls::CellVersion);
  if (!id.ok()) return Result<CellVersionRef>::failure(id.error().code, id.error().message);
  const int number = static_cast<int>(existing->size()) + 1;
  (void)store_.set(*id, "number", oms::AttrValue(std::int64_t{number}));
  (void)store_.set(*id, "published", oms::AttrValue(false));
  (void)store_.set(*id, "reserved_by", oms::AttrValue(std::string()));
  (void)store_.link(rel::cell_version, cell.id, *id);
  if (!existing->empty()) {
    (void)store_.link(rel::cv_precedes, existing->back(), *id);
  }
  // Each cell version may carry a modified flow and a different team
  // (s2.1); it starts with the cell's.
  auto flow = detail::single_target(store_, rel::cell_flow, cell.id, "cell flow");
  if (flow.ok()) (void)store_.link(rel::cv_flow, *id, *flow);
  (void)store_.link(rel::cv_team, *id, *team);
  structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return CellVersionRef(*id);
}

Result<std::vector<CellVersionRef>> JcfFramework::cell_versions(CellRef cell) const {
  if (auto st = expect(store_, cell, cls::Cell); !st.ok()) {
    return Result<std::vector<CellVersionRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<CellVersionTag>(store_, rel::cell_version, cell.id);
}

Result<CellVersionRef> JcfFramework::latest_cell_version(CellRef cell) const {
  auto all = cell_versions(cell);
  if (!all.ok()) return Result<CellVersionRef>::failure(all.error().code, all.error().message);
  if (all->empty()) {
    return Result<CellVersionRef>::failure(Errc::not_found, "cell has no versions");
  }
  return all->back();
}

Result<int> JcfFramework::version_number(CellVersionRef cv) const {
  auto v = store_.get_int(cv.id, "number");
  if (!v.ok()) return Result<int>::failure(v.error().code, v.error().message);
  return static_cast<int>(*v);
}

Status JcfFramework::override_flow(CellVersionRef cv, FlowRef flow) {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) return st;
  auto frozen = flow_frozen(flow);
  if (!frozen.ok()) return Status(frozen.error());
  if (!*frozen) return support::fail(Errc::invalid_argument, "flow must be frozen");
  auto current = store_.targets(rel::cv_flow, cv.id);
  if (current.ok()) {
    for (auto id : *current) (void)store_.unlink(rel::cv_flow, cv.id, id);
  }
  return store_.link(rel::cv_flow, cv.id, flow.id);
}

Status JcfFramework::override_team(CellVersionRef cv, TeamRef team) {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) return st;
  if (auto st = expect(store_, team, cls::Team); !st.ok()) return st;
  auto current = store_.targets(rel::cv_team, cv.id);
  if (current.ok()) {
    for (auto id : *current) (void)store_.unlink(rel::cv_team, cv.id, id);
  }
  return store_.link(rel::cv_team, cv.id, team.id);
}

Result<FlowRef> JcfFramework::effective_flow(CellVersionRef cv) const {
  auto id = detail::single_target(store_, rel::cv_flow, cv.id, "cell version flow");
  if (!id.ok()) return Result<FlowRef>::failure(id.error().code, id.error().message);
  return FlowRef(*id);
}

Result<TeamRef> JcfFramework::effective_team(CellVersionRef cv) const {
  auto id = detail::single_target(store_, rel::cv_team, cv.id, "cell version team");
  if (!id.ok()) return Result<TeamRef>::failure(id.error().code, id.error().message);
  return TeamRef(*id);
}

Result<CellRef> JcfFramework::cell_of(CellVersionRef cv) const {
  auto id = detail::single_source(store_, rel::cell_version, cv.id, "cell version");
  if (!id.ok()) return Result<CellRef>::failure(id.error().code, id.error().message);
  return CellRef(*id);
}

Result<VariantRef> JcfFramework::create_variant(CellVersionRef cv, const std::string& name,
                                                UserRef user) {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) {
    return Result<VariantRef>::failure(st.error().code, st.error().message);
  }
  // Variants are derived inside the user's reserved workspace.
  auto holder = reserved_by(cv);
  if (!holder.ok()) return Result<VariantRef>::failure(holder.error().code, holder.error().message);
  auto uname = name_of(user.id);
  if (!uname.ok()) return Result<VariantRef>::failure(uname.error().code, uname.error().message);
  if (*holder != *uname) {
    return Result<VariantRef>::failure(Errc::permission_denied,
                                       "cell version is not reserved by " + *uname);
  }
  auto taken = name_taken(store_, rel::cv_variant, cv.id, name);
  if (!taken.ok()) return Result<VariantRef>::failure(taken.error().code, taken.error().message);
  if (*taken) {
    return Result<VariantRef>::failure(Errc::already_exists, "variant '" + name + "'");
  }
  auto id = store_.create(cls::Variant);
  if (!id.ok()) return Result<VariantRef>::failure(id.error().code, id.error().message);
  (void)store_.set(*id, "name", oms::AttrValue(name));
  (void)store_.link(rel::cv_variant, cv.id, *id);
  structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return VariantRef(*id);
}

Result<std::vector<VariantRef>> JcfFramework::variants(CellVersionRef cv) const {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) {
    return Result<std::vector<VariantRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<VariantTag>(store_, rel::cv_variant, cv.id);
}

Result<VariantRef> JcfFramework::find_variant(CellVersionRef cv, const std::string& name) const {
  auto all = variants(cv);
  if (!all.ok()) return Result<VariantRef>::failure(all.error().code, all.error().message);
  for (auto v : *all) {
    auto n = name_of(v.id);
    if (n.ok() && *n == name) return v;
  }
  return Result<VariantRef>::failure(Errc::not_found, "variant '" + name + "'");
}

Result<CellVersionRef> JcfFramework::cell_version_of(VariantRef variant) const {
  auto id = detail::single_source(store_, rel::cv_variant, variant.id, "variant");
  if (!id.ok()) return Result<CellVersionRef>::failure(id.error().code, id.error().message);
  return CellVersionRef(*id);
}

Result<DesignObjectRef> JcfFramework::create_design_object(VariantRef variant,
                                                           const std::string& name,
                                                           ViewTypeRef viewtype, UserRef user) {
  if (auto st = expect(store_, variant, cls::Variant); !st.ok()) {
    return Result<DesignObjectRef>::failure(st.error().code, st.error().message);
  }
  if (auto st = expect(store_, viewtype, cls::ViewType); !st.ok()) {
    return Result<DesignObjectRef>::failure(st.error().code, st.error().message);
  }
  auto cv = cell_version_of(variant);
  if (!cv.ok()) return Result<DesignObjectRef>::failure(cv.error().code, cv.error().message);
  auto holder = reserved_by(*cv);
  auto uname = name_of(user.id);
  if (!holder.ok() || !uname.ok() || *holder != *uname) {
    return Result<DesignObjectRef>::failure(Errc::permission_denied,
                                            "workspace not reserved by this user");
  }
  auto taken = name_taken(store_, rel::variant_do, variant.id, name);
  if (!taken.ok()) {
    return Result<DesignObjectRef>::failure(taken.error().code, taken.error().message);
  }
  if (*taken) {
    return Result<DesignObjectRef>::failure(Errc::already_exists,
                                            "design object '" + name + "'");
  }
  auto id = store_.create(cls::DesignObject);
  if (!id.ok()) return Result<DesignObjectRef>::failure(id.error().code, id.error().message);
  (void)store_.set(*id, "name", oms::AttrValue(name));
  (void)store_.link(rel::variant_do, variant.id, *id);
  (void)store_.link(rel::do_viewtype, *id, viewtype.id);
  return DesignObjectRef(*id);
}

Result<std::vector<DesignObjectRef>> JcfFramework::design_objects(VariantRef variant) const {
  if (auto st = expect(store_, variant, cls::Variant); !st.ok()) {
    return Result<std::vector<DesignObjectRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<DesignObjectTag>(store_, rel::variant_do, variant.id);
}

Result<DesignObjectRef> JcfFramework::find_design_object(VariantRef variant,
                                                         const std::string& name) const {
  auto all = design_objects(variant);
  if (!all.ok()) {
    return Result<DesignObjectRef>::failure(all.error().code, all.error().message);
  }
  for (auto d : *all) {
    auto n = name_of(d.id);
    if (n.ok() && *n == name) return d;
  }
  return Result<DesignObjectRef>::failure(Errc::not_found, "design object '" + name + "'");
}

Result<VariantRef> JcfFramework::variant_of(DesignObjectRef dobj) const {
  auto id = detail::single_source(store_, rel::variant_do, dobj.id, "design object");
  if (!id.ok()) return Result<VariantRef>::failure(id.error().code, id.error().message);
  return VariantRef(*id);
}

Result<ViewTypeRef> JcfFramework::viewtype_of(DesignObjectRef dobj) const {
  auto id = detail::single_target(store_, rel::do_viewtype, dobj.id, "design object viewtype");
  if (!id.ok()) return Result<ViewTypeRef>::failure(id.error().code, id.error().message);
  return ViewTypeRef(*id);
}

Status JcfFramework::set_equivalent(DovRef a, DovRef b) {
  if (auto st = expect(store_, a, cls::Dov); !st.ok()) return st;
  if (auto st = expect(store_, b, cls::Dov); !st.ok()) return st;
  if (a == b) return support::fail(Errc::invalid_argument, "self-equivalence");
  if (auto st = store_.link(rel::equivalent, a.id, b.id); !st.ok()) return st;
  return store_.link(rel::equivalent, b.id, a.id);  // symmetric
}

Result<bool> JcfFramework::is_equivalent(DovRef a, DovRef b) const {
  return store_.linked(rel::equivalent, a.id, b.id);
}

// -- CompOf hierarchy ---------------------------------------------------------

namespace {
bool reachable(const oms::Store& store, oms::ObjectId from, oms::ObjectId target, int depth) {
  if (depth > 64) return true;  // conservatively treat as reachable
  if (from == target) return true;
  auto kids = store.targets(rel::comp_of, from);
  if (!kids.ok()) return false;
  for (auto k : *kids) {
    if (reachable(store, k, target, depth + 1)) return true;
  }
  return false;
}
}  // namespace

Status JcfFramework::add_child(CellVersionRef parent, CellVersionRef child) {
  if (auto st = expect(store_, parent, cls::CellVersion); !st.ok()) return st;
  if (auto st = expect(store_, child, cls::CellVersion); !st.ok()) return st;
  if (parent == child) {
    return support::fail(Errc::consistency_violation, "a cell version cannot contain itself");
  }
  if (reachable(store_, child.id, parent.id, 0)) {
    return support::fail(Errc::consistency_violation, "CompOf hierarchy would become cyclic");
  }
  auto st = store_.link(rel::comp_of, parent.id, child.id);
  if (st.ok()) structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return st;
}

Status JcfFramework::remove_child(CellVersionRef parent, CellVersionRef child) {
  auto st = store_.unlink(rel::comp_of, parent.id, child.id);
  if (st.ok()) structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return st;
}

Result<std::vector<CellVersionRef>> JcfFramework::children(CellVersionRef parent) const {
  if (auto st = expect(store_, parent, cls::CellVersion); !st.ok()) {
    return Result<std::vector<CellVersionRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<CellVersionTag>(store_, rel::comp_of, parent.id);
}

Result<std::vector<CellVersionRef>> JcfFramework::parents(CellVersionRef child) const {
  if (auto st = expect(store_, child, cls::CellVersion); !st.ok()) {
    return Result<std::vector<CellVersionRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_sources<CellVersionTag>(store_, rel::comp_of, child.id);
}

// -- configurations --------------------------------------------------------------

Result<ConfigRef> JcfFramework::create_config(CellVersionRef cv, const std::string& name) {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) {
    return Result<ConfigRef>::failure(st.error().code, st.error().message);
  }
  auto taken = name_taken(store_, rel::cv_config, cv.id, name);
  if (!taken.ok()) return Result<ConfigRef>::failure(taken.error().code, taken.error().message);
  if (*taken) return Result<ConfigRef>::failure(Errc::already_exists, "config '" + name + "'");
  auto id = store_.create(cls::Config);
  if (!id.ok()) return Result<ConfigRef>::failure(id.error().code, id.error().message);
  (void)store_.set(*id, "name", oms::AttrValue(name));
  (void)store_.link(rel::cv_config, cv.id, *id);
  return ConfigRef(*id);
}

Status JcfFramework::add_config_member(ConfigRef config, DovRef dov) {
  if (auto st = expect(store_, config, cls::Config); !st.ok()) return st;
  if (auto st = expect(store_, dov, cls::Dov); !st.ok()) return st;
  // At most one version per design object in a configuration.
  auto dobj = design_object_of(dov);
  if (!dobj.ok()) return Status(dobj.error());
  auto members = store_.targets(rel::config_member, config.id);
  if (!members.ok()) return Status(members.error());
  for (auto member : *members) {
    auto other = design_object_of(DovRef(member));
    if (other.ok() && *other == *dobj) {
      return support::fail(Errc::consistency_violation,
                           "configuration already holds a version of this design object");
    }
  }
  return store_.link(rel::config_member, config.id, dov.id);
}

Status JcfFramework::add_config_child(ConfigRef parent, ConfigRef child) {
  if (auto st = expect(store_, parent, cls::Config); !st.ok()) return st;
  if (auto st = expect(store_, child, cls::Config); !st.ok()) return st;
  if (parent == child) return support::fail(Errc::invalid_argument, "self-containment");
  return store_.link(rel::config_child, parent.id, child.id);
}

Result<std::vector<DovRef>> JcfFramework::config_members(ConfigRef config) const {
  if (auto st = expect(store_, config, cls::Config); !st.ok()) {
    return Result<std::vector<DovRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<DovTag>(store_, rel::config_member, config.id);
}

}  // namespace jfm::jcf
