#include "internal.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::jcf {

using detail::expect;
using support::Errc;
using support::Result;
using support::Status;

namespace {
namespace telemetry = support::telemetry;

telemetry::Counter& ws_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("jcf.workspace.") + which +
                                               ".count");
}
}  // namespace

// The JCF workspace concept (paper s2.1): "the workspace concept of JCF
// allows only one user to work on a particular cell version if this
// cell version is reserved in his private workspace. Other users are
// only allowed to read the published parts of the design data."

Status JcfFramework::reserve(CellVersionRef cv, UserRef user) {
  JFM_SPAN("jcf", "workspace.reserve");
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) return st;
  if (auto st = expect(store_, user, cls::User); !st.ok()) return st;
  auto uname = name_of(user.id);
  if (!uname.ok()) return Status(uname.error());
  auto team = effective_team(cv);
  if (!team.ok()) return Status(team.error());
  if (!store_.linked(rel::team_member, team->id, user.id)) {
    ws_stats_.reservation_conflicts.fetch_add(1, std::memory_order_relaxed);
    ws_counter("reserve.conflict").add(1);
    return support::fail(Errc::permission_denied,
                         *uname + " is not a member of the cell version's team");
  }
  auto holder = store_.get_text(cv.id, "reserved_by");
  if (!holder.ok()) return Status(holder.error());
  if (!holder->empty()) {
    ws_stats_.reservation_conflicts.fetch_add(1, std::memory_order_relaxed);
    ws_counter("reserve.conflict").add(1);
    if (*holder == *uname) {
      return support::fail(Errc::already_exists, "cell version already in your workspace");
    }
    return support::fail(Errc::locked, "cell version is reserved by " + *holder);
  }
  ws_stats_.reservations.fetch_add(1, std::memory_order_relaxed);
  ws_counter("reserve").add(1);
  return store_.set(cv.id, "reserved_by", oms::AttrValue(*uname));
}

Status JcfFramework::publish(CellVersionRef cv, UserRef user) {
  JFM_SPAN("jcf", "workspace.publish");
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) return st;
  auto uname = name_of(user.id);
  if (!uname.ok()) return Status(uname.error());
  auto holder = store_.get_text(cv.id, "reserved_by");
  if (!holder.ok()) return Status(holder.error());
  if (*holder != *uname) {
    return support::fail(Errc::permission_denied,
                         holder->empty() ? "cell version is not reserved"
                                         : "cell version is reserved by " + *holder);
  }
  // Everything created in the workspace becomes visible.
  auto all_variants = variants(cv);
  if (!all_variants.ok()) return Status(all_variants.error());
  for (auto variant : *all_variants) {
    auto dobjs = design_objects(variant);
    if (!dobjs.ok()) return Status(dobjs.error());
    for (auto dobj : *dobjs) {
      auto dovs = dov_versions(dobj);
      if (!dovs.ok()) return Status(dovs.error());
      for (auto dov : *dovs) {
        // Skip DOVs that are already visible: re-stamping them would
        // bump their mutation epoch and flood the change feed with
        // unchanged versions on every publish cycle
        // (docs/incremental-checkout.md).
        auto published = store_.get_bool(dov.id, "published");
        if (published.ok() && *published) continue;
        (void)store_.set(dov.id, "published", oms::AttrValue(true));
      }
    }
  }
  auto cv_published = store_.get_bool(cv.id, "published");
  if (!cv_published.ok() || !*cv_published) {
    (void)store_.set(cv.id, "published", oms::AttrValue(true));
  }
  ws_stats_.publishes.fetch_add(1, std::memory_order_relaxed);
  ws_counter("publish").add(1);
  return store_.set(cv.id, "reserved_by", oms::AttrValue(std::string()));
}

Result<std::string> JcfFramework::reserved_by(CellVersionRef cv) const {
  if (auto st = expect(store_, cv, cls::CellVersion); !st.ok()) {
    return Result<std::string>::failure(st.error().code, st.error().message);
  }
  return store_.get_text(cv.id, "reserved_by");
}

Result<DovRef> JcfFramework::create_dov(DesignObjectRef dobj, std::string data, UserRef user) {
  // One materialization at the boundary; the overload below shares it
  // with every structure downstream.
  return create_dov(dobj, std::make_shared<const std::string>(std::move(data)), user);
}

Result<DovRef> JcfFramework::create_dov(DesignObjectRef dobj, oms::TextExtent data,
                                        UserRef user) {
  if (data == nullptr) {
    return Result<DovRef>::failure(Errc::invalid_argument, "create_dov: null extent");
  }
  if (auto st = expect(store_, dobj, cls::DesignObject); !st.ok()) {
    return Result<DovRef>::failure(st.error().code, st.error().message);
  }
  auto variant = detail::single_source(store_, rel::variant_do, dobj.id, "design object");
  if (!variant.ok()) return Result<DovRef>::failure(variant.error().code, variant.error().message);
  auto cv = cell_version_of(VariantRef(*variant));
  if (!cv.ok()) return Result<DovRef>::failure(cv.error().code, cv.error().message);
  auto holder = reserved_by(*cv);
  auto uname = name_of(user.id);
  if (!holder.ok() || !uname.ok() || *holder != *uname) {
    return Result<DovRef>::failure(Errc::permission_denied,
                                   "design data can only be written in a reserved workspace");
  }
  auto existing = store_.targets(rel::do_version, dobj.id);
  if (!existing.ok()) {
    return Result<DovRef>::failure(existing.error().code, existing.error().message);
  }
  auto id = store_.create(cls::Dov);
  if (!id.ok()) return Result<DovRef>::failure(id.error().code, id.error().message);
  const int number = static_cast<int>(existing->size()) + 1;
  (void)store_.set(*id, "number", oms::AttrValue(std::int64_t{number}));
  (void)store_.set_text(*id, "data", std::move(data));
  (void)store_.set(*id, "published", oms::AttrValue(false));
  (void)store_.link(rel::do_version, dobj.id, *id);
  if (!existing->empty()) {
    (void)store_.link(rel::dov_precedes, existing->back(), *id);
  }
  for (const auto& [token, listener] : dov_listeners_) listener(dobj, DovRef(*id));
  return DovRef(*id);
}

std::uint64_t JcfFramework::add_dov_created_listener(DovCreatedListener listener) {
  const std::uint64_t token = ++next_listener_token_;
  dov_listeners_.emplace_back(token, std::move(listener));
  return token;
}

void JcfFramework::remove_dov_created_listener(std::uint64_t token) {
  std::erase_if(dov_listeners_, [token](const auto& entry) { return entry.first == token; });
}

Result<std::vector<DovRef>> JcfFramework::dov_versions(DesignObjectRef dobj) const {
  if (auto st = expect(store_, dobj, cls::DesignObject); !st.ok()) {
    return Result<std::vector<DovRef>>::failure(st.error().code, st.error().message);
  }
  return detail::ref_targets<DovTag>(store_, rel::do_version, dobj.id);
}

Result<DovRef> JcfFramework::latest_dov(DesignObjectRef dobj) const {
  auto all = dov_versions(dobj);
  if (!all.ok()) return Result<DovRef>::failure(all.error().code, all.error().message);
  if (all->empty()) {
    return Result<DovRef>::failure(Errc::not_found, "design object has no versions");
  }
  return all->back();
}

Result<int> JcfFramework::dov_number(DovRef dov) const {
  auto v = store_.get_int(dov.id, "number");
  if (!v.ok()) return Result<int>::failure(v.error().code, v.error().message);
  return static_cast<int>(*v);
}

Result<DesignObjectRef> JcfFramework::design_object_of(DovRef dov) const {
  auto id = detail::single_source(store_, rel::do_version, dov.id, "design object version");
  if (!id.ok()) return Result<DesignObjectRef>::failure(id.error().code, id.error().message);
  return DesignObjectRef(*id);
}

Result<std::string> JcfFramework::dov_data(DovRef dov, UserRef reader) {
  // Materializing twin of dov_extent: same visibility rules and the
  // same logical accounting, plus one private copy of the payload --
  // which is exactly what the physical counter records.
  auto ext = dov_extent(dov, reader);
  if (!ext.ok()) return Result<std::string>::failure(ext.error().code, ext.error().message);
  ws_stats_.dov_read_bytes_physical.fetch_add((*ext)->size(), std::memory_order_relaxed);
  return **ext;
}

support::Status JcfFramework::check_dov_visibility(DovRef dov, UserRef reader) {
  if (auto st = expect(store_, dov, cls::Dov); !st.ok()) return st;
  auto published = store_.get_bool(dov.id, "published");
  if (published.ok() && *published) return {};
  // unpublished data: only the workspace holder sees it
  auto dobj = design_object_of(dov);
  if (!dobj.ok()) return support::Status(dobj.error());
  auto variant = detail::single_source(store_, rel::variant_do, dobj->id, "design object");
  if (!variant.ok()) return support::Status(variant.error());
  auto cv = cell_version_of(VariantRef(*variant));
  if (!cv.ok()) return support::Status(cv.error());
  auto holder = reserved_by(*cv);
  auto uname = name_of(reader.id);
  if (!holder.ok() || !uname.ok() || *holder != *uname) {
    ws_stats_.read_denials.fetch_add(1, std::memory_order_relaxed);
    ws_counter("read_denial").add(1);
    return support::fail(Errc::permission_denied, "design data not published yet");
  }
  return {};
}

Result<oms::TextExtent> JcfFramework::dov_extent(DovRef dov, UserRef reader) {
  JFM_SPAN("jcf", "dov_data");
  if (auto st = check_dov_visibility(dov, reader); !st.ok()) {
    return Result<oms::TextExtent>::failure(st.error().code, st.error().message);
  }
  // The actual design-data fetch out of the OMS database: the oms leaf
  // of a checkout trace. A refcount bump on the store's extent -- the
  // caller decides whether bytes ever get materialized.
  JFM_SPAN("oms", "read_blob");
  auto data = store_.get_text_extent(dov.id, "data");
  if (data.ok()) {
    static auto& reads = telemetry::Registry::global().counter("jcf.dov.read.count");
    static auto& bytes = telemetry::Registry::global().counter("jcf.dov.read.bytes");
    reads.add(1);
    bytes.add((*data)->size());
    ws_stats_.dov_read_bytes_logical.fetch_add((*data)->size(), std::memory_order_relaxed);
  }
  return data;
}

Result<oms::HashedText> JcfFramework::dov_extent_hashed(DovRef dov, UserRef reader) {
  JFM_SPAN("jcf", "dov_data");
  if (auto st = check_dov_visibility(dov, reader); !st.ok()) {
    return Result<oms::HashedText>::failure(st.error().code, st.error().message);
  }
  // Same read semantics and accounting as dov_extent; the store throws
  // in the buffer's memoized hash (computed at most once per DOV --
  // DOVs are immutable).
  JFM_SPAN("oms", "read_blob");
  auto data = store_.get_text_extent_hashed(dov.id, "data");
  if (data.ok()) {
    static auto& reads = telemetry::Registry::global().counter("jcf.dov.read.count");
    static auto& bytes = telemetry::Registry::global().counter("jcf.dov.read.bytes");
    reads.add(1);
    bytes.add(data->text->size());
    ws_stats_.dov_read_bytes_logical.fetch_add(data->text->size(),
                                               std::memory_order_relaxed);
  }
  return data;
}

Result<JcfFramework::DovFingerprint> JcfFramework::dov_fingerprint(DovRef dov,
                                                                   UserRef reader) {
  JFM_SPAN("jcf", "dov_fingerprint");
  if (auto st = check_dov_visibility(dov, reader); !st.ok()) {
    return Result<DovFingerprint>::failure(st.error().code, st.error().message);
  }
  // Deliberately NOT a dov read: no jcf.dov.read.* counts, no logical
  // byte accounting -- the warm transfer path proves freshness without
  // touching design data, and the counters must say so.
  auto fp = store_.text_fingerprint(dov.id, "data");
  if (!fp.ok()) {
    return Result<DovFingerprint>::failure(fp.error().code, fp.error().message);
  }
  static auto& probes = telemetry::Registry::global().counter("jcf.dov.fingerprint.count");
  probes.add(1);
  return DovFingerprint{fp->hash, fp->size};
}

std::vector<JcfFramework::DovChange> JcfFramework::dovs_changed_since(
    std::uint64_t epoch) const {
  JFM_SPAN("jcf", "changes_feed");
  std::vector<DovChange> out;
  for (const auto& [id, modified] : store_.objects_changed_since(cls::Dov, epoch)) {
    DovChange change;
    change.dov = DovRef(id);
    change.modified = modified;
    auto dobj = design_object_of(change.dov);
    // A DOV mid-construction (created but not yet linked to its design
    // object) is invisible to the feed; the link itself restamps it,
    // so it reappears once attached.
    if (!dobj.ok()) continue;
    change.dobj = *dobj;
    auto published = store_.get_bool(id, "published");
    change.published = published.ok() && *published;
    // Constant-size payload summary straight off the store's hash
    // memo -- the feed never reads design data.
    if (auto fp = store_.text_fingerprint(id, "data"); fp.ok()) {
      change.fingerprint = DovFingerprint{fp->hash, fp->size};
    }
    out.push_back(change);
  }
  static auto& feed = telemetry::Registry::global().counter("jcf.changes.feed.count");
  feed.add(out.size());
  return out;
}

}  // namespace jfm::jcf
