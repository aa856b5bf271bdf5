#pragma once
// Schematic resolvers for the simulator tool.
//
// The simulator flattens its DUT through a SchematicResolver; where the
// resolver reads from decides whose hierarchy semantics apply:
//  * make_fmcad_resolver -- native FMCAD dynamic binding: always the
//    *default (latest)* version of each referenced cellview, straight
//    from the library directory (s2.2);
//  * make_jcf_resolver -- the hybrid path: design data come out of the
//    JCF database (latest DOV of the design object named like the
//    view), which is version-controlled and workspace-guarded.

#include "jfm/fmcad/hierarchy.hpp"
#include "jfm/jcf/framework.hpp"
#include "jfm/tools/elaborate.hpp"

namespace jfm::coupling {

tools::SchematicResolver make_fmcad_resolver(std::shared_ptr<fmcad::Library> library);

/// Resolution across a library search path (design library shadowing a
/// standard-cell library, ...). The set holds borrowed pointers; the
/// caller keeps the libraries alive for the resolver's lifetime.
tools::SchematicResolver make_fmcad_resolver(fmcad::LibrarySet libraries);

tools::SchematicResolver make_jcf_resolver(jcf::JcfFramework* jcf, jcf::ProjectRef project,
                                           jcf::UserRef reader);

/// Configuration-pinned resolution: design objects resolve to the exact
/// versions a JCF Configuration records, not to the latest. This is the
/// "configuration possibilities" JCF brings that FMCAD's dynamic
/// default-version binding cannot offer (s1, s2.2): a simulation run
/// against a frozen configuration is reproducible even after the design
/// moves on. Members not found in the configuration fall back to
/// `fallback` when provided, else fail. When two members name one
/// (cell, view), the first in member order wins. The resolver indexes the
/// members once per store epoch, so a call costs one lookup and a member
/// pinned after the resolver was made is still seen.
tools::SchematicResolver make_jcf_config_resolver(jcf::JcfFramework* jcf, jcf::ConfigRef config,
                                                  jcf::UserRef reader,
                                                  tools::SchematicResolver fallback = nullptr);

}  // namespace jfm::coupling
