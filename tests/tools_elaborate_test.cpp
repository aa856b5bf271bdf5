// Hierarchical elaboration: flattening schematics into circuits through
// a resolver.

#include <gtest/gtest.h>

#include <map>

#include "jfm/coupling/resolvers.hpp"
#include "jfm/fmcad/session.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/tools/elaborate.hpp"
#include "jfm/tools/timing.hpp"
#include "jfm/workload/generators.hpp"

namespace jfm::tools {
namespace {

using support::Errc;
using support::Result;

Schematic inverter_cell() {
  Schematic sch;
  sch.ports = {{"a", PortDir::in}, {"y", PortDir::out}};
  sch.nets = {"a", "y"};
  sch.primitives = {{"g", "NOT"}};
  sch.connections = {{"a", "g", "a"}, {"y", "g", "y"}};
  return sch;
}

SchematicResolver map_resolver(std::map<std::string, Schematic> cells) {
  return [cells = std::move(cells)](const fmcad::CellViewKey& key) -> Result<Schematic> {
    auto it = cells.find(key.cell);
    if (it == cells.end()) {
      return Result<Schematic>::failure(Errc::not_found, key.cell);
    }
    return it->second;
  };
}

TEST(Elaborate, FlatSchematicNoResolverNeeded) {
  auto circuit = elaborate(inverter_cell(), "inv", map_resolver({}));
  ASSERT_TRUE(circuit.ok());
  EXPECT_EQ(circuit->gates.size(), 1u);
  EXPECT_EQ(circuit->signal_count(), 2u);
  EXPECT_GE(circuit->find_signal("a"), 0);
  EXPECT_GE(circuit->find_signal("y"), 0);
}

TEST(Elaborate, OneLevelHierarchyMapsPorts) {
  // top: two chained inverters via instances
  Schematic top;
  top.ports = {{"in", PortDir::in}, {"out", PortDir::out}};
  top.nets = {"in", "out", "mid"};
  top.instances = {{"u0", "inv", "schematic"}, {"u1", "inv", "schematic"}};
  top.connections = {{"in", "u0", "a"}, {"mid", "u0", "y"},
                     {"mid", "u1", "a"}, {"out", "u1", "y"}};

  auto circuit = elaborate(top, "top", map_resolver({{"inv", inverter_cell()}}));
  ASSERT_TRUE(circuit.ok()) << circuit.error().to_text();
  EXPECT_EQ(circuit->gates.size(), 2u);
  // child nets alias parent nets; no extra signals beyond in/out/mid
  EXPECT_EQ(circuit->signal_count(), 3u);

  // behaviour: double inversion
  Simulator sim(std::move(*circuit));
  ASSERT_TRUE(sim.inject(0, "in", Logic::L1).ok());
  ASSERT_TRUE(sim.run(100).ok());
  EXPECT_EQ(*sim.value("out"), Logic::L1);
  EXPECT_EQ(*sim.value("mid"), Logic::L0);
}

TEST(Elaborate, TwoLevelHierarchyPrefixesInternalNets) {
  // mid wraps an inverter; top wraps mid
  Schematic mid;
  mid.ports = {{"a", PortDir::in}, {"y", PortDir::out}};
  mid.nets = {"a", "y", "internal"};
  mid.primitives = {{"g1", "NOT"}, {"g2", "NOT"}};
  mid.connections = {{"a", "g1", "a"}, {"internal", "g1", "y"},
                     {"internal", "g2", "a"}, {"y", "g2", "y"}};
  Schematic top;
  top.ports = {{"p", PortDir::in}, {"q", PortDir::out}};
  top.nets = {"p", "q"};
  top.instances = {{"m", "mid", "schematic"}};
  top.connections = {{"p", "m", "a"}, {"q", "m", "y"}};

  auto circuit = elaborate(top, "top", map_resolver({{"mid", mid}}));
  ASSERT_TRUE(circuit.ok());
  EXPECT_GE(circuit->find_signal("m/internal"), 0);
  EXPECT_EQ(circuit->find_signal("internal"), -1);
  Simulator sim(std::move(*circuit));
  ASSERT_TRUE(sim.inject(0, "p", Logic::L0).ok());
  ASSERT_TRUE(sim.run(100).ok());
  EXPECT_EQ(*sim.value("q"), Logic::L0);
}

TEST(Elaborate, UnconnectedChildPortGetsLocalSignal) {
  Schematic top;
  top.ports = {{"in", PortDir::in}};
  top.nets = {"in"};
  top.instances = {{"u0", "inv", "schematic"}};
  top.connections = {{"in", "u0", "a"}};  // y left dangling
  auto circuit = elaborate(top, "top", map_resolver({{"inv", inverter_cell()}}));
  ASSERT_TRUE(circuit.ok());
  EXPECT_GE(circuit->find_signal("u0/y"), 0);
}

TEST(Elaborate, MissingMasterReported) {
  Schematic top;
  top.nets = {};
  top.instances = {{"u0", "ghost", "schematic"}};
  auto circuit = elaborate(top, "top", map_resolver({}));
  ASSERT_FALSE(circuit.ok());
  EXPECT_EQ(circuit.error().code, Errc::not_found);
  EXPECT_NE(circuit.error().message.find("u0"), std::string::npos);
}

TEST(Elaborate, UnknownChildPinRejected) {
  Schematic top;
  top.nets = {"n"};
  top.instances = {{"u0", "inv", "schematic"}};
  top.connections = {{"n", "u0", "bogus_pin"}};
  auto circuit = elaborate(top, "top", map_resolver({{"inv", inverter_cell()}}));
  ASSERT_FALSE(circuit.ok());
  EXPECT_EQ(circuit.error().code, Errc::consistency_violation);
}

TEST(Elaborate, RecursionDepthLimited) {
  // a cell that instantiates itself
  Schematic self;
  self.ports = {{"a", PortDir::in}, {"y", PortDir::out}};
  self.nets = {"a", "y"};
  self.instances = {{"u", "self", "schematic"}};
  self.connections = {{"a", "u", "a"}, {"y", "u", "y"}};
  auto circuit = elaborate(self, "self", map_resolver({{"self", self}}));
  ASSERT_FALSE(circuit.ok());
  EXPECT_EQ(circuit.error().code, Errc::consistency_violation);
}

TEST(Elaborate, InvalidChildSchematicRejected) {
  Schematic bad = inverter_cell();
  bad.primitives[0].gate = "FROB";
  Schematic top;
  top.nets = {"n"};
  top.instances = {{"u0", "bad", "schematic"}};
  top.connections = {{"n", "u0", "a"}};
  auto circuit = elaborate(top, "top", map_resolver({{"bad", bad}}));
  ASSERT_FALSE(circuit.ok());
}

TEST(Elaborate, MultiDriverAcrossHierarchyDetected) {
  // two inverter instances both driving the same parent net
  Schematic top;
  top.ports = {{"in", PortDir::in}};
  top.nets = {"in", "shared"};
  top.instances = {{"u0", "inv", "schematic"}, {"u1", "inv", "schematic"}};
  top.connections = {{"in", "u0", "a"}, {"shared", "u0", "y"},
                     {"in", "u1", "a"}, {"shared", "u1", "y"}};
  auto circuit = elaborate(top, "top", map_resolver({{"inv", inverter_cell()}}));
  ASSERT_FALSE(circuit.ok());
  EXPECT_EQ(circuit.error().code, Errc::consistency_violation);
}

// Golden output of a generated hierarchy: signal ids, every gate and the
// timing report. Signal ids decide which of several equal-delay critical
// paths analyze_timing reports, so the digest pins the elaborator's
// numbering as well as its structure.
TEST(Elaborate, GeneratedHierarchyMatchesGoldenDigest) {
  support::SimClock clock;
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(vfs::Path().child("libs")).ok());
  auto library = fmcad::Library::create(&fs, &clock, vfs::Path().child("libs"), "golden");
  ASSERT_TRUE(library.ok());
  fmcad::DesignerSession session(*library, "alice");
  ASSERT_TRUE(session.define_view("schematic", "schematic").ok());
  workload::HierarchySpec spec;
  spec.depth = 3;
  spec.fanout = 3;
  spec.leaf_gates = 8;
  support::Rng rng(20260417);
  auto top_name = workload::build_hierarchical_library(session, spec, rng);
  ASSERT_TRUE(top_name.ok()) << top_name.error().to_text();

  auto resolver = coupling::make_fmcad_resolver(*library);
  auto top = resolver({*top_name, "schematic"});
  ASSERT_TRUE(top.ok()) << top.error().to_text();
  auto circuit = elaborate(*top, *top_name, resolver);
  ASSERT_TRUE(circuit.ok()) << circuit.error().to_text();
  auto timing = analyze_timing(*circuit);
  ASSERT_TRUE(timing.ok()) << timing.error().to_text();

  std::string text;
  for (const auto& name : circuit->signal_names) text += name + "\n";
  for (const auto& gate : circuit->gates) {
    text += gate.type;
    for (int in : gate.inputs) text += " " + std::to_string(in);
    text += " -> " + std::to_string(gate.output) + " @" + std::to_string(gate.delay) + "\n";
  }
  text += timing->describe(*circuit);

  EXPECT_EQ(circuit->signal_count(), 244u);
  EXPECT_EQ(circuit->gates.size(), 242u);
  EXPECT_EQ(timing->describe(*circuit),
            "a -> u0/u1/u0/n0 -> u0/u1/u0/n2 -> u0/u1/u0/n3 -> u0/u1/u0/n4 -> u0/u1/u0/n6 -> "
            "u0/u1/n0 -> u0/u1/m1 -> u0/n1 -> u0/m1 -> n0 -> m1 -> y (delay 12)");
  EXPECT_EQ(support::fnv1a(text), 12093834008415740602ull);
}

}  // namespace
}  // namespace jfm::tools
