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

// Golden text of an elaborated circuit: signal ids, every gate and the
// timing report. Signal ids decide which of several equal-delay critical
// paths analyze_timing reports, so a digest of this text pins the
// elaborator's numbering as well as its structure.
std::string golden_text(const Circuit& circuit, const TimingReport& timing) {
  std::string text;
  for (const auto& name : circuit.signal_names) text += name + "\n";
  for (const auto& gate : circuit.gates) {
    text += gate.type;
    for (int in : gate.inputs) text += " " + std::to_string(in);
    text += " -> " + std::to_string(gate.output) + " @" + std::to_string(gate.delay) + "\n";
  }
  return text + timing.describe(circuit);
}

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

  EXPECT_EQ(circuit->signal_count(), 244u);
  EXPECT_EQ(circuit->gates.size(), 242u);
  EXPECT_EQ(timing->describe(*circuit),
            "a -> u0/u1/u0/n0 -> u0/u1/u0/n2 -> u0/u1/u0/n3 -> u0/u1/u0/n4 -> u0/u1/u0/n6 -> "
            "u0/u1/n0 -> u0/u1/m1 -> u0/n1 -> u0/m1 -> n0 -> m1 -> y (delay 12)");
  EXPECT_EQ(support::fnv1a(golden_text(*circuit, *timing)), 12093834008415740602ull);
}

// Golden output of a hand-written hierarchy with the cases the generator
// never produces: unconnected primitive pins (an X signal named
// <prim>.<pin>), a net named like such a signal (g1.a next to primitive
// g1, whose pin a is unconnected, so the two are one signal), an
// unconnected instance pin, two instances of one master, a DFF feedback
// loop and an equal-delay tie for the critical path (m1 and m2 both
// arrive at 3 and meet in u0/h0).
TEST(Elaborate, EdgeCaseHierarchyMatchesGoldenDigest) {
  Schematic half;
  half.ports = {{"a", PortDir::in}, {"b", PortDir::in}, {"y", PortDir::out}};
  half.nets = {"a", "b", "y", "t"};
  half.primitives = {{"h0", "NAND"}, {"h1", "XOR"}};
  half.connections = {{"a", "h0", "a"}, {"b", "h0", "b"}, {"t", "h0", "y"},
                      {"t", "h1", "a"}, {"y", "h1", "y"}};  // h1.b unconnected

  Schematic top;
  top.ports = {{"in0", PortDir::in}, {"in1", PortDir::in}, {"clk", PortDir::in},
               {"out", PortDir::out}, {"q", PortDir::out}};
  top.nets = {"in0", "in1", "clk", "out", "q", "d", "g1.a", "m0", "m1", "m2", "e0", "e1", "fb"};
  top.primitives = {{"g2", "NOT"}, {"g1", "AND"}, {"g3", "OR"},  {"g5", "BUF"},
                    {"g6", "BUF"}, {"g7", "BUF"}, {"ff", "DFF"}, {"g4", "NOT"}};
  top.instances = {{"u0", "half", "schematic"}, {"u1", "half", "schematic"}};
  top.connections = {
      {"in1", "g2", "a"}, {"g1.a", "g2", "y"},                      // drives net g1.a
      {"in0", "g1", "b"}, {"m0", "g1", "y"},                        // g1.a unconnected
      {"m0", "g3", "a"},  {"m1", "g3", "y"},                        // g3.b unconnected
      {"in0", "g5", "a"}, {"e0", "g5", "y"},  {"e0", "g6", "a"}, {"e1", "g6", "y"},
      {"e1", "g7", "a"},  {"m2", "g7", "y"},                        // the tie's second arm
      {"d", "ff", "d"},   {"clk", "ff", "clk"}, {"q", "ff", "q"},
      {"q", "g4", "a"},   {"d", "g4", "y"},                         // DFF feedback loop
      {"m1", "u0", "a"},  {"m2", "u0", "b"},  {"out", "u0", "y"},
      {"in0", "u1", "a"}, {"fb", "u1", "y"},                        // u1.b unconnected
  };

  auto circuit = elaborate(top, "edge", map_resolver({{"half", half}}));
  ASSERT_TRUE(circuit.ok()) << circuit.error().to_text();
  auto timing = analyze_timing(*circuit);
  ASSERT_TRUE(timing.ok()) << timing.error().to_text();
  EXPECT_EQ(circuit->find_signal("g1.a"), 6);
  EXPECT_GE(circuit->find_signal("g3.b"), 0);
  EXPECT_GE(circuit->find_signal("u0/h1.b"), 0);
  EXPECT_GE(circuit->find_signal("u1/b"), 0);
  EXPECT_EQ(circuit->find_signal("u0/b"), -1);  // aliases m2
  EXPECT_EQ(circuit->signal_count(), 19u);
  EXPECT_EQ(circuit->gates.size(), 12u);
  EXPECT_EQ(timing->describe(*circuit), "in0 -> e0 -> e1 -> m2 -> u0/t -> out (delay 5)");
  EXPECT_EQ(support::fnv1a(golden_text(*circuit, *timing)), 10406336181196885667ull);
}

// The two errors a flat circuit can still raise, with their messages.
TEST(Elaborate, CycleAndMultiDriverErrorsKeepTheirMessages) {
  // A pass-through master whose ports meet on one parent net: the child's
  // inverter then feeds itself.
  Schematic top;
  top.nets = {"n"};
  top.instances = {{"u0", "inv", "schematic"}};
  top.connections = {{"n", "u0", "a"}, {"n", "u0", "y"}};
  auto looped = elaborate(top, "top", map_resolver({{"inv", inverter_cell()}}));
  ASSERT_TRUE(looped.ok()) << looped.error().to_text();
  auto timing = analyze_timing(*looped);
  ASSERT_FALSE(timing.ok());
  EXPECT_EQ(timing.error().code, Errc::consistency_violation);
  EXPECT_EQ(timing.error().message, "combinational cycle detected");

  // Two buffers inside a child drive its net t.
  Schematic dup;
  dup.ports = {{"a", PortDir::in}};
  dup.nets = {"a", "t"};
  dup.primitives = {{"x0", "BUF"}, {"x1", "BUF"}};
  dup.connections = {{"a", "x0", "a"}, {"t", "x0", "y"}, {"a", "x1", "a"}, {"t", "x1", "y"}};
  Schematic holder;
  holder.nets = {"in"};
  holder.instances = {{"u7", "dup", "schematic"}};
  holder.connections = {{"in", "u7", "a"}};
  auto driven = elaborate(holder, "holder", map_resolver({{"dup", dup}}));
  ASSERT_FALSE(driven.ok());
  EXPECT_EQ(driven.error().code, Errc::consistency_violation);
  EXPECT_EQ(driven.error().message, "signal u7/t has multiple drivers");
}

}  // namespace
}  // namespace jfm::tools
