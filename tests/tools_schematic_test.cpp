// Schematic model and the schematic entry tool.

#include <gtest/gtest.h>

#include <functional>

#include "jfm/tools/schematic_tool.hpp"

namespace jfm::tools {
namespace {

using support::Errc;

Schematic buffer_schematic() {
  Schematic sch;
  sch.ports = {{"a", PortDir::in}, {"y", PortDir::out}};
  sch.nets = {"a", "y"};
  sch.primitives = {{"g0", "BUF"}};
  sch.connections = {{"a", "g0", "a"}, {"y", "g0", "y"}};
  return sch;
}

TEST(Schematic, SerializeParseRoundTrip) {
  Schematic sch = buffer_schematic();
  sch.instances = {{"u0", "child", "schematic"}};
  auto parsed = Schematic::parse(sch.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->serialize(), sch.serialize());
  EXPECT_EQ(parsed->ports.size(), 2u);
  EXPECT_EQ(parsed->instances[0].master_cell, "child");
}

TEST(Schematic, ParseErrors) {
  // ok rows carry the canonical re-serialization, error rows the message
  struct Row {
    const char* name;
    std::string payload;
    Errc code;  // Errc::ok: parses, and re-serializes to `expect`
    std::string expect;
  };
  const Row rows[] = {
      {"comments and blanks", "# comment\n\nnet n1\n", Errc::ok, "net n1\n"},
      {"tabs", "port\ta\tin\nnet\ta\n", Errc::ok, "port a in\nnet a\n"},
      {"runs of spaces", "net   n1\nprim  g0   BUF\nconn  n1  g0    a\n", Errc::ok,
       "net n1\nprim g0 BUF\nconn n1 g0 a\n"},
      {"carriage returns", "net n1\r\ninst u0 child schematic\r\n", Errc::ok,
       "net n1\ninst u0 child schematic\n"},
      {"blank, space-only and # lines", "\n   \n# c\nnet n1\n  # indented\n\t\n", Errc::ok,
       "net n1\n"},
      {"no trailing newline", "net n1\nnet n2", Errc::ok, "net n1\nnet n2\n"},
      {"empty payload", "", Errc::ok, ""},
      {"unknown record", "bogus line", Errc::parse_error, "schematic: bad record 'bogus line'"},
      {"bad port direction", "port x sideways", Errc::parse_error,
       "bad port direction 'sideways'"},
      {"one field too many", "net n1\nnet n2 extra\n", Errc::parse_error,
       "schematic: bad record 'net n2 extra'"},
      {"conn with one field too many", "conn n1 g0 a b", Errc::parse_error,
       "schematic: bad record 'conn n1 g0 a b'"},
      {"one field too few", "inst u0 child", Errc::parse_error,
       "schematic: bad record 'inst u0 child'"},
      {"error text is the trimmed line", "  bogus\t \r\n", Errc::parse_error,
       "schematic: bad record 'bogus'"},
      {"first bad record wins", "net n1\nfoo\nbar\n", Errc::parse_error,
       "schematic: bad record 'foo'"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    auto parsed = Schematic::parse(row.payload);
    if (row.code == Errc::ok) {
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
      EXPECT_EQ(parsed->serialize(), row.expect);
    } else {
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.error().code, row.code);
      EXPECT_EQ(parsed.error().message, row.expect);
    }
  }
}

TEST(Schematic, Lookups) {
  Schematic sch = buffer_schematic();
  EXPECT_NE(sch.find_port("a"), nullptr);
  EXPECT_EQ(sch.find_port("zz"), nullptr);
  EXPECT_NE(sch.find_primitive("g0"), nullptr);
  EXPECT_TRUE(sch.has_net("y"));
  ASSERT_TRUE(sch.net_of("g0", "a").has_value());
  EXPECT_EQ(*sch.net_of("g0", "a"), "a");
  EXPECT_FALSE(sch.net_of("g0", "b").has_value());
}

TEST(Schematic, ValidateCatchesProblems) {
  EXPECT_TRUE(buffer_schematic().validate().ok());
  struct Row {
    const char* name;
    std::function<void(Schematic&)> break_it;
    Errc code;
    std::string message;
  };
  const Row rows[] = {
      {"bad port name", [](Schematic& s) { s.ports.push_back({"1p", PortDir::in}); },
       Errc::invalid_argument, "bad port name '1p'"},
      {"duplicate port", [](Schematic& s) { s.ports.push_back({"a", PortDir::out}); },
       Errc::already_exists, "duplicate port a"},
      {"port without net", [](Schematic& s) { s.nets.erase(s.nets.begin()); },
       Errc::consistency_violation, "port a has no matching net"},
      {"bad net name", [](Schematic& s) { s.nets.push_back("9n"); }, Errc::invalid_argument,
       "bad net name '9n'"},
      {"duplicate net", [](Schematic& s) { s.nets.push_back("y"); }, Errc::already_exists,
       "duplicate net y"},
      {"unknown gate", [](Schematic& s) { s.primitives.push_back({"g1", "FROB"}); },
       Errc::invalid_argument, "unknown gate type FROB"},
      {"duplicate primitive", [](Schematic& s) { s.primitives.push_back({"g0", "AND"}); },
       Errc::already_exists, "duplicate element g0"},
      {"instance named like a primitive",
       [](Schematic& s) { s.instances.push_back({"g0", "child", "schematic"}); },
       Errc::already_exists, "duplicate element g0"},
      {"unknown net", [](Schematic& s) { s.connections.push_back({"missing", "g0", "a"}); },
       Errc::consistency_violation, "connection references unknown net missing"},
      {"unknown element", [](Schematic& s) { s.connections.push_back({"y", "ghost", "a"}); },
       Errc::consistency_violation, "connection references unknown element ghost"},
      {"pin connected twice", [](Schematic& s) { s.connections.push_back({"y", "g0", "a"}); },
       Errc::consistency_violation, "pin g0.a connected twice"},
      {"unknown gate pin",
       [](Schematic& s) { s.connections.push_back({"y", "g0", "weird_pin"}); },
       Errc::invalid_argument, "gate g0 (BUF) has no pin weird_pin"},
      {"instance pins are not checked here",
       [](Schematic& s) {
         s.instances.push_back({"u0", "child", "schematic"});
         s.connections.push_back({"y", "u0", "anything"});
       },
       Errc::ok, ""},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    Schematic s = buffer_schematic();
    row.break_it(s);
    auto st = s.validate();
    EXPECT_EQ(st.code(), row.code);
    if (!st.ok()) {
      EXPECT_EQ(st.error().message, row.message);
    }
  }
}

// validate()'s first-failure contract: every row carries two faults of
// different kinds, and the one reported is the first in check order
// (ports, nets, primitives, instances, connections; record order within
// each, and net, element, gate pin, reuse within one connection).
TEST(Schematic, ValidateReportsTheFirstOfTwoFaults) {
  struct Row {
    const char* name;
    std::function<void(Schematic&)> break_it;
    Errc code;
    std::string message;
  };
  const Row rows[] = {
      {"port without net, bad net name",
       [](Schematic& s) {
         s.nets.push_back("9n");
         s.ports.push_back({"b", PortDir::in});
       },
       Errc::consistency_violation, "port b has no matching net"},
      {"duplicate net, unknown gate",
       [](Schematic& s) {
         s.primitives.push_back({"g1", "FROB"});
         s.nets.push_back("a");
       },
       Errc::already_exists, "duplicate net a"},
      {"unknown gate pin, unknown net",
       [](Schematic& s) {
         s.connections.push_back({"y", "g0", "weird_pin"});
         s.connections.push_back({"missing", "g0", "a"});
       },
       Errc::invalid_argument, "gate g0 (BUF) has no pin weird_pin"},
      {"bad port name, duplicate net",
       [](Schematic& s) {
         s.nets.push_back("y");
         s.ports.push_back({"1p", PortDir::in});
       },
       Errc::invalid_argument, "bad port name '1p'"},
      {"bad port name twice", [](Schematic& s) { s.ports.insert(s.ports.end(), 2, {"1p"}); },
       Errc::invalid_argument, "bad port name '1p'"},
      {"port without net, duplicate port",
       [](Schematic& s) {
         s.ports.push_back({"b", PortDir::in});
         s.ports.push_back({"a", PortDir::out});
       },
       Errc::consistency_violation, "port b has no matching net"},
      {"duplicate port, port without net",
       [](Schematic& s) {
         s.ports.push_back({"a", PortDir::out});
         s.ports.push_back({"b", PortDir::in});
       },
       Errc::already_exists, "duplicate port a"},
      {"duplicate port, unknown gate",
       [](Schematic& s) {
         s.primitives.push_back({"g1", "FROB"});
         s.ports.push_back({"y", PortDir::in});
       },
       Errc::already_exists, "duplicate port y"},
      {"bad net name, duplicate element",
       [](Schematic& s) {
         s.primitives.push_back({"g0", "AND"});
         s.nets.push_back("9n");
       },
       Errc::invalid_argument, "bad net name '9n'"},
      {"duplicate net, unknown net in a connection",
       [](Schematic& s) {
         s.connections.push_back({"missing", "g0", "a"});
         s.nets.push_back("a");
       },
       Errc::already_exists, "duplicate net a"},
      {"unknown gate, duplicate element",
       [](Schematic& s) {
         s.primitives.push_back({"g1", "FROB"});
         s.primitives.push_back({"g0", "AND"});
       },
       Errc::invalid_argument, "unknown gate type FROB"},
      {"duplicate element, unknown gate",
       [](Schematic& s) {
         s.primitives.push_back({"g0", "AND"});
         s.primitives.push_back({"g1", "FROB"});
       },
       Errc::already_exists, "duplicate element g0"},
      {"instance duplicating a primitive, unknown gate",
       [](Schematic& s) {
         s.instances.push_back({"g0", "child", "schematic"});
         s.primitives.push_back({"g1", "FROB"});
       },
       Errc::invalid_argument, "unknown gate type FROB"},
      {"duplicate instance, unknown element",
       [](Schematic& s) {
         s.instances.push_back({"u0", "child", "schematic"});
         s.instances.push_back({"u0", "other", "schematic"});
         s.connections.push_back({"y", "ghost", "a"});
       },
       Errc::already_exists, "duplicate element u0"},
      {"unknown net, pin connected twice",
       [](Schematic& s) {
         s.connections.push_back({"missing", "g0", "a"});
         s.connections.push_back({"y", "g0", "a"});
       },
       Errc::consistency_violation, "connection references unknown net missing"},
      {"pin connected twice, unknown net",
       [](Schematic& s) {
         s.connections.push_back({"y", "g0", "a"});
         s.connections.push_back({"missing", "g0", "a"});
       },
       Errc::consistency_violation, "pin g0.a connected twice"},
      {"unknown net and unknown element in one connection",
       [](Schematic& s) { s.connections.push_back({"missing", "ghost", "a"}); },
       Errc::consistency_violation, "connection references unknown net missing"},
      {"unknown element, unknown gate pin",
       [](Schematic& s) {
         s.connections.push_back({"y", "ghost", "a"});
         s.connections.push_back({"y", "g0", "weird_pin"});
       },
       Errc::consistency_violation, "connection references unknown element ghost"},
      {"unknown gate pin, pin connected twice",
       [](Schematic& s) {
         s.connections.push_back({"a", "g0", "zz"});
         s.connections.push_back({"a", "g0", "y"});
       },
       Errc::invalid_argument, "gate g0 (BUF) has no pin zz"},
      {"instance pin reused, then a gate pin reused",
       [](Schematic& s) {
         s.instances.push_back({"u0", "child", "schematic"});
         s.connections.push_back({"a", "u0", "p.q"});
         s.connections.push_back({"y", "u0", "p.q"});
         s.connections.push_back({"y", "g0", "a"});
       },
       Errc::consistency_violation, "pin u0.p.q connected twice"},
      {"pins u0.p.q and u0.p.q of different elements, then an unknown net",
       [](Schematic& s) {
         s.instances.push_back({"u0", "child", "schematic"});
         s.instances.push_back({"u0.p", "child", "schematic"});
         s.connections.push_back({"a", "u0", "p.q"});
         s.connections.push_back({"a", "u0.p", "q"});
         s.connections.push_back({"missing", "g0", "a"});
       },
       Errc::consistency_violation, "connection references unknown net missing"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    Schematic s = buffer_schematic();
    row.break_it(s);
    auto st = s.validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, row.code);
    EXPECT_EQ(st.error().message, row.message);
  }
}

TEST(GateInfo, PinConventions) {
  EXPECT_TRUE(is_known_gate("NAND"));
  EXPECT_FALSE(is_known_gate("TRI"));
  auto pins = [](std::string_view gate) {
    auto span = gate_input_pins(gate);
    return std::vector<std::string>(span.begin(), span.end());
  };
  EXPECT_EQ(pins("NOT"), std::vector<std::string>{"a"});
  EXPECT_EQ(pins("DFF"), (std::vector<std::string>{"d", "clk"}));
  EXPECT_EQ(pins("XOR"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(gate_output_pin("DFF"), "q");
  EXPECT_EQ(gate_output_pin("AND"), "y");
}

class SchematicToolTest : public ::testing::Test {
 protected:
  fmcad::DesignFile doc() {
    fmcad::DesignFile d;
    d.cell = "alu";
    d.view = "schematic";
    d.viewtype = "schematic";
    return d;
  }
  fmcad::DesignFile apply_ok(fmcad::DesignFile d, const std::string& cmd,
                             const std::vector<std::string>& args) {
    auto out = tool.apply(d, cmd, args);
    EXPECT_TRUE(out.ok()) << cmd << ": " << (out.ok() ? "" : out.error().to_text());
    return out.ok() ? *out : d;
  }
  SchematicTool tool;
};

TEST_F(SchematicToolTest, BuildsValidDocument) {
  auto d = doc();
  d = apply_ok(d, "add-port", {"a", "in"});
  d = apply_ok(d, "add-port", {"y", "out"});
  d = apply_ok(d, "add-prim", {"g0", "NOT"});
  d = apply_ok(d, "connect", {"a", "g0", "a"});
  d = apply_ok(d, "connect", {"y", "g0", "y"});
  EXPECT_TRUE(tool.validate(d).ok());
  auto sch = Schematic::parse(d.payload);
  ASSERT_TRUE(sch.ok());
  EXPECT_EQ(sch->primitives.size(), 1u);
}

TEST_F(SchematicToolTest, UsesListTracksInstances) {
  auto d = doc();
  d = apply_ok(d, "add-instance", {"u0", "child", "schematic"});
  ASSERT_EQ(d.uses.size(), 1u);
  EXPECT_EQ(d.uses[0].cell, "child");
  d = apply_ok(d, "add-instance", {"u1", "child", "schematic"});
  EXPECT_EQ(d.uses.size(), 1u);  // same master once
  d = apply_ok(d, "remove-instance", {"u0"});
  EXPECT_EQ(d.uses.size(), 1u);  // u1 still uses it
  d = apply_ok(d, "remove-instance", {"u1"});
  EXPECT_TRUE(d.uses.empty());
}

TEST_F(SchematicToolTest, ValidateChecksUsesSync) {
  auto d = doc();
  d = apply_ok(d, "add-instance", {"u0", "child", "schematic"});
  d.uses.clear();  // sabotage the envelope
  auto st = tool.validate(d);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::consistency_violation);
}

TEST_F(SchematicToolTest, CommandErrors) {
  auto d = doc();
  EXPECT_EQ(tool.apply(d, "add-port", {"p", "weird"}).code(), Errc::parse_error);
  EXPECT_EQ(tool.apply(d, "add-prim", {"g", "FROB"}).code(), Errc::invalid_argument);
  EXPECT_EQ(tool.apply(d, "connect", {"nope", "g", "a"}).code(), Errc::not_found);
  EXPECT_EQ(tool.apply(d, "frobnicate", {}).code(), Errc::not_found);
  EXPECT_EQ(tool.apply(d, "add-instance", {"u0", "alu", "schematic"}).code(),
            Errc::consistency_violation);  // self-instantiation
  d = apply_ok(d, "add-net", {"n"});
  EXPECT_EQ(tool.apply(d, "add-net", {"n"}).code(), Errc::already_exists);
  EXPECT_EQ(tool.apply(d, "remove-instance", {"ghost"}).code(), Errc::not_found);
  EXPECT_EQ(tool.apply(d, "disconnect", {"n", "g", "a"}).code(), Errc::not_found);
}

TEST_F(SchematicToolTest, RenameNetUpdatesConnections) {
  auto d = doc();
  d = apply_ok(d, "add-net", {"old"});
  d = apply_ok(d, "add-prim", {"g0", "BUF"});
  d = apply_ok(d, "connect", {"old", "g0", "a"});
  d = apply_ok(d, "rename-net", {"old", "new"});
  auto sch = Schematic::parse(d.payload);
  ASSERT_TRUE(sch.ok());
  EXPECT_TRUE(sch->has_net("new"));
  EXPECT_FALSE(sch->has_net("old"));
  EXPECT_EQ(*sch->net_of("g0", "a"), "new");
  // port nets cannot be renamed
  d = apply_ok(d, "add-port", {"p", "in"});
  EXPECT_EQ(tool.apply(d, "rename-net", {"p", "q"}).code(), Errc::consistency_violation);
}

}  // namespace
}  // namespace jfm::tools
