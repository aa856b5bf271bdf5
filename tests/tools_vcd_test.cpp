// VCD export of simulation traces.

#include <gtest/gtest.h>

#include "jfm/support/strings.hpp"
#include "jfm/tools/vcd.hpp"

namespace jfm::tools {
namespace {

Simulator simulate_inverter() {
  Circuit c;
  int in = c.add_signal("in");
  int out = c.add_signal("out");
  c.gates.push_back({"NOT", {in}, out, 1});
  Simulator sim(std::move(c));
  (void)sim.inject(0, "in", Logic::L0);
  (void)sim.inject(10, "in", Logic::L1);
  (void)sim.run(100);
  return sim;
}

TEST(Vcd, HeaderAndStructure) {
  Simulator sim = simulate_inverter();
  std::string vcd = to_vcd(sim);
  EXPECT_TRUE(vcd.find("$timescale 1ns $end") != std::string::npos);
  EXPECT_TRUE(vcd.find("$var wire 1 ! in $end") != std::string::npos);
  EXPECT_TRUE(vcd.find("$var wire 1 \" out $end") != std::string::npos);
  EXPECT_TRUE(vcd.find("$enddefinitions $end") != std::string::npos);
  EXPECT_TRUE(vcd.find("$dumpvars") != std::string::npos);
}

TEST(Vcd, ChangesGroupedByTimeInOrder) {
  Simulator sim = simulate_inverter();
  std::string vcd = to_vcd(sim);
  // timeline: #0 in=0; #1 out=1; #10 in=1; #11 out=0
  auto p0 = vcd.find("#0\n0!");
  auto p1 = vcd.find("#1\n1\"");
  auto p10 = vcd.find("#10\n1!");
  auto p11 = vcd.find("#11\n0\"");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p10, std::string::npos);
  ASSERT_NE(p11, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p10);
  EXPECT_LT(p10, p11);
}

TEST(Vcd, SignalSelectionFiltersTrace) {
  Simulator sim = simulate_inverter();
  std::string vcd = to_vcd(sim, {"out"});
  EXPECT_EQ(vcd.find("$var wire 1 ! in $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! out $end"), std::string::npos);
  // in's transitions are not dumped
  EXPECT_EQ(vcd.find("#10"), std::string::npos);  // only 'in' changed at 10
  EXPECT_NE(vcd.find("#11"), std::string::npos);
  // unknown names ignored
  EXPECT_FALSE(to_vcd(sim, {"nope"}).empty());
}

TEST(Vcd, XAndZValuesRendered) {
  Circuit c;
  (void)c.add_signal("s");
  Simulator sim(std::move(c));
  (void)sim.inject(0, "s", Logic::Z);
  (void)sim.inject(5, "s", Logic::X);
  (void)sim.run(10);
  std::string vcd = to_vcd(sim);
  EXPECT_NE(vcd.find("#0\nz!"), std::string::npos);
  EXPECT_NE(vcd.find("#5\nx!"), std::string::npos);
}

TEST(Vcd, ManySignalsGetDistinctCodes) {
  Circuit c;
  int prev = c.add_signal("in");
  for (int i = 0; i < 120; ++i) {  // exceeds one code character (94)
    int out = c.add_signal("s" + std::to_string(i));
    c.gates.push_back({"NOT", {prev}, out, 1});
    prev = out;
  }
  Simulator sim(std::move(c));
  (void)sim.inject(0, "in", Logic::L0);
  (void)sim.run(1000);
  std::string vcd = to_vcd(sim);
  // every $var line has a unique identifier
  std::set<std::string> codes;
  std::vector<std::string_view> words;
  for (const auto& line : support::split(vcd, '\n')) {
    support::split_ws(line, words);
    if (words.size() == 6 && words[0] == "$var") {
      EXPECT_TRUE(codes.insert(std::string(words[3])).second) << "duplicate code " << words[3];
    }
  }
  EXPECT_EQ(codes.size(), 121u);
}

TEST(Vcd, Deterministic) {
  Simulator a = simulate_inverter();
  Simulator b = simulate_inverter();
  EXPECT_EQ(to_vcd(a), to_vcd(b));
}

}  // namespace
}  // namespace jfm::tools
