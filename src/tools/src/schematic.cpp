#include "jfm/tools/schematic.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "jfm/support/strings.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

bool is_known_gate(std::string_view gate) {
  static const char* kGates[] = {"AND", "OR",  "NOT", "NAND", "NOR",
                                 "XOR", "XNOR", "BUF", "DFF"};
  return std::any_of(std::begin(kGates), std::end(kGates),
                     [gate](const char* g) { return gate == g; });
}

std::span<const std::string_view> gate_input_pins(std::string_view gate) {
  static constexpr std::string_view kUnary[] = {"a"};
  static constexpr std::string_view kFlop[] = {"d", "clk"};
  static constexpr std::string_view kBinary[] = {"a", "b"};
  if (gate == "NOT" || gate == "BUF") return kUnary;
  if (gate == "DFF") return kFlop;
  return kBinary;
}

std::string_view gate_output_pin(std::string_view gate) { return gate == "DFF" ? "q" : "y"; }

std::string_view to_string(PortDir dir) {
  switch (dir) {
    case PortDir::in: return "in";
    case PortDir::out: return "out";
    case PortDir::inout: return "inout";
  }
  return "?";
}

Result<PortDir> port_dir_from(std::string_view text) {
  if (text == "in") return PortDir::in;
  if (text == "out") return PortDir::out;
  if (text == "inout") return PortDir::inout;
  return Result<PortDir>::failure(Errc::parse_error, "bad port direction '" + std::string(text) + "'");
}

std::string Schematic::serialize() const {
  std::string out;
  for (const auto& p : ports) {
    out += "port " + p.name + " " + std::string(to_string(p.dir)) + "\n";
  }
  for (const auto& n : nets) out += "net " + n + "\n";
  for (const auto& g : primitives) out += "prim " + g.name + " " + g.gate + "\n";
  for (const auto& i : instances) {
    out += "inst " + i.name + " " + i.master_cell + " " + i.master_view + "\n";
  }
  for (const auto& c : connections) {
    out += "conn " + c.net + " " + c.element + " " + c.pin + "\n";
  }
  return out;
}

Result<Schematic> Schematic::parse(const std::string& payload) {
  Schematic out;
  std::vector<std::string_view> f;  // one line's fields, reused
  for (const auto& raw : support::split(payload, '\n')) {
    std::string_view line = support::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    support::split_ws(line, f);
    auto field = [&f](std::size_t i) { return std::string(f[i]); };
    if (f[0] == "port" && f.size() == 3) {
      auto dir = port_dir_from(f[2]);
      if (!dir.ok()) return Result<Schematic>::failure(dir.error().code, dir.error().message);
      out.ports.push_back({field(1), *dir});
    } else if (f[0] == "net" && f.size() == 2) {
      out.nets.push_back(field(1));
    } else if (f[0] == "prim" && f.size() == 3) {
      out.primitives.push_back({field(1), field(2)});
    } else if (f[0] == "inst" && f.size() == 4) {
      out.instances.push_back({field(1), field(2), field(3)});
    } else if (f[0] == "conn" && f.size() == 4) {
      out.connections.push_back({field(1), field(2), field(3)});
    } else {
      return Result<Schematic>::failure(Errc::parse_error,
                                        "schematic: bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

const Port* Schematic::find_port(std::string_view name) const {
  for (const auto& p : ports) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const Primitive* Schematic::find_primitive(std::string_view name) const {
  for (const auto& g : primitives) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const SchInstance* Schematic::find_instance(std::string_view name) const {
  for (const auto& i : instances) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

bool Schematic::has_net(std::string_view name) const {
  return std::find(nets.begin(), nets.end(), name) != nets.end();
}

std::optional<std::string> Schematic::net_of(std::string_view element,
                                             std::string_view pin) const {
  for (const auto& c : connections) {
    if (c.element == element && c.pin == pin) return c.net;
  }
  return std::nullopt;
}

Status Schematic::validate() const {
  // Every lookup below is a hash probe of views into this schematic.
  const std::unordered_set<std::string_view> net_set(nets.begin(), nets.end());
  std::unordered_set<std::string_view> port_names;
  for (const auto& p : ports) {
    if (!support::is_identifier(p.name)) {
      return support::fail(Errc::invalid_argument, "bad port name '" + p.name + "'");
    }
    if (!port_names.insert(p.name).second) {
      return support::fail(Errc::already_exists, "duplicate port " + p.name);
    }
    // a port implies a net of the same name; it must exist
    if (!net_set.contains(p.name)) {
      return support::fail(Errc::consistency_violation,
                           "port " + p.name + " has no matching net");
    }
  }
  std::unordered_set<std::string_view> seen_nets;
  for (const auto& n : nets) {
    if (!support::is_identifier(n)) {
      return support::fail(Errc::invalid_argument, "bad net name '" + n + "'");
    }
    if (!seen_nets.insert(n).second) {
      return support::fail(Errc::already_exists, "duplicate net " + n);
    }
  }
  // element name -> its primitive (nullptr for an instance)
  std::unordered_map<std::string_view, const Primitive*> elements;
  for (const auto& g : primitives) {
    if (!is_known_gate(g.gate)) {
      return support::fail(Errc::invalid_argument, "unknown gate type " + g.gate);
    }
    if (!elements.emplace(g.name, &g).second) {
      return support::fail(Errc::already_exists, "duplicate element " + g.name);
    }
  }
  for (const auto& i : instances) {
    if (!elements.emplace(i.name, nullptr).second) {
      return support::fail(Errc::already_exists, "duplicate element " + i.name);
    }
  }
  struct PinHash {
    std::size_t operator()(const std::pair<std::string_view, std::string_view>& pin) const {
      const std::hash<std::string_view> hash;
      return hash(pin.first) * 31 + hash(pin.second);
    }
  };
  std::unordered_set<std::pair<std::string_view, std::string_view>, PinHash> pins_used;
  for (const auto& c : connections) {
    if (!net_set.contains(c.net)) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown net " + c.net);
    }
    auto element = elements.find(c.element);
    if (element == elements.end()) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown element " + c.element);
    }
    if (const Primitive* g = element->second; g != nullptr) {
      auto inputs = gate_input_pins(g->gate);
      bool known_pin = c.pin == gate_output_pin(g->gate) ||
                       std::find(inputs.begin(), inputs.end(), c.pin) != inputs.end();
      if (!known_pin) {
        return support::fail(Errc::invalid_argument,
                             "gate " + g->name + " (" + g->gate + ") has no pin " + c.pin);
      }
    }
    if (!pins_used.emplace(c.element, c.pin).second) {
      return support::fail(Errc::consistency_violation,
                           "pin " + c.element + "." + c.pin + " connected twice");
    }
  }
  return {};
}

}  // namespace jfm::tools
