#include "jfm/tools/schematic.hpp"

#include <algorithm>
#include <utility>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"
#include "schematic_index.hpp"

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

namespace {

/// The line of `text` that starts at `pos`, trimmed; moves `pos` past it.
std::string_view next_line(std::string_view text, std::size_t& pos) {
  std::size_t eol = text.find('\n', pos);
  if (eol == std::string_view::npos) eol = text.size();
  const std::string_view line = support::trim(text.substr(pos, eol - pos));
  pos = eol + 1;
  return line;
}

}  // namespace

Result<Schematic> Schematic::parse(const std::string& payload) {
  JFM_SPAN("tools", "schematic.parse");
  const std::string_view text = payload;
  // Count the records by their first letters, so that each list is
  // allocated once, at its exact size when the payload is well formed.
  std::size_t ports = 0, nets = 0, prims = 0, insts = 0, conns = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::string_view line = next_line(text, pos);
    if (line.size() < 2) continue;
    switch (line[0]) {
      case 'c': ++conns; break;
      case 'n': ++nets; break;
      case 'i': ++insts; break;
      case 'p': ++(line[1] == 'o' ? ports : prims); break;
      default: break;
    }
  }
  Schematic out;
  out.ports.reserve(ports);
  out.nets.reserve(nets);
  out.primitives.reserve(prims);
  out.instances.reserve(insts);
  out.connections.reserve(conns);

  std::vector<std::string_view> f;  // one line's fields, reused
  for (std::size_t pos = 0; pos < text.size();) {
    const std::string_view line = next_line(text, pos);
    if (line.empty() || line[0] == '#') continue;
    support::split_ws(line, f);
    const std::size_t n = f.size();
    // Fields are assigned in place: no temporary string per field.
    if (f[0] == "conn" && n == 4) {
      Connection& conn = out.connections.emplace_back();
      conn.net = f[1];
      conn.element = f[2];
      conn.pin = f[3];
    } else if (f[0] == "prim" && n == 3) {
      Primitive& prim = out.primitives.emplace_back();
      prim.name = f[1];
      prim.gate = f[2];
    } else if (f[0] == "net" && n == 2) {
      out.nets.emplace_back(f[1]);
    } else if (f[0] == "inst" && n == 4) {
      SchInstance& inst = out.instances.emplace_back();
      inst.name = f[1];
      inst.master_cell = f[2];
      inst.master_view = f[3];
    } else if (f[0] == "port" && n == 3) {
      auto dir = port_dir_from(f[2]);
      if (!dir.ok()) return Result<Schematic>::failure(dir.error().code, dir.error().message);
      out.ports.push_back({std::string(f[1]), *dir});
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
  detail::SchematicIndex index;
  return index.build(*this);
}

namespace detail {

int SchematicIndex::find_net(std::string_view name) const {
  return nets_.find(support::name_hash(name), [&](int id) {
    return sch_->nets[static_cast<std::size_t>(id)] == name;
  });
}

int SchematicIndex::find_port(std::string_view name) const {
  return ports_.find(support::name_hash(name), [&](int id) {
    return sch_->ports[static_cast<std::size_t>(id)].name == name;
  });
}

Status SchematicIndex::build(const Schematic& sch) {
  sch_ = &sch;
  const auto& nets = sch.nets;
  nets_.reset(nets.size());
  std::size_t first_duplicate_net = nets.size();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const int id = nets_.insert(support::name_hash(nets[i]), static_cast<int>(i), [&](int other) {
      return nets[static_cast<std::size_t>(other)] == nets[i];
    });
    if (id != static_cast<int>(i) && first_duplicate_net == nets.size()) first_duplicate_net = i;
  }

  // Every port goes into the table, also past a failed check: the
  // elaborator reports an instance pin that the master does not declare
  // before the master's own faults.
  ports_.reset(sch.ports.size());
  Status port_fault;
  for (std::size_t i = 0; i < sch.ports.size(); ++i) {
    const std::string& name = sch.ports[i].name;
    const int id = ports_.insert(support::name_hash(name), static_cast<int>(i), [&](int other) {
      return sch.ports[static_cast<std::size_t>(other)].name == name;
    });
    if (!port_fault.ok()) continue;
    if (!support::is_identifier(name)) {
      port_fault = support::fail(Errc::invalid_argument, "bad port name '" + name + "'");
    } else if (id != static_cast<int>(i)) {
      port_fault = support::fail(Errc::already_exists, "duplicate port " + name);
    } else if (find_net(name) < 0) {
      // a port implies a net of the same name; it must exist
      port_fault = support::fail(Errc::consistency_violation,
                                 "port " + name + " has no matching net");
    }
  }
  if (!port_fault.ok()) return port_fault;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!support::is_identifier(nets[i])) {
      return support::fail(Errc::invalid_argument, "bad net name '" + nets[i] + "'");
    }
    if (i == first_duplicate_net) {
      return support::fail(Errc::already_exists, "duplicate net " + nets[i]);
    }
  }

  const std::size_t prims = sch.primitives.size();
  const std::size_t elements = prims + sch.instances.size();
  auto element_name = [&](int e) -> const std::string& {
    const auto k = static_cast<std::size_t>(e);
    return k < prims ? sch.primitives[k].name : sch.instances[k - prims].name;
  };
  support::IdTable element_ids;  // element name -> element id
  auto add_element = [&](const std::string& name, std::size_t e) {
    return element_ids.insert(support::name_hash(name), static_cast<int>(e), [&](int other) {
      return element_name(other) == name;
    }) == static_cast<int>(e);
  };
  // A primitive's pins, looked up once per primitive, and the pin slots
  // connected so far (bit i for slot i).
  struct Gate {
    std::span<const std::string_view> inputs;
    std::string_view output;
    unsigned connected = 0;
  };
  std::vector<Gate> gates(prims);
  element_ids.reset(elements);
  for (std::size_t k = 0; k < prims; ++k) {
    const Primitive& g = sch.primitives[k];
    if (!is_known_gate(g.gate)) {
      return support::fail(Errc::invalid_argument, "unknown gate type " + g.gate);
    }
    if (!add_element(g.name, k)) {
      return support::fail(Errc::already_exists, "duplicate element " + g.name);
    }
    gates[k] = {gate_input_pins(g.gate), gate_output_pin(g.gate)};
  }
  for (std::size_t k = prims; k < elements; ++k) {
    const std::string& name = element_name(static_cast<int>(k));
    if (!add_element(name, k)) {
      return support::fail(Errc::already_exists, "duplicate element " + name);
    }
  }

  const auto& conns = sch.connections;
  pins_.resize(conns.size());
  support::IdTable instance_pins;  // (instance, pin) -> its first connection
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const Connection& conn = conns[c];
    const int net = find_net(conn.net);
    if (net < 0) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown net " + conn.net);
    }
    const std::uint32_t element_hash = support::name_hash(conn.element);
    const int element =
        element_ids.find(element_hash, [&](int other) { return element_name(other) == conn.element; });
    if (element < 0) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown element " + conn.element);
    }
    int slot = -1;
    bool reused = false;
    if (static_cast<std::size_t>(element) < prims) {
      Gate& gate = gates[static_cast<std::size_t>(element)];
      if (conn.pin == gate.output) slot = static_cast<int>(gate.inputs.size());
      for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
        if (conn.pin == gate.inputs[i]) slot = static_cast<int>(i);
      }
      if (slot < 0) {
        const Primitive& g = sch.primitives[static_cast<std::size_t>(element)];
        return support::fail(Errc::invalid_argument,
                             "gate " + g.name + " (" + g.gate + ") has no pin " + conn.pin);
      }
      reused = (gate.connected >> slot) & 1u;
      gate.connected |= 1u << slot;
    } else {
      const std::uint32_t pin_hash = element_hash * 31 + support::name_hash(conn.pin);
      reused = instance_pins.insert(pin_hash, static_cast<int>(c), [&](int other) {
        const Connection& seen = conns[static_cast<std::size_t>(other)];
        return seen.element == conn.element && seen.pin == conn.pin;
      }) != static_cast<int>(c);
    }
    if (reused) {
      return support::fail(Errc::consistency_violation,
                           "pin " + conn.element + "." + conn.pin + " connected twice");
    }
    pins_[c] = {net, element, slot};
  }

  // Counting sort of the connections by element; filling each list from
  // its end keeps connection order within it.
  pin_start_.assign(elements + 1, 0);
  for (const Pin& p : pins_) ++pin_start_[static_cast<std::size_t>(p.element)];
  for (std::size_t e = 1; e <= elements; ++e) pin_start_[e] += pin_start_[e - 1];
  pin_conns_.resize(conns.size());
  for (std::size_t c = conns.size(); c-- > 0;) {
    const auto element = static_cast<std::size_t>(pins_[c].element);
    pin_conns_[static_cast<std::size_t>(--pin_start_[element])] = static_cast<int>(c);
  }
  return {};
}

}  // namespace detail

}  // namespace jfm::tools
