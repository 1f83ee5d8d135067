#include "io/spec_format.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "chip/mosis_packages.hpp"

namespace chop::io {

namespace {

/// Tokenizes one line (whitespace-separated; '#' starts a comment).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

dfg::OpKind parse_op(int line, const std::string& name) {
  static const std::map<std::string, dfg::OpKind> kOps = {
      {"add", dfg::OpKind::Add},       {"sub", dfg::OpKind::Sub},
      {"mul", dfg::OpKind::Mul},       {"div", dfg::OpKind::Div},
      {"cmp", dfg::OpKind::Compare},   {"logic", dfg::OpKind::Logic},
      {"shift", dfg::OpKind::Shift},   {"select", dfg::OpKind::Select},
  };
  auto it = kOps.find(name);
  if (it == kOps.end()) throw ParseError(line, "unknown operation: " + name);
  return it->second;
}

double parse_number(int line, const std::string& token) {
  double v = 0.0;
  try {
    std::size_t used = 0;
    v = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw ParseError(line, "expected a number, got '" + token + "'");
  }
  // NaN/infinity would poison every downstream comparison silently.
  if (!std::isfinite(v)) {
    throw ParseError(line, "number is not finite: '" + token + "'");
  }
  return v;
}

long parse_int(int line, const std::string& token) {
  const double v = parse_number(line, token);
  // Bound before the cast: double -> long of an out-of-range value is
  // undefined behavior, and no quantity in a project legitimately needs
  // magnitudes anywhere near this.
  constexpr double kMaxMagnitude = 1e15;
  if (v < -kMaxMagnitude || v > kMaxMagnitude) {
    throw ParseError(line, "integer out of range: '" + token + "'");
  }
  const long i = static_cast<long>(v);
  if (static_cast<double>(i) != v) {
    throw ParseError(line, "expected an integer, got '" + token + "'");
  }
  return i;
}

/// key=value attribute token.
std::pair<std::string, std::string> parse_attr(int line,
                                               const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
    throw ParseError(line, "expected key=value, got '" + token + "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

enum class Section { None, Graph, Library, Chips, Partitions, Config };

struct ParserState {
  Project project;
  std::map<std::string, dfg::NodeId> node_by_name;
  std::map<std::string, int> chip_by_name;
  std::map<std::string, int> memory_by_name;
  bool saw_graph = false;

  dfg::NodeId lookup(int line, const std::string& name) const {
    auto it = node_by_name.find(name);
    if (it == node_by_name.end()) {
      throw ParseError(line, "unknown node: " + name);
    }
    return it->second;
  }
};

void parse_graph_line(ParserState& st, int line,
                      const std::vector<std::string>& t) {
  dfg::Graph& g = st.project.graph;
  const std::string& kind = t[0];
  auto define = [&](const std::string& name, dfg::NodeId id) {
    if (!st.node_by_name.emplace(name, id).second) {
      throw ParseError(line, "duplicate node name: " + name);
    }
  };
  if (kind == "input" || kind == "const") {
    if (t.size() != 3) throw ParseError(line, kind + " <name> <bits>");
    const Bits bits = parse_int(line, t[2]);
    define(t[1], kind == "input" ? g.add_input(t[1], bits)
                                 : g.add_constant_input(t[1], bits));
  } else if (kind == "node") {
    if (t.size() < 5) {
      throw ParseError(line, "node <name> <op> <bits> <operands...>");
    }
    const dfg::OpKind op = parse_op(line, t[2]);
    const Bits bits = parse_int(line, t[3]);
    std::vector<dfg::NodeId> operands;
    for (std::size_t i = 4; i < t.size(); ++i) {
      operands.push_back(st.lookup(line, t[i]));
    }
    define(t[1], g.add_op(op, bits, operands, t[1]));
  } else if (kind == "memread") {
    if (t.size() != 4 && t.size() != 5) {
      throw ParseError(line, "memread <name> <block> <bits> [<addr>]");
    }
    const int block = static_cast<int>(parse_int(line, t[2]));
    const Bits bits = parse_int(line, t[3]);
    const dfg::NodeId addr =
        t.size() == 5 ? st.lookup(line, t[4]) : dfg::kNoNode;
    define(t[1], g.add_mem_read(block, bits, addr, t[1]));
  } else if (kind == "memwrite") {
    if (t.size() != 4 && t.size() != 5) {
      throw ParseError(line, "memwrite <name> <block> <data> [<addr>]");
    }
    const int block = static_cast<int>(parse_int(line, t[2]));
    const dfg::NodeId data = st.lookup(line, t[3]);
    const dfg::NodeId addr =
        t.size() == 5 ? st.lookup(line, t[4]) : dfg::kNoNode;
    define(t[1], g.add_mem_write(block, data, addr, t[1]));
  } else if (kind == "output") {
    if (t.size() != 3) throw ParseError(line, "output <name> <operand>");
    define(t[1], g.add_output(t[1], st.lookup(line, t[2])));
  } else {
    throw ParseError(line, "unknown graph statement: " + kind);
  }
}

void parse_library_line(ParserState& st, int line,
                        const std::vector<std::string>& t) {
  lib::ComponentLibrary& library = st.project.library;
  if (t[0] == "module") {
    if (t.size() != 6 && t.size() != 7) {
      throw ParseError(line,
                       "module <name> <op> <bits> <area> <delay> [<power>]");
    }
    lib::ModuleSpec spec;
    spec.name = t[1];
    spec.op = parse_op(line, t[2]);
    spec.width = parse_int(line, t[3]);
    spec.area = parse_number(line, t[4]);
    spec.delay = parse_number(line, t[5]);
    if (t.size() == 7) spec.active_power_mw = parse_number(line, t[6]);
    try {
      library.add(spec);
    } catch (const Error& e) {
      throw ParseError(line, e.what());
    }
  } else if (t[0] == "register" || t[0] == "mux") {
    if (t.size() != 3) throw ParseError(line, t[0] + " <area> <delay>");
    const lib::BitCellSpec cell{parse_number(line, t[1]),
                                parse_number(line, t[2])};
    if (t[0] == "register") {
      library.set_register_bit(cell);
    } else {
      library.set_mux_bit(cell);
    }
  } else {
    throw ParseError(line, "unknown library statement: " + t[0]);
  }
}

void parse_chips_line(ParserState& st, int line,
                      const std::vector<std::string>& t) {
  if (t[0] == "chip") {
    if (t.size() < 3) throw ParseError(line, "chip <name> <package...>");
    chip::ChipPackage pkg;
    if (t[2] == "mosis64") {
      pkg = chip::mosis_package_64();
    } else if (t[2] == "mosis84") {
      pkg = chip::mosis_package_84();
    } else {
      pkg.name = t[1];
      for (std::size_t i = 2; i < t.size(); ++i) {
        const auto [key, value] = parse_attr(line, t[i]);
        if (key == "pins") {
          pkg.pin_count = static_cast<Pins>(parse_int(line, value));
        } else if (key == "width") {
          pkg.width_mil = parse_number(line, value);
        } else if (key == "height") {
          pkg.height_mil = parse_number(line, value);
        } else if (key == "pad_delay") {
          pkg.pad_delay = parse_number(line, value);
        } else if (key == "pad_area") {
          pkg.io_pad_area = parse_number(line, value);
        } else if (key == "reserve") {
          pkg.infrastructure_pins = static_cast<Pins>(parse_int(line, value));
        } else {
          throw ParseError(line, "unknown chip attribute: " + key);
        }
      }
      try {
        pkg.validate();
      } catch (const Error& e) {
        throw ParseError(line, e.what());
      }
    }
    if (!st.chip_by_name
             .emplace(t[1], static_cast<int>(st.project.chips.size()))
             .second) {
      throw ParseError(line, "duplicate chip name: " + t[1]);
    }
    st.project.chips.push_back({t[1], pkg});
  } else if (t[0] == "memory") {
    if (t.size() < 3) throw ParseError(line, "memory <name> <attrs...>");
    chip::MemoryModule block;
    block.name = t[1];
    int placement = chip::kOffTheShelfChip;
    for (std::size_t i = 2; i < t.size(); ++i) {
      const auto [key, value] = parse_attr(line, t[i]);
      if (key == "words") {
        block.words = static_cast<int>(parse_int(line, value));
      } else if (key == "width") {
        block.word_bits = parse_int(line, value);
      } else if (key == "ports") {
        block.ports = static_cast<int>(parse_int(line, value));
      } else if (key == "access") {
        block.access_time = parse_number(line, value);
      } else if (key == "area") {
        block.area = parse_number(line, value);
      } else if (key == "control_pins") {
        block.control_pins = static_cast<Pins>(parse_int(line, value));
      } else if (key == "chip") {
        if (value == "offchip") {
          placement = chip::kOffTheShelfChip;
        } else {
          auto it = st.chip_by_name.find(value);
          if (it == st.chip_by_name.end()) {
            throw ParseError(line, "unknown chip: " + value);
          }
          placement = it->second;
        }
      } else {
        throw ParseError(line, "unknown memory attribute: " + key);
      }
    }
    try {
      block.validate();
    } catch (const Error& e) {
      throw ParseError(line, e.what());
    }
    const int index = static_cast<int>(st.project.memory.blocks.size());
    if (!st.memory_by_name.emplace(t[1], index).second) {
      throw ParseError(line, "duplicate memory name: " + t[1]);
    }
    st.project.memory.blocks.push_back(block);
    st.project.memory.chip_of_block.push_back(placement);
  } else {
    throw ParseError(line, "unknown chips statement: " + t[0]);
  }
}

void parse_partitions_line(ParserState& st, int line,
                           const std::vector<std::string>& t) {
  if (t[0] != "partition" || t.size() < 4) {
    throw ParseError(line, "partition <name> <chip> <nodes...>");
  }
  auto chip_it = st.chip_by_name.find(t[2]);
  if (chip_it == st.chip_by_name.end()) {
    throw ParseError(line, "unknown chip: " + t[2]);
  }
  core::Partition partition;
  partition.name = t[1];
  partition.chip = chip_it->second;
  for (std::size_t i = 3; i < t.size(); ++i) {
    partition.members.push_back(st.lookup(line, t[i]));
  }
  st.project.partitions.push_back(std::move(partition));
}

void parse_config_line(ParserState& st, int line,
                       const std::vector<std::string>& t) {
  core::ChopConfig& config = st.project.config;
  if (t[0] == "style") {
    if (t.size() < 2) throw ParseError(line, "style <clocking> [nopipeline]");
    if (t[1] == "single_cycle") {
      config.style.clocking = bad::ClockingStyle::SingleCycle;
    } else if (t[1] == "multi_cycle") {
      config.style.clocking = bad::ClockingStyle::MultiCycle;
    } else {
      throw ParseError(line, "unknown style: " + t[1]);
    }
    config.style.allow_pipelining =
        !(t.size() >= 3 && t[2] == "nopipeline");
  } else if (t[0] == "clock") {
    if (t.size() != 4) {
      throw ParseError(line, "clock <main_ns> <datapath_mult> <transfer_mult>");
    }
    config.clocks.main_clock = parse_number(line, t[1]);
    config.clocks.datapath_multiplier = static_cast<int>(parse_int(line, t[2]));
    config.clocks.transfer_multiplier = static_cast<int>(parse_int(line, t[3]));
  } else if (t[0] == "constraints") {
    if (t.size() != 3) {
      throw ParseError(line, "constraints <performance_ns> <delay_ns>");
    }
    config.constraints.performance_ns = parse_number(line, t[1]);
    config.constraints.delay_ns = parse_number(line, t[2]);
  } else if (t[0] == "power") {
    if (t.size() != 3) throw ParseError(line, "power <system_mw> <chip_mw>");
    config.constraints.system_power_mw = parse_number(line, t[1]);
    config.constraints.chip_power_mw = parse_number(line, t[2]);
  } else if (t[0] == "criteria") {
    if (t.size() != 4 && t.size() != 5) {
      throw ParseError(line,
                       "criteria <area_p> <perf_p> <delay_p> [<power_p>]");
    }
    config.criteria.area_prob = parse_number(line, t[1]);
    config.criteria.performance_prob = parse_number(line, t[2]);
    config.criteria.delay_prob = parse_number(line, t[3]);
    if (t.size() == 5) config.criteria.power_prob = parse_number(line, t[4]);
  } else if (t[0] == "scan") {
    if (t.size() != 2 || (t[1] != "on" && t[1] != "off")) {
      throw ParseError(line, "scan on|off");
    }
    config.testability.scan_design = t[1] == "on";
  } else {
    throw ParseError(line, "unknown config statement: " + t[0]);
  }
}

}  // namespace

core::Partitioning Project::make_partitioning() const {
  core::Partitioning pt(graph, chips, memory);
  for (const core::Partition& p : partitions) {
    pt.add_partition(p.name, p.members, p.chip);
  }
  return pt;
}

core::ChopSession Project::make_session() const {
  return core::ChopSession(library, make_partitioning(), config);
}

Project parse_project(std::istream& in) {
  ParserState st;
  Section section = Section::None;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;
    if (t[0] == "graph") {
      if (t.size() != 2) throw ParseError(line_no, "graph <name>");
      st.project.graph.set_name(t[1]);
      st.saw_graph = true;
      section = Section::Graph;
    } else if (t[0] == "library") {
      section = Section::Library;
    } else if (t[0] == "chips") {
      section = Section::Chips;
    } else if (t[0] == "partitions") {
      section = Section::Partitions;
    } else if (t[0] == "config") {
      section = Section::Config;
    } else {
      // Builder methods (Graph::add_*, validate helpers) throw plain
      // chop::Error; rewrap with the line number so every malformed input
      // surfaces as a ParseError rather than escaping unlocated.
      try {
        switch (section) {
          case Section::None:
            throw ParseError(line_no,
                             "statement outside any section: " + t[0]);
          case Section::Graph: parse_graph_line(st, line_no, t); break;
          case Section::Library: parse_library_line(st, line_no, t); break;
          case Section::Chips: parse_chips_line(st, line_no, t); break;
          case Section::Partitions:
            parse_partitions_line(st, line_no, t);
            break;
          case Section::Config: parse_config_line(st, line_no, t); break;
        }
      } catch (const ParseError&) {
        throw;
      } catch (const Error& e) {
        throw ParseError(line_no, e.what());
      }
    }
  }
  if (!st.saw_graph) throw ParseError(line_no, "project has no graph section");
  try {
    st.project.graph.validate();
    st.project.memory.validate(static_cast<int>(st.project.chips.size()));
  } catch (const Error& e) {
    throw ParseError(line_no, e.what());
  }
  // Memory operations must reference declared blocks: an out-of-range
  // index would be read unchecked when transfer tasks are created.
  const auto block_count = static_cast<int>(st.project.memory.blocks.size());
  for (std::size_t i = 0; i < st.project.graph.node_count(); ++i) {
    const dfg::Node& n = st.project.graph.node(static_cast<dfg::NodeId>(i));
    if ((n.kind == dfg::OpKind::MemRead || n.kind == dfg::OpKind::MemWrite) &&
        n.memory_block >= block_count) {
      throw ParseError(line_no, "memory operation '" + n.name +
                                    "' references undeclared block " +
                                    std::to_string(n.memory_block));
    }
  }
  return st.project;
}

Project parse_project_string(const std::string& text) {
  std::istringstream is(text);
  return parse_project(is);
}

Project parse_project_file(const std::string& path) {
  std::ifstream in(path);
  CHOP_REQUIRE(in.good(), "cannot open project file: " + path);
  return parse_project(in);
}

}  // namespace chop::io
