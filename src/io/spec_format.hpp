// The `.chop` project file format: a line-oriented text description of
// everything the paper lists as CHOP's inputs (§2.2) — the behavioral
// specification, the component library, the chip set, memory modules and
// their assignments, partitions and their chip assignments, clocks,
// architecture style, constraints and feasibility criteria — so the
// partitioner can be driven without writing C++ (see tools/chop_cli).
//
// Format (comments start with '#', blank lines ignored, sections are
// introduced by a keyword line):
//
//   graph <name>
//     input <name> <bits>
//     const <name> <bits>
//     node <name> <op> <bits> <operand> <operand...>   # op: add|sub|mul|...
//     memread <name> <block> <bits> [<addr-operand>]
//     memwrite <name> <block> <data-operand> [<addr-operand>]
//     output <name> <operand>
//
//   library
//     module <name> <op> <bits> <area> <delay> [<power_mw>]
//     register <area> <delay>
//     mux <area> <delay>
//
//   chips
//     chip <name> mosis64|mosis84
//     chip <name> pins=<n> width=<mil> height=<mil> pad_delay=<ns> pad_area=<mil2>
//     memory <name> words=<n> width=<bits> ports=<n> access=<ns> area=<mil2> chip=<chip-name|offchip>
//
//   partitions
//     partition <name> <chip-name> <node-name> <node-name...>
//
//   config
//     style single_cycle|multi_cycle [nopipeline]
//     clock <main_ns> <datapath_mult> <transfer_mult>
//     constraints <performance_ns> <delay_ns>
//     power <system_mw> <chip_mw>
//     criteria <area_prob> <perf_prob> <delay_prob> [<power_prob>]
//     scan on|off
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "chip/memory.hpp"
#include "chip/package.hpp"
#include "core/session.hpp"
#include "dfg/graph.hpp"
#include "library/component_library.hpp"

namespace chop::io {

/// A fully parsed `.chop` project: everything needed to build a session.
struct Project {
  dfg::Graph graph;
  lib::ComponentLibrary library;
  std::vector<chip::ChipInstance> chips;
  chip::MemorySubsystem memory;
  /// Partition name, chip index, member node ids.
  std::vector<core::Partition> partitions;
  core::ChopConfig config;

  /// The partitioning this project describes. It references `graph`, so
  /// the project must outlive it.
  core::Partitioning make_partitioning() const;

  /// Builds the ready-to-run session (validates everything).
  core::ChopSession make_session() const;
};

/// Parse error with 1-based line information.
class ParseError : public Error {
 public:
  ParseError(int line, const std::string& message)
      : Error("line " + std::to_string(line) + ": " + message), line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses a project from a stream / string / file. Throws ParseError on
/// malformed input; the resulting Project is structurally validated.
Project parse_project(std::istream& in);
Project parse_project_string(const std::string& text);
Project parse_project_file(const std::string& path);

}  // namespace chop::io
