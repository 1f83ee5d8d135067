// Umbrella header: the complete public API of the CHOP reproduction.
// Include this from applications; include the individual headers from
// code that cares about compile times.
#pragma once

// Behavioral specification IR and workloads.
#include "dfg/analysis.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/dot.hpp"
#include "dfg/generator.hpp"
#include "dfg/graph.hpp"
#include "dfg/subgraph.hpp"
#include "dfg/unroll.hpp"

// Component library and chip set.
#include "chip/memory.hpp"
#include "chip/mosis_packages.hpp"
#include "chip/package.hpp"
#include "library/component_library.hpp"
#include "library/experiment_library.hpp"
#include "library/module_set.hpp"

// The BAD predictor.
#include "bad/power_model.hpp"
#include "bad/prediction.hpp"
#include "bad/predictor.hpp"
#include "bad/style.hpp"
#include "bad/testability.hpp"

// CHOP itself.
#include "core/clock_explorer.hpp"
#include "core/constraints.hpp"
#include "core/integration.hpp"
#include "core/memory_optimizer.hpp"
#include "core/partitioning.hpp"
#include "core/recorder.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "core/transfer.hpp"

// Baselines.
#include "baseline/kernighan_lin.hpp"
#include "baseline/partition_builders.hpp"

// Automatic partition generation.
#include "gen/generate.hpp"

// Project files and reports.
#include "io/report.hpp"
#include "io/spec_format.hpp"
#include "io/spec_writer.hpp"
