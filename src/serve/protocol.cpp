#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <set>
#include <string>

#include "chip/mosis_packages.hpp"
#include "core/eval/eval_delta.hpp"

namespace chop::serve {

namespace {

[[noreturn]] void invalid(const std::string& message) {
  throw ProtocolError("invalid_request", message);
}

/// A finite JSON number that must be an integer in [lo, hi].
long long int_field(const JsonValue& v, const std::string& key, long long lo,
                    long long hi) {
  if (!v.is_number()) invalid("field '" + key + "' must be a number");
  const double n = v.as_number();
  if (std::nearbyint(n) != n) invalid("field '" + key + "' must be integral");
  if (n < static_cast<double>(lo) || n > static_cast<double>(hi)) {
    invalid("field '" + key + "' out of range");
  }
  return static_cast<long long>(n);
}

const std::string& string_field(const JsonValue& v, const std::string& key) {
  if (!v.is_string()) invalid("field '" + key + "' must be a string");
  return v.as_string();
}

bool bool_field(const JsonValue& v, const std::string& key) {
  if (!v.is_bool()) invalid("field '" + key + "' must be a boolean");
  return v.as_bool();
}

RequestOp parse_op(const std::string& op) {
  if (op == "submit") return RequestOp::Submit;
  if (op == "generate") return RequestOp::Generate;
  if (op == "revise") return RequestOp::Revise;
  if (op == "status") return RequestOp::Status;
  if (op == "result") return RequestOp::Result;
  if (op == "cancel") return RequestOp::Cancel;
  if (op == "stats") return RequestOp::Stats;
  if (op == "metrics") return RequestOp::Metrics;
  if (op == "healthz") return RequestOp::Healthz;
  if (op == "profile") return RequestOp::Profile;
  if (op == "shutdown") return RequestOp::Shutdown;
  throw ProtocolError("unknown_op", "unknown op '" + op + "'");
}

/// The keys each op accepts; anything else is rejected so client typos
/// (and fuzzers) surface as errors instead of silently-ignored knobs.
const std::set<std::string>& allowed_keys(RequestOp op) {
  static const std::set<std::string> submit{
      "op",          "id",         "spec",       "spec_path",
      "heuristic",   "threads",    "priority",   "deadline_ms",
      "max_trials",  "keep_all",   "bound_pruning"};
  static const std::set<std::string> generate{
      "op",          "id",         "spec",       "spec_path",
      "threads",     "priority",   "deadline_ms",
      "bound_pruning",
      "num_starts",  "coarsening_ratio",         "gen_seed"};
  static const std::set<std::string> revise{"op", "id", "new_id", "delta"};
  static const std::set<std::string> by_id{"op", "id"};
  static const std::set<std::string> result{"op", "id", "wait"};
  static const std::set<std::string> bare{"op"};
  static const std::set<std::string> metrics{"op", "format"};
  static const std::set<std::string> profile{"op", "id"};
  static const std::set<std::string> shutdown{"op", "drain"};
  switch (op) {
    case RequestOp::Submit: return submit;
    case RequestOp::Generate: return generate;
    case RequestOp::Revise: return revise;
    case RequestOp::Result: return result;
    case RequestOp::Status:
    case RequestOp::Cancel: return by_id;
    case RequestOp::Metrics: return metrics;
    case RequestOp::Profile: return profile;
    case RequestOp::Shutdown: return shutdown;
    case RequestOp::Stats:
    case RequestOp::Healthz: return bare;
  }
  return bare;
}

[[noreturn]] void bad_delta(const std::string& message) {
  throw ProtocolError("invalid_delta", message);
}

/// Strict per-kind key check: the delta object may carry exactly the
/// fields its kind defines, so typos surface instead of silently keeping
/// the base value.
void check_delta_keys(const JsonValue& delta, const std::string& kind,
                      std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : delta.as_object()) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      bad_delta("unknown delta field '" + key + "' for kind '" + kind + "'");
    }
  }
}

const std::string& delta_string(const JsonValue& delta, const char* key) {
  const JsonValue* v = delta.find(key);
  if (v == nullptr) bad_delta(std::string("delta misses field '") + key + "'");
  if (!v->is_string() || v->as_string().empty()) {
    bad_delta(std::string("delta field '") + key +
              "' must be a non-empty string");
  }
  return v->as_string();
}

double delta_number(const JsonValue& delta, const char* key, double lo,
                    double hi) {
  const JsonValue* v = delta.find(key);
  if (v == nullptr) bad_delta(std::string("delta misses field '") + key + "'");
  if (!v->is_number()) {
    bad_delta(std::string("delta field '") + key + "' must be a number");
  }
  const double n = v->as_number();
  if (!(n >= lo && n <= hi)) {
    bad_delta(std::string("delta field '") + key + "' out of range");
  }
  return n;
}

/// delta_number() that must also be integral, like a submit's int_field.
int delta_int(const JsonValue& delta, const char* key, int lo, int hi) {
  const double n = delta_number(delta, key, lo, hi);
  if (std::nearbyint(n) != n) {
    bad_delta(std::string("delta field '") + key + "' must be integral");
  }
  return static_cast<int>(n);
}

DeltaSpec parse_delta_spec(const JsonValue& delta) {
  if (!delta.is_object()) bad_delta("'delta' must be an object");
  const JsonValue* kind_field = delta.find("kind");
  if (kind_field == nullptr || !kind_field->is_string()) {
    bad_delta("delta needs a string 'kind'");
  }
  const std::string& kind = kind_field->as_string();

  DeltaSpec spec;
  if (kind == "move_op") {
    spec.kind = DeltaSpec::Kind::MoveOp;
    check_delta_keys(delta, kind, {"kind", "op", "to"});
    spec.op_name = delta_string(delta, "op");
    spec.partition = delta_string(delta, "to");
  } else if (kind == "retarget_chip") {
    spec.kind = DeltaSpec::Kind::RetargetChip;
    check_delta_keys(delta, kind, {"kind", "partition", "chip"});
    spec.partition = delta_string(delta, "partition");
    spec.chip = delta_string(delta, "chip");
  } else if (kind == "replace_package") {
    spec.kind = DeltaSpec::Kind::ReplacePackage;
    check_delta_keys(delta, kind, {"kind", "chip", "package"});
    spec.chip = delta_string(delta, "chip");
    spec.package = delta_string(delta, "package");
    if (spec.package != "mosis64" && spec.package != "mosis84") {
      bad_delta("delta field 'package' must be \"mosis64\" or \"mosis84\"");
    }
  } else if (kind == "set_clock") {
    spec.kind = DeltaSpec::Kind::SetClock;
    check_delta_keys(delta, kind,
                     {"kind", "main_clock_ns", "datapath_multiplier",
                      "transfer_multiplier"});
    spec.main_clock_ns = delta_number(delta, "main_clock_ns", 1e-3, 1e9);
    spec.datapath_multiplier =
        delta_int(delta, "datapath_multiplier", 1, 1024);
    spec.transfer_multiplier =
        delta_int(delta, "transfer_multiplier", 1, 1024);
  } else if (kind == "set_constraints") {
    spec.kind = DeltaSpec::Kind::SetConstraints;
    check_delta_keys(delta, kind,
                     {"kind", "performance_ns", "delay_ns", "system_power_mw",
                      "chip_power_mw"});
    if (delta.find("performance_ns") != nullptr) {
      spec.performance_ns = delta_number(delta, "performance_ns", 1e-3, 1e12);
    }
    if (delta.find("delay_ns") != nullptr) {
      spec.delay_ns = delta_number(delta, "delay_ns", 1e-3, 1e12);
    }
    if (delta.find("system_power_mw") != nullptr) {
      spec.system_power_mw = delta_number(delta, "system_power_mw", 0, 1e12);
    }
    if (delta.find("chip_power_mw") != nullptr) {
      spec.chip_power_mw = delta_number(delta, "chip_power_mw", 0, 1e12);
    }
  } else {
    bad_delta("unknown delta kind '" + kind + "'");
  }
  return spec;
}

}  // namespace

Request parse_request(const std::string& line, const ProtocolLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    throw ProtocolError("payload_too_large",
                        "request line exceeds " +
                            std::to_string(limits.max_line_bytes) + " bytes");
  }

  JsonValue doc;
  try {
    doc = JsonValue::parse(line, limits.max_json_depth);
  } catch (const JsonError& e) {
    throw ProtocolError("parse_error", e.what());
  }
  if (!doc.is_object()) invalid("request must be a JSON object");

  const JsonValue* op_field = doc.find("op");
  if (op_field == nullptr) invalid("missing 'op'");
  Request request;
  request.op = parse_op(string_field(*op_field, "op"));

  const std::set<std::string>& keys = allowed_keys(request.op);
  std::set<std::string> seen;
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (!keys.count(key)) {
      invalid("unknown field '" + key + "' for op");
    }
    if (!seen.insert(key).second) invalid("duplicate field '" + key + "'");
  }

  if (const JsonValue* id = doc.find("id")) {
    request.id = string_field(*id, "id");
    if (request.id.empty()) invalid("field 'id' must be non-empty");
    if (request.id.size() > 256) invalid("field 'id' too long");
  }

  switch (request.op) {
    // generate shares submit's spec/threads/priority/deadline plumbing;
    // the strict key filter above already rejected the submit-only knobs
    // (heuristic, keep_all, max_trials) for it.
    case RequestOp::Generate:
    case RequestOp::Submit: {
      if (const JsonValue* spec = doc.find("spec")) {
        request.spec = string_field(*spec, "spec");
        if (request.spec.size() > limits.max_spec_bytes) {
          throw ProtocolError("payload_too_large", "spec text too large");
        }
      }
      if (const JsonValue* path = doc.find("spec_path")) {
        request.spec_path = string_field(*path, "spec_path");
      }
      if (request.spec.empty() == request.spec_path.empty()) {
        invalid("submit needs exactly one of 'spec' or 'spec_path'");
      }
      if (const JsonValue* h = doc.find("heuristic")) {
        const std::string& value = string_field(*h, "heuristic");
        if (value == "E") {
          request.options.heuristic = core::Heuristic::Enumeration;
        } else if (value == "I") {
          request.options.heuristic = core::Heuristic::Iterative;
        } else {
          invalid("field 'heuristic' must be \"E\" or \"I\"");
        }
      }
      if (const JsonValue* t = doc.find("threads")) {
        // 0 = auto-detect (one enumeration worker per hardware thread),
        // matching chop_cli --threads=0 and chopd --workers=0.
        request.options.threads =
            static_cast<int>(int_field(*t, "threads", 0, 256));
      }
      if (const JsonValue* p = doc.find("priority")) {
        request.options.priority =
            static_cast<int>(int_field(*p, "priority", -1000, 1000));
      }
      if (const JsonValue* d = doc.find("deadline_ms")) {
        request.options.deadline_ms =
            int_field(*d, "deadline_ms", 0, 86400000);
      }
      if (const JsonValue* m = doc.find("max_trials")) {
        request.options.max_trials = static_cast<std::size_t>(
            int_field(*m, "max_trials", 0, 1000000000));
      }
      if (const JsonValue* k = doc.find("keep_all")) {
        request.options.keep_all = bool_field(*k, "keep_all");
      }
      if (const JsonValue* b = doc.find("bound_pruning")) {
        request.options.bound_pruning = bool_field(*b, "bound_pruning");
      }
      if (request.op == RequestOp::Generate) {
        request.options.generate = true;
        if (const JsonValue* n = doc.find("num_starts")) {
          request.options.num_starts =
              static_cast<int>(int_field(*n, "num_starts", 1, 256));
        }
        if (const JsonValue* r = doc.find("coarsening_ratio")) {
          if (!r->is_number()) {
            invalid("field 'coarsening_ratio' must be a number");
          }
          const double ratio = r->as_number();
          if (!(ratio > 0.0 && ratio < 1.0)) {
            invalid("field 'coarsening_ratio' must lie in (0, 1)");
          }
          request.options.coarsening_ratio = ratio;
        }
        if (const JsonValue* s = doc.find("gen_seed")) {
          request.options.gen_seed = static_cast<std::uint64_t>(
              int_field(*s, "gen_seed", 0, 1000000000));
        }
      }
      break;
    }
    case RequestOp::Revise: {
      if (request.id.empty()) invalid("missing 'id'");
      if (const JsonValue* n = doc.find("new_id")) {
        request.new_id = string_field(*n, "new_id");
        if (request.new_id.empty()) invalid("field 'new_id' must be non-empty");
        if (request.new_id.size() > 256) invalid("field 'new_id' too long");
      }
      const JsonValue* delta = doc.find("delta");
      if (delta == nullptr) invalid("missing 'delta'");
      request.delta = parse_delta_spec(*delta);
      break;
    }
    case RequestOp::Status:
    case RequestOp::Cancel:
      if (request.id.empty()) invalid("missing 'id'");
      break;
    case RequestOp::Result:
      if (request.id.empty()) invalid("missing 'id'");
      if (const JsonValue* w = doc.find("wait")) {
        request.wait = bool_field(*w, "wait");
      }
      break;
    case RequestOp::Metrics:
      if (const JsonValue* f = doc.find("format")) {
        const std::string& value = string_field(*f, "format");
        if (value == "prometheus") {
          request.prometheus = true;
        } else if (value != "json") {
          invalid("field 'format' must be \"json\" or \"prometheus\"");
        }
      }
      break;
    case RequestOp::Shutdown:
      if (const JsonValue* d = doc.find("drain")) {
        request.drain = bool_field(*d, "drain");
      }
      break;
    case RequestOp::Stats:
    case RequestOp::Healthz:
    case RequestOp::Profile:
      break;
  }
  return request;
}

std::string error_response(const std::string& code, const std::string& message,
                           const std::string& id) {
  JsonValue error;
  error.set("code", JsonValue(code));
  error.set("message", JsonValue(message));
  JsonValue response;
  response.set("ok", JsonValue(false));
  if (!id.empty()) response.set("id", JsonValue(id));
  response.set("error", std::move(error));
  return response.dump();
}

JsonValue render_search_result(const core::SearchResult& result) {
  JsonValue designs((JsonValue::Array()));
  for (const core::GlobalDesign& d : result.designs) {
    JsonValue choice(JsonValue::Array{});
    for (const std::size_t c : d.choice) {
      choice.push(JsonValue(static_cast<double>(c)));
    }
    JsonValue design;
    design.set("choice", std::move(choice));
    design.set("ii", JsonValue(static_cast<double>(d.integration.ii_main)));
    design.set("delay",
               JsonValue(static_cast<double>(d.integration.system_delay_main)));
    design.set("clock_ns", JsonValue(d.integration.clock_ns()));
    design.set("performance_ns",
               JsonValue(d.integration.performance_ns.likely()));
    design.set("delay_ns", JsonValue(d.integration.delay_ns.likely()));
    designs.push(std::move(design));
  }
  JsonValue search;
  search.set("designs", std::move(designs));
  search.set("trials", JsonValue(static_cast<double>(result.trials)));
  search.set("feasible_raw",
             JsonValue(static_cast<double>(result.feasible_raw)));
  search.set("probe_integrations",
             JsonValue(static_cast<double>(result.probe_integrations)));
  search.set("truncated", JsonValue(result.truncated));
  search.set("cancelled", JsonValue(result.cancelled));
  return search;
}

JsonValue render_generate_result(const gen::GenerateResult& result,
                                 const dfg::Graph& spec) {
  JsonValue frontier((JsonValue::Array()));
  for (const gen::FrontierPoint& p : result.frontier) {
    JsonValue point;
    point.set("ii", JsonValue(static_cast<double>(p.ii)));
    point.set("delay", JsonValue(static_cast<double>(p.delay)));
    point.set("area_mil2", JsonValue(p.area));
    point.set("start", JsonValue(static_cast<double>(p.start)));
    frontier.push(std::move(point));
  }
  JsonValue partitions((JsonValue::Array()));
  for (const auto& members : result.members) {
    JsonValue names((JsonValue::Array()));
    for (const dfg::NodeId id : members) {
      names.push(JsonValue(spec.node(id).name));
    }
    partitions.push(std::move(names));
  }
  JsonValue out;
  out.set("frontier", std::move(frontier));
  out.set("partitions", std::move(partitions));
  out.set("starts", JsonValue(static_cast<double>(result.starts_run)));
  out.set("evaluations", JsonValue(static_cast<double>(result.evaluations)));
  out.set("gated", JsonValue(static_cast<double>(result.gated)));
  out.set("levels", JsonValue(static_cast<double>(result.levels)));
  out.set("coarsest_vertices",
          JsonValue(static_cast<double>(result.coarsest_vertices)));
  out.set("cancelled", JsonValue(result.cancelled));
  return out;
}

namespace {

int partition_index(const io::Project& project, const std::string& name) {
  for (std::size_t p = 0; p < project.partitions.size(); ++p) {
    if (project.partitions[p].name == name) return static_cast<int>(p);
  }
  throw ProtocolError("not_found", "no partition named '" + name + "'");
}

int chip_index(const io::Project& project, const std::string& name) {
  for (std::size_t c = 0; c < project.chips.size(); ++c) {
    if (project.chips[c].name == name) return static_cast<int>(c);
  }
  throw ProtocolError("not_found", "no chip named '" + name + "'");
}

/// Resolves the names in `delta` against `project` into a core delta.
core::EvalDelta resolve_delta(const io::Project& project,
                              const DeltaSpec& delta) {
  switch (delta.kind) {
    case DeltaSpec::Kind::MoveOp:
      for (dfg::NodeId id = 0;
           id < static_cast<dfg::NodeId>(project.graph.node_count()); ++id) {
        if (project.graph.node(id).name == delta.op_name) {
          return core::EvalDelta::move_operation(
              id, partition_index(project, delta.partition));
        }
      }
      throw ProtocolError("not_found", "no node named '" + delta.op_name + "'");
    case DeltaSpec::Kind::RetargetChip: {
      const int p = partition_index(project, delta.partition);
      return core::EvalDelta::move_partition_to_chip(
          p, chip_index(project, delta.chip));
    }
    case DeltaSpec::Kind::ReplacePackage:
      return core::EvalDelta::replace_chip_package(
          chip_index(project, delta.chip), delta.package == "mosis64"
                                               ? chip::mosis_package_64()
                                               : chip::mosis_package_84());
    case DeltaSpec::Kind::SetClock:
      return core::EvalDelta::set_clocking(
          project.config.style,
          {delta.main_clock_ns, delta.datapath_multiplier,
           delta.transfer_multiplier});
    case DeltaSpec::Kind::SetConstraints: {
      core::DesignConstraints c = project.config.constraints;
      if (delta.performance_ns >= 0.0) c.performance_ns = delta.performance_ns;
      if (delta.delay_ns >= 0.0) c.delay_ns = delta.delay_ns;
      if (delta.system_power_mw >= 0.0) {
        c.system_power_mw = delta.system_power_mw;
      }
      if (delta.chip_power_mw >= 0.0) c.chip_power_mw = delta.chip_power_mw;
      return core::EvalDelta::set_constraints(c);
    }
  }
  bad_delta("unknown delta kind");
}

}  // namespace

io::Project apply_delta(const io::Project& base, const DeltaSpec& delta) {
  const core::EvalDelta resolved = resolve_delta(base, delta);
  io::Project out = base;
  core::Partitioning pt = out.make_partitioning();
  try {
    core::apply_delta(resolved, pt, out.config.style, out.config.clocks,
                      out.config.constraints);
  } catch (const Error& e) {
    bad_delta(e.what());
  }
  out.partitions = pt.partitions();
  out.chips = pt.chips();
  return out;
}

}  // namespace chop::serve
