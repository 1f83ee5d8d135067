// The chop_serve wire protocol: newline-delimited JSON request/response
// pairs, transport-agnostic (the same bytes travel over a Unix-domain
// socket, a pipe, or an in-process test harness).
//
// Requests (one object per line, strict keys — unknown keys are errors):
//
//   {"op":"submit","spec":"<.chop text>",...}   accept a partitioning job
//       optional: "id" (client-chosen, must be unique), "spec_path"
//       (server-side file instead of inline text), "heuristic" ("E"|"I"),
//       "threads", "priority", "deadline_ms", "max_trials", "keep_all",
//       "bound_pruning"
//   {"op":"revise","id":"<base>","delta":{...}} resubmit a finished job
//       with one structured §2.7 modification applied to its project;
//       optional "new_id" names the revised job (server-assigned when
//       omitted). The delta object carries a "kind" plus kind-specific
//       fields (strict keys):
//         {"kind":"move_op","op":"<node>","to":"<partition>"}
//         {"kind":"retarget_chip","partition":"<name>","chip":"<name>"}
//         {"kind":"replace_package","chip":"<name>",
//          "package":"mosis64"|"mosis84"}
//         {"kind":"set_clock","main_clock_ns":N,
//          "datapath_multiplier":N,"transfer_multiplier":N}
//         {"kind":"set_constraints", any of "performance_ns","delay_ns",
//          "system_power_mw","chip_power_mw"} (omitted = keep base value)
//   {"op":"status","id":"<job>"}                lifecycle state poll
//   {"op":"result","id":"<job>","wait":true}    fetch result (optionally
//                                               blocking until terminal)
//   {"op":"cancel","id":"<job>"}                cancel queued/running job
//   {"op":"stats"}                              queue/cache/worker stats
//   {"op":"metrics"}                            full metrics registry
//       optional: "format" ("json"|"prometheus"; prometheus returns the
//       text exposition inside the "text" field)
//   {"op":"healthz"}                            liveness: uptime, queue
//                                               depth, busy workers,
//                                               overload/accepting state
//   {"op":"profile"}                            per-phase search time
//       optional: "id" (one job's attribution instead of the server sum)
//   {"op":"shutdown","drain":true}              graceful drain + stop
//
// Every response about a specific job (submit/status/result/cancel)
// echoes its distributed-tracing id as 16 hex digits in "trace".
//
// Responses always carry "ok"; failures add {"error":{"code","message"}}.
// Error codes: parse_error, invalid_request, payload_too_large,
// invalid_spec, spec_unreadable, invalid_delta, overload, shutting_down,
// duplicate_id, not_found, timeout, unknown_op.
//
// The `search` fragment of a result response is rendered by
// render_search_result(), which tests also apply to direct
// ChopSession::search() output — byte equality of the two strings is the
// serving layer's correctness oracle.
#pragma once

#include <string>

#include "core/search.hpp"
#include "gen/generate.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"

namespace chop::serve {

/// Thrown by parse_request for every malformed request; the service layer
/// renders it as a structured error response.
class ProtocolError : public Error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Hard input limits enforced before any parsing work happens.
struct ProtocolLimits {
  std::size_t max_line_bytes = 4u << 20;  ///< One request line.
  std::size_t max_spec_bytes = 2u << 20;  ///< Inline or on-disk spec text.
  std::size_t max_json_depth = 64;
};

enum class RequestOp {
  Submit,
  Generate,  ///< Submit a generation job: the engine invents the cut.
  Revise,
  Status,
  Result,
  Cancel,
  Stats,
  Metrics,
  Healthz,
  Profile,
  Shutdown,
};

/// One name-based §2.7 modification carried by a `revise` request. Names
/// (node, partition, chip) are resolved against the base job's project at
/// apply time; unresolvable names are `not_found` errors, structurally
/// invalid edits are `invalid_delta`.
struct DeltaSpec {
  enum class Kind {
    MoveOp,          ///< Move one operation to another partition.
    RetargetChip,    ///< Migrate a whole partition to another chip.
    ReplacePackage,  ///< Swap a chip's package (MOSIS 64 <-> 84).
    SetClock,        ///< Replace the clock family.
    SetConstraints,  ///< Patch the constraint budget.
  };
  Kind kind = Kind::SetConstraints;
  std::string op_name;    ///< MoveOp: node name.
  std::string partition;  ///< MoveOp destination / RetargetChip subject.
  std::string chip;       ///< RetargetChip destination / ReplacePackage.
  std::string package;    ///< ReplacePackage: "mosis64" | "mosis84".
  double main_clock_ns = 0.0;   ///< SetClock (all three required).
  int datapath_multiplier = 1;
  int transfer_multiplier = 1;
  /// SetConstraints: negative = keep the base project's value.
  double performance_ns = -1.0;
  double delay_ns = -1.0;
  double system_power_mw = -1.0;
  double chip_power_mw = -1.0;
};

/// One parsed, validated request.
struct Request {
  RequestOp op = RequestOp::Stats;
  std::string id;         ///< Job id (submit: optional client-chosen;
                          ///< profile: optional scope; revise: base job).
  std::string new_id;     ///< revise: optional client-chosen revised id.
  std::string spec;       ///< Inline `.chop` text (submit).
  std::string spec_path;  ///< Server-side spec file (submit).
  JobOptions options;     ///< Submit knobs.
  DeltaSpec delta;        ///< revise: the modification to apply.
  bool wait = false;      ///< result: block until terminal.
  bool drain = true;      ///< shutdown: drain accepted jobs first.
  bool prometheus = false;  ///< metrics: text exposition instead of JSON.
};

/// Parses and validates one request line. Throws ProtocolError (with a
/// machine-readable code) on anything malformed: oversized payloads,
/// broken JSON, wrong types, unknown ops or keys, out-of-range values.
Request parse_request(const std::string& line, const ProtocolLimits& limits);

/// `{"ok":false,...,"error":{"code":...,"message":...}}`. The id is
/// echoed when known.
std::string error_response(const std::string& code, const std::string& message,
                           const std::string& id = "");

/// The deterministic `search` fragment shared by the daemon and by tests
/// replaying the same project directly: designs (choice/ii/delay/clock/
/// performance/delay ns), trials, feasible_raw, probe_integrations,
/// truncated, cancelled. Timing and identity fields deliberately live
/// outside this fragment so it is byte-comparable across processes.
JsonValue render_search_result(const core::SearchResult& result);

/// The `generate` fragment of a generation job's result: portfolio stats
/// (starts/evaluations/gated), the (area, II, delay) frontier, and
/// the best cut as partition member-name lists (resolvable against the
/// submitted spec, e.g. to write a `partitions` section). Deterministic
/// like the search fragment.
JsonValue render_generate_result(const gen::GenerateResult& result,
                                 const dfg::Graph& spec);

/// Applies one DeltaSpec to a project, returning the patched copy. Names
/// resolve to a core::EvalDelta, which core::apply_delta() applies — the
/// same edit a direct ChopSession::apply() makes. Throws ProtocolError —
/// `not_found` for unresolvable names, `invalid_delta` for edits the core
/// rejects (a node outside every partition, emptying a partition, ...).
io::Project apply_delta(const io::Project& base, const DeltaSpec& delta);

}  // namespace chop::serve
