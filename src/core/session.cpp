#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace chop::core {

namespace {

Cycles max_ii_dp_for(const ChopConfig& config) {
  const Cycles max_ii_main = static_cast<Cycles>(
      config.constraints.performance_ns / config.clocks.main_clock);
  return std::max<Cycles>(1, max_ii_main / config.clocks.datapath_multiplier);
}

}  // namespace

ChopSession::ChopSession(const lib::ComponentLibrary& library,
                         Partitioning partitioning, ChopConfig config)
    : library_(&library),
      partitioning_(std::move(partitioning)),
      config_(std::move(config)),
      evaluator_(std::make_unique<CandidateEvaluator>()) {
  config_.clocks.validate();
  config_.constraints.validate();
  config_.criteria.validate();
  partitioning_.validate();
  // No delta changes the partition count, so the lists are sized once.
  const std::size_t nparts = partitioning_.partitions().size();
  predictions_.raw.resize(nparts);
  predictions_.eligible.resize(nparts);
  predict_cache_.resize(nparts);
}

RawInputs ChopSession::raw_inputs(std::size_t p) const {
  RawInputs in;
  in.members = partitioning_.partitions()[p].members;
  in.clocking = config_.style.clocking;
  in.allow_pipelining = config_.style.allow_pipelining;
  in.main_clock = config_.clocks.main_clock;
  in.datapath_multiplier = config_.clocks.datapath_multiplier;
  in.transfer_multiplier = config_.clocks.transfer_multiplier;
  in.max_ii_dp = max_ii_dp_for(config_);
  in.scan_design = config_.testability.scan_design;
  in.register_area_factor = config_.testability.register_area_factor;
  in.register_delay_penalty_ns = config_.testability.register_delay_penalty_ns;
  in.controller_area_factor = config_.testability.controller_area_factor;
  in.test_pins_per_chip = config_.testability.test_pins_per_chip;
  in.unit_sweep = config_.predictor.unit_sweep;
  for (const auto& block : partitioning_.memory().blocks) {
    in.memory_ports.push_back(block.ports);
    in.memory_access_times.push_back(block.access_time);
  }
  return in;
}

EligibleInputs ChopSession::eligible_inputs(std::size_t p) const {
  const Partition& part = partitioning_.partitions()[p];
  return {partitioning_.chips()[static_cast<std::size_t>(part.chip)]
              .package.usable_area(),
          config_.constraints, config_.criteria};
}

bool ChopSession::raw_lists_held() const {
  return std::all_of(
      predict_cache_.begin(), predict_cache_.end(),
      [](const PartitionPredictState& state) { return state.raw_held; });
}

std::vector<bad::DesignPrediction> ChopSession::run_bad(
    std::size_t p, const bad::Predictor& predictor, Cycles max_ii_dp) const {
  obs::TraceSpan partition_span("session.predict.partition");
  partition_span.arg("partition", partitioning_.partitions()[p].name);
  const dfg::Subgraph sub = partitioning_.subgraph(static_cast<int>(p));

  bad::PredictionRequest request;
  request.graph = &sub.graph;
  request.library = library_;
  request.style = config_.style;
  request.clocks = config_.clocks;
  // Cap pipelined II enumeration from the performance budget (§3.2).
  request.max_ii_dp = max_ii_dp;
  request.testability = config_.testability;
  for (std::size_t b = 0; b < partitioning_.memory().blocks.size(); ++b) {
    request.memory_ports[static_cast<int>(b)] =
        partitioning_.memory().blocks[b].ports;
    request.memory_access_time.push_back(
        partitioning_.memory().blocks[b].access_time);
  }
  return predictor.predict(request);
}

PredictionStats ChopSession::predict_partitions() {
  obs::TraceSpan span("session.predict");
  Timer timer;
  partitioning_.validate();

  const auto& partitions = partitioning_.partitions();

  static obs::Counter& reused_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_reused");
  static obs::Counter& recomputed_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_recomputed");

  bad::Predictor predictor(config_.predictor);
  PredictionStats stats;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    PartitionPredictState& state = predict_cache_[p];
    RawInputs raw = raw_inputs(p);
    EligibleInputs eligible = eligible_inputs(p);
    const bool raw_same = state.valid && state.raw == raw;
    const bool eligible_same = raw_same && state.eligible == eligible;
    const bool reuse_raw = eligible_same || (raw_same && state.raw_held);
    const std::shared_ptr<const PredictionMemo::Value> hit =
        reuse_raw || memo_ == nullptr ? nullptr : memo_->find(raw, eligible);
    if (reuse_raw) {
      ++stats.reused;
      reused_counter.add();
      if (!eligible_same) {
        predictions_.eligible[p] =
            prune_level1(predictions_.raw[p], eligible.usable_area,
                         config_.clocks, config_.constraints, config_.criteria);
        state.eligible = std::move(eligible);
      }
    } else if (hit != nullptr) {
      ++stats.reused;
      reused_counter.add();
      predictions_.raw[p] = {};
      predictions_.eligible[p] = hit->eligible;
      state.raw_count = hit->raw_count;
      state.raw_held = false;
      state.raw = std::move(raw);
      state.eligible = std::move(eligible);
    } else {
      predictions_.raw[p] = run_bad(p, predictor, raw.max_ii_dp);
      recomputed_counter.add();
      predictions_.eligible[p] =
          prune_level1(predictions_.raw[p], eligible.usable_area,
                       config_.clocks, config_.constraints, config_.criteria);
      state.raw_count = predictions_.raw[p].size();
      state.raw_held = true;
      if (memo_ != nullptr) {
        memo_->insert(raw, eligible,
                      {predictions_.eligible[p], state.raw_count});
      }
      state.raw = std::move(raw);
      state.eligible = std::move(eligible);
    }
    state.valid = true;
  }

  predictions_valid_ = true;
  for (const PartitionPredictState& state : predict_cache_) {
    stats.total += state.raw_count;
  }
  stats.feasible = predictions_.eligible_total();
  obs::MetricsRegistry::global()
      .histogram("session.predict_ms")
      .observe(timer.elapsed_ms());
  static obs::Counter& eligible =
      obs::MetricsRegistry::global().counter("bad.predictions_eligible");
  eligible.add(stats.feasible);
  span.arg("partitions", partitioning_.partitions().size());
  span.arg("predictions_raw", stats.total);
  span.arg("predictions_eligible", stats.feasible);
  span.arg("predictions_reused", stats.reused);
  return stats;
}

void ChopSession::apply(const EvalDelta& delta) {
  obs::TraceSpan span("session.apply_delta");
  span.arg("kind", delta.kind_name());
  static obs::Counter& applied =
      obs::MetricsRegistry::global().counter("eval.delta_applied");
  // Invalidate first: a delta that throws after patching the partitioning
  // must not leave the old lists searchable.
  predictions_valid_ = false;
  apply_delta(delta, partitioning_, config_.style, config_.clocks,
              config_.constraints);
  partitioning_.validate();
  applied.add();
}

std::vector<DataTransfer> ChopSession::transfer_tasks() const {
  return create_transfer_tasks(partitioning_);
}

EvalContext ChopSession::make_eval_context() const {
  const Pins test_pins = config_.testability.scan_design
                             ? config_.testability.test_pins_per_chip
                             : 0;
  return EvalContext(partitioning_, transfer_tasks(), config_.clocks,
                     config_.constraints, config_.criteria, test_pins);
}

SearchResult ChopSession::search(const SearchOptions& options) const {
  obs::TraceSpan span("session.search");
  CHOP_REQUIRE(predictions_valid_,
               "call predict_partitions() before search()");
  CHOP_REQUIRE(options.prune || raw_lists_held(),
               "an unpruned search needs raw lists, and a partition served "
               "from the prediction memo holds none");
  SearchOptions opts = options;
  if (opts.evaluator == nullptr) opts.evaluator = evaluator_.get();
  return find_feasible_implementations(make_eval_context(), predictions_,
                                       opts);
}

std::string ChopSession::guideline(const GlobalDesign& design) const {
  CHOP_REQUIRE(predictions_valid_, "no predictions to render");
  const auto& partitions = partitioning_.partitions();
  CHOP_REQUIRE(design.choice.size() == partitions.size(),
               "design does not match the current partitioning");
  CHOP_REQUIRE(design.prune || raw_lists_held(),
               "an unpruned design needs raw lists, and a partition served "
               "from the prediction memo holds none");

  std::ostringstream os;
  os << "Feasible predicted design: II=" << design.integration.ii_main
     << " cycles, delay=" << design.integration.system_delay_main
     << " cycles, clock=" << design.integration.clock_ns() << " ns\n";
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const auto& list =
        design.prune ? predictions_.eligible[p] : predictions_.raw[p];
    CHOP_REQUIRE(design.choice[p] < list.size(),
                 "design choice index out of range");
    const bad::DesignPrediction& sel = list[design.choice[p]];
    os << "* " << partitions[p].name << " (chip "
       << partitioning_.chips()[static_cast<std::size_t>(partitions[p].chip)]
              .name
       << ")\n";
    os << "    - a " << to_string(sel.style) << " design style with "
       << sel.stages << " stages,\n";
    os << "    - module library of " << sel.module_set_label << ",\n";
    os << "    - ";
    bool first = true;
    for (const auto& [kind, count] : sel.fu_alloc) {
      if (!first) os << " and ";
      first = false;
      os << count << ' ' << dfg::to_string(kind)
         << (count == 1 ? " unit" : " units");
    }
    os << ",\n";
    os << "    - " << sel.register_bits << " bits of registers for the data "
       << "path,\n";
    os << "    - " << static_cast<long long>(std::llround(sel.mux_count_likely))
       << " 1-bit 2-to-1 multiplexers,\n";
    os << "    - predicted area " << sel.total_area << " mil^2.\n";
  }
  for (const TransferPlan& plan : design.integration.transfers) {
    if (!plan.task.crosses_pins()) continue;
    os << "* data transfer module " << plan.task.name << ": " << plan.pins
       << " pins, X=" << plan.transfer_cycles << " cycles, W="
       << plan.wait_cycles << " cycles, buffer=" << plan.buffer_bits
       << " bits, PLA " << plan.controller.inputs << "x"
       << plan.controller.outputs << "x" << plan.controller.product_terms
       << "\n";
  }
  return os.str();
}

}  // namespace chop::core
