#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/eval/fingerprint.hpp"
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

std::uint64_t ChopSession::predict_env_key() const {
  Fnv1a h;
  h.mix(static_cast<int>(config_.style.clocking));
  h.mix(config_.style.allow_pipelining ? 1 : 0);
  h.mix(config_.clocks.main_clock);
  h.mix(config_.clocks.datapath_multiplier);
  h.mix(config_.clocks.transfer_multiplier);
  h.mix(max_ii_dp_for(config_));
  h.mix(config_.testability.scan_design ? 1 : 0);
  h.mix(config_.testability.register_area_factor);
  h.mix(config_.testability.register_delay_penalty_ns);
  h.mix(config_.testability.controller_area_factor);
  h.mix(config_.testability.test_pins_per_chip);
  for (int units : config_.predictor.unit_sweep) h.mix(units);
  for (const auto& block : partitioning_.memory().blocks) {
    h.mix(block.ports);
    h.mix(block.access_time);
  }
  return h.digest();
}

std::uint64_t ChopSession::raw_key(std::size_t p,
                                   std::uint64_t env_key) const {
  Fnv1a h;
  h.mix(env_key);
  h.mix(static_cast<std::uint64_t>(p));
  for (dfg::NodeId member : partitioning_.partitions()[p].members) {
    h.mix(member);
  }
  return h.digest();
}

std::uint64_t ChopSession::eligible_key(std::size_t p,
                                        std::uint64_t raw) const {
  Fnv1a h;
  h.mix(raw);
  const Partition& part = partitioning_.partitions()[p];
  h.mix(partitioning_.chips()[static_cast<std::size_t>(part.chip)]
            .package.usable_area());
  h.mix(config_.constraints.performance_ns);
  h.mix(config_.constraints.delay_ns);
  h.mix(config_.constraints.system_power_mw);
  h.mix(config_.constraints.chip_power_mw);
  h.mix(config_.criteria.area_prob);
  h.mix(config_.criteria.performance_prob);
  h.mix(config_.criteria.delay_prob);
  h.mix(config_.criteria.power_prob);
  return h.digest();
}

PredictionStats ChopSession::predict_partitions() {
  obs::TraceSpan span("session.predict");
  Timer timer;
  partitioning_.validate();

  const auto& partitions = partitioning_.partitions();
  const auto& chips = partitioning_.chips();

  // Cap pipelined II enumeration from the performance budget (§3.2).
  const Cycles max_ii_dp = max_ii_dp_for(config_);
  const std::uint64_t env_key = predict_env_key();

  static obs::Counter& reused_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_reused");
  static obs::Counter& recomputed_counter =
      obs::MetricsRegistry::global().counter("eval.delta_predict_recomputed");

  bad::Predictor predictor(config_.predictor);
  PredictionStats stats;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    PartitionPredictState& state = predict_cache_[p];
    const std::uint64_t rk = raw_key(p, env_key);
    const bool raw_hit = state.valid && state.raw_key == rk;
    if (raw_hit) {
      ++stats.reused;
      reused_counter.add();
    } else {
      obs::TraceSpan partition_span("session.predict.partition");
      partition_span.arg("partition", partitions[p].name);
      const dfg::Subgraph sub = partitioning_.subgraph(static_cast<int>(p));

      bad::PredictionRequest request;
      request.graph = &sub.graph;
      request.library = library_;
      request.style = config_.style;
      request.clocks = config_.clocks;
      request.max_ii_dp = max_ii_dp;
      request.testability = config_.testability;
      for (std::size_t b = 0; b < partitioning_.memory().blocks.size(); ++b) {
        request.memory_ports[static_cast<int>(b)] =
            partitioning_.memory().blocks[b].ports;
        request.memory_access_time.push_back(
            partitioning_.memory().blocks[b].access_time);
      }

      predictions_.raw[p] = predictor.predict(request);
      recomputed_counter.add();
    }
    const std::uint64_t ek = eligible_key(p, rk);
    if (!raw_hit || state.eligible_key != ek) {
      const AreaMil2 usable =
          chips[static_cast<std::size_t>(partitions[p].chip)]
              .package.usable_area();
      predictions_.eligible[p] =
          prune_level1(predictions_.raw[p], usable, config_.clocks,
                       config_.constraints, config_.criteria);
    }
    state.raw_key = rk;
    state.eligible_key = ek;
    state.valid = true;
  }

  predictions_valid_ = true;
  stats.total = predictions_.raw_total();
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

DeltaImpact ChopSession::apply(const EvalDelta& delta) {
  obs::TraceSpan span("session.apply_delta");
  span.arg("kind", delta.kind_name());
  static obs::Counter& applied =
      obs::MetricsRegistry::global().counter("eval.delta_applied");

  const std::size_t nparts = partitioning_.partitions().size();
  const std::uint64_t old_full = make_eval_context().fingerprint();
  std::vector<std::uint64_t> old_keys(nparts);
  {
    const std::uint64_t env = predict_env_key();
    for (std::size_t p = 0; p < nparts; ++p) {
      old_keys[p] = eligible_key(p, raw_key(p, env));
    }
  }

  apply_delta(delta, partitioning_, config_.style, config_.clocks,
              config_.constraints);
  partitioning_.validate();

  DeltaImpact impact;
  impact.revision = ++revision_;
  impact.old_fingerprint = old_full;
  impact.new_fingerprint = make_eval_context().fingerprint();
  impact.noop = impact.new_fingerprint == old_full;

  const std::uint64_t env = predict_env_key();
  impact.dirty_partitions.resize(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    impact.dirty_partitions[p] =
        eligible_key(p, raw_key(p, env)) != old_keys[p];
  }

  if (!impact.noop) predictions_valid_ = false;
  applied.add();
  span.arg("noop", impact.noop ? 1 : 0);
  span.arg("dirty_partitions", impact.dirty_count());
  return impact;
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
