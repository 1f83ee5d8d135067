#include "bad/prediction.hpp"

#include <sstream>

namespace chop::bad {

int DesignPrediction::total_memory_accesses() const {
  int total = 0;
  for (const auto& [block, count] : memory_accesses) total += count;
  return total;
}

std::string DesignPrediction::summary() const {
  std::ostringstream os;
  os << to_string(style) << ' ' << module_set_label << " [";
  bool first = true;
  for (const auto& [kind, count] : fu_alloc) {
    if (!first) os << ' ';
    first = false;
    os << count << 'x' << dfg::to_string(kind);
  }
  os << "] stages=" << stages << " II=" << ii_main
     << "c delay=" << latency_main << "c area~" << total_area.likely()
     << " regs=" << register_bits << "b";
  return os.str();
}

Level1Fields level1_fields(const DesignPrediction& p) {
  return {p.total_area, p.clock_overhead_ns, p.ii_main, p.latency_main,
          p.power_mw};
}

bool dominates(const DesignPrediction& a, const DesignPrediction& b) {
  // Styles are incomparable: a nonpipelined design is strictly more
  // flexible at integration time (the pipelined data-rate-mismatch rule of
  // §2.4 never applies to it), so a pipelined design never makes a
  // nonpipelined one inferior, and vice versa.
  if (a.style != b.style) return false;
  const bool no_worse = a.total_area.likely() <= b.total_area.likely() &&
                        a.ii_main <= b.ii_main &&
                        a.latency_main <= b.latency_main;
  const bool better = a.total_area.likely() < b.total_area.likely() ||
                      a.ii_main < b.ii_main || a.latency_main < b.latency_main;
  return no_worse && better;
}

std::vector<DesignPrediction> pareto_filter(
    std::vector<DesignPrediction> predictions) {
  std::vector<DesignPrediction> survivors;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < predictions.size() && !dominated; ++j) {
      if (i == j) continue;
      if (dominates(predictions[j], predictions[i])) {
        dominated = true;
      } else if (j < i && !dominates(predictions[i], predictions[j])) {
        // Exact ties within a style: keep only the first occurrence.
        const DesignPrediction& a = predictions[i];
        const DesignPrediction& b = predictions[j];
        if (a.style == b.style &&
            a.total_area.likely() == b.total_area.likely() &&
            a.ii_main == b.ii_main && a.latency_main == b.latency_main) {
          dominated = true;
        }
      }
    }
    if (!dominated) survivors.push_back(std::move(predictions[i]));
  }
  return survivors;
}

}  // namespace chop::bad
