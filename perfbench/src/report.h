// What one benchmark run reports: named metrics with units, the
// attempted/failed operation counts, the oracle verdict, and the run's
// provenance. Print() writes the provenance line and then, as the last
// line of stdout, the result object.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity), at least 1. Every
/// load's thread budget derives from this, not from the machine's total.
unsigned Nproc();

/// Peak resident set of the process so far, in MB.
double PeakRssMb();

struct ReportedMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds a percentile, or records a refusal when it is unavailable
  /// (fewer than ten samples beyond it), which fails the run.
  void AddPercentile(const std::string& name, std::optional<double> value,
                     const std::string& unit, std::size_t samples);
  /// Marks the run incorrect with a reason printed to stderr.
  void Fail(const std::string& reason);
  /// Records a provenance field (printed as a JSON string).
  void Note(const std::string& key, const std::string& value);

  bool Has(const std::string& name) const;
  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the provenance line, then the result line (only when the
  /// run is correct). Returns the process exit code.
  int Print() const;

 private:
  std::vector<ReportedMetric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
