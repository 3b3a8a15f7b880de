#include "perfbench/src/report.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({name, value, unit});
}

void Report::AddPercentile(const std::string& name,
                           std::optional<double> value,
                           const std::string& unit, std::size_t samples) {
  if (!value.has_value()) {
    Fail("refusing to report " + name + ": " + std::to_string(samples) +
         " samples leave fewer than ten beyond it");
    return;
  }
  Add(name, *value, unit);
}

bool Report::Has(const std::string& name) const {
  for (const ReportedMetric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& reason) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", reason.c_str());
  correct_ = false;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

int Report::Print() const {
  std::string prov = "{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) prov += ", ";
    prov += '"';
    prov += JsonEscape(notes_[i].first);
    prov += "\": \"";
    prov += JsonEscape(notes_[i].second);
    prov += '"';
  }
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());
  if (!correct_) {
    std::fflush(stdout);
    return 1;
  }
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
