// perfbench: runs one named workload against parsim's public API and
// prints its metrics as the last line of stdout (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. Exits non-zero, without a
// result line, on any wrong answer or refused metric.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/layers.h"
#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/geometry/metric.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<knn-hotspot|selfjoin|dynamic-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 120.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

}  // namespace

int Main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  Report report;
  Context ctx;
  ctx.args = args;
  ctx.nproc = Nproc();
  ctx.report = &report;

  const char* env_commit = std::getenv("PERFBENCH_GIT_COMMIT");
  const char* env_source = std::getenv("PERFBENCH_SOURCE_SHA256");
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", std::to_string(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  report.Note("nproc", std::to_string(ctx.nproc));
  report.Note("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
  report.Note("cpu_model", CpuModel());
  report.Note("compiler", PERFBENCH_COMPILER);
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("simd_enabled", parsim::detail::SimdEnabled() ? "1" : "0");
  report.Note("git_commit", env_commit != nullptr ? env_commit : "unknown");
  report.Note("source_sha256", env_source != nullptr ? env_source : "unknown");

#ifndef NDEBUG
  report.Fail("refusing to measure a build with assertions enabled");
  return report.Print();
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    report.Fail(std::string("refusing to measure a non-Release build (") +
                PERFBENCH_BUILD_TYPE + ")");
    return report.Print();
  }

  Tracer tracer;
  if (args.trace) ctx.tracer = &tracer;

  if (args.workload == "knn-hotspot") {
    RunKnnHotspot(ctx);
  } else if (args.workload == "selfjoin") {
    RunSelfJoin(ctx);
  } else if (args.workload == "dynamic-mix") {
    RunDynamicMix(ctx);
  } else {
    return Usage();
  }

  if (args.trace) {
    AddLayerSelfTimes(tracer, &report);
    ZeroFillPerLayer(&report);
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
      report.Fail("could not write spans to " + args.trace_out);
    }
  } else {
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  return report.Print();
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
