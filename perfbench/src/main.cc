// perfbench: the repository's end-to-end benchmark. One process runs one
// workload and prints its result as the last stdout line (see result.h).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --run_dir DIR [--source_id ID] [--smoke 1]
//
// Workloads: train_cold, serve_mixed, serve_rank_large, ingest_publish
// (README.md in this directory gives the rationale of each). run.py builds
// this binary and is the entry point.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "util/logging.h"

namespace perfbench {
void RunTrainCold(const Options& options, Result* result, OpCounter* ops);
void RunServeMixed(const Options& options, Result* result, OpCounter* ops);
void RunServeRankLarge(const Options& options, Result* result, OpCounter* ops);
void RunIngestPublish(const Options& options, Result* result, OpCounter* ops);
}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train_cold|serve_mixed|serve_rank_large|"
               "ingest_publish --seed N --seconds S --trace 0|1 --run_dir DIR "
               "[--source_id ID] [--smoke 0|1]\n",
               argv0);
  return 2;
}

/// Measuring anything but an optimized, uninstrumented build is refused.
const char* BuildProblem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "assertions enabled (not a Release build)";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "build type is not Release";
  }
  return nullptr;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--smoke") {
      options.smoke = value == "1";
    } else if (flag == "--run_dir") {
      options.run_dir = value;
    } else if (flag == "--source_id") {
      source_id = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.run_dir.empty() || options.seconds <= 0.0) return Usage(argv[0]);
  if (const char* problem = BuildProblem()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", problem);
    return 3;
  }

  void (*run)(const perfbench::Options&, perfbench::Result*,
              perfbench::OpCounter*) = nullptr;
  if (options.workload == "train_cold") {
    run = perfbench::RunTrainCold;
  } else if (options.workload == "serve_mixed") {
    run = perfbench::RunServeMixed;
  } else if (options.workload == "serve_rank_large") {
    run = perfbench::RunServeRankLarge;
  } else if (options.workload == "ingest_publish") {
    run = perfbench::RunIngestPublish;
  } else {
    return Usage(argv[0]);
  }

  cpd::SetLogLevel(cpd::LogLevel::kWarning);
  std::filesystem::create_directories(options.run_dir);
  perfbench::Result result;
  perfbench::OpCounter ops;
  run(options, &result, &ops);
  std::filesystem::remove_all(options.run_dir);

  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int usable_cpus =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0 ? CPU_COUNT(&affinity) : 0;
  cpd::Json provenance = cpd::Json::MakeObject();
  provenance.Set("nproc", cpd::Json(usable_cpus));
  provenance.Set("online_cpus", cpd::Json(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  provenance.Set("hardware_concurrency",
                 cpd::Json(static_cast<uint64_t>(std::thread::hardware_concurrency())));
  provenance.Set("compiler", cpd::Json(PERFBENCH_COMPILER));
  provenance.Set("build_type", cpd::Json(PERFBENCH_BUILD_TYPE));
  provenance.Set("source_id", cpd::Json(source_id));
  provenance.Set("workload", cpd::Json(options.workload));
  provenance.Set("seed", cpd::Json(options.seed));
  provenance.Set("seconds", cpd::Json(options.seconds));
  provenance.Set("trace", cpd::Json(options.trace));
  provenance.Set("smoke", cpd::Json(options.smoke));
  // Every workload runs at most 2 worker threads (trainer pool or server
  // pool); the detail line names each workload's own thread counts.
  provenance.Set("worker_threads", cpd::Json(2));
  result.SetDetail("provenance", std::move(provenance));

  std::printf("%s\n%s\n", result.DetailLine().c_str(),
              result.FinalLine(options.trace, ops).c_str());
  return 0;
}
