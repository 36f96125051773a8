// keddah_bench: runs one benchmark workload and prints its report as one
// JSON line on stdout. kbench/run.py builds this binary, calls it once per
// workload, and turns the report into the benchmark's result line.
//
//   keddah_bench --workload paper-pipeline|fattree-wave|whatif-serve
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//
// With --trace 1 the run also times the benchmark's calls into each layer
// and writes the spans to DIR/trace-<workload>-seed<N>.json.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef KBENCH_BUILD_TYPE
#define KBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using keddah::util::Json;

int usage(const char* why) {
  std::fprintf(stderr,
               "keddah_bench: %s\nusage: keddah_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  kbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  kbench::Tracer tracer(options.trace);
  kbench::Report report;
  try {
    if (workload == "paper-pipeline") {
      report = kbench::run_paper_pipeline(options, tracer);
    } else if (workload == "fattree-wave") {
      report = kbench::run_fattree_wave(options, tracer);
    } else if (workload == "whatif-serve") {
      report = kbench::run_whatif_serve(options, tracer);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.failed += 1;
    report.attempted = std::max<std::uint64_t>(report.attempted, 1);
    report.check(false, std::string("exception: ") + e.what());
  }

  Json metrics = Json::object();
  for (const auto& [name, value] : report.metrics) {
    Json entry = Json::object();
    entry["value"] = Json(value.first);
    entry["unit"] = Json(value.second);
    metrics[name] = std::move(entry);
  }
  Json failures = Json::array();
  for (const auto& message : report.failures) failures.push_back(Json(message));
  Json meta = Json::object();
  meta["compiler"] = Json(std::string(
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
      __VERSION__));
  meta["build_type"] = Json(KBENCH_BUILD_TYPE);
  meta["nproc"] = Json(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  Json out = Json::object();
  out["workload"] = Json(workload);
  out["seed"] = Json(options.seed);
  out["trace"] = Json(options.trace);
  out["correct"] = Json(report.failures.empty());
  out["attempted"] = Json(report.attempted);
  out["failed"] = Json(report.failed);
  out["failures"] = std::move(failures);
  out["metrics"] = std::move(metrics);
  Json pass_seconds = Json::array();
  for (const double seconds : report.pass_seconds) pass_seconds.push_back(Json(seconds));
  out["pass_seconds"] = std::move(pass_seconds);
  Json setup_seconds = Json::array();
  for (const double seconds : report.setup_seconds) setup_seconds.push_back(Json(seconds));
  out["setup_seconds"] = std::move(setup_seconds);
  out["record"] = report.record;
  out["meta"] = std::move(meta);
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    tracer.to_json().save_file(path, -1);
    out["trace_file"] = Json(path);
  }
  std::printf("%s\n", out.dump(-1).c_str());
  return 0;
}
