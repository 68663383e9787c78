// lcsperf: the serving benchmark driver.
//
//   lcsperf --workload serve_mixed|route_fleet|fresh_parts --seed N --seconds S
//           --trace 0|1 --work-dir DIR --shard-bin PATH
//
// Human-readable lines start with "# ".  The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exit code 0
// on a correct run, 1 when an output check or the replay fails, 2 on a usage
// error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lcsperf: " << why
            << "\nusage: lcsperf --workload serve_mixed|route_fleet|fresh_parts --seed N"
               " --seconds S --trace 0|1 --work-dir DIR --shard-bin PATH\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload")
      o.workload = v;
    else if (a == "--seed")
      o.seed = std::stoull(v);
    else if (a == "--seconds")
      o.seconds = std::stod(v);
    else if (a == "--trace")
      o.trace = v == "1";
    else if (a == "--work-dir")
      o.work_dir = v;
    else if (a == "--shard-bin")
      o.shard_bin = v;
    else
      usage("unknown option " + a);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = -1.0;  // never emit inf/nan into the JSON line
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  RunResult r;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "serve_mixed")
      r = run_serve_mixed(opt);
    else if (opt.workload == "route_fleet")
      r = run_route_fleet(opt);
    else if (opt.workload == "fresh_parts")
      r = run_fresh_parts(opt);
    else
      usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "lcsperf: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& p : r.problems) std::cerr << "lcsperf: CHECK FAILED: " << p << "\n";

  const auto& metrics = opt.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : metrics) note(m.name + " = " + number(m.value) + " " + m.unit);
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return r.correct ? 0 : 1;
}
