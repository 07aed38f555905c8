// perfbench: runs one seeded workload of the repository benchmark through the
// simulator's public API, checks its outputs, and prints one JSON line with
// the host, the timings, the output checks and (when traced) the per-layer
// metrics. perfbench/run.py launches it; see there for the workloads.
//
//   perfbench --workload wire|wire-s4|stack --users N --seed S
//             [--trace 0|1] [--t0-ns NS] [--spans PATH]
//   perfbench --calibrate 1    times the host-speed calibration instead
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "calibrate.hpp"
#include "stack.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire|wire-s4|stack --users N "
               "--seed S [--trace 0|1] [--t0-ns NS] [--spans PATH]\n"
               "       perfbench --calibrate 1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool calibrate = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--users") opt.users = std::strtoull(v, nullptr, 10);
    else if (k == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--trace") opt.trace = std::strcmp(v, "0") != 0;
    else if (k == "--t0-ns") opt.t0_ns = std::strtoull(v, nullptr, 10);
    else if (k == "--spans") opt.spans_path = v;
    else if (k == "--calibrate") calibrate = std::strcmp(v, "0") != 0;
    else return usage();
  }
  if (calibrate) {
    std::uint64_t checksum = 0;
    const std::uint64_t ns = perfbench::calibrate::time_ns(checksum);
    std::printf("{\"ns\":%llu,\"checksum\":%llu}\n",
                static_cast<unsigned long long>(ns),
                static_cast<unsigned long long>(checksum));
    return 0;
  }
  if (opt.users == 0) return usage();
  if (opt.t0_ns == 0) opt.t0_ns = perfbench::now_ns();
  // The crypto and wire-framing stage recorders are process-wide; a traced
  // run reads them after the run, so they must also read 0 on wire.
  dcpl::obs::set_stage_recording(opt.trace);

  perfbench::Outcome out;
  if (opt.workload == "wire") {
    out = perfbench::wire::run(opt, 1);
  } else if (opt.workload == "wire-s4") {
    out = perfbench::wire::run(opt, 4);
  } else if (opt.workload == "stack") {
    out = perfbench::stack::run(opt);
  } else {
    return usage();
  }
  // Every party, the simulator and the logs are gone: teardown is included.
  const std::uint64_t wall_ns = perfbench::now_ns() - opt.t0_ns;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::printf("{\"workload\":\"%s\",\"users\":%zu,\"seed\":%llu,\"trace\":%d,",
              opt.workload.c_str(), opt.users,
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf("\"host\":{\"hardware_concurrency\":%u,\"cpu\":\"%s\","
              "\"build_type\":\"%s\",\"compiler\":\"%s\"},",
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE,
              json_escape(__VERSION__).c_str());
  std::printf("\"attempted\":%llu,\"completed\":%llu,\"setup_ns\":%llu,"
              "\"run_ns\":%llu,\"wall_ns\":%llu,\"peak_rss_kib\":%ld,",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.completed),
              static_cast<unsigned long long>(out.setup_ns),
              static_cast<unsigned long long>(out.run_ns),
              static_cast<unsigned long long>(wall_ns), ru.ru_maxrss);
  std::printf("\"events\":%llu,\"packets\":%llu,\"bytes\":%llu,"
              "\"virtual_us\":%llu,\"checks\":{",
              static_cast<unsigned long long>(out.got.events),
              static_cast<unsigned long long>(out.got.packets),
              static_cast<unsigned long long>(out.got.bytes),
              static_cast<unsigned long long>(out.got.virtual_us));
  const char* sep = "";
  for (const auto& [name, ok] : out.checks) {
    std::printf("%s\"%s\":%s", sep, name.c_str(), ok ? "true" : "false");
    sep = ",";
  }
  std::printf("},\"layers\":{");
  sep = "";
  for (const auto& [name, v] : out.layers) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), v);
    sep = ",";
  }
  std::printf("}}\n");
  return out.all_passed() ? 0 : 1;
}
