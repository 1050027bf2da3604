// End-to-end benchmark binary. Two steps, run as separate processes by
// run.py so the measured process never holds the generated genome or pays
// for the oracle:
//
//   e2e_bench gen --seed N --scale S --dir D
//       generate the genome FASTA, the guides and the serial-oracle records
//   e2e_bench run --workload W --seed N --seconds T --trace 0|1 --dir D
//                 --work SCRATCH [--corrupt-oracle]
//       run workload W on D's inputs; print a host/context line, then the
//       result as one JSON line:
//       {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
//
// --corrupt-oracle perturbs one expected record per guide: every operation
// must then fail the oracle gate (the smoke check relies on it).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "util/cli.hpp"
#include "util/cpufeat.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0;
  in >> one;
  return one;
}

/// Machine-wide CPU time (all jiffies) and the part of it stolen by the
/// hypervisor for other guests, from /proc/stat.
struct cpu_jiffies {
  double total = 0;
  double steal = 0;
};
cpu_jiffies read_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  cpu_jiffies j;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    in >> v;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

void print_result(const e2e::run_report& rep, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.failed == 0 && rep.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  const char* sep = "";
  for (const auto& m : e2e::metric_table(trace)) {
    const auto it = rep.metrics.find(m.name);
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep, m.name,
                it == rep.metrics.end() ? 0.0 : it->second, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("e2e_bench", "end-to-end off-target search benchmark");
  cli.positional("step", "gen | run", true);
  cli.opt("seed", "workload seed", "1");
  cli.opt("scale", "gen: hg19 scale divisor of the genome", "128");
  cli.opt("dir", "directory of the generated inputs", "");
  cli.opt("workload", "run: cold_scan | warm_query | serve_evict", "");
  cli.opt("seconds", "run: length of the timed loop", "10");
  cli.opt("trace", "run: 1 = per-layer traced run", "0");
  cli.opt("work", "run: scratch directory", "");
  cli.flag("corrupt-oracle", "run: perturb the expected records");
  if (!cli.parse(argc, argv)) return 2;
  util::set_log_level(util::log_level::warn);
  const std::string step = cli.get_positional("step");
  const std::string dir = cli.get("dir");
  if (dir.empty()) {
    std::fprintf(stderr, "e2e_bench: --dir is required\n");
    return 2;
  }
  try {
    if (step == "gen") {
      e2e::generate(cli.get_u64("seed"), cli.get_u64("scale"), dir);
      return 0;
    }
    e2e::run_options opt;
    opt.workload = cli.get("workload");
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_u64("trace") != 0;
    opt.work_dir = cli.get("work");
    if (step != "run" || !e2e::is_workload(opt.workload) || opt.work_dir.empty() ||
        opt.seconds <= 0) {
      cli.print_usage();
      return 2;
    }
    // One malloc arena for every thread: with glibc's per-thread arenas,
    // how much freed memory stays resident depends on which thread happens
    // to free it, and peak_rss_mb swung by a third between identical runs.
    mallopt(M_ARENA_MAX, 1);
    e2e::inputs in = e2e::load(dir);
    if (cli.get_flag("corrupt-oracle")) {
      for (auto& recs : in.expected) {
        if (!recs.empty()) ++recs.front().mismatches;
      }
    }
    const double load0 = load_average();
    const cpu_jiffies cpu0 = read_jiffies();
    const e2e::run_report rep = e2e::run(in, opt);
    const cpu_jiffies cpu1 = read_jiffies();
    const double steal = (cpu1.steal - cpu0.steal) / std::max(1.0, cpu1.total - cpu0.total);
    // Host fingerprint and run context: results are only comparable
    // between runs with the same fingerprint.
    std::printf("{\"host\": {\"nproc\": %u, \"avx2\": %s, \"build_type\": \"%s\", "
                "\"loadavg_start\": %.2f, \"loadavg_end\": %.2f, "
                "\"steal_frac\": %.4f}, "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"failed_frac\": %.6g",
                std::thread::hardware_concurrency(),
                util::cpu().avx2 ? "true" : "false", E2E_BUILD_TYPE, load0,
                load_average(), steal, opt.workload.c_str(),
                static_cast<unsigned long long>(cli.get_u64("seed")),
                opt.trace ? 1 : 0,
                rep.attempted == 0 ? 1.0
                                   : static_cast<double>(rep.failed) /
                                         static_cast<double>(rep.attempted));
    for (const auto& [k, v] : rep.notes) std::printf(", \"%s\": %.6g", k.c_str(), v);
    std::printf("}\n");
    print_result(rep, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
