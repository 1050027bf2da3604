// The benchmark's three workloads, each driven through the program's public
// APIs from this one process:
//
//   cold_scan   — run_search_streaming over the FASTA for a fixed 4-guide
//                 set (the paper's elapsed-time workload, the CLI's
//                 --stream path)
//   warm_query  — build + save + load a .cofidx once, then one caller runs
//                 index_query_session::query in a closed loop, 8 guides a
//                 call (the CLI's --index path)
//   serve_evict — serve::server over the same index with a residency budget
//                 of a third of the full footprint; four closed-loop
//                 clients submit single-guide requests (the --serve path)
//
// Every operation's records are checked against the serial oracle.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace e2e {

struct run_options {
  std::string workload;
  double seconds = 10;  // length of the timed loop
  bool trace = false;   // per-layer run instead of the end-to-end run
  std::string work_dir; // scratch for the .cofidx and postmortem dumps
};

struct run_report {
  util::u64 attempted = 0;
  util::u64 failed = 0;
  std::map<std::string, double> metrics;  // by name; see metric_table()
  std::map<std::string, double> notes;    // context printed beside them
};

struct metric_spec {
  const char* name;
  const char* unit;
};
/// Every metric a run reports, with its unit: the end-to-end set for an
/// untraced run, the per-layer set for a traced one. A metric a workload's
/// path does not reach reads 0.
const std::vector<metric_spec>& metric_table(bool trace);

bool is_workload(const std::string& name);

run_report run(const inputs& in, const run_options& opt);

}  // namespace e2e
