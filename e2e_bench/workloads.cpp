#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "genome/chunker.hpp"
#include "genome/fasta_stream.hpp"
#include "layers.hpp"
#include "serve/server.hpp"

namespace e2e {

namespace {

using cof::device_pipeline;
using cof::engine_options;
using cof::genome_index;
using cof::pipeline_metrics;

constexpr usize kSetupReps = 3;     // set-ups per run; setup_s is their median
constexpr usize kServeClients = 4;  // closed-loop clients of serve_evict
constexpr usize kMinOps = 3;        // untraced operations in a traced run
// serve_evict's residency budget: 1/kBudgetShare of the full footprint.
constexpr usize kBudgetShare = 3;

const std::vector<metric_spec> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"mbp_guides_per_s", "Mbp.guide/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<metric_spec> kPerLayer = {
    {"genome.decode_ms", "ms"},
    {"genome.decode_mbp_per_s", "Mbp/s"},
    {"pipeline.setup_ms", "ms"},
    {"pipeline.finder_ms", "ms"},
    {"pipeline.finder_loci", "count"},
    {"pipeline.h2d_ms", "ms"},
    {"pipeline.h2d_mb", "MB"},
    {"pipeline.comparer_ms", "ms"},
    {"pipeline.comparer_entries", "count"},
    {"pipeline.comparer_launches", "count"},
    {"pipeline.comparer_ns_per_locus_guide", "ns"},
    {"pipeline.fetch_ms", "ms"},
    {"pipeline.d2h_mb", "MB"},
    {"pipeline.kernel_ms", "ms"},
    {"results.format_ms", "ms"},
    {"results.records", "count"},
    {"results.spill_ms", "ms"},
    {"results.spill_runs", "count"},
    {"results.merge_ms", "ms"},
    {"stream.queue_wait_ms", "ms"},
    {"stream.peak_queue_depth", "count"},
    {"stream.overlap", "ratio"},
    {"index.build_s", "s"},
    {"index.save_s", "s"},
    {"index.load_s", "s"},
    {"index.file_mb", "MB"},
    {"index.resident_mb", "MB"},
    {"index.hit_ratio", "ratio"},
    {"index.uploads", "1/op"},
    {"index.evictions", "1/op"},
    {"index.evict_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.batch_wait_ms", "ms"},
    {"serve.device_ms", "ms"},
    {"serve.demux_ms", "ms"},
    {"serve.batch_size", "count"},
    {"serve.batches", "count"},
    {"serve.rejected", "count"},
    {"process.cpu_ms_per_op", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.unaccounted_ms", "ms"},
    {"hotspot.finder_share", "ratio"},
    {"hotspot.comparer_share", "ratio"},
};

/// The configuration every workload runs: SYCL-buffer backend, opt6
/// comparer, one queue, one device, default chunking.
engine_options engine() {
  engine_options o;
  o.backend = cof::backend_kind::sycl;
  o.variant = cof::comparer_variant::opt6;
  o.num_queues = 1;
  o.num_devices = 1;
  return o;
}

/// The pipeline the engine builds for engine(): the replays drive the same
/// facade through the same public factory.
std::unique_ptr<device_pipeline> make_pipeline(const engine_options& o) {
  cof::pipeline_options p;
  p.variant = o.variant;
  p.wg_size = o.wg_size;
  return cof::make_sycl_pipeline(p);
}

/// Oracle gate: an operation passes only when it returned a non-empty
/// record set equal to the serial oracle's. Thread-safe (serve clients).
class gate {
 public:
  void check(const std::vector<ot_record>& got, const std::vector<ot_record>& want) {
    attempted_.fetch_add(1);
    if (want.empty() || got != want) failed_.fetch_add(1);
  }
  void fail(const char* what) {
    std::fprintf(stderr, "e2e: operation failed: %s\n", what);
    attempted_.fetch_add(1);
    failed_.fetch_add(1);
  }
  u64 attempted() const { return attempted_.load(); }
  u64 failed() const { return failed_.load(); }

 private:
  std::atomic<u64> attempted_{0};
  std::atomic<u64> failed_{0};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it, never below
/// the median (with fewer than 21 samples the median is reported).
struct tail_stat {
  double value = 0;
  double pct = 50;
};
tail_stat tail(std::vector<double> v) {
  tail_stat t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  if (n < 21) {
    t.value = median(v);
    return t;
  }
  const usize k = n - 11;  // ten samples above index k
  t.value = v[k];
  t.pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Return the heap pages earlier set-ups freed to the OS and restart the
/// kernel's peak-RSS count, so peak_rss_mb covers only what follows.
void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process since restart_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string key;
  while (st >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      st >> kb;
      return kb * 1024.0 / 1e6;
    }
    st.ignore(1 << 12, '\n');
  }
  return 0;
}

void add_delta(pipeline_metrics& acc, const pipeline_metrics& now,
               const pipeline_metrics& before) {
  acc.kernel_nanos += now.kernel_nanos - before.kernel_nanos;
  acc.finder_launches += now.finder_launches - before.finder_launches;
  acc.comparer_launches += now.comparer_launches - before.comparer_launches;
  acc.h2d_bytes += now.h2d_bytes - before.h2d_bytes;
  acc.d2h_bytes += now.d2h_bytes - before.d2h_bytes;
  acc.total_loci += now.total_loci - before.total_loci;
  acc.total_entries += now.total_entries - before.total_entries;
}

struct device_queries {
  std::vector<cof::device_pattern> patterns;
  std::vector<util::u16> thresholds;
  explicit device_queries(const std::vector<query_spec>& qs) {
    for (const auto& q : qs) {
      patterns.push_back(cof::make_query(q.seq));
      thresholds.push_back(q.max_mismatches);
    }
  }
};

/// One traced replay of an operation: layer self times plus the counts the
/// pipeline's own metrics report for it.
struct replay {
  double wall_ms = 0;
  layer_clock clk;
  pipeline_metrics pm;
  u64 loci = 0;           // candidate loci the comparer scanned
  u64 guides = 0;
  u64 decoded_bases = 0;
  std::vector<ot_record> records;

  double layers_ms() const {  // every layer's self time but the op's own
    double s = 0;
    for (const auto& [name, ns] : clk.self_ns()) {
      if (name != "op") s += static_cast<double>(ns) / 1e6;
    }
    return s;
  }
};

/// Append the records of one fetched entry batch (the engine's format
/// stage: one ot_record with its site string per entry).
void build_records(std::vector<ot_record>& out, const device_pipeline::entries& e,
                   const device_queries& dq, const std::string_view text,
                   util::u32 chrom, u64 start, util::u32 plen) {
  for (usize i = 0; i < e.size(); ++i) {
    const util::u32 qi = e.qidx[i];
    out.push_back(ot_record{
        qi, chrom, start + e.loci[i], e.dir[i], e.mm[i],
        cof::make_site_string(dq.patterns[qi].seq, text.substr(e.loci[i], plen),
                              e.dir[i])});
  }
}

/// Cold scan, layer by layer: fasta_stream reads → load_chunk → run_finder
/// → launch_comparer_batch → fetch_entries → records → spill, then the
/// merge. Chunking mirrors the streaming engine (max_chunk bases, plen-1
/// overlap carried within a chromosome).
replay replay_scan(const std::vector<query_spec>& qs, const std::string& fasta,
                   const engine_options& opt, const std::string& spill_path) {
  replay r;
  r.guides = qs.size();
  util::stopwatch sw;
  {
    layer_clock::span op(r.clk, "op");
    const cof::device_pattern pat = cof::make_pattern(kPattern);
    const device_queries dq(qs);
    const usize overlap = pat.plen - 1;
    std::unique_ptr<device_pipeline> pipe;
    {
      layer_clock::span s(r.clk, "pipeline.create");
      pipe = make_pipeline(opt);
    }
    cof::record_spill_writer writer(spill_path);
    util::u32 chrom = 0;
    for (const auto& file : genome::fasta_files_at(fasta)) {
      genome::fasta_stream fs(file);
      for (;; ++chrom) {
        {
          layer_clock::span s(r.clk, "genome.decode");
          if (!fs.next_record()) break;
        }
        std::string carry;
        u64 next_start = 0;
        for (;;) {
          std::string buf = std::move(carry);
          carry.clear();
          usize got = 0;
          {
            layer_clock::span s(r.clk, "genome.decode");
            got = fs.read_bases(buf, opt.max_chunk - buf.size());
          }
          if (got == 0) break;
          r.decoded_bases += got;
          const bool record_done = buf.size() < opt.max_chunk;
          const u64 start = next_start;
          if (!record_done) {
            next_start += buf.size() - overlap;
            carry.assign(buf, buf.size() - overlap, overlap);
          }
          {
            layer_clock::span s(r.clk, "pipeline.h2d");
            pipe->load_chunk_async(buf).wait();
          }
          util::u32 hits = 0;
          {
            layer_clock::span s(r.clk, "pipeline.finder");
            hits = pipe->run_finder(pat);
          }
          r.loci += hits;
          if (hits != 0) {
            {
              layer_clock::span s(r.clk, "pipeline.comparer");
              pipe->launch_comparer_batch(dq.patterns, dq.thresholds).wait();
            }
            device_pipeline::entries e;
            {
              layer_clock::span s(r.clk, "pipeline.fetch");
              e = pipe->fetch_entries();
            }
            std::vector<ot_record> batch;
            {
              layer_clock::span s(r.clk, "results.format");
              build_records(batch, e, dq, buf, chrom, start, pat.plen);
            }
            layer_clock::span s(r.clk, "results.spill");
            writer.spill(batch);
          }
          if (record_done) break;
        }
      }
    }
    layer_clock::span s(r.clk, "results.merge");
    writer.finish();
    cof::merge_spill_runs({writer.path()}, [&r](ot_record&& rec) {
      r.records.push_back(std::move(rec));
    });
    r.pm = pipe->metrics();
  }
  r.wall_ms = sw.seconds() * 1e3;
  return r;
}

/// Device-resident chunk pipelines of an index replay, least recently used
/// first out once `capacity` chunks are resident — the session's residency
/// policy at chunk granularity.
struct resident_set {
  usize capacity = 0;
  std::map<usize, std::unique_ptr<device_pipeline>> pipes;
  std::deque<usize> lru;  // front = least recently used
};

/// One index query, layer by layer: per chunk residency admission
/// (load_indexed_chunk on a miss) → launch_comparer_batch → fetch_entries →
/// records, then the canonical sort+dedup. `demux` adds the serving layer's
/// split of a coalesced batch back into per-request record sets.
replay replay_query(const genome_index& idx, const std::vector<query_spec>& qs,
                    resident_set& rs, const engine_options& opt, bool demux) {
  replay r;
  r.guides = qs.size();
  util::stopwatch sw;
  {
    layer_clock::span op(r.clk, "op");
    const device_queries dq(qs);
    const util::u32 plen = dq.patterns.front().plen;
    for (usize ci = 0; ci < idx.chunks.size(); ++ci) {
      const cof::index_chunk& ch = idx.chunks[ci];
      if (ch.loci.empty()) continue;
      auto it = rs.pipes.find(ci);
      pipeline_metrics before;
      if (it == rs.pipes.end()) {
        if (rs.pipes.size() >= rs.capacity) {
          layer_clock::span s(r.clk, "index.evict");
          rs.pipes.erase(rs.lru.front());
          rs.lru.pop_front();
        }
        std::unique_ptr<device_pipeline> pipe;
        {
          layer_clock::span s(r.clk, "pipeline.create");
          pipe = make_pipeline(opt);
        }
        {
          layer_clock::span s(r.clk, "pipeline.h2d");
          pipe->load_indexed_chunk(ch.text, plen, ch.loci, ch.flags);
        }
        it = rs.pipes.emplace(ci, std::move(pipe)).first;
      } else {
        before = it->second->metrics();
        rs.lru.erase(std::find(rs.lru.begin(), rs.lru.end(), ci));
      }
      rs.lru.push_back(ci);
      device_pipeline& pipe = *it->second;
      {
        layer_clock::span s(r.clk, "pipeline.comparer");
        pipe.launch_comparer_batch(dq.patterns, dq.thresholds).wait();
      }
      device_pipeline::entries e;
      {
        layer_clock::span s(r.clk, "pipeline.fetch");
        e = pipe.fetch_entries();
      }
      {
        layer_clock::span s(r.clk, "results.format");
        build_records(r.records, e, dq, ch.text, ch.chrom_index, ch.start, plen);
      }
      add_delta(r.pm, pipe.metrics(), before);
      r.loci += ch.loci.size();
    }
    {
      layer_clock::span s(r.clk, "results.merge");
      cof::sort_and_dedup(r.records);
    }
    if (demux) {
      layer_clock::span s(r.clk, "serve.demux");
      std::vector<std::vector<ot_record>> per_request(qs.size());
      for (const auto& rec : r.records) {
        ot_record copy = rec;
        copy.query_index = 0;
        per_request[rec.query_index].push_back(std::move(copy));
      }
    }
  }
  r.wall_ms = sw.seconds() * 1e3;
  return r;
}

double layer_median(const std::vector<replay>& rs, const std::string& layer) {
  std::vector<double> v;
  for (const auto& r : rs) v.push_back(r.clk.self_ms(layer));
  return median(v);
}

/// Per-layer metrics every replaying workload reports the same way.
void report_replays(run_report& rep, const std::vector<replay>& rs,
                    double untraced_p50_ms) {
  const replay& last = rs.back();  // counts repeat exactly across replays
  auto& m = rep.metrics;
  m["pipeline.setup_ms"] = layer_median(rs, "pipeline.create");
  m["pipeline.h2d_ms"] = layer_median(rs, "pipeline.h2d");
  m["pipeline.h2d_mb"] = static_cast<double>(last.pm.h2d_bytes) / 1e6;
  const double comparer_ms = layer_median(rs, "pipeline.comparer");
  m["pipeline.comparer_ms"] = comparer_ms;
  m["pipeline.comparer_entries"] = static_cast<double>(last.pm.total_entries);
  m["pipeline.comparer_launches"] = static_cast<double>(last.pm.comparer_launches);
  if (last.loci != 0) {
    m["pipeline.comparer_ns_per_locus_guide"] =
        comparer_ms * 1e6 / static_cast<double>(last.loci * last.guides);
  }
  m["pipeline.fetch_ms"] = layer_median(rs, "pipeline.fetch");
  m["pipeline.d2h_mb"] = static_cast<double>(last.pm.d2h_bytes) / 1e6;
  m["pipeline.kernel_ms"] = static_cast<double>(last.pm.kernel_nanos) / 1e6;
  m["results.format_ms"] = layer_median(rs, "results.format");
  m["results.records"] = static_cast<double>(last.records.size());
  m["results.merge_ms"] = layer_median(rs, "results.merge");
  const double finder_ms = m["pipeline.finder_ms"];
  std::vector<double> wall, layers;
  for (const auto& r : rs) {
    wall.push_back(r.wall_ms);
    layers.push_back(r.layers_ms());
  }
  m["trace.overhead"] = median(wall) / untraced_p50_ms;
  m["trace.unaccounted_ms"] = layer_median(rs, "op");
  rep.notes["replays"] = static_cast<double>(rs.size());
  rep.notes["replay_wall_ms"] = median(wall);
  rep.notes["replay_layers_ms"] = median(layers);
  rep.notes["untraced_p50_ms"] = untraced_p50_ms;
  // The paper's §IV.B hotspot split, over the kernels on this operation's
  // path (the finder is off the timed path of the index workloads).
  const bool finder_on_path = layer_median(rs, "pipeline.finder") > 0;
  const double f = finder_on_path ? finder_ms : 0.0;
  if (f + comparer_ms > 0) {
    m["hotspot.finder_share"] = f / (f + comparer_ms);
    m["hotspot.comparer_share"] = comparer_ms / (f + comparer_ms);
  }
}

class workload {
 public:
  workload(const inputs& in, const run_options& opt) : in_(in), opt_(opt) {}

  run_report run() {
    if (opt_.workload == "cold_scan") {
      cold_scan();
    } else {
      index_workload(opt_.workload == "serve_evict");
    }
    rep_.attempted = gate_.attempted();
    rep_.failed = gate_.failed();
    return rep_;
  }

 private:
  // ---- end-to-end reporting ------------------------------------------
  void report_end_to_end(const std::vector<double>& setup_s,
                         const std::vector<double>& op_ms, double guides,
                         double loop_s) {
    auto& m = rep_.metrics;
    m["setup_s"] = median(setup_s);
    m["p50_ms"] = median(op_ms);
    const tail_stat t = tail(op_ms);
    m["tail_ms"] = t.value;
    m["mbp_guides_per_s"] = static_cast<double>(in_.bases) / 1e6 * guides / loop_s;
    m["peak_rss_mb"] = peak_rss_mb();
    rep_.notes["tail_pct"] = t.pct;
    rep_.notes["ops"] = static_cast<double>(op_ms.size());
    rep_.notes["loop_s"] = loop_s;
  }

  // ---- cold_scan ---------------------------------------------------------
  void cold_scan() {
    const auto ids = in_.cold_ids();
    cof::search_config cfg;
    cfg.pattern = kPattern;
    cfg.queries = in_.queries(ids);
    const auto want = in_.expected_for(ids);
    const engine_options eo = engine();
    // One streamed search; returns its wall time (ms) and outcome. The
    // oracle comparison runs after the clock stops.
    auto scan = [&](cof::streamed_outcome& out) {
      util::stopwatch sw;
      try {
        out = cof::run_search_streaming(cfg, in_.fasta, eo);
      } catch (const std::exception& e) {
        gate_.fail(e.what());
        return sw.seconds() * 1e3;
      }
      const double ms = sw.seconds() * 1e3;
      gate_.check(out.records, want);
      return ms;
    };
    cof::streamed_outcome out;
    if (!opt_.trace) {
      // Set-up: untimed scans; the first also pays lazy device and pool
      // initialisation.
      std::vector<double> setup_s;
      for (usize i = 0; i < kSetupReps; ++i) {
        if (i + 1 == kSetupReps) restart_peak_rss();
        setup_s.push_back(scan(out) / 1e3);
      }
      std::vector<double> op_ms;
      double loop_s = 0;
      while (loop_s < opt_.seconds) {
        op_ms.push_back(scan(out));
        loop_s += op_ms.back() / 1e3;
      }
      report_end_to_end(setup_s, op_ms,
                        static_cast<double>(op_ms.size() * cfg.queries.size()), loop_s);
      return;
    }

    scan(out);  // set-up
    util::stopwatch total;
    std::vector<double> op_ms, queue_wait, depth, spill_runs;
    const double cpu0 = cpu_seconds();
    while (op_ms.size() < kMinOps || total.seconds() < opt_.seconds / 2) {
      op_ms.push_back(scan(out));
      queue_wait.push_back(out.stage_times.queue_wait_s * 1e3);
      depth.push_back(static_cast<double>(out.peak_queue_depth));
      spill_runs.push_back(static_cast<double>(out.spill_runs));
    }
    auto& m = rep_.metrics;
    m["process.cpu_ms_per_op"] =
        (cpu_seconds() - cpu0) * 1e3 / static_cast<double>(op_ms.size());
    m["stream.queue_wait_ms"] = median(queue_wait);
    m["stream.peak_queue_depth"] = median(depth);
    m["results.spill_runs"] = median(spill_runs);

    const std::string spill = opt_.work_dir + "/replay.run";
    std::vector<replay> rs;
    while (rs.empty() || total.seconds() < opt_.seconds) {
      rs.push_back(replay_scan(cfg.queries, in_.fasta, eo, spill));
      gate_.check(rs.back().records, want);
    }
    const double p50 = median(op_ms);
    m["pipeline.finder_ms"] = layer_median(rs, "pipeline.finder");
    m["pipeline.finder_loci"] = static_cast<double>(rs.back().loci);
    m["genome.decode_ms"] = layer_median(rs, "genome.decode");
    m["genome.decode_mbp_per_s"] = static_cast<double>(rs.back().decoded_bases) /
                                   1e6 / (m["genome.decode_ms"] / 1e3);
    m["results.spill_ms"] = layer_median(rs, "results.spill");
    report_replays(rep_, rs, p50);
    std::vector<double> layers;
    for (const auto& r : rs) layers.push_back(r.layers_ms());
    m["stream.overlap"] = median(layers) / p50;
  }

  // ---- warm_query / serve_evict ------------------------------------------
  struct built_index {
    std::unique_ptr<genome_index> idx;
    double build_s = 0, save_s = 0, load_s = 0;
    double file_mb = 0;
  };

  /// The index half of set-up: load the FASTA, build_index, save_index,
  /// load_index — the CLI's --build-index then --index.
  built_index prepare_index(const engine_options& eo) {
    built_index b;
    const std::string path = opt_.work_dir + "/genome.cofidx";
    {
      const genome::genome_t g = genome::load_genome(in_.fasta);
      util::stopwatch sw;
      const genome_index built = cof::build_index(g, kPattern, eo);
      b.build_s = sw.seconds();
      sw.reset();
      cof::save_index(path, built);
      b.save_s = sw.seconds();
    }
    util::stopwatch sw;
    b.idx = std::make_unique<genome_index>(cof::load_index(path));
    b.load_s = sw.seconds();
    b.file_mb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
    std::filesystem::remove(path);
    return b;
  }

  void index_workload(bool serving) {
    const engine_options eo = engine();
    std::vector<std::vector<query_spec>> sets;
    std::vector<std::vector<ot_record>> wants;
    for (usize k = 0; k < kPoolSets; ++k) {
      sets.push_back(in_.queries(in_.set_ids(k)));
      wants.push_back(in_.expected_for(in_.set_ids(k)));
    }

    built_index b;
    std::unique_ptr<cof::index_query_session> session;
    std::unique_ptr<cof::serve::server> server;
    // Set-up: index, then the session (warm_query) or the server with a
    // budget of a third of the full-residency footprint (serve_evict), and
    // the first operation.
    // `last`: peak_rss_mb starts counting here.
    auto setup = [&](bool last) {
      server.reset();
      session.reset();
      b.idx.reset();
      if (last) restart_peak_rss();
      util::stopwatch sw;
      b = prepare_index(eo);
      if (!serving) {
        session = std::make_unique<cof::index_query_session>(*b.idx, eo);
        query(*session, sets[0], wants[0]);
        return sw.seconds();
      }
      usize footprint = 0;
      {
        engine_options full = eo;
        full.resident_bytes = 0;  // unbounded: measure the footprint
        cof::index_query_session probe(*b.idx, full);
        query(probe, sets[0], wants[0]);
        footprint = probe.resident_bytes();
      }
      cof::serve::server_options so;
      so.engine = eo;
      so.engine.resident_bytes = std::max<usize>(1, footprint / kBudgetShare);
      // One batch per round of the closed-loop clients: launch as soon as
      // all of them are in, and wait up to 5 ms for a client whose wake-up
      // a busy host delayed, instead of splitting the round.
      so.max_batch = kServeClients;
      so.batch_window_us = 5000;
      so.postmortem_dir = opt_.work_dir;
      server = std::make_unique<cof::serve::server>(*b.idx, so);
      const usize g0 = in_.pool_id(0);
      submit(*server, g0);
      return sw.seconds();
    };

    if (!opt_.trace) {
      std::vector<double> setup_s;
      for (usize i = 0; i < kSetupReps; ++i) setup_s.push_back(setup(i + 1 == kSetupReps));
      loop_result lr = serving ? serve_loop(*server, opt_.seconds)
                               : query_loop(*session, sets, wants, opt_.seconds);
      report_end_to_end(setup_s, lr.op_ms, lr.guides, lr.loop_s);
      return;
    }

    // Traced run: set-up once with its phases timed and the build's finder
    // replayed per chunk, then untraced operations for half of the seconds
    // and replays for the other half.
    setup(true);
    auto& m = rep_.metrics;
    m["index.build_s"] = b.build_s;
    m["index.save_s"] = b.save_s;
    m["index.load_s"] = b.load_s;
    m["index.file_mb"] = b.file_mb;
    replay_build(eo);

    const cof::index_query_session& live = serving ? server->session() : *session;
    const u64 hits0 = live.chunk_hits(), misses0 = live.chunk_misses(),
              evict0 = live.chunk_evictions();
    const cof::serve::server_stats st0 = serving ? server->stats() : cof::serve::server_stats{};
    const double cpu0 = cpu_seconds();
    loop_result lr = serving ? serve_loop(*server, opt_.seconds / 2)
                             : query_loop(*session, sets, wants, opt_.seconds / 2);
    const double ops = static_cast<double>(lr.op_ms.size());
    m["process.cpu_ms_per_op"] = (cpu_seconds() - cpu0) * 1e3 / ops;
    const double hits = static_cast<double>(live.chunk_hits() - hits0);
    const double misses = static_cast<double>(live.chunk_misses() - misses0);
    m["index.hit_ratio"] = hits / std::max(1.0, hits + misses);
    m["index.uploads"] = misses / ops;
    m["index.evictions"] = static_cast<double>(live.chunk_evictions() - evict0) / ops;
    m["index.resident_mb"] = static_cast<double>(live.resident_bytes()) / 1e6;

    usize batch = 1;
    resident_set rs;
    rs.capacity = b.idx->chunks.size();
    if (serving) {
      const cof::serve::server_stats st1 = server->stats();
      const double batches = static_cast<double>(st1.batches - st0.batches);
      m["serve.batches"] = batches;
      m["serve.rejected"] = static_cast<double>(st1.rejected);
      m["serve.batch_size"] = static_cast<double>(st1.served - st0.served) /
                              std::max(1.0, batches);
      batch = std::clamp<usize>(static_cast<usize>(m["serve.batch_size"] + 0.5), 1,
                                kServeClients);
      m["serve.queue_ms"] = median(lr.queue_ms);
      m["serve.batch_wait_ms"] = median(lr.batch_wait_ms);
      m["serve.device_ms"] = median(lr.device_ms);
      rep_.notes["serve.envelope_demux_ms"] = median(lr.demux_ms);
      rs.capacity = std::max<usize>(1, rs.capacity / kBudgetShare);
    }

    std::vector<replay> rps;
    // warm_query's first replay fills residency, as the set-up's first
    // query does for the session: it is not a warm operation.
    bool warming = !serving;
    const auto streams = client_guides();
    util::stopwatch replaying;
    for (usize j = 0; warming || rps.size() < 2 || replaying.seconds() < opt_.seconds / 2;
         ++j) {
      std::vector<usize> ids = in_.set_ids(j % kPoolSets);
      if (serving) {
        ids.clear();
        for (usize c = 0; c < batch; ++c) ids.push_back(streams[c][j % streams[c].size()]);
      }
      replay r = replay_query(*b.idx, in_.queries(ids), rs, eo, serving);
      gate_.check(r.records, in_.expected_for(ids));
      if (!warming) rps.push_back(std::move(r));
      warming = false;
    }
    if (serving) m["serve.demux_ms"] = layer_median(rps, "serve.demux");
    m["index.evict_ms"] = layer_median(rps, "index.evict");
    report_replays(rep_, rps, median(lr.op_ms));
  }

  /// The build's finder, replayed per chunk through the public pipeline
  /// (load_chunk → run_finder), as build_index runs it: the finder is
  /// set-up work on the index workloads.
  void replay_build(const engine_options& eo) {
    const genome::genome_t g = genome::load_genome(in_.fasta);
    const cof::device_pattern pat = cof::make_pattern(kPattern);
    layer_clock clk;
    u64 loci = 0;
    auto pipe = make_pipeline(eo);
    for (const auto& c : genome::make_chunks(g, eo.max_chunk, pat.plen - 1)) {
      {
        layer_clock::span s(clk, "pipeline.h2d");
        pipe->load_chunk(genome::chunk_view(g, c));
      }
      layer_clock::span s(clk, "pipeline.finder");
      loci += pipe->run_finder(pat);
    }
    rep_.metrics["pipeline.finder_ms"] = clk.self_ms("pipeline.finder");
    rep_.metrics["pipeline.finder_loci"] = static_cast<double>(loci);
  }

  void query(cof::index_query_session& s, const std::vector<query_spec>& qs,
             const std::vector<ot_record>& want) {
    try {
      gate_.check(s.query(qs).records, want);
    } catch (const std::exception& e) {
      gate_.fail(e.what());
    }
  }

  void submit(cof::serve::server& srv, usize gi) {
    const auto& q = in_.guides[gi].q;
    try {
      gate_.check(srv.submit(q.seq, q.max_mismatches).get().records, in_.expected[gi]);
    } catch (const std::exception& e) {
      gate_.fail(e.what());
    }
  }

  struct loop_result {
    std::vector<double> op_ms;
    double guides = 0;
    double loop_s = 0;
    std::vector<double> queue_ms, batch_wait_ms, device_ms, demux_ms;
  };

  /// One caller, closed loop: query() with the pool's 8-guide sets in turn.
  loop_result query_loop(cof::index_query_session& s,
                         const std::vector<std::vector<query_spec>>& sets,
                         const std::vector<std::vector<ot_record>>& wants,
                         double seconds) {
    loop_result lr;
    for (usize k = 1; lr.op_ms.empty() || lr.loop_s < seconds; ++k) {
      const usize set = k % sets.size();
      util::stopwatch sw;
      std::vector<ot_record> got;
      bool ok = true;
      try {
        got = s.query(sets[set]).records;
      } catch (const std::exception& e) {
        gate_.fail(e.what());
        ok = false;
      }
      lr.op_ms.push_back(sw.seconds() * 1e3);
      lr.loop_s += lr.op_ms.back() / 1e3;
      lr.guides += static_cast<double>(sets[set].size());
      if (ok) gate_.check(got, wants[set]);
    }
    return lr;
  }

  /// The guides each serve client cycles through: client 0 the repeat
  /// guides, clients 1 and 2 the planted ones, client 3 the unique ones.
  /// A coalesced batch of one request per client then always has the cold
  /// set's mix (1 repeat, 2 planted, 1 unique), so batch cost does not
  /// swing with which guides happen to meet.
  std::vector<std::vector<usize>> client_guides() const {
    std::vector<std::vector<usize>> streams(kServeClients);
    usize planted = 0;
    for (usize j = 0; j < kPoolGuides; ++j) {
      const usize gi = in_.pool_id(j);
      const std::string& kind = in_.guides[gi].kind;
      const usize c = kind == "repeat" ? 0 : kind == "planted" ? 1 + planted++ % 2 : 3;
      streams[c].push_back(gi);
    }
    return streams;
  }

  /// kServeClients closed-loop clients, each with one request in flight
  /// (pool guides in turn, from staggered offsets) until `seconds` pass. A
  /// client sends its next request as soon as the previous one returns and
  /// checks the returned records while the next is in flight, so the check
  /// never delays its admission into the next coalesced batch.
  loop_result serve_loop(cof::serve::server& srv, double seconds) {
    struct client_log {
      std::vector<double> op_ms;
      std::vector<cof::serve::request_timing> timing;
    };
    struct request {
      usize gi = 0;
      util::stopwatch sw;
      std::future<cof::serve::request_result> fut;
    };
    std::vector<client_log> logs(kServeClients);
    const auto streams = client_guides();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    auto send = [&](usize c, usize j) {
      request r;
      r.gi = streams[c][j % streams[c].size()];
      const auto& q = in_.guides[r.gi].q;
      r.sw.reset();
      r.fut = srv.submit(q.seq, q.max_mismatches);
      return r;
    };
    util::stopwatch wall;
    std::vector<std::thread> clients;
    for (usize c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        usize j = 0;
        try {
          request cur = send(c, j++);
          for (;;) {
            cof::serve::request_result res;
            bool ok = true;
            try {
              res = cur.fut.get();
            } catch (const std::exception& e) {
              gate_.fail(e.what());
              ok = false;
            }
            logs[c].op_ms.push_back(cur.sw.seconds() * 1e3);
            if (ok) logs[c].timing.push_back(res.timing);
            const usize gi = cur.gi;
            const bool more = std::chrono::steady_clock::now() < deadline;
            if (more) cur = send(c, j++);
            if (ok) gate_.check(res.records, in_.expected[gi]);
            if (!more) break;
          }
        } catch (const std::exception& e) {  // submit() refused
          gate_.fail(e.what());
        }
      });
    }
    for (auto& t : clients) t.join();
    loop_result lr;
    lr.loop_s = wall.seconds();
    for (const auto& l : logs) {
      lr.op_ms.insert(lr.op_ms.end(), l.op_ms.begin(), l.op_ms.end());
      for (const auto& t : l.timing) {
        lr.queue_ms.push_back(static_cast<double>(t.queue_us) / 1e3);
        lr.batch_wait_ms.push_back(static_cast<double>(t.batch_wait_us) / 1e3);
        lr.device_ms.push_back(static_cast<double>(t.device_us) / 1e3);
        lr.demux_ms.push_back(static_cast<double>(t.demux_us) / 1e3);
      }
    }
    lr.guides = static_cast<double>(lr.op_ms.size());
    return lr;
  }

  const inputs& in_;
  const run_options& opt_;
  gate gate_;
  run_report rep_;
};

}  // namespace

const std::vector<metric_spec>& metric_table(bool trace) {
  return trace ? kPerLayer : kEndToEnd;
}

bool is_workload(const std::string& name) {
  return name == "cold_scan" || name == "warm_query" || name == "serve_evict";
}

run_report run(const inputs& in, const run_options& opt) {
  return workload(in, opt).run();
}

}  // namespace e2e
