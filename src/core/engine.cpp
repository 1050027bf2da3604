#include "core/engine.hpp"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "core/index.hpp"
#include "genome/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace cof {

const char* backend_name(backend_kind k) {
  switch (k) {
    case backend_kind::serial: return "serial";
    case backend_kind::opencl: return "opencl";
    case backend_kind::sycl: return "sycl";
    case backend_kind::sycl_usm: return "sycl-usm";
  }
  return "?";
}

std::unique_ptr<device_pipeline> make_pipeline(const engine_options& opt,
                                               usize max_entries) {
  pipeline_options popt;
  popt.variant = opt.variant;
  popt.wg_size = opt.wg_size;
  popt.counting = opt.counting;
  popt.profiler = opt.profiler;
  popt.max_entries = max_entries;
  switch (opt.backend) {
    case backend_kind::opencl: return make_opencl_pipeline(popt);
    case backend_kind::sycl_usm: return make_sycl_usm_pipeline(popt);
    default: return make_sycl_pipeline(popt);
  }
}

void write_run_obs(const engine_options& opt) {
  if (!obs::enabled()) return;
  if (opt.profiler != nullptr) obs::fold_profiler(*opt.profiler);
  if (!opt.trace_out.empty()) obs::write_trace(opt.trace_out);
  if (!opt.metrics_json.empty()) {
    obs::metrics_registry::global().write_json(opt.metrics_json);
  }
}

genome::genome_t load_configured_genome(const search_config& cfg) {
  if (auto synth = genome::load_synth_uri(cfg.genome_path)) return std::move(*synth);
  return genome::load_genome(cfg.genome_path);
}

search_outcome run_search(const search_config& cfg, const genome::genome_t& g,
                          const engine_options& opt) {
  // Per-run observability lifetime (same contract as the streaming engine).
  obs::run_scope obs_guard(!opt.trace_out.empty() || !opt.metrics_json.empty());
  // Fault plan: COF_FAULT plus opt.faults, armed for this run only.
  fault::scope fault_guard(opt.faults);
  util::stopwatch sw;
  search_outcome out;

  // Index/query split: answer the queries against a prebuilt (or cached)
  // genome index with comparer-only launches instead of re-running the
  // finder over every chunk.
  if (opt.index != nullptr || !opt.index_path.empty()) {
    COF_CHECK_MSG(opt.backend != backend_kind::serial,
                  "index queries drive a device pipeline (pick O, G, S or U)");
    genome_index owned;
    const genome_index* idx = opt.index;
    bool cache_hit = idx != nullptr;  // prebuilt in memory counts as warm
    if (idx == nullptr) {
      if (std::filesystem::exists(opt.index_path)) {
        owned = load_index(opt.index_path);
        cache_hit = true;
      } else {
        owned = build_index(g, cfg.pattern, opt);
        save_index(opt.index_path, owned);
      }
      idx = &owned;
    }
    if (obs::enabled()) {
      obs::metrics_registry::global()
          .counter(cache_hit ? "index.cache.hit" : "index.cache.miss")
          .add(1);
    }
    check_index_compatible(*idx, cfg);
    // The genome is in memory here, so a stale or foreign index (names,
    // size or content differing from `g`) is rejected instead of silently
    // answering for the wrong genome.
    check_index_matches_genome(*idx, g);
    index_query_session session(*idx, opt);
    out = session.query(cfg.queries);
    out.metrics.elapsed_seconds = sw.seconds();
    write_run_obs(opt);
    return out;
  }

  if (opt.backend == backend_kind::serial) {
    out.records = serial_search(cfg.pattern, cfg.queries, g);
    out.metrics.elapsed_seconds = sw.seconds();
    return out;
  }

  const device_pattern pat = make_pattern(cfg.pattern);
  std::vector<device_pattern> dev_queries;
  dev_queries.reserve(cfg.queries.size());
  for (const auto& q : cfg.queries) dev_queries.push_back(make_query(q.seq));

  std::vector<u16> thresholds;
  for (const auto& q : cfg.queries) thresholds.push_back(q.max_mismatches);

  const usize overlap = pat.plen > 0 ? pat.plen - 1 : 0;
  const auto chunks = genome::make_chunks(g, opt.max_chunk, overlap);
  out.metrics.chunks = chunks.size();

  // One worker per queue (the multi-device extension; single queue is the
  // paper's configuration): each owns a pipeline and pulls chunks from the
  // shared index; records merge under a lock and are canonicalised below.
  std::atomic<usize> next_chunk{0};
  std::mutex merge_mu;
  auto worker = [&] {
    auto pipe = make_pipeline(opt, opt.max_entries);
    std::vector<ot_record> local_records;
    for (;;) {
      const usize ci = next_chunk.fetch_add(1);
      if (ci >= chunks.size()) break;
      const auto& ch = chunks[ci];
      const std::string_view seq = genome::chunk_view(g, ch);
      pipe->load_chunk(seq);
      const u32 hits = pipe->run_finder(pat);
      LOG_DEBUG("chunk %s@%zu+%zu: %u PAM hits",
                g.chroms[ch.chrom_index].name.c_str(), ch.offset, ch.length, hits);
      if (hits == 0) continue;
      auto emit = [&](const device_pipeline::entries& entries, usize e, u32 qi) {
        const util::u64 pos = ch.offset + entries.loci[e];
        const std::string_view slice(g.chroms[ch.chrom_index].seq.data() + pos,
                                     pat.plen);
        local_records.push_back(ot_record{
            qi, static_cast<u32>(ch.chrom_index), pos, entries.dir[e],
            entries.mm[e],
            make_site_string(dev_queries[qi].seq, slice, entries.dir[e])});
      };
      if (opt.batch_queries) {
        const auto entries = pipe->run_comparer_batch(dev_queries, thresholds);
        for (usize e = 0; e < entries.size(); ++e) emit(entries, e, entries.qidx[e]);
      } else {
        for (u32 qi = 0; qi < cfg.queries.size(); ++qi) {
          const auto entries =
              pipe->run_comparer(dev_queries[qi], cfg.queries[qi].max_mismatches);
          for (usize e = 0; e < entries.size(); ++e) emit(entries, e, qi);
        }
      }
    }
    std::lock_guard lock(merge_mu);
    out.records.insert(out.records.end(), local_records.begin(),
                       local_records.end());
    out.metrics.per_queue.push_back(pipe->metrics());
    out.metrics.pipeline += pipe->metrics();
  };

  // Device/entry-capacity failures surface as exceptions here; the batch
  // engine has no per-chunk recovery (that is the streaming engine's job),
  // so they keep their historical behaviour: a fatal report. An exception
  // escaping a std::thread would call std::terminate without the message.
  auto guarded = [&] {
    try {
      worker();
    } catch (const std::exception& e) {
      util::die(e.what());
    }
  };

  // Profiling serialises the queues (the process-global event counters are
  // reset/snapshot around each launch, as a profiler would).
  usize queues =
      std::max<usize>(1, std::min(opt.num_queues, std::max<usize>(1, chunks.size())));
  if (opt.counting) queues = 1;
  if (queues <= 1) {
    guarded();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(queues);
    for (usize t = 0; t < queues; ++t) threads.emplace_back(guarded);
    for (auto& t : threads) t.join();
  }

  // Sites inside chunk overlaps were scanned twice (and workers merge in
  // nondeterministic order); canonical order + dedup.
  sort_and_dedup(out.records);

  out.metrics.elapsed_seconds = sw.seconds();
  write_run_obs(opt);
  return out;
}

}  // namespace cof
