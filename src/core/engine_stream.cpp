#include "core/engine_stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "core/index.hpp"
#include "core/recovery.hpp"
#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

// ---------------------------------------------------------------------------
// chunk_source: pull-based FASTA decode. Reproduces the in-memory chunker
// (genome::make_chunks) exactly — one chrom event per record (even empty ones), chunks of
// up to max_chunk bases, and a plen-1 overlap carried across chunk
// boundaries so straddling sites are re-scanned. A record whose length lands
// exactly on a chunk boundary ends at that boundary: the carried overlap
// alone never forms a trailing chunk (its bases were already scanned as the
// tail of the previous chunk). Single reader: the engine's producer thread
// is the only caller.
// ---------------------------------------------------------------------------
class chunk_source {
 public:
  struct event {
    enum kind_t { chrom, chunk, end };
    kind_t kind = end;
    std::string name;   // chrom
    std::string text;   // chunk
    util::u64 start = 0;  // chunk: chromosome offset of text[0]
  };

  chunk_source(const std::string& path, usize max_chunk, usize overlap)
      : files_(genome::fasta_files_at(path)),
        max_chunk_(max_chunk),
        overlap_(overlap) {}

  util::u64 streamed_bases() const { return streamed_bases_; }

  event next() {
    for (;;) {
      if (!stream_) {
        if (file_idx_ >= files_.size()) return {};
        stream_.emplace(files_[file_idx_++]);
      }
      if (!in_record_) {
        if (!stream_->next_record()) {
          stream_.reset();
          continue;
        }
        in_record_ = true;
        carry_.clear();
        next_start_ = 0;
        event ev;
        ev.kind = event::chrom;
        ev.name = stream_->record_name();
        return ev;
      }
      std::string buf = std::move(carry_);
      carry_.clear();
      const usize carried = buf.size();
      const usize got = stream_->read_bases(buf, max_chunk_ - buf.size());
      streamed_bases_ += got;
      if (got == 0) {
        // EOF with nothing new: either an empty record, or the record ended
        // exactly on the previous chunk boundary. Any carried overlap was
        // already scanned as the tail of that chunk — emitting it again
        // would be a redundant carry-only chunk.
        in_record_ = false;
        continue;
      }
      COF_CHECK_MSG(buf.size() > carried,
                    "chunk must extend past the carried overlap");
      const bool record_done = buf.size() < max_chunk_;
      event ev;
      ev.kind = event::chunk;
      ev.start = next_start_;
      if (record_done) {
        in_record_ = false;
      } else {
        next_start_ += buf.size() - overlap_;
        carry_.assign(buf.data() + buf.size() - overlap_, overlap_);
      }
      ev.text = std::move(buf);
      return ev;
    }
  }

 private:
  std::vector<std::string> files_;
  usize file_idx_ = 0;
  std::optional<genome::fasta_stream> stream_;
  bool in_record_ = false;
  std::string carry_;
  util::u64 next_start_ = 0;
  util::u64 streamed_bases_ = 0;
  usize max_chunk_ = 0;
  usize overlap_ = 0;
};

std::string spill_path(usize queue_index) {
  static std::atomic<unsigned> serial{0};
  return (std::filesystem::temp_directory_path() /
          util::format("cof_spill_%ld_%u_q%zu.run", static_cast<long>(::getpid()),
                       serial.fetch_add(1), queue_index))
      .string();
}

// ---------------------------------------------------------------------------
// Streaming engine: one decode producer feeding num_queues device consumers
// over a bounded chunk queue.
//
//   decode (producer) -> bounded_queue -> device queue 0..N-1 -> spill files
//                                          |
//                                          +-> format+spill job (pool)
//
// The producer (the calling thread) decodes chunks from the FASTA stream
// and pushes them to the queue; backpressure (capacity num_queues + 2)
// bounds the decoded-but-unprocessed text to a fixed lookahead. Each
// consumer owns one pipeline: it runs finder + ONE batched comparer launch
// per chunk, then hands the entry batch to a pool job that formats records
// and spills them to the queue's own temp file as one sorted run. Format
// jobs are chained per queue (the next is submitted only after the previous
// finished), which (a) keeps the spill writer single-owner, (b) bounds
// live chunk texts to two per queue, and (c) preserves the two-deep
// decode/device/format overlap at num_queues == 1. After the consumers
// join, every queue's runs are k-way merged (with key dedup) into canonical
// order — identical output to sort_and_dedup over an in-memory record set,
// for any queue count.
//
// Failure model (core/recovery.hpp): a chunk whose max_entries-capped
// allocation overflows is retried with a grown capacity or split in half;
// transient device faults rebuild the queue's pipeline and retry;
// spill-write failures retry with backoff. Anything unrecoverable wins the
// first-failure race, closes the queues, and is rethrown after the join —
// spill files are removed on unwind, so a failed run never leaves partial
// output.
//
// Sharding (num_devices > 1): each device of the shard::device_set gets its
// own bounded queue and num_queues consumers; each consumer binds its
// thread to its device (xpu::scoped_device), so every buffer and kernel it
// touches lands on that device's pool/arena. The producer assigns chunks to
// devices through a shard_scheduler (round-robin or least-loaded). A
// consumer whose own queue runs dry steals from the deepest other device's
// queue (locality first, work conservation second). A consumer whose device
// exhausts its bounded retries marks it dead and migrates to a survivor,
// keeping the chunk in hand; its siblings follow on their next take, and a
// dead device's backlog drains through stealing. Only the producer ever
// pushes, so nothing pushes into a queue the producer has closed. When the
// last device dies, the original site-named error fails the run.
// ---------------------------------------------------------------------------
struct stream_chunk {
  std::string text;
  util::u64 start = 0;
  u32 chrom_index = 0;
};

/// A chunk awaiting (re-)processing on a queue's recovery work stack.
/// `overflowed` marks chunks that already hit an entry overflow, so a later
/// clean completion counts as a recovery (split halves inherit the mark).
struct work_item {
  stream_chunk ch;
  bool overflowed = false;
};

streamed_outcome run_streaming_scan(const search_config& cfg,
                                    const std::string& path,
                                    const engine_options& opt,
                                    util::stopwatch& sw,
                                    const record_sink& sink) {
  streamed_outcome out;
  util::thread_pool& pool = util::thread_pool::global();
  const recovery_policy policy(opt);

  const device_pattern pat = make_pattern(cfg.pattern);
  std::vector<device_pattern> dev_queries;
  std::vector<u16> thresholds;
  dev_queries.reserve(cfg.queries.size());
  thresholds.reserve(cfg.queries.size());
  for (const auto& q : cfg.queries) {
    dev_queries.push_back(make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }
  const usize overlap = pat.plen > 0 ? pat.plen - 1 : 0;
  COF_CHECK_MSG(opt.max_chunk > overlap, "max_chunk must exceed pattern length");

  // Profiling serialises the queues (the process-global event counters are
  // reset/snapshot around each launch, as a profiler would) and pins the
  // run to the single global device.
  usize queues = std::max<usize>(1, opt.num_queues);
  usize ndev = std::max<usize>(1, opt.num_devices);
  if (opt.counting) {
    queues = 1;
    ndev = 1;
  }

  // Stage accounting is always on (a few process_nanos() reads per chunk);
  // the span/counter probes additionally gate on obs::enabled(), cached
  // once here — run_scope has already set it for the whole run.
  const bool tracing = obs::enabled();
  obs::metrics_registry& reg = obs::metrics_registry::global();
  obs::counter_metric* m_chunks = tracing ? &reg.counter("stream.chunks") : nullptr;
  obs::gauge_metric* m_depth = tracing ? &reg.gauge("stream.queue_depth") : nullptr;
  obs::histogram_metric* m_decode = nullptr;
  obs::histogram_metric* m_push = nullptr;
  obs::histogram_metric* m_pop = nullptr;
  obs::histogram_metric* m_device = nullptr;
  obs::histogram_metric* m_format = nullptr;
  if (tracing) {
    const auto& bounds = obs::default_latency_bounds_us();
    m_decode = &reg.histogram("stream.decode_us", bounds);
    m_push = &reg.histogram("stream.push_wait_us", bounds);
    m_pop = &reg.histogram("stream.pop_wait_us", bounds);
    m_device = &reg.histogram("stream.device_us", bounds);
    m_format = &reg.histogram("stream.format_us", bounds);
  }
  const util::thread_pool::sched_stats pool0 = pool.stats();

  const auto queue_timeout =
      std::chrono::milliseconds(std::max<usize>(1, opt.queue_timeout_ms));

  // The device set must outlive the pipelines (their buffers free against
  // their device) — declared before the queue states.
  shard::device_set devs(ndev);
  shard::shard_scheduler sched(opt.shard, devs);

  struct queue_state {
    std::unique_ptr<device_pipeline> pipe;  // null until built (or retired)
    std::unique_ptr<record_spill_writer> writer;
    /// Device this consumer is bound to: consumer i starts on i / queues
    /// and moves to a survivor when that device dies.
    usize device = 0;
    /// This queue's current entry cap. Grows when a chunk overflows and
    /// stays grown (sticky), so a dense region pays the rebuild once.
    usize cur_max_entries = 0;
    /// Metrics accumulated by pipelines retired in recovery rebuilds.
    pipeline_metrics retired;
    u64 wait_ns = 0;    // blocked on pop + on the previous format job
    u64 device_ns = 0;  // H2D + finder + comparer batch + fetch
    u64 format_ns = 0;  // written by the chained format jobs; the job
                        // chain (wait() before submit) orders the writes
  };
  std::vector<queue_state> qs(ndev * queues);
  for (usize i = 0; i < qs.size(); ++i) {
    qs[i].device = i / queues;
    qs[i].cur_max_entries = opt.max_entries;
    qs[i].writer = std::make_unique<record_spill_writer>(spill_path(i));
    // Pipelines are built inside the consumer thread, under its device
    // binding, so every buffer lands on the consumer's own device.
  }

  // One bounded queue per device; the shard scheduler routes chunks, and a
  // dry consumer steals from the deepest other queue.
  std::vector<std::unique_ptr<util::bounded_queue<stream_chunk>>> dev_queues;
  dev_queues.reserve(ndev);
  for (usize d = 0; d < ndev; ++d) {
    dev_queues.push_back(
        std::make_unique<util::bounded_queue<stream_chunk>>(queues + 2));
  }
  // Per-device accounting, charged to the device that took the chunk.
  struct device_tally {
    std::atomic<usize> inflight{0};  // taken, not yet finished (least-loaded)
    std::atomic<usize> chunks{0};
    std::atomic<usize> steals{0};    // taken from another device's queue
  };
  std::vector<device_tally> tally(ndev);
  // Per-device load snapshot for the least-loaded policy: queued + taken
  // but unfinished.
  auto load_snapshot = [&] {
    std::vector<usize> loads(ndev);
    for (usize d = 0; d < ndev; ++d) {
      loads[d] = dev_queues[d]->size() +
                 tally[d].inflight.load(std::memory_order_relaxed);
    }
    return loads;
  };

  // First failure wins: it closes every chunk queue so all threads unwind,
  // and is rethrown once the workers have joined. The rethrow unwinds this
  // frame, destroying the spill writers — which remove their files — so a
  // failed run never leaves partial output behind.
  std::mutex fail_mu;
  std::exception_ptr failure;
  std::atomic<bool> failed{false};
  auto record_failure = [&](std::exception_ptr ep) {
    std::lock_guard lock(fail_mu);
    if (failure == nullptr) {
      failure = std::move(ep);
      failed.store(true, std::memory_order_release);
      for (auto& q : dev_queues) q->close();
    }
  };

  std::atomic<u64> overflow_retries{0};
  std::atomic<u64> chunk_splits{0};
  std::atomic<u64> recovered_overflows{0};
  std::atomic<u64> spill_retries{0};
  std::atomic<u64> shard_migrations{0};

  // Drop a queue's pipeline, folding its accounting into the retired bucket;
  // the next attempt builds a fresh one at the current cap and device.
  auto retire = [](queue_state& st) {
    if (st.pipe == nullptr) return;
    st.retired += st.pipe->metrics();
    st.pipe.reset();
  };

  // Move a consumer off its dead device (see recovery_policy::migrate).
  auto migrate = [&](queue_state& st, std::optional<xpu::scoped_device>& bind) {
    retire(st);
    if (!recovery_policy::migrate(devs, st.device, bind)) return false;
    shard_migrations.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // Chunk take: own queue first (locality), then steal from the deepest
  // other device's queue (a dead device's backlog drains this way). Each
  // empty pass blocks on the own queue for one slice and counts toward
  // queue_timeout. Queues only close all together (end of input or run
  // failure), so a closed own queue ends the take after one steal pass.
  auto take = [&](queue_state& st, stream_chunk& ch, bool& stolen) {
    fault::inject_point(fault::site::queue_pop);
    const auto slice = std::min<std::chrono::nanoseconds>(
        queue_timeout, std::chrono::milliseconds(2));
    for (std::chrono::nanoseconds waited{0};; waited += slice) {
      if (failed.load(std::memory_order_acquire)) {
        return util::wait_status::closed;
      }
      if (waited >= queue_timeout) return util::wait_status::timeout;
      const util::wait_status own = dev_queues[st.device]->pop_for(ch, slice);
      if (own == util::wait_status::ready) {
        stolen = false;
        return own;
      }
      // Steal scan, deepest victim first (ties to the lower ordinal).
      std::vector<std::pair<usize, usize>> order;  // (depth, device)
      order.reserve(ndev - 1);
      for (usize d = 0; d < ndev; ++d) {
        if (d != st.device) order.emplace_back(dev_queues[d]->size(), d);
      }
      std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      for (const auto& [depth, d] : order) {
        if (dev_queues[d]->pop_for(ch, std::chrono::nanoseconds{0}) ==
            util::wait_status::ready) {
          stolen = true;
          return util::wait_status::ready;
        }
      }
      if (own == util::wait_status::closed) return own;
    }
  };

  auto consume = [&](queue_state& st, usize queue_index) {
    if (tracing) {
      obs::set_thread_name(util::format("stream.queue-%zu", queue_index));
    }
    // Bind this consumer — and every buffer/launch it performs — to its
    // device; the ordinal lets site@N fault specs target it. Re-bound when
    // the consumer migrates off a dead device.
    std::optional<xpu::scoped_device> bind;
    bind.emplace(devs.at(st.device), static_cast<int>(st.device));
    util::thread_pool::job format_job;
    try {
      stream_chunk ch;
      while (!failed.load(std::memory_order_acquire)) {
        // A sibling consumer marked this device dead: follow it off.
        if (!devs.alive(st.device) && !migrate(st, bind)) break;
        u64 t0 = util::process_nanos();
        util::wait_status got;
        bool stolen = false;
        {
          obs::span sp("queue.pop", "stream");
          got = take(st, ch, stolen);
        }
        const u64 pop_ns = util::process_nanos() - t0;
        st.wait_ns += pop_ns;
        if (m_pop != nullptr) m_pop->observe(pop_ns / 1000);
        if (m_depth != nullptr) {
          const util::i64 depth =
              static_cast<util::i64>(dev_queues[st.device]->size());
          m_depth->set(depth);
          obs::counter_track("queue.depth", static_cast<double>(depth));
        }
        if (got == util::wait_status::closed) break;
        if (got == util::wait_status::timeout) {
          if (failed.load(std::memory_order_acquire)) break;
          throw std::runtime_error(
              util::format("stream queue.pop stalled: no chunk arrived for "
                           "%zu ms", opt.queue_timeout_ms));
        }
        device_tally& took = tally[st.device];
        took.chunks.fetch_add(1, std::memory_order_relaxed);
        if (stolen) took.steals.fetch_add(1, std::memory_order_relaxed);
        took.inflight.fetch_add(1, std::memory_order_relaxed);
        if (m_chunks != nullptr) m_chunks->add(1);
        LOG_DEBUG("stream chunk@%llu: %zu bases",
                  static_cast<unsigned long long>(ch.start), ch.text.size());

        // Device phase with overflow/fault recovery: the work stack holds
        // the chunk — and, after a split, its halves — still to process.
        std::vector<work_item> work;
        work.push_back(work_item{std::move(ch), false});
        while (!work.empty()) {
          work_item item = std::move(work.back());
          work.pop_back();
          for (usize attempt = 0;;) {
            t0 = util::process_nanos();
            try {
              if (st.pipe == nullptr) {
                st.pipe = make_pipeline(opt, st.cur_max_entries);
              }
              st.pipe->load_chunk_async(item.ch.text).wait();
              const u32 hits = st.pipe->run_finder(pat);
              device_pipeline::entries entries;
              if (hits != 0) {
                // ONE batched launch for every query; the finder's loci/flag
                // arrays are consumed device-side, the entry download
                // deferred past launch.
                st.pipe->launch_comparer_batch(dev_queries, thresholds).wait();
                entries = st.pipe->fetch_entries();
              }
              const u64 device_ns = util::process_nanos() - t0;
              st.device_ns += device_ns;
              if (m_device != nullptr) m_device->observe(device_ns / 1000);
              if (item.overflowed) {
                recovered_overflows.fetch_add(1, std::memory_order_relaxed);
              }
              if (entries.size() != 0) {
                // Record formatting + spilling runs on the pool, off the
                // device critical path. Chained per queue: wait out the
                // previous job so the spill writer stays single-owner and
                // at most one batch (plus the chunk text it slices) is held
                // per queue.
                const u64 w0 = util::process_nanos();
                {
                  obs::span sp("format.wait", "stream");
                  format_job.wait();
                }
                st.wait_ns += util::process_nanos() - w0;
                format_job = pool.submit_job(
                    [text = std::move(item.ch.text), ent = std::move(entries),
                     chrom = item.ch.chrom_index, start = item.ch.start,
                     writer = st.writer.get(), &dev_queries, plen = pat.plen,
                     stp = &st, m_format, &spill_retries, &record_failure] {
                      // Pool jobs may not throw: a spill that keeps failing
                      // past its retries fails the run via record_failure.
                      try {
                        const u64 f0 = util::process_nanos();
                        obs::span sp("format", "stream");
                        sp.arg("entries", static_cast<double>(ent.size()));
                        std::vector<ot_record> batch;
                        batch.reserve(ent.size());
                        for (usize e = 0; e < ent.size(); ++e) {
                          const u32 qi = ent.qidx[e];
                          const std::string_view slice(text.data() + ent.loci[e],
                                                       plen);
                          batch.push_back(ot_record{
                              qi, chrom, start + ent.loci[e], ent.dir[e],
                              ent.mm[e],
                              make_site_string(dev_queries[qi].seq, slice,
                                               ent.dir[e])});
                        }
                        // A failed spill leaves the batch intact.
                        recovery_policy::spill([&] { writer->spill(batch); },
                                               spill_retries);
                        const u64 format_ns = util::process_nanos() - f0;
                        stp->format_ns += format_ns;
                        if (m_format != nullptr) {
                          m_format->observe(format_ns / 1000);
                        }
                      } catch (...) {
                        record_failure(std::current_exception());
                      }
                    });
              }
              break;  // chunk done
            } catch (const entry_overflow_error& e) {
              st.device_ns += util::process_nanos() - t0;
              // The left half of a split keeps the plen-1 overlap past the
              // cut so straddling sites stay covered; the duplicates the
              // overlap re-scan produces are dropped by the merge.
              const usize mid = item.ch.text.size() / 2;
              const auto step = policy.on_overflow(
                  e, attempt, item.ch.text.size(), dev_queries.size(),
                  mid > 0 && mid + overlap < item.ch.text.size(),
                  st.cur_max_entries);
              if (step == recovery_policy::overflow_step::fail) throw;
              item.overflowed = true;
              if (step == recovery_policy::overflow_step::split) {
                obs::span ssp("recover.split", "stream");
                ssp.arg("bases", static_cast<double>(item.ch.text.size()));
                chunk_splits.fetch_add(1, std::memory_order_relaxed);
                work_item right;
                right.overflowed = true;
                right.ch.text = item.ch.text.substr(mid);
                right.ch.start = item.ch.start + mid;
                right.ch.chrom_index = item.ch.chrom_index;
                item.ch.text.resize(mid + overlap);
                work.push_back(std::move(right));
                work.push_back(std::move(item));
                break;  // halves re-enter via the work stack
              }
              if (step == recovery_policy::overflow_step::grow) retire(st);
              overflow_retries.fetch_add(1, std::memory_order_relaxed);
              ++attempt;
            } catch (const fault::injected_error&) {
              // Transient device failure (dev.alloc / dev.launch /
              // pipe.event): fresh device state, bounded retries. Past the
              // bound the device is dead: migrate to a survivor with the
              // chunk in hand and a fresh budget; with none left the run
              // fails cleanly.
              st.device_ns += util::process_nanos() - t0;
              retire(st);
              if (recovery_policy::retry_device(attempt)) {
                ++attempt;
              } else if (migrate(st, bind)) {
                attempt = 0;
              } else {
                throw;
              }
            }
          }
        }
        took.inflight.fetch_sub(1, std::memory_order_relaxed);
      }
      {
        obs::span sp("format.wait", "stream");
        const u64 t0 = util::process_nanos();
        format_job.wait();
        st.wait_ns += util::process_nanos() - t0;
      }
      // finish() clears the stream state before throwing, so the final
      // flush gets the same bounded retry as the per-batch spills.
      recovery_policy::spill([&] { st.writer->finish(); }, spill_retries);
    } catch (...) {
      record_failure(std::current_exception());
      format_job.wait();  // the chained job must not outlive this frame
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(qs.size());
  for (usize i = 0; i < qs.size(); ++i) {
    workers.emplace_back(consume, std::ref(qs[i]), i);
  }

  // Producer: the only thread touching the FASTA stream and chrom_names,
  // and the only one that pushes.
  if (tracing) obs::set_thread_name("stream.producer");
  chunk_source source(path, opt.max_chunk, overlap);
  u64 decode_ns = 0, push_ns = 0;
  try {
    for (;;) {
      if (failed.load(std::memory_order_acquire)) break;
      u64 t0 = util::process_nanos();
      chunk_source::event ev;
      {
        obs::span sp("decode", "stream");
        ev = source.next();
        if (ev.kind == chunk_source::event::chunk) {
          sp.arg("bases", static_cast<double>(ev.text.size()));
        }
      }
      const u64 d_ns = util::process_nanos() - t0;
      decode_ns += d_ns;
      if (ev.kind == chunk_source::event::chrom) {
        out.chrom_names.push_back(std::move(ev.name));
        continue;
      }
      if (ev.kind == chunk_source::event::end) break;
      if (m_decode != nullptr) m_decode->observe(d_ns / 1000);
      out.peak_chunk_bytes = std::max(out.peak_chunk_bytes, ev.text.size());
      stream_chunk ch;
      ch.text = std::move(ev.text);
      ch.start = ev.start;
      ch.chrom_index = static_cast<u32>(out.chrom_names.size()) - 1;
      t0 = util::process_nanos();
      util::wait_status ws = util::wait_status::closed;
      usize target = 0;
      {
        obs::span sp("queue.push", "stream");
        fault::inject_point(fault::site::queue_push);
        if (ndev > 1) {
          fault::inject_point(fault::site::shard_assign);
          target = sched.assign(load_snapshot());
        }
        // No device alive: the consumer that killed the last one fails the
        // run. A device dying after assignment is harmless — its queue
        // stays open and the survivors drain it through stealing.
        if (target < ndev) ws = dev_queues[target]->push_for(ch, queue_timeout);
      }
      const u64 p_ns = util::process_nanos() - t0;
      push_ns += p_ns;
      if (m_push != nullptr) m_push->observe(p_ns / 1000);
      if (ws == util::wait_status::closed) break;  // a consumer failed
      if (ws == util::wait_status::timeout) {
        if (failed.load(std::memory_order_acquire)) break;
        throw std::runtime_error(
            util::format("stream queue.push stalled: no consumer took a "
                         "chunk for %zu ms", opt.queue_timeout_ms));
      }
      const usize depth = dev_queues[target]->size();
      out.peak_queue_depth = std::max(out.peak_queue_depth, depth);
      if (m_depth != nullptr) {
        m_depth->set(static_cast<util::i64>(depth));
        obs::counter_track("queue.depth", static_cast<double>(depth));
      }
    }
  } catch (...) {
    record_failure(std::current_exception());
  }
  for (auto& q : dev_queues) q->close();
  for (auto& t : workers) t.join();

  // Everything has joined; `failure` is stable. Rethrow before touching the
  // outputs — unwinding destroys the spill writers, removing their files.
  if (failure != nullptr) std::rethrow_exception(failure);

  out.stage_times.decode_s = static_cast<double>(decode_ns) / 1e9;
  out.stage_times.queue_wait_s = static_cast<double>(push_ns) / 1e9;

  out.device_shards.resize(ndev);
  for (usize d = 0; d < ndev; ++d) {
    auto& ds = out.device_shards[d];
    ds.name = devs.name(d);
    ds.failed = !devs.alive(d);
    ds.chunks = tally[d].chunks.load();
    ds.steals = tally[d].steals.load();
    out.metrics.chunks += ds.chunks;
    out.shard_steals += ds.steals;
  }
  std::vector<std::string> spill_paths;
  for (auto& st : qs) {
    out.peak_record_bytes += st.writer->peak_run_bytes();
    out.spill_runs += st.writer->runs();
    spill_paths.push_back(st.writer->path());
    retire(st);
    out.metrics.per_queue.push_back(st.retired);
    out.metrics.pipeline += st.retired;
    stream_stage_times qt;
    qt.queue_wait_s = static_cast<double>(st.wait_ns) / 1e9;
    qt.device_s = static_cast<double>(st.device_ns) / 1e9;
    qt.format_s = static_cast<double>(st.format_ns) / 1e9;
    out.queue_stages.push_back(qt);
    out.stage_times.queue_wait_s += qt.queue_wait_s;
    out.stage_times.device_s += qt.device_s;
    out.stage_times.format_s += qt.format_s;
    // A consumer that migrated counts on the device it finished on.
    auto& stages = out.device_shards[st.device].stages;
    stages.queue_wait_s += qt.queue_wait_s;
    stages.device_s += qt.device_s;
    stages.format_s += qt.format_s;
  }
  out.shard_migrations = shard_migrations.load();

  out.metrics.recovery.overflow_retries = overflow_retries.load();
  out.metrics.recovery.chunk_splits = chunk_splits.load();
  out.metrics.recovery.recovered_overflows = recovered_overflows.load();
  out.metrics.recovery.spill_retries = spill_retries.load();

  // Canonical-order merge with key dedup — byte-identical to sorting and
  // deduplicating the whole record set in memory, regardless of how the
  // chunks were interleaved across queues.
  const u64 merge0 = util::process_nanos();
  if (sink) {
    out.total_records = merge_spill_runs(spill_paths, sink);
  } else {
    out.total_records = merge_spill_runs(spill_paths, [&out](ot_record&& r) {
      out.records.push_back(std::move(r));
    });
  }
  out.stage_times.merge_s =
      static_cast<double>(util::process_nanos() - merge0) / 1e9;

  if (tracing) {
    const util::thread_pool::sched_stats pool1 = pool.stats();
    reg.counter("pool.steals").add(pool1.steals - pool0.steals);
    reg.counter("pool.injects").add(pool1.injects - pool0.injects);
    reg.counter("pool.sleeps").add(pool1.sleeps - pool0.sleeps);
    reg.counter("pool.executed").add(pool1.executed - pool0.executed);
    reg.counter("stream.spill_runs").add(out.spill_runs);
    reg.counter("stream.records").add(out.total_records);
    reg.counter("recover.overflow_retries")
        .add(out.metrics.recovery.overflow_retries);
    reg.counter("recover.chunk_splits").add(out.metrics.recovery.chunk_splits);
    reg.counter("recover.recovered_overflows")
        .add(out.metrics.recovery.recovered_overflows);
    reg.counter("recover.spill_retries")
        .add(out.metrics.recovery.spill_retries);
    if (ndev > 1) {
      for (const auto& ds : out.device_shards) {
        reg.counter("shard.chunks." + ds.name).add(ds.chunks);
        reg.counter("shard.steals." + ds.name).add(ds.steals);
      }
      reg.counter("shard.steals").add(out.shard_steals);
    }
  }

  out.streamed_bases = source.streamed_bases();
  out.metrics.elapsed_seconds = sw.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Index/query split. Resolves the index — in-memory (opt.index), from the
// .cofidx cache at opt.index_path (warm), or built from the FASTA at `path`
// and persisted (cold) — then answers the queries with comparer-only
// launches through an index_query_session. Results are byte-identical to
// the classic streaming run for any backend and queue count (same chunk
// geometry, same kernels, same canonical sort+dedup).
// ---------------------------------------------------------------------------
streamed_outcome run_streaming_indexed(const search_config& cfg,
                                       const std::string& path,
                                       const engine_options& opt,
                                       util::stopwatch& sw,
                                       const record_sink& sink) {
  streamed_outcome out;
  out.used_index = true;
  genome_index owned;
  const genome_index* idx = opt.index;
  bool cache_hit = idx != nullptr;  // prebuilt in memory counts as warm
  if (idx == nullptr) {
    if (std::filesystem::exists(opt.index_path)) {
      util::stopwatch lsw;
      owned = load_index(opt.index_path);
      out.stage_times.index_load_s = lsw.seconds();
      cache_hit = true;
    } else {
      // Cold path: the one place the warm split still decodes FASTA and
      // launches the finder — once, to populate the cache.
      util::stopwatch bsw;
      search_config src = cfg;
      src.genome_path = path;
      const genome::genome_t g = load_configured_genome(src);
      owned = build_index(g, cfg.pattern, opt);
      out.stage_times.index_build_s = bsw.seconds();
      save_index(opt.index_path, owned);
      out.streamed_bases = owned.source_bases;
    }
    idx = &owned;
  }
  if (obs::enabled()) {
    obs::metrics_registry::global()
        .counter(cache_hit ? "index.cache.hit" : "index.cache.miss")
        .add(1);
  }
  out.index_cache_hit = cache_hit;
  check_index_compatible(*idx, cfg);
  // A warm index never sees the decoded genome, so verify its identity
  // against a decode-free summary scan of the source (names, base count,
  // content hash — no sequence materialised, no finder). Sources that
  // cannot be summarised cheaply (synth: URIs, .2bit) skip the check; the
  // cold branch above built from the genome and is trivially consistent.
  if (cache_hit) {
    if (const auto sum = genome::summarize_source(path)) {
      check_index_matches_source(*idx, sum->names, sum->total_bases,
                                 sum->hash);
    }
  }

  index_query_session session(*idx, opt);
  util::stopwatch qsw;
  search_outcome q = session.query(cfg.queries);
  out.stage_times.query_s = qsw.seconds();
  out.records = std::move(q.records);
  out.metrics = q.metrics;
  out.chrom_names = idx->chrom_names;
  out.index_chunk_hits = session.chunk_hits();
  out.index_chunk_misses = session.chunk_misses();
  for (const auto& ch : idx->chunks) {
    out.peak_chunk_bytes = std::max(out.peak_chunk_bytes, ch.text.size());
  }
  for (const auto& r : out.records) {
    out.peak_record_bytes += sizeof(ot_record) + r.site.size();
  }
  out.total_records = out.records.size();
  if (sink) {
    for (auto& r : out.records) sink(std::move(r));
    out.records.clear();
  }
  out.metrics.elapsed_seconds = sw.seconds();
  return out;
}

}  // namespace

streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt) {
  return run_search_streaming(cfg, path, opt, record_sink{});
}

streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt,
                                      const record_sink& sink) {
  // Per-run observability lifetime: enables + clears the tracer and the
  // metrics registry when either output was requested, restores the
  // previous state on exit. With neither set, every probe below is one
  // relaxed atomic load.
  obs::run_scope obs_guard(!opt.trace_out.empty() || !opt.metrics_json.empty());
  // Fault plan: COF_FAULT plus opt.faults, armed for this run only.
  fault::scope fault_guard(opt.faults);
  util::stopwatch sw;

  COF_CHECK_MSG(opt.backend != backend_kind::serial,
                "streaming mode drives a device pipeline; use run_search for "
                "the serial reference");

  // Index/query split: a prebuilt (or cached) index answers the queries
  // with comparer-only launches — zero FASTA decode, zero finder launches
  // on the warm path.
  streamed_outcome out = opt.index != nullptr || !opt.index_path.empty()
                             ? run_streaming_indexed(cfg, path, opt, sw, sink)
                             : run_streaming_scan(cfg, path, opt, sw, sink);
  write_run_obs(opt);
  return out;
}

}  // namespace cof
