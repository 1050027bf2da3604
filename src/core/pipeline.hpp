// The device-pipeline interface both host programs implement. The engine
// (engine.hpp) drives either implementation through this interface; the
// implementations differ only in the host programming model — which is
// exactly the variable the paper studies:
//
//   host_ocl.cpp  — the original-style OpenCL host program (explicit
//                   platform/context/queue/program/kernel/buffer objects,
//                   clSetKernelArg, clEnqueueNDRangeKernel, manual release)
//   host_sycl.cpp — the migrated SYCL host program (selector, queue,
//                   buffers, accessors, lambda kernels, implicit cleanup)
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernels.hpp"
#include "core/pattern.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "profile/profiler.hpp"

namespace cof {

/// Recoverable entry-buffer overflow: a chunk produced more finder hits or
/// comparer entries than the max_entries-capped allocation could hold. The
/// kernels keep advancing the append counter past the capacity (only stores
/// are clamped), so `required` round-trips the TRUE demand — the streaming
/// engine sizes its retry from it, and the message reports it. run_search
/// turns this into the historical fatal report; run_search_streaming
/// retries the chunk with a grown capacity or splits it.
class entry_overflow_error : public std::runtime_error {
 public:
  entry_overflow_error(std::string kernel, util::u64 required, util::u64 capacity)
      : std::runtime_error(kernel + " entry-buffer overflow: " +
                           std::to_string(required) +
                           " entries exceed the allocated capacity " +
                           std::to_string(capacity) +
                           " (raise max_entries or use worst-case sizing)"),
        kernel_(std::move(kernel)),
        required_(required),
        capacity_(capacity) {}

  const std::string& kernel() const { return kernel_; }
  util::u64 required() const { return required_; }
  util::u64 capacity() const { return capacity_; }

 private:
  std::string kernel_;
  util::u64 required_;
  util::u64 capacity_;
};

struct pipeline_options {
  comparer_variant variant = comparer_variant::base;
  /// Work-group size for kernel launches. 0 = let the runtime choose (the
  /// OpenCL application's behaviour in the paper); the SYCL application
  /// pins 256.
  usize wg_size = 256;
  /// Run instrumented kernels and record event counts into `profiler`.
  bool counting = false;
  prof::profiler* profiler = nullptr;
  /// Cap on device entry-output allocations (loci, comparer entries).
  /// 0 = size worst-case (every position a hit; 2*loci entries per query),
  /// which can never overflow. A non-zero cap shrinks the allocations; the
  /// kernels clamp appends to it and the host reports an overflow error
  /// (instead of out-of-bounds writes) when the count exceeds the cap.
  usize max_entries = 0;
};

/// Per-run accounting a pipeline accumulates (for the elapsed-time model).
struct pipeline_metrics {
  util::u64 kernel_nanos = 0;     // simulated-device kernel wall time
  util::u64 finder_launches = 0;
  util::u64 comparer_launches = 0;
  util::u64 h2d_bytes = 0;
  util::u64 d2h_bytes = 0;
  util::u64 total_loci = 0;       // finder hits across chunks
  util::u64 total_entries = 0;    // comparer entries across chunks/queries

  /// Field-wise sum: folds one pipeline's accounting into a running total.
  pipeline_metrics& operator+=(const pipeline_metrics& o) {
    kernel_nanos += o.kernel_nanos;
    finder_launches += o.finder_launches;
    comparer_launches += o.comparer_launches;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    total_loci += o.total_loci;
    total_entries += o.total_entries;
    return *this;
  }
  /// Field-wise difference: a long-lived pipeline's accounting since an
  /// earlier snapshot (metrics only ever grow, so no field goes negative).
  pipeline_metrics operator-(const pipeline_metrics& o) const {
    pipeline_metrics d = *this;
    d.kernel_nanos -= o.kernel_nanos;
    d.finder_launches -= o.finder_launches;
    d.comparer_launches -= o.comparer_launches;
    d.h2d_bytes -= o.h2d_bytes;
    d.d2h_bytes -= o.d2h_bytes;
    d.total_loci -= o.total_loci;
    d.total_entries -= o.total_entries;
    return d;
  }
};

/// Completion handle for async pipeline operations. Both simulated runtimes
/// execute kernels and copies synchronously inside the submitting call, so
/// wait() is structurally where a real backend would block — the streaming
/// engine calls it at the same points a production queue would require, and
/// the pipe.event fault site models a completion failure surfacing there.
class pipe_event {
 public:
  void wait() const { fault::inject_point(fault::site::pipe_event); }
};

class device_pipeline {
 public:
  struct entries {
    std::vector<u16> mm;
    std::vector<char> dir;
    std::vector<u32> loci;
    std::vector<u16> qidx;  // query index per entry (batched path)
    usize size() const { return mm.size(); }
  };

  virtual ~device_pipeline() = default;

  virtual const char* name() const = 0;

  /// Upload a genome chunk to the device.
  virtual void load_chunk(std::string_view seq) = 0;

  /// Async upload: returns once the transfer is enqueued; the returned
  /// event completes when the chunk is device-resident. The host `seq`
  /// storage may be reused after the event completes. The default forwards
  /// to load_chunk (the sim runtimes copy at submission).
  virtual pipe_event load_chunk_async(std::string_view seq) {
    load_chunk(seq);
    return {};
  }

  /// Run the finder over the loaded chunk; hits stay device-resident.
  /// Returns the hit count.
  virtual u32 run_finder(const device_pattern& pat) = 0;

  /// Copy the finder's hit positions back to the host.
  virtual std::vector<u32> read_loci() = 0;

  /// Copy the finder's per-hit strand flags back to the host (0 = both
  /// strands matched the PAM, 1 = forward only, 2 = reverse only). Length
  /// equals the last finder run's hit count. The index build phase persists
  /// these so warm queries can skip the finder entirely.
  virtual std::vector<char> read_flags() = 0;

  /// Warm-path upload: load a chunk together with PREBUILT finder output
  /// (loci + strand flags from a genome_index) so subsequent comparer
  /// launches run without a finder launch. Implementations upload the chunk
  /// text and write loci/flags straight into the device buffers the finder
  /// would have filled. Throws entry_overflow_error when the pipeline's
  /// max_entries cap cannot hold the prebuilt hits.
  virtual void load_indexed_chunk(std::string_view seq, u32 plen,
                                  const std::vector<u32>& loci,
                                  const std::vector<char>& flags) = 0;

  /// Run the comparer for one query against the finder's hits.
  virtual entries run_comparer(const device_pattern& query, u16 threshold) = 0;

  /// Split batched comparer: launch_comparer_batch starts the single
  /// multi-query launch (finder loci/flags are consumed device-side, no
  /// host round trip); fetch_entries later downloads the entry list. This
  /// is the deferred-download half of the async interface — the engine
  /// launches chunk N's comparer, overlaps host work, then fetches.
  virtual pipe_event launch_comparer_batch(const std::vector<device_pattern>& queries,
                                           const std::vector<u16>& thresholds) = 0;

  /// Download the entries of the last launch_comparer_batch.
  virtual entries fetch_entries() = 0;

  /// Run the comparer for every query in ONE pass: launch, wait, fetch.
  entries run_comparer_batch(const std::vector<device_pattern>& queries,
                             const std::vector<u16>& thresholds) {
    launch_comparer_batch(queries, thresholds).wait();
    return fetch_entries();
  }

  virtual const pipeline_metrics& metrics() const = 0;
};

std::unique_ptr<device_pipeline> make_opencl_pipeline(const pipeline_options& opt);
std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt);
/// The USM flavour of the SYCL host program (paper §III.A's alternative).
std::unique_ptr<device_pipeline> make_sycl_usm_pipeline(const pipeline_options& opt);

/// The host programming steps each implementation performs (Table I).
std::vector<std::string> opencl_programming_steps();
std::vector<std::string> sycl_programming_steps();

/// The OpenCL C source the OpenCL host builds (finder + comparer variants).
const char* opencl_kernel_source();

namespace detail {

/// Shared post-download capacity check for every facade: the kernels drop
/// appends past the capacity but keep counting, so a count above the
/// allocation means the cap was too small for this chunk — `count` is the
/// true demand and rides the thrown error into the retry sizing. The
/// entry.clamp fault site forces this same path (with the observed count as
/// demand) so recovery is exercisable without crafting a saturating genome.
inline void check_entry_capacity(const char* kernel, u32 count, usize cap) {
  if (count > cap || fault::should_fail(fault::site::entry_clamp)) {
    throw entry_overflow_error(kernel, count, cap);
  }
}

/// RAII helper: when counting, isolates prof::counters around one launch and
/// records the snapshot (plus wall nanos) into the profiler under `kernel`.
class kernel_record_scope {
 public:
  kernel_record_scope(const pipeline_options& opt, std::string kernel)
      : opt_(opt), kernel_(std::move(kernel)) {
    if (opt_.counting) prof::counters::reset();
  }
  void finish(util::u64 wall_nanos) {
    if (finished_) return;
    finished_ = true;
    if (opt_.counting && opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, prof::counters::snapshot(), wall_nanos);
    } else if (opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, {}, wall_nanos);
    }
  }

 private:
  const pipeline_options& opt_;
  std::string kernel_;
  bool finished_ = false;
};

}  // namespace detail
}  // namespace cof
