// Multi-device sharding: a device_set owns N simulated xpu devices
// (distinct pools/arenas standing in for multi-GPU or multi-socket), and a
// shard_scheduler assigns chunks to them — static round-robin or dynamic
// least-loaded. The engine gives each device its own consumers, pipelines,
// and spill runs; the existing k-way merge folds per-device runs back into
// one byte-identical record stream for any device count.
//
// Failure model: a device that exhausts its bounded retries is marked
// failed, and each worker bound to it migrates to a survivor with its
// pending work (recovery_policy::migrate); the run completes degraded. When
// the last device dies the run fails with the original site-named error.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/shard_policy.hpp"
#include "util/common.hpp"
#include "xpu/device.hpp"

namespace cof::shard {

using util::usize;

/// N simulated accelerators with per-device liveness. For n == 1 this is a
/// non-owning view of the process-wide simulator, so single-device runs
/// keep their accounting (and the facades' metering) exactly where every
/// existing test and bench expects it.
class device_set {
 public:
  /// n == 1 binds the global simulator; n > 1 constructs owned devices
  /// "xpu0".."xpuN-1", each with its own pool sized to share the host
  /// (threads = max(1, hardware_concurrency / n)).
  explicit device_set(usize n);

  usize size() const { return devices_.size(); }
  xpu::device& at(usize d) { return *devices_[d]; }
  const std::string& name(usize d) const { return devices_[d]->name(); }

  bool alive(usize d) const {
    return !failed_[d].load(std::memory_order_acquire);
  }
  usize alive_count() const;

  /// Mark device d failed (idempotent); returns the number of survivors.
  usize mark_failed(usize d);

  /// Some alive device, preferring `hint` if it still lives; size() (an
  /// invalid ordinal) when none survive.
  usize pick_alive(usize hint) const;

 private:
  std::vector<std::unique_ptr<xpu::device>> owned_;
  std::vector<xpu::device*> devices_;
  // deque<atomic> is non-movable; unique_ptr keeps the set movable-free
  // but simple. Sized once in the ctor, never resized.
  std::unique_ptr<std::atomic<bool>[]> failed_;
};

/// Assigns chunks to alive devices. round_robin keeps a rotating cursor;
/// least_loaded takes a per-device load snapshot (queue depth + in-flight)
/// from the caller and picks the minimum, ties to the lower ordinal.
class shard_scheduler {
 public:
  shard_scheduler(shard_policy p, const device_set& devs)
      : policy_(p), devs_(devs) {}

  /// Next device for a chunk. `loads` must have one entry per device when
  /// the policy is least_loaded (ignored for round_robin). Returns size()
  /// (an invalid ordinal) when no device is alive — the caller is racing a
  /// total-device failure and must fail the run, not abort the process.
  usize assign(const std::vector<usize>& loads);

  usize assigned(usize d) const {
    return counts_[d].load(std::memory_order_relaxed);
  }

 private:
  shard_policy policy_;
  const device_set& devs_;
  std::mutex mu_;
  usize cursor_ = 0;
  std::vector<std::atomic<usize>> counts_ =
      std::vector<std::atomic<usize>>(devs_.size());
};

}  // namespace cof::shard
