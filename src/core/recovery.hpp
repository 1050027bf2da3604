// The engine's one recovery policy, shared by the streaming consumers and
// the warm index sessions: how a chunk whose capped entry allocation
// overflowed is retried, how long a device fault or a spill write is
// retried, and how a worker whose device is gone moves to a survivor.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "core/engine.hpp"
#include "core/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cof {

class recovery_policy {
 public:
  /// What to do with a chunk whose entry allocation just overflowed.
  enum class overflow_step {
    fail,   // rethrow: recovery off, attempts exhausted, or the cap is hit
    retry,  // re-run as-is (the cap cannot grow; only entry.clamp lands here)
    grow,   // the cap grew (sticky): rebuild the pipeline, then re-run
    split,  // growing would pass max_retry_entries: split the chunk in half
  };

  explicit recovery_policy(const engine_options& opt)
      : enabled_(opt.overflow_recovery),
        max_retry_entries_(opt.max_retry_entries) {}

  /// Next step after attempt `attempt` (0-based) of a chunk of `bases`
  /// bases overflowed `cap` comparing `queries` guides. The new cap starts
  /// from the true demand the error carries, at least doubles, and never
  /// passes the worst case (every position a hit for every query) or
  /// max_retry_entries; `grow` writes it back to `cap`.
  overflow_step on_overflow(const entry_overflow_error& e, usize attempt,
                            usize bases, usize queries, bool can_split,
                            usize& cap) const {
    if (!enabled_ || attempt + 1 >= kMaxOverflowAttempts) {
      return overflow_step::fail;
    }
    obs::span sp("recover.retry", "engine");
    sp.arg("required", static_cast<double>(e.required()));
    sp.arg("capacity", static_cast<double>(e.capacity()));
    if (cap == 0) return overflow_step::retry;  // already worst-case sized
    usize grown = std::min<usize>(bases * 2 * std::max<usize>(1, queries),
                                  std::max<usize>(e.required(), cap * 2));
    if (max_retry_entries_ != 0 && grown > max_retry_entries_) {
      if (can_split) return overflow_step::split;
      grown = max_retry_entries_;
      if (grown <= cap) return overflow_step::fail;
    }
    if (grown <= cap) return overflow_step::retry;
    cap = grown;
    return overflow_step::grow;
  }

  /// Transient device faults (dev.alloc, dev.launch, pipe.event,
  /// exec.kernel) get a fresh pipeline and another attempt while this
  /// holds; past it the device counts as dead.
  static bool retry_device(usize attempt) {
    return attempt + 1 < kMaxDeviceAttempts;
  }

  /// Move a worker off the dead `device`: mark it failed, point `device` at
  /// a survivor and rebind the calling thread there. The caller drops every
  /// pipeline it built on the old device and restarts its attempt budget.
  /// False when no device survives: the caller rethrows the original error.
  static bool migrate(shard::device_set& devs, usize& device,
                      std::optional<xpu::scoped_device>& bind) {
    if (devs.size() <= 1 || devs.mark_failed(device) == 0) return false;
    const usize to = devs.pick_alive(device + 1);
    if (to >= devs.size()) return false;  // the survivor died meanwhile
    obs::span sp("shard.migrate", "engine");
    sp.arg("from", static_cast<double>(device));
    sp.arg("to", static_cast<double>(to));
    device = to;
    bind.emplace(devs.at(device), static_cast<int>(device));
    obs::metrics_registry::global().counter("shard.migrations").add(1);
    return true;
  }

  /// Run a spill write. A failed one rolls the run back to its previous
  /// boundary, so it is retried with short exponential backoff (counted in
  /// `retries`) before the spill_error propagates.
  template <typename Write, typename Counter>
  static void spill(Write&& write, Counter& retries) {
    for (usize a = 0;; ++a) {
      try {
        write();
        return;
      } catch (const spill_error&) {
        if (a + 1 >= kMaxSpillAttempts) throw;
        ++retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1u << a));
      }
    }
  }

 private:
  // Bounded attempts: a real overflow converges in one or two retries, so
  // the bounds only turn an `always` fault plan into a clean error instead
  // of a retry livelock.
  static constexpr usize kMaxOverflowAttempts = 12;
  static constexpr usize kMaxDeviceAttempts = 4;
  static constexpr usize kMaxSpillAttempts = 4;

  bool enabled_;
  usize max_retry_entries_;
};

}  // namespace cof
