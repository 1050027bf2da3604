#include "core/shard.hpp"

#include <algorithm>
#include <limits>
#include <thread>

namespace cof {

const char* shard_policy_name(shard_policy p) {
  return p == shard_policy::round_robin ? "round-robin" : "least-loaded";
}

std::optional<shard_policy> parse_shard_policy(std::string_view name) {
  if (name == "round-robin" || name == "rr") return shard_policy::round_robin;
  if (name == "least-loaded" || name == "ll") return shard_policy::least_loaded;
  return std::nullopt;
}

}  // namespace cof

namespace cof::shard {

using util::usize;

device_set::device_set(usize n) {
  COF_CHECK_MSG(n >= 1, "device_set needs at least one device");
  if (n == 1) {
    devices_.push_back(&xpu::device::simulator());
  } else {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned per_dev = std::max(1u, hw / static_cast<unsigned>(n));
    owned_.reserve(n);
    for (usize d = 0; d < n; ++d) {
      owned_.push_back(
          std::make_unique<xpu::device>("xpu" + std::to_string(d), per_dev));
      devices_.push_back(owned_.back().get());
    }
  }
  failed_ = std::make_unique<std::atomic<bool>[]>(devices_.size());
  for (usize d = 0; d < devices_.size(); ++d) failed_[d].store(false);
}

usize device_set::alive_count() const {
  usize n = 0;
  for (usize d = 0; d < devices_.size(); ++d) {
    if (alive(d)) ++n;
  }
  return n;
}

usize device_set::mark_failed(usize d) {
  COF_CHECK(d < devices_.size());
  failed_[d].store(true, std::memory_order_release);
  return alive_count();
}

usize device_set::pick_alive(usize hint) const {
  if (hint < devices_.size() && alive(hint)) return hint;
  for (usize d = 0; d < devices_.size(); ++d) {
    if (alive(d)) return d;
  }
  return devices_.size();
}

usize shard_scheduler::assign(const std::vector<usize>& loads) {
  std::lock_guard lock(mu_);
  const usize n = devs_.size();
  usize chosen = n;
  if (policy_ == shard_policy::least_loaded) {
    COF_CHECK_MSG(loads.size() == n,
                  "least-loaded scheduler needs one load entry per device");
    usize best = std::numeric_limits<usize>::max();
    for (usize d = 0; d < n; ++d) {
      if (devs_.alive(d) && loads[d] < best) {
        best = loads[d];
        chosen = d;
      }
    }
  } else {
    for (usize step = 0; step < n; ++step) {
      const usize d = (cursor_ + step) % n;
      if (devs_.alive(d)) {
        chosen = d;
        cursor_ = d + 1;
        break;
      }
    }
  }
  if (chosen < n) counts_[chosen].fetch_add(1, std::memory_order_relaxed);
  return chosen;
}

}  // namespace cof::shard
