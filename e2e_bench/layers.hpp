// Spans the benchmark records around its own calls into the program's
// public functions, for the traced replay of one operation. A layer's self
// time is its span's duration minus the time its child spans cover, so the
// self times of one replay add up to its wall time exactly. Single-threaded:
// the replay runs one operation serially on the calling thread.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace e2e {

class layer_clock {
 public:
  class span {
   public:
    span(layer_clock& c, const char* layer) : c_(c) {
      c_.stack_.push_back({layer, util::process_nanos(), 0});
    }
    ~span() {
      const frame f = c_.stack_.back();
      c_.stack_.pop_back();
      const util::u64 dur = util::process_nanos() - f.start;
      c_.self_ns_[f.layer] += dur - f.child;
      if (!c_.stack_.empty()) c_.stack_.back().child += dur;
    }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

   private:
    layer_clock& c_;
  };

  /// Self time of `layer` in milliseconds (0 when it never ran).
  double self_ms(const std::string& layer) const {
    const auto it = self_ns_.find(layer);
    return it == self_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  }
  const std::map<std::string, util::u64>& self_ns() const { return self_ns_; }

 private:
  struct frame {
    const char* layer;
    util::u64 start;
    util::u64 child;  // time covered by child spans
  };
  std::vector<frame> stack_;
  std::map<std::string, util::u64> self_ns_;
};

}  // namespace e2e
