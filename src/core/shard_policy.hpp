// Chunk-to-device assignment policy for multi-device runs. Split out of
// core/shard.hpp so engine_options can name it without pulling the xpu
// device machinery into every engine.hpp includer.
#pragma once

#include <optional>
#include <string_view>

namespace cof {

enum class shard_policy {
  round_robin,   // static rotating cursor over the alive devices
  least_loaded,  // dynamic: min(queue depth + in-flight), ties to lower ordinal
};

const char* shard_policy_name(shard_policy p);
/// Parse "round-robin"/"rr" or "least-loaded"/"ll"; nullopt on anything
/// else — a mistyped policy must not silently run round-robin, and the
/// caller reports it.
std::optional<shard_policy> parse_shard_policy(std::string_view name);

}  // namespace cof
