// The paper's three look-ahead schemes (Section IV, Figure 8), spelled once
// for the hybrid HPL model (core/hybrid_hpl.h), the functional distributed
// driver (hpl/distributed.h) and the run-config parser (hpl/config.h).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

namespace xphi::core {

enum class Lookahead { kNone, kBasic, kPipelined };

/// The names every bench, example and config file uses, indexed by scheme.
inline constexpr std::array<const char*, 3> kLookaheadNames = {
    "none", "basic", "pipelined"};

inline const char* lookahead_name(Lookahead s) {
  return kLookaheadNames[static_cast<std::size_t>(s)];
}

/// Parses "none" / "basic" / "pipelined".
inline std::optional<Lookahead> parse_lookahead(std::string_view s) {
  for (std::size_t i = 0; i < kLookaheadNames.size(); ++i)
    if (s == kLookaheadNames[i]) return static_cast<Lookahead>(i);
  return std::nullopt;
}

}  // namespace xphi::core
