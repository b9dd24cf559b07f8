// Folded BatchNorm thresholds (paper Sec. III-A), as the engine runs them.
//
// Every BatchNorm in a BNN is immediately followed by sign(), so at
// inference the pair collapses to a per-channel magnitude comparison on the
// integer accumulator: out = +1 iff acc >= T (or acc <= T when the BN scale
// gamma/sigma is negative). core::fold (src/core/fold.hpp) derives T from
// a trained graph; a bitstream carries it as is. This header holds the
// folded form and its branch-free replay form -- no training types.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace bcop::xnor {

/// Per-channel folded comparison: out_c = +1 iff
///   flip[c] ? acc <= t[c] : acc >= t[c].
/// Constant channels are encoded with saturated thresholds (INT64_MIN+1 =>
/// always +1, INT64_MAX => always -1 with flip = false).
struct ThresholdSpec {
  std::vector<std::int64_t> t;
  std::vector<std::uint8_t> flip;

  std::int64_t channels() const { return static_cast<std::int64_t>(t.size()); }

  bool fire(std::int64_t acc, std::int64_t c) const {
    BCOP_DCHECK(c >= 0 && c < channels(), "channel %lld out of [0, %lld)",
                static_cast<long long>(c), static_cast<long long>(channels()));
    const auto ci = static_cast<std::size_t>(c);
    return flip[ci] ? acc <= t[ci] : acc >= t[ci];
  }
};

/// Branch-free form of ThresholdSpec for hot loops:
///   fire(acc, c) == (acc >= thr[c]) ^ inv[c]   for all |acc| <= kAccBound.
/// The flip case folds into a strict negated compare (acc <= t is
/// !(acc >= t+1)), and saturated "always"/"never" sentinels are clamped to
/// just outside the accumulator range so the identity keeps holding. Every
/// accumulator in this codebase is far below the bound: a binary dot is at
/// most K and the 8-bit first conv at most K*255, with K = k*k*ci < 2^15.
struct PreparedThresholds {
  static constexpr std::int32_t kAccBound = 1 << 25;
  std::vector<std::int32_t> thr;
  std::vector<std::int32_t> inv;

  explicit PreparedThresholds(const ThresholdSpec& spec)
      : thr(spec.t.size()), inv(spec.t.size()) {
    for (std::size_t c = 0; c < spec.t.size(); ++c) {
      // !flip: fire = acc >= t.  flip: fire = acc <= t = !(acc >= t + 1).
      std::int64_t t = spec.t[c];
      if (spec.flip[c]) t = t >= kAccBound ? kAccBound + 1 : t + 1;
      thr[c] = static_cast<std::int32_t>(std::clamp<std::int64_t>(
          t, -kAccBound, std::int64_t{kAccBound} + 1));
      inv[c] = spec.flip[c] ? 1 : 0;
    }
  }
};

}  // namespace bcop::xnor
