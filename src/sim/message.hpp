#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "matrix/matrix.hpp"
#include "topology/topology.hpp"
#include "util/error.hpp"

namespace hpmm {

/// Causal span context stamped onto every message by exchange() when
/// MachineParams::causal is set (see sim/causal.hpp): the run's trace id,
/// the sender's head span at send time (the span whose completion this
/// message causally depends on), and the causal hop depth — how many
/// message transfers the dependency chain behind it has already crossed.
/// Retransmissions of a message under the reliable-delivery protocol reuse
/// the same Message object, so every retry carries the same context. All
/// zero / kNoSpan when causal tracing is off or the sender is unsampled.
struct SpanContext {
  std::uint64_t trace = 0;
  std::uint32_t parent = 0xffffffffu;  ///< CausalGraph::kNoSpan when absent
  std::uint32_t hop = 0;
};

/// A point-to-point message: one or more matrix blocks moving from src to
/// dst in a single transfer. Its cost is t_s + t_w * words() (times hop
/// factors per the routing model).
///
/// The first block is stored inline (`payload`), so a single-block message
/// (every message but a recursive-doubling gather's) owns no heap container
/// of its own; blocks 2..k of a multi-block message spill into `extra`.
struct Message {
  ProcId src = 0;
  ProcId dst = 0;
  int tag = 0;
  SpanContext span;
  Matrix payload;             ///< block 0
  std::vector<Matrix> extra;  ///< blocks 1..k-1; empty for one block

  Message() = default;
  Message(ProcId s, ProcId d, int t, Matrix block)
      : src(s), dst(d), tag(t), payload(std::move(block)) {}
  /// Multi-block message; `bs` must not be empty. Its storage is reused for
  /// `extra`, so splitting off the first block allocates nothing.
  Message(ProcId s, ProcId d, int t, std::vector<Matrix> bs)
      : src(s), dst(d), tag(t) {
    require(!bs.empty(), "Message: a message carries at least one block");
    payload = std::move(bs.front());
    bs.erase(bs.begin());
    extra = std::move(bs);
  }

  std::size_t block_count() const noexcept { return 1 + extra.size(); }
  Matrix& block(std::size_t i) noexcept {
    return i == 0 ? payload : extra[i - 1];
  }
  const Matrix& block(std::size_t i) const noexcept {
    return i == 0 ? payload : extra[i - 1];
  }

  /// Total words carried (the m of t_s + t_w * m).
  std::size_t words() const noexcept {
    std::size_t w = payload.size();
    for (const auto& b : extra) w += b.size();
    return w;
  }
};

}  // namespace hpmm
