// The naive single-group-graph pipeline — the design Section III warns
// against: "bad groups build new bad groups, and good groups build bad
// groups with some failure probability p^j_f... left unchecked, this
// increasing error probability will surpass the desired value".
//
// Mechanically this is the paper's own builder run in single-graph
// mode (every dual search degenerates to one search, so one failure
// suffices to corrupt a request).  This header packages it for the
// dual-vs-single ablation tests.
#pragma once

#include "core/epoch_manager.hpp"

namespace tg::baseline {

/// Epoch manager wired for the single-graph ablation.
[[nodiscard]] core::EpochManager make_single_graph_manager(
    const core::Params& params);

/// Epoch manager wired for the paper's dual-graph construction (for
/// symmetric call sites in ablation benches).
[[nodiscard]] core::EpochManager make_dual_graph_manager(
    const core::Params& params);

}  // namespace tg::baseline
