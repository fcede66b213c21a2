// Lowering from the OpenFlow model to the matcher IR: the compiler's
// *template specialization* step (§3.3) — field metadata from the catalog is
// combined with concrete keys/masks, pre-swizzled into the little-endian
// constants the generated loads compare against.
#pragma once

#include <vector>

#include "flow/match.hpp"
#include "jit/ir.hpp"

namespace esw::core {

/// Maps a logical goto target to the internal table id of its compiled root
/// (the trampoline slot).  Index = logical id; -1 = absent.
using GotoMap = std::vector<int32_t>;

/// One specialized matcher for (field, value, mask).
jit::FieldTest lower_field_test(flow::FieldId f, uint64_t value, uint64_t mask);

/// Lowers a whole match into protocol guard + matcher chain.
void lower_match(const flow::Match& m, jit::LoweredEntry& out);

}  // namespace esw::core
