// Declaration-only remnant of the removed SoA batch engine: route_batch
// has one drain loop, the scalar per-packet loop.
#pragma once

#include "routing/router.hpp"

namespace oblivious {

// Ignored; kept only for perfbench's probe, which asks whether the
// engine would run.
class SoaBatchEngine {
 public:
  static bool supports(const Router& /*router*/) { return false; }
};

}  // namespace oblivious
