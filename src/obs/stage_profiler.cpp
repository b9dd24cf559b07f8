#include "obs/stage_profiler.hpp"

namespace bcop::obs {

StageProfiler& StageProfiler::global() {
  static StageProfiler profiler;
  return profiler;
}

}  // namespace bcop::obs
