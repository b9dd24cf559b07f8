// Fixture: the interpreter TU with clean direct includes; it alone may
// fan out through the thread pool (once per call, over images).
#include <cstring>

#include "parallel/thread_pool.hpp"
void replay(float* dst, const float* src, int n) {
  std::memcpy(dst, src, static_cast<unsigned long>(n) * sizeof(float));
}
