// Fixture: seeded violation -- the span helpers reach for the thread pool
// to fan out on their own.
#include "parallel/thread_pool.hpp"
void pool2(unsigned long* dst, const unsigned long* a, const unsigned long* b,
           int n) {
  for (int i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}
