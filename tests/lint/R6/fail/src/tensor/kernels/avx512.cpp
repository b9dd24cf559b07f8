// Fixture: seeded violation -- a kernel tier reaches for the thread pool
// to fan out on its own.
#include "parallel/thread_pool.hpp"
void gemm_chunk_avx512(void*, long lo, long hi) { (void)lo; (void)hi; }
