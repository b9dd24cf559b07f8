// Fixture: seeded violation -- a kernel tier pulls in <functional>.
#include <functional>
void gemm_chunk_avx2(void*, long lo, long hi) { (void)lo; (void)hi; }
