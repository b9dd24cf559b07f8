// Fixture: the engine builds from its own and the tensor headers only; it
// is folded by core::fold (#include "nn/sequential.hpp" lives there).
#include "tensor/tensor.hpp"
#include "xnor/folding.hpp"
int engine_marker() { return 2; }
