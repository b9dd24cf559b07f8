// Fixture: seeded violation -- the engine includes a training-graph header.
#include "nn/sequential.hpp"
#include "xnor/folding.hpp"
int engine_marker() { return 2; }
