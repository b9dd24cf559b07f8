// Fixture: the training graph's headers are legal inside src/core/, and a
// comment may name "nn/sequential.hpp" anywhere.
#include "nn/batchnorm.hpp"
#include "xnor/engine.hpp"
int fold_marker() { return 1; }
