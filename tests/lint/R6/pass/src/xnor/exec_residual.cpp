// Fixture: the residual replay TU with clean direct includes.
#include <cstdint>
void scale_acc(std::int32_t* acc, const std::int32_t* part, int g, int n) {
  for (int i = 0; i < n; ++i) acc[i] += g * part[i];
}
