// Reproduces Table I: network architectures and hardware dimensioning for
// the three Binary-CoP prototypes, plus the derived footprint numbers
// (parameter count, binary weight bits) that motivate the designs.
#include <cstdio>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "util/table.hpp"
#include "xnor/engine.hpp"

using namespace bcop;

int main() {
  try {
    std::printf("TABLE I: Network architectures and hardware dimensioning\n\n");
    for (const auto arch :
         {core::ArchitectureId::kCnv, core::ArchitectureId::kNCnv,
          core::ArchitectureId::kMicroCnv}) {
      std::printf("=== %s ===\n", core::arch_name(arch));
      util::AsciiTable t({"Layer", "Ci", "Co", "K", "In", "Out", "PE", "SIMD",
                          "weights(bits)", "ops/image"});
      const auto specs = core::layer_specs(arch);
      for (const auto& s : specs) {
        t.add_row({s.name, std::to_string(s.ci), std::to_string(s.co),
                   s.is_conv ? std::to_string(s.k) : "-",
                   std::to_string(s.in_h) + "x" + std::to_string(s.in_w),
                   std::to_string(s.out_h) + "x" + std::to_string(s.out_w) +
                       (s.pool_after ? " +pool" : ""),
                   std::to_string(s.pe), std::to_string(s.simd),
                   std::to_string(s.weight_count()),
                   std::to_string(s.ops_per_image())});
      }
      std::printf("%s", t.render().c_str());

      nn::Sequential model = core::build_bnn(arch, 7);
      xnor::XnorNetwork net = core::fold(model);
      std::printf("trainable parameters: %lld | deployed footprint: %lld bits "
                  "(%.1f KiB) vs %.1f KiB at FP32 (x%.1f smaller)\n\n",
                  static_cast<long long>(model.parameter_count()),
                  static_cast<long long>(net.weight_bits()),
                  static_cast<double>(net.weight_bits()) / 8.0 / 1024.0,
                  static_cast<double>(model.parameter_count()) * 4.0 / 1024.0,
                  static_cast<double>(model.parameter_count()) * 32.0 /
                      static_cast<double>(net.weight_bits()));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table1: %s\n", e.what());
    return 1;
  }
}
