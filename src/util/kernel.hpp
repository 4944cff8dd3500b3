// Kernel-variant selection: the nonbonded pair loop and the B-spline
// spread/interpolate each ship a scalar reference implementation and an
// explicitly vectorized variant (the FFT has a single combine path). The
// scalar path is the bit-identical golden reference; the simd path is
// pinned by tolerance-based invariance tests
// (tests/kernel_variant_test.cpp).
//
// Selection is a runtime swept factor (--kernel=scalar|simd on the CLI,
// CharmmConfig::kernel in code). Both variants feed identical work counters into the cost
// model, so simulated timings are kernel-independent by construction —
// the variants differ only in host-side wall clock (bench/kernels_*).
#pragma once

#include <string_view>

namespace repro::util {

enum class KernelKind {
  kScalar,  // straight-line reference kernels; golden byte-identity
  kSimd,    // width-agnostic vector lanes (#pragma omp simd, SoA staging)
};

const char* to_string(KernelKind kind);

// Strict parse: exactly "scalar" or "simd", anything else throws
// util::Error (trailing garbage included — "simd2" is rejected).
KernelKind parse_kernel_kind(std::string_view name);

// The default variant, scalar (perfbench's run records name it).
KernelKind default_kernel_kind();

}  // namespace repro::util
