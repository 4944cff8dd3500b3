// Kernel-variant selection: the nonbonded pair loop and the B-spline
// spread/interpolate each ship a scalar reference implementation and an
// explicitly vectorized variant (the FFT has a single combine path). The
// scalar path is the bit-identical golden reference; the simd path is
// pinned by tolerance-based invariance tests
// (tests/kernel_variant_test.cpp).
//
// Selection is a runtime swept factor (--kernel=scalar|simd on the CLI,
// REPRO_KERNEL in the environment), mirroring the engine-backend factor in
// sim/engine.hpp. Both variants feed identical work counters into the cost
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

// REPRO_KERNEL=scalar|simd overrides the compiled-in default (scalar).
// The env var is the kill switch: it rewires every default-constructed
// config without touching call sites.
KernelKind default_kernel_kind();

}  // namespace repro::util
