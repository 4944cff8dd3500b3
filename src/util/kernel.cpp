#include "util/kernel.hpp"

#include <string>

#include "util/error.hpp"

namespace repro::util {

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kSimd:
      return "simd";
  }
  return "?";
}

KernelKind parse_kernel_kind(std::string_view name) {
  if (name == "scalar") return KernelKind::kScalar;
  if (name == "simd") return KernelKind::kSimd;
  throw Error("unknown kernel variant '" + std::string(name) +
              "' (expected scalar or simd)");
}

KernelKind default_kernel_kind() { return KernelKind::kScalar; }

}  // namespace repro::util
