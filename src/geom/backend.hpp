// Geometry backend selection for the per-cell clip loop.
//
// Two backends share one candidate store (the CSR grid in CellBuilder) and
// one kernel translation unit (geom/kernels.cpp): kScalar walks candidates
// one at a time, kSimd evaluates the batched filters (plane distances and
// the 2*r_max screen) four lanes wide. Because the
// lanes perform the identical IEEE operations in the identical order, and
// candidates are consumed in the canonical (dist2, id, position) order
// either way, both backends produce byte-identical meshes — enforced by the
// parity harness in geom/parity.hpp and the cross-backend test suite.
#pragma once

#include <cstdint>

namespace tess::geom {

enum class TessBackend : std::uint8_t {
  /// Resolve from the TESS_GEOM_BACKEND environment variable ("scalar",
  /// "simd"); falls back to kScalar when unset or unrecognized.
  kAuto = 0,
  kScalar = 1,
  kSimd = 2,
};

/// Collapse kAuto to a concrete backend. The env override applies ONLY to
/// kAuto: an explicitly requested backend always wins, so A/B parity tests
/// keep comparing scalar vs simd even when CI exports TESS_GEOM_BACKEND.
[[nodiscard]] TessBackend resolve_backend(TessBackend requested);

[[nodiscard]] const char* to_string(TessBackend b);

}  // namespace tess::geom
