// Batched floating-point kernels shared by the scalar and SIMD geometry
// backends.
//
// Everything whose VALUE (not just sign) feeds the clip loop lives in this
// one translation unit: squared site-candidate distances, the candidate
// screen against the security radius, and the per-vertex plane distances of
// VoronoiCell::clip. Each kernel has a scalar sweep and a 4-lane SIMD sweep
// that perform the identical IEEE-754 operations in the identical
// association order — e.g. dist2 is always (dx*dx + dy*dy) + dz*dz, matching
// geom::dist2 — and kernels.cpp is compiled with -ffp-contract=off so the
// compiler cannot fuse a*b+c into an FMA on one path but not the other.
// Per-lane IEEE determinism then makes the two sweeps bitwise equal, which
// is the foundation of the backend byte-identity guarantee (DESIGN.md
// §4.11).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "geom/backend.hpp"
#include "geom/vec3.hpp"

namespace tess::geom::kernels {

/// d2[i] = squared distance from `site` to (x[i], y[i], z[i]), bitwise equal
/// to geom::dist2(site, p_i) for every backend.
void dist2_batch(TessBackend backend, const double* x, const double* y,
                 const double* z, std::size_t n, const Vec3& site, double* d2);

/// Append (d2[i], idx[i]) to `out` for every i with d2[i] <= limit,
/// preserving input order. Returns the number of survivors.
std::size_t screen_candidates(TessBackend backend, const double* d2,
                              const int* idx, std::size_t n, double limit,
                              std::vector<std::pair<double, int>>& out);

/// dist[i] = dot(normal, verts[i]) - plane_d for i < n, and *abs_max_out =
/// max_i |dot(normal, verts[i])| (the conditioning scale for the clip
/// epsilon). Bitwise equal to the scalar loop for every backend: the dot is
/// always (nx*vx + ny*vy) + nz*vz and abs_max is a plain running max over
/// non-negative values, so lane order cannot change it.
void plane_distances(TessBackend backend, const Vec3* verts, std::size_t n,
                     const Vec3& normal, double plane_d, double* dist,
                     double* abs_max_out);

}  // namespace tess::geom::kernels
