// Robust geometric predicates.
//
// The Delaunay reference that checks the tessellator's cells needs
// orientation and in-sphere tests whose *sign* is always correct, even for
// nearly degenerate inputs. Each predicate first evaluates in plain double precision with a
// forward error bound (the "static filter"); if the result magnitude falls
// inside the bound, it re-evaluates exactly using floating-point expansion
// arithmetic (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
// Fast Robust Geometric Predicates", 1997). The coordinate differences that
// seed the determinants are captured exactly as two-term expansions, so the
// exact path is error-free.
#pragma once

#include "geom/vec3.hpp"

namespace tess::geom {

/// Sign of the determinant
///   | ax-dx  ay-dy  az-dz |
///   | bx-dx  by-dy  bz-dz |
///   | cx-dx  cy-dy  cz-dz |
/// Positive when d lies below the plane through a,b,c oriented so that
/// a,b,c appear counterclockwise from above (right-hand rule).
/// Returns +1, -1, or 0 (exactly coplanar).
int orient3d(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Signed value of the same determinant evaluated in double precision
/// (no filter) — useful for magnitude estimates, not for sign decisions.
double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Sign of the 4x4 in-sphere determinant: positive when point e lies inside
/// the sphere through a,b,c,d (with a,b,c,d positively oriented per
/// orient3d), negative outside, 0 exactly on the sphere.
int insphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
             const Vec3& e);

/// Number of predicate evaluations that fell back to exact arithmetic since
/// process start (diagnostics for the robustness benches).
unsigned long long exact_fallback_count();
void reset_exact_fallback_count();

}  // namespace tess::geom
