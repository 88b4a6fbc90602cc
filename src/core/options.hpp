// Tessellation options, mirroring the knobs described in the paper:
// ghost-zone thickness (user-provided, §IV-A) and the volume thresholds
// (§III-C). The paper's per-cell Qhull step has no counterpart: the
// half-space clipper already yields ordered faces, volume and area.
#pragma once

#include "geom/backend.hpp"

namespace tess::core {

struct TessOptions {
  /// Ghost-zone thickness in domain units. The paper finds ~4x the typical
  /// particle spacing gives 100% parallel accuracy; too small a value
  /// produces wrong cells at block boundaries (Table I).
  double ghost = 4.0;

  /// Cells whose volume falls below this are culled (<= 0 disables). The
  /// paper typically culls the smallest 10% of the volume range. A cell
  /// whose largest vertex separation is below the diameter of the sphere of
  /// this volume is culled before its volume is computed (conservative
  /// early culling; it keeps exactly the cells the volume test keeps).
  double min_volume = 0.0;

  /// Cells whose volume exceeds this are culled (<= 0 disables; the paper's
  /// plugin supports a [min, max] threshold range).
  double max_volume = 0.0;

  /// Automatic ghost-size determination (the paper's §V future work).
  /// When enabled, `ghost` is only the starting guess: the tessellation
  /// pass is repeated with a doubled ghost zone until every cell is
  /// complete AND certified by the security radius (2 * max vertex distance
  /// <= ghost), at which point the result is provably identical to the
  /// serial one; cells are canonicalized so the bytes do not depend on the
  /// pass that built them. When disabled, the same loop runs one pass at
  /// `ghost` with no collective verdict, and cells are only compacted.
  bool auto_ghost = false;

  /// Upper bound for auto_ghost doubling, as a fraction of the shortest
  /// domain side (safety stop; 0.5 covers any cell in a periodic domain).
  double auto_ghost_max_fraction = 0.5;

  /// Incremental auto_ghost (only meaningful with auto_ghost = true). When
  /// true, each doubling pass exchanges only the new ghost annulus, appends
  /// it to the existing cell builder, and rebuilds only the cells that were
  /// not yet complete and certified; cells certified in an earlier pass are
  /// reused as-is. When false, every pass re-exchanges and rebuilds
  /// everything (restart-from-scratch). Both settings produce byte-identical
  /// serialized meshes — the canonicalized cell geometry is independent of
  /// the construction path — so this is purely a performance switch.
  bool incremental = true;

  /// Intra-rank worker threads for the per-cell Voronoi loop (the paper's
  /// dominant cost). 1 = serial (default), 0 = hardware concurrency, n > 1
  /// = a pool of n threads per rank. Total process parallelism is bounded
  /// by ranks x threads. The mesh produced is byte-identical for any value:
  /// cells are computed in fixed chunks and merged in site order.
  int threads = 1;

  /// Adaptive, load-balanced decomposition (only meaningful through
  /// tessellate_step). After each step the per-rank cell-build seconds are
  /// allgathered and reduced to a max/mean imbalance factor; when it
  /// reaches `repart_trigger`, the next step first rebuilds a
  /// mass-weighted k-d decomposition from the current particles
  /// (collective; identical on every rank) and migrates particles to the
  /// new owners. The merged mesh is byte-identical whether or not a
  /// repartition happened — the decomposition only changes who computes
  /// which certified cell.
  bool adaptive = false;

  /// Imbalance factor (max/mean, 1 = perfectly balanced) at or above which
  /// an adaptive repartition is scheduled for the next step. Hysteresis:
  /// well-balanced runs never repartition, and after a repartition the
  /// factor must climb back over the trigger to cause another one.
  double repart_trigger = 1.25;

  /// Minimum number of steps between adaptive repartitions (thrash guard).
  int repart_cooldown = 2;

  /// Geometry backend for the per-cell clip loop: kScalar sweeps candidates
  /// one at a time, kSimd runs the batched filters four lanes wide. kAuto
  /// (default) resolves via the TESS_GEOM_BACKEND environment variable
  /// ("scalar"/"simd", default scalar) — the env override applies only to
  /// kAuto, so an explicit choice here always wins. Every backend produces
  /// byte-identical meshes (enforced by the parity suite); this is purely a
  /// performance switch.
  geom::TessBackend backend = geom::TessBackend::kAuto;
};

}  // namespace tess::core
