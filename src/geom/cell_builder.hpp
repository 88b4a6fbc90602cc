// Builds Voronoi cells for sites inside a block.
//
// Candidates are served from a uniform grid in order of (approximately)
// increasing distance from the site, and clipping stops once the nearest
// unprocessed candidate lies beyond twice the cell's current maximum vertex
// radius — at that point no further bisector can intersect the cell, so the
// produced polyhedron is the exact Voronoi cell (intersected with the seed
// box). This is the "local Voronoi cell computation" stage of the paper's
// pipeline, standing in for the per-block Qhull invocation.
//
// The grid is stored in CSR form (bin_offsets_ + bin_items_) with the point
// coordinates permuted alongside into structure-of-arrays slabs (csr_x_/y_/
// z_), so a ring sweep gathers each bin's candidates with three contiguous
// copies and feeds them to the batched kernels in geom/kernels.hpp. Both
// geometry backends (TessBackend) share this store; kScalar sweeps the
// batches one element at a time, kSimd four lanes wide, with bitwise-equal
// results (see kernels.hpp for the contract and DESIGN.md §4.11 for the
// proof sketch).
//
// build_into() is the allocation-free hot path: it reuses a caller-owned
// cell object and ClipScratch, so a worker thread sweeping many sites
// touches the heap only while warming up capacities. build() is safe to
// call concurrently from many threads on one (const) builder.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "geom/backend.hpp"
#include "geom/vec3.hpp"
#include "geom/voronoi_cell.hpp"

namespace tess::geom {

class CellBuilder {
 public:
  /// Candidate-pipeline counters accumulated across build() calls, the
  /// source of the geom.backend.* obs metrics. `cand_seen` counts grid
  /// candidates gathered into batches, `cand_kept` the survivors of the
  /// security-radius screen (kept/seen = filter hit rate); `batches`/`lanes`
  /// count SIMD sweeps and the elements they carried (lanes / (4 * batches)
  /// = batch occupancy; both zero under the scalar backend).
  struct BackendStats {
    std::uint64_t cand_seen = 0;
    std::uint64_t cand_kept = 0;
    std::uint64_t batches = 0;
    std::uint64_t lanes = 0;
  };

  /// Per-cell trace captured by build_traced() for the parity harness:
  /// the post-screen candidate sequence in consumption order and the cut
  /// sequence actually attempted. Combined with the final cell geometry
  /// this pins down every stage where the backends could diverge.
  struct CellTrace {
    /// (dist2, source id) per surviving candidate, in canonical order,
    /// concatenated ring by ring.
    std::vector<std::pair<double, std::int64_t>> candidates;
    /// Source id of each bisector cut attempted, in order.
    std::vector<std::int64_t> cut_ids;
  };

  /// `points` are all particles available to the block (original + ghost).
  /// `ids` are the stable global identifiers recorded as cell-face sources;
  /// if empty, local indices are used. `bounds` must contain all points.
  /// `backend` selects the clip-loop geometry backend; kAuto resolves via
  /// the TESS_GEOM_BACKEND environment variable (default scalar).
  CellBuilder(std::vector<Vec3> points, std::vector<std::int64_t> ids,
              const Vec3& bounds_min, const Vec3& bounds_max,
              TessBackend backend = TessBackend::kAuto);

  /// Incremental append for the auto-ghost loop: add newly arrived ghost
  /// particles without reconstructing the builder. `bounds` is the new
  /// bounding box (typically the block bounds grown by the enlarged ghost);
  /// it is unioned with the current box and, like the constructor's bounds,
  /// must contain every point old and new — the ring sweep's lower-bound
  /// pruning relies on no point being clamped into an edge bin from outside.
  /// Bin assignments are cached per point, so a pure append re-runs the
  /// O(n) counting sort over cached bins without re-binning old points; the
  /// geometry is re-binned only when the box grows or the target bins-per-
  /// dimension changes with the new point count. `ids` must be non-empty
  /// iff the builder was constructed with ids. Not safe to call
  /// concurrently with build()/build_into().
  void add_points(const std::vector<Vec3>& points,
                  const std::vector<std::int64_t>& ids, const Vec3& bounds_min,
                  const Vec3& bounds_max);

  /// Construct the Voronoi cell of `points[site]` clipped to the seed box
  /// [box_min, box_max] (typically the block bounds grown by the ghost
  /// thickness). The site must lie inside the seed box.
  [[nodiscard]] VoronoiCell build(int site, const Vec3& box_min,
                                  const Vec3& box_max) const;

  /// Same computation, but resets and reuses `cell` and `scratch` instead
  /// of allocating: the steady-state path for tight per-site loops. Each
  /// thread must own its cell/scratch pair; the builder itself is shared.
  void build_into(VoronoiCell& cell, ClipScratch& scratch, int site,
                  const Vec3& box_min, const Vec3& box_max) const;

  /// True when the cell of `points[site]` in the seed box [box_min, box_max]
  /// provably keeps a box face, so build_into() would return it incomplete
  /// whatever the candidate order. Witness: for some box face, let q be the
  /// site projected onto it and r = |q - site|; if no other point lies in
  /// the ball B(q, r), widened by a relative margin (see the .cpp), q and a
  /// patch of that face around it survive every bisector cut. False means
  /// only "not proven". Pure and cheap: it scans the grid bins the ball
  /// overlaps, the one holding the midpoint of site and q first.
  [[nodiscard]] bool proves_incomplete(int site, const Vec3& box_min,
                                       const Vec3& box_max) const;

  /// build_into() that additionally records the per-stage trace consumed by
  /// the parity harness (geom/parity.hpp). Slower; not for production use.
  void build_traced(VoronoiCell& cell, ClipScratch& scratch, int site,
                    const Vec3& box_min, const Vec3& box_max,
                    CellTrace& trace) const;

  [[nodiscard]] std::size_t num_points() const { return points_.size(); }
  [[nodiscard]] const std::vector<Vec3>& points() const { return points_; }
  [[nodiscard]] TessBackend backend() const { return backend_; }

  /// Total bisector cuts attempted across all build() calls (diagnostics).
  /// Per-call counts accumulate in the caller's ClipScratch and are merged
  /// here once per build, so concurrent builders stay race-free.
  [[nodiscard]] std::uint64_t cuts_attempted() const {
    return cuts_.load(std::memory_order_relaxed);
  }

  /// Total clip() calls across all build() calls that left the cell
  /// unchanged because no live vertex lay outside the bisector. Merged from
  /// the caller's ClipScratch once per build, like cuts_attempted().
  [[nodiscard]] std::uint64_t clips_noop() const {
    return clips_noop_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] BackendStats backend_stats() const {
    BackendStats s;
    s.cand_seen = cand_seen_.load(std::memory_order_relaxed);
    s.cand_kept = cand_kept_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.lanes = lanes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  [[nodiscard]] int bin_of(const Vec3& p) const;
  /// Bin index along axis `a` of coordinate `x`, clamped to the grid: the
  /// per-axis part of bin_of(), monotone in `x` for any finite value.
  [[nodiscard]] int axis_bin(int a, double x) const;
  /// True when some point other than `site` lies within squared distance
  /// `lim2` of `q`; scans bin `first` before the rest of the bins that
  /// overlap the ball.
  [[nodiscard]] bool ball_occupied(int site, const Vec3& q, double lim2,
                                   int first) const;
  /// Target bins per dimension (~4 points per bin) for `n` points.
  [[nodiscard]] static int target_per_dim(std::size_t n);
  /// Resize the grid to per_dim^3 over [lo_, hi_], recompute every cached
  /// bin assignment, and rebuild the CSR slabs.
  void rebuild_grid(int per_dim);
  /// Counting-sort points into the CSR slabs from the cached point_bin_
  /// assignments. Reuses all storage; no per-bin allocations.
  void fill_csr();
  /// Shared core of build_into/build_traced; `trace` may be null.
  void build_impl(VoronoiCell& cell, ClipScratch& scratch, int site,
                  const Vec3& box_min, const Vec3& box_max,
                  CellTrace* trace) const;

  std::vector<Vec3> points_;
  std::vector<std::int64_t> ids_;
  Vec3 lo_, hi_;
  int nb_[3] = {1, 1, 1};    // grid bins per dimension
  double h_[3] = {0, 0, 0};  // bin extents
  TessBackend backend_ = TessBackend::kScalar;

  // CSR grid over the points: bin b owns CSR slots
  // [bin_offsets_[b], bin_offsets_[b+1]); bin_items_[s] is the point index
  // in slot s and csr_x_/y_/z_[s] its coordinates (SoA, gathered by the
  // ring sweep with contiguous copies).
  std::vector<int> point_bin_;  // cached bin id per point
  std::vector<int> bin_offsets_;
  std::vector<int> bin_items_;
  std::vector<double> csr_x_, csr_y_, csr_z_;
  std::vector<int> csr_cursor_;  // counting-sort scratch

  mutable std::atomic<std::uint64_t> cuts_{0};
  mutable std::atomic<std::uint64_t> clips_noop_{0};
  mutable std::atomic<std::uint64_t> cand_seen_{0};
  mutable std::atomic<std::uint64_t> cand_kept_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
  mutable std::atomic<std::uint64_t> lanes_{0};
};

}  // namespace tess::geom
