#include "geom/cell_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geom/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace tess::geom {

CellBuilder::CellBuilder(std::vector<Vec3> points, std::vector<std::int64_t> ids,
                         const Vec3& bounds_min, const Vec3& bounds_max,
                         TessBackend backend)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      lo_(bounds_min),
      hi_(bounds_max),
      backend_(resolve_backend(backend)) {
  if (!ids_.empty() && ids_.size() != points_.size())
    throw std::invalid_argument("CellBuilder: ids/points size mismatch");
  rebuild_grid(target_per_dim(points_.size()));
}

int CellBuilder::target_per_dim(std::size_t n) {
  // Aim for ~4 points per bin so a shell sweep touches few empty bins.
  const double nd = static_cast<double>(std::max<std::size_t>(n, 1));
  return std::max(1, static_cast<int>(std::cbrt(nd / 4.0)));
}

void CellBuilder::rebuild_grid(int per_dim) {
  TESS_SPAN("geom.grid_rebuild");
  TESS_COUNT("geom.grid_rebuilds", 1);
  for (int a = 0; a < 3; ++a) {
    nb_[a] = per_dim;
    const double extent = hi_[static_cast<std::size_t>(a)] - lo_[static_cast<std::size_t>(a)];
    h_[a] = extent > 0.0 ? extent / per_dim : 1.0;
  }
  point_bin_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i)
    point_bin_[i] = bin_of(points_[i]);
  fill_csr();
}

void CellBuilder::fill_csr() {
  const std::size_t n = points_.size();
  const std::size_t nbins = static_cast<std::size_t>(nb_[0]) *
                            static_cast<std::size_t>(nb_[1]) *
                            static_cast<std::size_t>(nb_[2]);
  bin_offsets_.assign(nbins + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++bin_offsets_[static_cast<std::size_t>(point_bin_[i]) + 1];
  for (std::size_t b = 0; b < nbins; ++b) bin_offsets_[b + 1] += bin_offsets_[b];

  bin_items_.resize(n);
  csr_x_.resize(n);
  csr_y_.resize(n);
  csr_z_.resize(n);
  csr_cursor_.assign(bin_offsets_.begin(), bin_offsets_.end() - 1);
  // Stable within a bin: slots fill in increasing point index, matching the
  // append order of the old per-bin vectors.
  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(
        csr_cursor_[static_cast<std::size_t>(point_bin_[i])]++);
    bin_items_[slot] = static_cast<int>(i);
    csr_x_[slot] = points_[i].x;
    csr_y_[slot] = points_[i].y;
    csr_z_[slot] = points_[i].z;
  }
}

void CellBuilder::add_points(const std::vector<Vec3>& points,
                             const std::vector<std::int64_t>& ids,
                             const Vec3& bounds_min, const Vec3& bounds_max) {
  TESS_SPAN("geom.add_points");
  if (!ids.empty() && ids.size() != points.size())
    throw std::invalid_argument("CellBuilder: ids/points size mismatch");
  if ((ids_.empty() && !ids.empty() && !points_.empty()) ||
      (!ids_.empty() && ids.empty() && !points.empty()))
    throw std::invalid_argument("CellBuilder: id presence must match construction");

  const std::size_t first_new = points_.size();
  points_.insert(points_.end(), points.begin(), points.end());
  ids_.insert(ids_.end(), ids.begin(), ids.end());

  bool box_grew = false;
  for (std::size_t a = 0; a < 3; ++a) {
    if (bounds_min[a] < lo_[a]) {
      lo_[a] = bounds_min[a];
      box_grew = true;
    }
    if (bounds_max[a] > hi_[a]) {
      hi_[a] = bounds_max[a];
      box_grew = true;
    }
  }

  const int per_dim = target_per_dim(points_.size());
  if (box_grew || per_dim != nb_[0]) {
    rebuild_grid(per_dim);
  } else {
    // Geometry unchanged: bin only the new points, then re-run the counting
    // sort over cached assignments (O(n), reusing every buffer).
    point_bin_.resize(points_.size());
    for (std::size_t i = first_new; i < points_.size(); ++i)
      point_bin_[i] = bin_of(points_[i]);
    fill_csr();
  }
}

int CellBuilder::axis_bin(int a, double x) const {
  const double rel = (x - lo_[static_cast<std::size_t>(a)]) / h_[a];
  return static_cast<int>(std::clamp(rel, 0.0, static_cast<double>(nb_[a] - 1)));
}

int CellBuilder::bin_of(const Vec3& p) const {
  return (axis_bin(2, p.z) * nb_[1] + axis_bin(1, p.y)) * nb_[0] +
         axis_bin(0, p.x);
}

bool CellBuilder::proves_incomplete(int site, const Vec3& box_min,
                                    const Vec3& box_max) const {
  const Vec3& s = points_[static_cast<std::size_t>(site)];
  // Face f lies on axis f / 2, on the min side when f is even.
  for (int f = 0; f < 6; ++f) {
    const auto a = static_cast<std::size_t>(f / 2);
    Vec3 q = s;
    q[a] = f % 2 == 0 ? box_min[a] : box_max[a];
    const double r = std::fabs(s[a] - q[a]);
    // If every other point p has |q - p|^2 > r^2 + tol, q lies inside each
    // bisector half-space by at least tol / (2 |p - s|), so a disc of box
    // face around q survives every cut. clip()'s plane_eps only ever keeps
    // a vertex near a plane, so it cannot remove the disc; the relative
    // margin tol covers rounding in this test and in the cut vertices. A
    // point on the sphere, a duplicate of the site, or one within the
    // margin counts as inside, and the proof fails for this face.
    const double r2 = r * r;
    const double lim2 = r2 + 1e-9 * (r2 + norm2(q) + 1.0);
    // Points near the midpoint of s and q lie deep inside the ball, so for
    // an interior site its bin ends the scan after a few points.
    if (!ball_occupied(site, q, lim2, bin_of((s + q) * 0.5))) return true;
  }
  return false;
}

bool CellBuilder::ball_occupied(int site, const Vec3& q, double lim2,
                                int first) const {
  auto occupied = [&](int b) {
    const auto end = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b) + 1]);
    for (auto k = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b)]);
         k < end; ++k) {
      const double dx = csr_x_[k] - q.x;
      const double dy = csr_y_[k] - q.y;
      const double dz = csr_z_[k] - q.z;
      if (dx * dx + dy * dy + dz * dz <= lim2 && bin_items_[k] != site)
        return true;
    }
    return false;
  };
  if (occupied(first)) return true;
  // Bin ranges of the ball's bounding box. axis_bin() is the binning of
  // every stored point and is monotone, so a point inside the box lies in
  // a bin of these ranges, even one clamped into an edge bin.
  const double rad = std::sqrt(lim2);
  int b0[3], b1[3];
  for (int a = 0; a < 3; ++a) {
    b0[a] = axis_bin(a, q[static_cast<std::size_t>(a)] - rad);
    b1[a] = axis_bin(a, q[static_cast<std::size_t>(a)] + rad);
  }
  for (int z = b0[2]; z <= b1[2]; ++z)
    for (int y = b0[1]; y <= b1[1]; ++y)
      for (int x = b0[0]; x <= b1[0]; ++x) {
        const int b = (z * nb_[1] + y) * nb_[0] + x;
        if (b != first && occupied(b)) return true;
      }
  return false;
}

VoronoiCell CellBuilder::build(int site, const Vec3& box_min,
                               const Vec3& box_max) const {
  const Vec3& s = points_[static_cast<std::size_t>(site)];
  VoronoiCell cell(s, box_min, box_max);
  ClipScratch scratch;
  build_into(cell, scratch, site, box_min, box_max);
  return cell;
}

void CellBuilder::build_into(VoronoiCell& cell, ClipScratch& scratch, int site,
                             const Vec3& box_min, const Vec3& box_max) const {
  build_impl(cell, scratch, site, box_min, box_max, nullptr);
}

void CellBuilder::build_traced(VoronoiCell& cell, ClipScratch& scratch,
                               int site, const Vec3& box_min,
                               const Vec3& box_max, CellTrace& trace) const {
  trace.candidates.clear();
  trace.cut_ids.clear();
  build_impl(cell, scratch, site, box_min, box_max, &trace);
}

void CellBuilder::build_impl(VoronoiCell& cell, ClipScratch& scratch, int site,
                             const Vec3& box_min, const Vec3& box_max,
                             CellTrace* trace) const {
  const Vec3& s = points_[static_cast<std::size_t>(site)];
  cell.reset(s, box_min, box_max);
  scratch.backend = backend_;
  std::uint64_t cuts = 0;
  const std::uint64_t noop_start = scratch.clips_noop;
  std::uint64_t cand_seen = 0, cand_kept = 0, batches = 0, lanes = 0;

  // Site's bin coordinates.
  int sc[3];
  for (int a = 0; a < 3; ++a) sc[a] = axis_bin(a, s[static_cast<std::size_t>(a)]);
  const int site_bin = (sc[2] * nb_[1] + sc[1]) * nb_[0] + sc[0];
  const double hmin = std::min({h_[0], h_[1], h_[2]});
  const int max_ring = std::max({nb_[0], nb_[1], nb_[2]});

  auto& ring_pts = scratch.ring_pts;  // surviving (dist2, point index)
  auto& cx = scratch.cand_x;
  auto& cy = scratch.cand_y;
  auto& cz = scratch.cand_z;
  auto& cd2 = scratch.cand_d2;
  auto& cidx = scratch.cand_idx;

  auto merge_counters = [&] {
    scratch.cuts_attempted += cuts;
    cuts_.fetch_add(cuts, std::memory_order_relaxed);
    clips_noop_.fetch_add(scratch.clips_noop - noop_start,
                          std::memory_order_relaxed);
    cand_seen_.fetch_add(cand_seen, std::memory_order_relaxed);
    cand_kept_.fetch_add(cand_kept, std::memory_order_relaxed);
    batches_.fetch_add(batches, std::memory_order_relaxed);
    lanes_.fetch_add(lanes, std::memory_order_relaxed);
  };

  for (int r = 0; r <= max_ring; ++r) {
    // Any point in a bin at Chebyshev ring r is at least (r-1)*hmin from the
    // site; once that exceeds the security radius 2*Rmax, no remaining
    // candidate can cut the cell.
    if (r >= 2) {
      const double ring_min = (r - 1) * hmin;
      if (ring_min * ring_min > 4.0 * cell.max_radius2()) break;
    }

    // Gather the shell's candidates into contiguous SoA batches: one
    // three-array copy per bin segment (the CSR slabs are already SoA).
    cx.clear();
    cy.clear();
    cz.clear();
    cidx.clear();
    std::ptrdiff_t site_slot = -1;
    const int x0 = sc[0] - r, x1 = sc[0] + r;
    const int y0 = sc[1] - r, y1 = sc[1] + r;
    const int z0 = sc[2] - r, z1 = sc[2] + r;
    for (int z = std::max(z0, 0); z <= std::min(z1, nb_[2] - 1); ++z)
      for (int y = std::max(y0, 0); y <= std::min(y1, nb_[1] - 1); ++y)
        for (int x = std::max(x0, 0); x <= std::min(x1, nb_[0] - 1); ++x) {
          // Shell only: skip interior bins already visited at smaller r.
          if (r > 0 && x != x0 && x != x1 && y != y0 && y != y1 && z != z0 &&
              z != z1)
            continue;
          const int b = (z * nb_[1] + y) * nb_[0] + x;
          const auto begin = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b)]);
          const auto end = static_cast<std::size_t>(bin_offsets_[static_cast<std::size_t>(b) + 1]);
          if (begin == end) continue;
          const std::size_t base = cidx.size();
          cx.insert(cx.end(), csr_x_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_x_.begin() + static_cast<std::ptrdiff_t>(end));
          cy.insert(cy.end(), csr_y_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_y_.begin() + static_cast<std::ptrdiff_t>(end));
          cz.insert(cz.end(), csr_z_.begin() + static_cast<std::ptrdiff_t>(begin),
                    csr_z_.begin() + static_cast<std::ptrdiff_t>(end));
          cidx.insert(cidx.end(),
                      bin_items_.begin() + static_cast<std::ptrdiff_t>(begin),
                      bin_items_.begin() + static_cast<std::ptrdiff_t>(end));
          if (b == site_bin)
            for (std::size_t k = begin; k < end; ++k)
              if (bin_items_[k] == site) {
                site_slot = static_cast<std::ptrdiff_t>(base + (k - begin));
                break;
              }
        }

    const std::size_t n = cidx.size();
    cand_seen += n;
    if (backend_ == TessBackend::kSimd) {
      batches += (n + util::simd::kLanes - 1) / util::simd::kLanes;
      lanes += n;
    }

    // Batched squared distances (bitwise equal across backends), then the
    // site itself is masked out and the screen drops everything already
    // beyond the security radius at ring entry. The screen cannot change
    // the cut sequence: the threshold only shrinks as cuts land, so any
    // candidate past the entry threshold would have terminated the sorted
    // consume loop before being reached.
    cd2.resize(n);
    kernels::dist2_batch(backend_, cx.data(), cy.data(), cz.data(), n, s,
                         cd2.data());
    if (site_slot >= 0)
      cd2[static_cast<std::size_t>(site_slot)] =
          std::numeric_limits<double>::infinity();
    ring_pts.clear();
    cand_kept += kernels::screen_candidates(backend_, cd2.data(), cidx.data(),
                                            n, 4.0 * cell.max_radius2(),
                                            ring_pts);

    // Canonical candidate order: distance, then id, then position. The key
    // is a pure function of the particle (never its array index), so an
    // incrementally grown builder and a from-scratch builder over the same
    // point set cut every cell in the identical sequence — the invariant
    // behind byte-identical incremental auto-ghost. Position breaks id ties
    // between periodic self-images, which share one id.
    std::sort(ring_pts.begin(), ring_pts.end(),
              [this](const std::pair<double, int>& a,
                     const std::pair<double, int>& b) {
                if (a.first != b.first) return a.first < b.first;
                const std::int64_t ia =
                    ids_.empty() ? a.second : ids_[static_cast<std::size_t>(a.second)];
                const std::int64_t ib =
                    ids_.empty() ? b.second : ids_[static_cast<std::size_t>(b.second)];
                if (ia != ib) return ia < ib;
                const Vec3& pa = points_[static_cast<std::size_t>(a.second)];
                const Vec3& pb = points_[static_cast<std::size_t>(b.second)];
                if (pa.x != pb.x) return pa.x < pb.x;
                if (pa.y != pb.y) return pa.y < pb.y;
                return pa.z < pb.z;
              });
    if (trace)
      for (const auto& [d2, j] : ring_pts)
        trace->candidates.emplace_back(
            d2, ids_.empty() ? j : ids_[static_cast<std::size_t>(j)]);

    for (const auto& [d2, j] : ring_pts) {
      if (d2 > 4.0 * cell.max_radius2()) break;  // sorted: rest are farther
      const std::int64_t id = ids_.empty() ? j : ids_[static_cast<std::size_t>(j)];
      ++cuts;
      if (trace) trace->cut_ids.push_back(id);
      cell.cut(points_[static_cast<std::size_t>(j)], id, scratch);
      if (cell.empty()) {
        merge_counters();
        return;
      }
    }
  }
  merge_counters();
}

}  // namespace tess::geom
