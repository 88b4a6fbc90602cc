#include "geom/parity.hpp"

#include <cstring>

#include "geom/cell_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::geom {

namespace {

// Bitwise double comparison: the parity contract is byte identity, so +0.0
// vs -0.0 (equal under ==) still counts as a divergence.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bits_equal(const Vec3& a, const Vec3& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.z, b.z);
}

std::string first_mismatch(const char* what, std::size_t index) {
  return std::string(what) + " diverge at position " + std::to_string(index);
}

// Compare one site's two traced builds; returns the earliest diverging
// stage, or an empty stage when everything matches bit for bit.
ParityDivergence compare_cell(int site, const CellBuilder::CellTrace& ta,
                              const CellBuilder::CellTrace& tb,
                              const VoronoiCell& ca, const VoronoiCell& cb) {
  ParityDivergence d;
  d.site = site;

  if (ta.candidates.size() != tb.candidates.size()) {
    d.stage = "candidates";
    d.detail = "candidate count scalar=" + std::to_string(ta.candidates.size()) +
               " simd=" + std::to_string(tb.candidates.size());
    return d;
  }
  for (std::size_t i = 0; i < ta.candidates.size(); ++i)
    if (!bits_equal(ta.candidates[i].first, tb.candidates[i].first) ||
        ta.candidates[i].second != tb.candidates[i].second) {
      d.stage = "candidates";
      d.detail = first_mismatch("candidate (dist2, id)", i);
      return d;
    }

  if (ta.cut_ids != tb.cut_ids) {
    d.stage = "cuts";
    std::size_t i = 0;
    while (i < ta.cut_ids.size() && i < tb.cut_ids.size() &&
           ta.cut_ids[i] == tb.cut_ids[i])
      ++i;
    d.detail = "cut sequence (scalar " + std::to_string(ta.cut_ids.size()) +
               " vs simd " + std::to_string(tb.cut_ids.size()) +
               " cuts) diverges at cut " + std::to_string(i);
    return d;
  }

  if (ca.vertices().size() != cb.vertices().size()) {
    d.stage = "vertices";
    d.detail = "vertex count scalar=" + std::to_string(ca.vertices().size()) +
               " simd=" + std::to_string(cb.vertices().size());
    return d;
  }
  for (std::size_t i = 0; i < ca.vertices().size(); ++i)
    if (!bits_equal(ca.vertices()[i], cb.vertices()[i])) {
      d.stage = "vertices";
      d.detail = first_mismatch("vertex coordinates", i);
      return d;
    }

  if (ca.faces().size() != cb.faces().size()) {
    d.stage = "faces";
    d.detail = "face count scalar=" + std::to_string(ca.faces().size()) +
               " simd=" + std::to_string(cb.faces().size());
    return d;
  }
  for (std::size_t i = 0; i < ca.faces().size(); ++i) {
    const auto& fa = ca.faces()[i];
    const auto& fb = cb.faces()[i];
    if (fa.source != fb.source || !bits_equal(fa.plane_n, fb.plane_n) ||
        !bits_equal(fa.plane_d, fb.plane_d) || fa.verts.size() != fb.verts.size() ||
        !std::equal(fa.verts.begin(), fa.verts.end(), fb.verts.begin())) {
      d.stage = "faces";
      d.detail = first_mismatch("face source/plane/loop", i);
      return d;
    }
  }
  return d;  // stage empty: match
}

}  // namespace

std::string ParityReport::summary() const {
  // Built with one append per piece: gcc 12 reports a false -Wrestrict
  // inside libstdc++ for `"literal" + std::to_string(...)` in Release.
  std::string s = "backend parity: ";
  s.append(std::to_string(cells)).append(" cells, ");
  s.append(std::to_string(divergences.size())).append(" divergences, cuts ");
  s.append(std::to_string(cuts_scalar)).append(" (scalar) vs ");
  s.append(std::to_string(cuts_simd)).append(" (simd)");
  if (!divergences.empty()) {
    const auto& d = divergences.front();
    s.append("; first at site ").append(std::to_string(d.site));
    s.append(" stage ").append(d.stage);
    s.append(" (").append(d.detail).append(")");
    s.append("; debug cells:");
    for (int c : debug_cells) s.append(" ").append(std::to_string(c));
  }
  return s;
}

ParityReport compare_backends(const std::vector<Vec3>& points,
                              const std::vector<std::int64_t>& ids,
                              const Vec3& bounds_min, const Vec3& bounds_max,
                              const Vec3& box_min, const Vec3& box_max,
                              const ParityOptions& opts) {
  TESS_SPAN("geom.parity.compare");
  ParityReport report;
  const CellBuilder scalar(points, ids, bounds_min, bounds_max,
                           TessBackend::kScalar);
  const CellBuilder simd(points, ids, bounds_min, bounds_max,
                         TessBackend::kSimd);

  VoronoiCell ca({}, box_min, box_max), cb({}, box_min, box_max);
  ClipScratch sa, sb;
  CellBuilder::CellTrace ta, tb;
  for (int site = 0; site < static_cast<int>(points.size()); ++site) {
    scalar.build_traced(ca, sa, site, box_min, box_max, ta);
    simd.build_traced(cb, sb, site, box_min, box_max, tb);
    ++report.cells;
    ParityDivergence d = compare_cell(site, ta, tb, ca, cb);
    if (!d.stage.empty() && report.divergences.size() < opts.max_divergences) {
      report.debug_cells.push_back(site);
      report.divergences.push_back(std::move(d));
    }
  }
  report.cuts_scalar = scalar.cuts_attempted();
  report.cuts_simd = simd.cuts_attempted();

  if (opts.emit_metrics) {
    // Reported on every run (the StageB lesson: a green parity run that
    // left no trace is indistinguishable from a parity run that never
    // happened).
    TESS_COUNT("geom.parity.cells", static_cast<std::int64_t>(report.cells));
    TESS_COUNT("geom.parity.divergences",
               static_cast<std::int64_t>(report.divergences.size()));
  }
  return report;
}

}  // namespace tess::geom
