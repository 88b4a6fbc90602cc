#include "geom/delaunay.hpp"

#include <algorithm>
#include <stdexcept>

namespace tess::geom {

std::vector<Tetrahedron> delaunay_from_cells(
    const std::vector<VoronoiCell>& cells,
    const std::vector<std::int64_t>& site_ids) {
  if (cells.size() != site_ids.size())
    throw std::invalid_argument("delaunay_from_cells: size mismatch");

  std::vector<Tetrahedron> tets;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& cell = cells[c];
    if (!cell.complete()) continue;
    // Every stored vertex is live (clipping drops the ones it removes).
    for (const auto& g : cell.vertex_generators()) {
      if (g[0] < 0 || g[1] < 0 || g[2] < 0) continue;  // box plane or unset
      Tetrahedron t{{site_ids[c], g[0], g[1], g[2]}};
      std::sort(t.v.begin(), t.v.end());
      // A degenerate vertex can repeat a generator; skip those tuples.
      if (t.v[0] == t.v[1] || t.v[1] == t.v[2] || t.v[2] == t.v[3]) continue;
      tets.push_back(t);
    }
  }
  std::sort(tets.begin(), tets.end());
  tets.erase(std::unique(tets.begin(), tets.end()), tets.end());
  return tets;
}

std::vector<std::array<std::int64_t, 2>> delaunay_edges_from_cells(
    const std::vector<VoronoiCell>& cells,
    const std::vector<std::int64_t>& site_ids) {
  if (cells.size() != site_ids.size())
    throw std::invalid_argument("delaunay_edges_from_cells: size mismatch");

  std::vector<std::array<std::int64_t, 2>> edges;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::int64_t nb : cells[c].neighbor_ids()) {
      std::array<std::int64_t, 2> e{site_ids[c], nb};
      if (e[0] > e[1]) std::swap(e[0], e[1]);
      edges.push_back(e);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace tess::geom
