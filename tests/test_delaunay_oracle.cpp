// Independent reference for the tessellator's cells: an incremental
// Bowyer–Watson Delaunay triangulation built only on the exact orient3d and
// insphere predicates, whose dual gives each site's Voronoi cell. The
// tessellator clips half-spaces; the oracle never does, so a clipper defect
// cannot pass both. Every emitted cell of a 2- and a 4-rank run must carry
// the oracle's natural-neighbour id set and its volume to a relative 1e-9,
// on random, lattice, coplanar, cospherical, clustered and duplicate-point
// inputs in periodic and open domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "geom/predicates.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

/// Relative bound on |V_tess - V_oracle| / V_oracle.
constexpr double kVolumeTol = 1e-9;
/// A dual face counts as a natural-neighbour face when its area exceeds
/// this fraction of the cell's total face area; exactly degenerate faces
/// (cospherical inputs) evaluate to rounding noise far below it.
constexpr double kFaceAreaTol = 1e-9;

Vec3 circumcentre(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  const Vec3 u = b - a, v = c - a, w = d - a;
  const Vec3 vw = cross(v, w), wu = cross(w, u), uv = cross(u, v);
  const double den = 2.0 * dot(u, vw);
  return a + (vw * norm2(u) + wu * norm2(v) + uv * norm2(w)) / den;
}

/// Incremental Bowyer–Watson Delaunay triangulation. Vertices 0..3 are the
/// corners of an enclosing super-tetrahedron; every tetrahedron is stored
/// positively oriented (orient3d > 0), and nb[k] is the tetrahedron across
/// the face opposite v[k] (-1 on the super-tetrahedron's hull).
class Delaunay {
 public:
  static constexpr int kSuper = 4;

  /// `lo`/`hi` bound every point that will be inserted.
  Delaunay(const Vec3& lo, const Vec3& hi) {
    const Vec3 c{std::round(0.5 * (lo.x + hi.x)), std::round(0.5 * (lo.y + hi.y)),
                 std::round(0.5 * (lo.z + hi.z))};
    const double extent = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1.0});
    const double m = std::exp2(std::ceil(std::log2(extent)) + 7.0);
    pts_ = {c + Vec3{m, m, m}, c + Vec3{m, -m, -m}, c + Vec3{-m, m, -m},
            c + Vec3{-m, -m, m}};
    if (tess::geom::orient3d(pts_[0], pts_[1], pts_[2], pts_[3]) < 0)
      std::swap(pts_[2], pts_[3]);
    site_.assign(kSuper, -1);
    tets_.push_back({{0, 1, 2, 3}, {-1, -1, -1, -1}, true});
    mark_.push_back(0);
  }

  /// Inserts `p` on behalf of site index `site`. Returns false, changing
  /// nothing, when `p` coincides with an inserted vertex.
  bool insert(const Vec3& p, int site) {
    const int t0 = locate(p);
    for (int v : tets_[static_cast<std::size_t>(t0)].v)
      if (pts_[static_cast<std::size_t>(v)] == p) return false;

    // Cavity: the connected set of tetrahedra whose circumsphere holds p
    // strictly inside. The one containing p always does (p is not one of
    // its vertices), and strict conflict keeps every new tetrahedron
    // non-degenerate even on cospherical inputs.
    ++stamp_;
    std::vector<int> cavity{t0};
    mark_[static_cast<std::size_t>(t0)] = stamp_;
    for (std::size_t q = 0; q < cavity.size(); ++q)
      for (int nb : tets_[static_cast<std::size_t>(cavity[q])].nb)
        if (nb >= 0 && mark_[static_cast<std::size_t>(nb)] != stamp_ &&
            in_conflict(nb, p)) {
          mark_[static_cast<std::size_t>(nb)] = stamp_;
          cavity.push_back(nb);
        }

    // Cone p over the cavity's boundary faces. A new tetrahedron replaces
    // the cavity tetrahedron's far vertex by p, which keeps it positively
    // oriented; its faces through p pair up across the cavity's edges.
    const int vp = static_cast<int>(pts_.size());
    pts_.push_back(p);
    site_.push_back(site);
    std::map<std::pair<int, int>, std::pair<int, int>> open_faces;
    for (int c : cavity) {
      for (int k = 0; k < 4; ++k) {
        const Tet& old = tets_[static_cast<std::size_t>(c)];
        const int outer = old.nb[static_cast<std::size_t>(k)];
        if (outer >= 0 && mark_[static_cast<std::size_t>(outer)] == stamp_) continue;
        Tet nt{old.v, {-1, -1, -1, -1}, true};
        nt.v[static_cast<std::size_t>(k)] = vp;
        nt.nb[static_cast<std::size_t>(k)] = outer;
        const int id = static_cast<int>(tets_.size());
        if (outer >= 0)
          for (int& back : tets_[static_cast<std::size_t>(outer)].nb)
            if (back == c) back = id;
        for (int m = 0; m < 4; ++m) {
          if (m == k) continue;
          std::array<int, 2> e{};
          int ne = 0;
          for (int q = 0; q < 4; ++q)
            if (q != k && q != m)
              e[static_cast<std::size_t>(ne++)] = nt.v[static_cast<std::size_t>(q)];
          const auto key = std::minmax(e[0], e[1]);
          const auto it = open_faces.find(key);
          if (it == open_faces.end()) {
            open_faces.emplace(key, std::make_pair(id, m));
          } else {
            nt.nb[static_cast<std::size_t>(m)] = it->second.first;
            tets_[static_cast<std::size_t>(it->second.first)]
                .nb[static_cast<std::size_t>(it->second.second)] = id;
            open_faces.erase(it);
          }
        }
        tets_.push_back(nt);
        mark_.push_back(0);
      }
    }
    EXPECT_TRUE(open_faces.empty()) << "cavity boundary not closed";
    for (int c : cavity) tets_[static_cast<std::size_t>(c)].alive = false;
    last_ = static_cast<int>(tets_.size()) - 1;
    return true;
  }

  struct DualCell {
    double volume = 0.0;
    std::set<int> neighbors;  ///< site indices of the natural neighbours
    bool touches_super = false;
    /// Some circumball of the star reaches outside the box passed to
    /// dual_cell(), where points may be missing.
    bool leaves_cover = false;
  };

  /// Star of every vertex (alive tetrahedra containing it).
  void build_stars() {
    stars_.assign(pts_.size(), {});
    cc_.assign(tets_.size(), Vec3{});
    for (std::size_t t = 0; t < tets_.size(); ++t) {
      if (!tets_[t].alive) continue;
      const auto& v = tets_[t].v;
      for (int q : v) stars_[static_cast<std::size_t>(q)].push_back(static_cast<int>(t));
      if (v[0] >= kSuper && v[1] >= kSuper && v[2] >= kSuper && v[3] >= kSuper)
        cc_[t] = circumcentre(P(v[0]), P(v[1]), P(v[2]), P(v[3]));
    }
  }

  /// The Voronoi cell of vertex `vi` as the Delaunay dual: for each edge
  /// (vi, vj), the circumcentres of the tetrahedra around the edge, in
  /// ring order, are the face polygon; the cell is the union of pyramids
  /// from the site over those faces. Requires build_stars(). Circumballs
  /// are checked against the box [lo, hi].
  DualCell dual_cell(int vi, const Vec3& lo, const Vec3& hi) const {
    DualCell cell;
    const auto& star = stars_[static_cast<std::size_t>(vi)];
    for (int t : star)
      for (int q : tets_[static_cast<std::size_t>(t)].v)
        if (q < kSuper) cell.touches_super = true;
    if (cell.touches_super) return cell;
    for (int t : star) {
      const Vec3& c = cc_[static_cast<std::size_t>(t)];
      const double r = dist(c, P(tets_[static_cast<std::size_t>(t)].v[0]));
      for (std::size_t a = 0; a < 3; ++a)
        if (c[a] - r < lo[a] || c[a] + r > hi[a]) cell.leaves_cover = true;
    }

    std::map<int, double> area;  // vertex -> dual face area
    for (int t : star)
      for (int vj : tets_[static_cast<std::size_t>(t)].v)
        if (vj != vi && !area.count(vj)) area[vj] = face_area(vi, vj, t);
    double total = 0.0;
    for (const auto& [vj, a] : area) total += a;
    for (const auto& [vj, a] : area) {
      cell.volume += a * dist(P(vj), P(vi)) / 6.0;
      if (a > kFaceAreaTol * total) cell.neighbors.insert(site_[static_cast<std::size_t>(vj)]);
    }
    return cell;
  }

 private:
  struct Tet {
    std::array<int, 4> v;
    std::array<int, 4> nb;
    bool alive;
  };

  const Vec3& P(int v) const { return pts_[static_cast<std::size_t>(v)]; }

  bool in_conflict(int t, const Vec3& p) const {
    const auto& v = tets_[static_cast<std::size_t>(t)].v;
    return tess::geom::insphere(P(v[0]), P(v[1]), P(v[2]), P(v[3]), p) > 0;
  }

  /// Visibility walk from the last created tetrahedron to one that
  /// contains p (closed). The face tried first rotates, which keeps the
  /// walk from cycling on degenerate configurations.
  int locate(const Vec3& p) {
    int t = last_;
    for (;;) {
      const Tet& cur = tets_[static_cast<std::size_t>(t)];
      int next = -1;
      rot_ = (rot_ * 1103515245u + 12345u) & 0x7fffffffu;
      const int start = static_cast<int>((rot_ >> 16) & 3u);
      for (int q = 0; q < 4 && next < 0; ++q) {
        const int k = (start + q) & 3;
        std::array<Vec3, 4> w{P(cur.v[0]), P(cur.v[1]), P(cur.v[2]), P(cur.v[3])};
        w[static_cast<std::size_t>(k)] = p;
        if (tess::geom::orient3d(w[0], w[1], w[2], w[3]) < 0) {
          next = cur.nb[static_cast<std::size_t>(k)];
          if (next < 0) {
            ADD_FAILURE() << "point outside the super-tetrahedron";
            return t;
          }
        }
      }
      if (next < 0) return t;
      t = next;
    }
  }

  /// Area of the dual face of edge (vi, vj), starting from tetrahedron t0
  /// of the edge's ring. With t = {vi, vj, x, y}, the next tetrahedron is
  /// the one across the face opposite x, which shares vi, vj and y.
  double face_area(int vi, int vj, int t0) const {
    auto others = [&](int t) {
      std::array<int, 2> o{};
      int n = 0;
      for (int q : tets_[static_cast<std::size_t>(t)].v)
        if (q != vi && q != vj) o[static_cast<std::size_t>(n++)] = q;
      return o;
    };
    std::vector<Vec3> ring;
    int t = t0;
    int x = others(t0)[0];
    do {
      ring.push_back(cc_[static_cast<std::size_t>(t)]);
      const auto o = others(t);
      const int y = o[0] == x ? o[1] : o[0];
      const auto& cur = tets_[static_cast<std::size_t>(t)];
      const int k = static_cast<int>(std::find(cur.v.begin(), cur.v.end(), x) - cur.v.begin());
      t = cur.nb[static_cast<std::size_t>(k)];
      x = y;
    } while (t != t0 && t >= 0 && ring.size() <= tets_.size());
    EXPECT_EQ(t, t0) << "edge ring did not close";
    Vec3 n{};
    for (std::size_t k = 1; k + 1 < ring.size(); ++k)
      n += cross(ring[k] - ring[0], ring[k + 1] - ring[0]);
    return 0.5 * norm(n);
  }

  std::vector<Vec3> pts_;
  std::vector<int> site_;
  std::vector<Tet> tets_;
  std::vector<unsigned> mark_;
  unsigned stamp_ = 0;
  int last_ = 0;
  unsigned rot_ = 1;
  std::vector<std::vector<int>> stars_;
  std::vector<Vec3> cc_;
};

struct OracleCell {
  double volume = 0.0;
  std::set<std::int64_t> neighbors;
  bool bounded = false;  ///< the star avoids the super-tetrahedron
};

/// Dual cells of every site, keyed by particle id. Sites are inserted in
/// input order, so a later copy of a coincident point is the one ignored
/// (it gets no entry). A periodic domain [0, L)^3 inserts the images of
/// every site within L/2 of the box; each original's star must avoid the
/// super-tetrahedron and its circumballs must stay inside that cover, so
/// no missing image could have changed the cell.
std::map<std::int64_t, OracleCell> oracle_cells(const std::vector<Particle>& ps,
                                                double domain, bool periodic) {
  const double cover = periodic ? 0.5 * domain : 0.0;
  const Vec3 lo{-cover, -cover, -cover};
  const Vec3 hi{domain + cover, domain + cover, domain + cover};
  Delaunay dt(lo, hi);
  std::vector<int> vertex_of(ps.size(), -1);
  int next_vertex = Delaunay::kSuper;
  for (std::size_t i = 0; i < ps.size(); ++i)
    if (dt.insert(ps[i].pos, static_cast<int>(i))) vertex_of[i] = next_vertex++;
  if (periodic) {
    for (int sx = -1; sx <= 1; ++sx)
      for (int sy = -1; sy <= 1; ++sy)
        for (int sz = -1; sz <= 1; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          for (std::size_t i = 0; i < ps.size(); ++i) {
            const Vec3 q = ps[i].pos + Vec3{sx * domain, sy * domain, sz * domain};
            if (q.x < lo.x || q.y < lo.y || q.z < lo.z || q.x > hi.x ||
                q.y > hi.y || q.z > hi.z)
              continue;
            dt.insert(q, static_cast<int>(i));
          }
        }
  }
  dt.build_stars();
  std::map<std::int64_t, OracleCell> out;
  double total = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (vertex_of[i] < 0) continue;
    const auto dual = dt.dual_cell(vertex_of[i], lo, hi);
    OracleCell cell;
    cell.bounded = !dual.touches_super;
    cell.volume = dual.volume;
    for (int s : dual.neighbors) cell.neighbors.insert(ps[static_cast<std::size_t>(s)].id);
    if (periodic) {
      EXPECT_TRUE(cell.bounded) << "site " << ps[i].id << " touches the super-tetrahedron";
      EXPECT_FALSE(dual.leaves_cover) << "site " << ps[i].id << " needs more images";
      total += cell.volume;
    }
    out.emplace(ps[i].id, std::move(cell));
  }
  // The oracle's own partition check: periodic dual cells tile the box.
  if (periodic) {
    EXPECT_NEAR(total, domain * domain * domain, 1e-9 * domain * domain * domain);
  }
  return out;
}

/// Runs the tessellator on `ranks` thread-ranks and gathers every block.
std::vector<BlockMesh> tessellate(const std::vector<Particle>& ps, double domain,
                                  bool periodic, const TessOptions& opt,
                                  int ranks) {
  std::vector<BlockMesh> meshes;
  Runtime::run(ranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(ranks), periodic);
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    auto all = tess::core::gather_meshes(c, mesh);
    if (c.rank() == 0) meshes = std::move(all);
  });
  return meshes;
}

/// Asserts every emitted cell of a 2- and a 4-rank run against the oracle.
/// Sites in `skip` (duplicated points) are not compared. In a periodic
/// domain every other site must also be emitted.
void expect_matches_oracle(const std::vector<Particle>& ps, double domain,
                           bool periodic, const TessOptions& opt,
                           const std::set<std::int64_t>& skip = {}) {
  const auto oracle = oracle_cells(ps, domain, periodic);
  for (const int ranks : {2, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    std::set<std::int64_t> emitted;
    std::size_t compared = 0;
    for (const BlockMesh& mesh : tessellate(ps, domain, periodic, opt, ranks)) {
      for (const auto& cell : mesh.cells) {
        EXPECT_TRUE(emitted.insert(cell.site_id).second)
            << "site " << cell.site_id << " emitted twice";
        if (skip.count(cell.site_id)) continue;
        const auto it = oracle.find(cell.site_id);
        ASSERT_NE(it, oracle.end()) << "site " << cell.site_id;
        const OracleCell& want = it->second;
        ASSERT_TRUE(want.bounded) << "site " << cell.site_id
                                  << " is unbounded in the oracle";
        const auto first = mesh.face_neighbors.begin() + cell.first_face;
        const std::set<std::int64_t> got(first, first + cell.num_faces);
        EXPECT_EQ(got, want.neighbors) << "site " << cell.site_id;
        EXPECT_NEAR(cell.volume, want.volume, kVolumeTol * want.volume)
            << "site " << cell.site_id;
        ++compared;
      }
    }
    EXPECT_GT(compared, 0u);
    if (!periodic) continue;
    for (const auto& p : ps) {
      if (!skip.count(p.id)) {
        EXPECT_TRUE(emitted.count(p.id)) << "site " << p.id << " missing";
      }
    }
  }
}

TessOptions auto_ghost_options(double ghost) {
  TessOptions opt;
  opt.ghost = ghost;
  opt.auto_ghost = true;
  return opt;
}

std::vector<Particle> with_ids(const std::vector<Vec3>& pts) {
  std::vector<Particle> ps;
  for (std::size_t i = 0; i < pts.size(); ++i)
    ps.push_back({pts[i], static_cast<std::int64_t>(i)});
  return ps;
}

std::vector<Vec3> random_points(int n, double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, domain), rng.uniform(0, domain), rng.uniform(0, domain)});
  return pts;
}

/// n^3 cell-centred lattice: every Delaunay sphere carries 8 sites.
std::vector<Vec3> lattice_points(int n, double domain) {
  const double a = domain / n;
  std::vector<Vec3> pts;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) pts.push_back({(x + 0.5) * a, (y + 0.5) * a, (z + 0.5) * a});
  return pts;
}

/// Points on four exact planes (two z = const, two x = const) plus a
/// random background.
std::vector<Vec3> plane_points(double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (const double h : {0.25, 0.625}) {
    for (int i = 0; i < 80; ++i)
      pts.push_back({rng.uniform(0, domain), rng.uniform(0, domain), h * domain});
    for (int i = 0; i < 80; ++i)
      pts.push_back({h * domain + 0.5, rng.uniform(0, domain), rng.uniform(0, domain)});
  }
  for (int i = 0; i < 80; ++i)
    pts.push_back({rng.uniform(0, domain), rng.uniform(0, domain), rng.uniform(0, domain)});
  return pts;
}

/// Exact integer shells x^2 + y^2 + z^2 = 9 and = 27 around a centre site,
/// inside a spacing-4 lattice kept clear of the shells: every point is an
/// integer, so cospherical sets stay exactly cospherical.
std::vector<Vec3> cospherical_points() {
  const Vec3 c{8, 8, 8};
  std::vector<Vec3> pts{c};
  for (const int r2 : {9, 27})
    for (int x = -5; x <= 5; ++x)
      for (int y = -5; y <= 5; ++y)
        for (int z = -5; z <= 5; ++z)
          if (x * x + y * y + z * z == r2) pts.push_back(c + Vec3{double(x), double(y), double(z)});
  for (int x = 0; x < 16; x += 4)
    for (int y = 0; y < 16; y += 4)
      for (int z = 0; z < 16; z += 4) {
        const Vec3 q{double(x), double(y), double(z)};
        if (dist2(q, c) > 6.5 * 6.5) pts.push_back(q);
      }
  return pts;
}

/// Dense blob plus sparse background (the backend-parity suite's cloud).
std::vector<Vec3> clustered_points(int n, double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      pts.push_back({rng.uniform(0.0, domain), rng.uniform(0.0, domain),
                     rng.uniform(0.0, domain)});
    } else {
      Vec3 p{0.4 * domain + rng.normal(0.0, 0.04 * domain),
             0.5 * domain + rng.normal(0.0, 0.04 * domain),
             0.5 * domain + rng.normal(0.0, 0.04 * domain)};
      p.x = std::clamp(p.x, 0.0, domain * (1.0 - 1e-12));
      p.y = std::clamp(p.y, 0.0, domain * (1.0 - 1e-12));
      p.z = std::clamp(p.z, 0.0, domain * (1.0 - 1e-12));
      pts.push_back(p);
    }
  }
  return pts;
}

void check_random(bool periodic) {
  expect_matches_oracle(with_ids(random_points(400, 6.0, 31)), 6.0, periodic,
                        auto_ghost_options(1.0));
}

void check_random_fixed_ghost(bool periodic) {
  // One fixed pass at half the domain: enough ghost for every cell.
  TessOptions opt;
  opt.ghost = 2.5;
  expect_matches_oracle(with_ids(random_points(200, 5.0, 13)), 5.0, periodic, opt);
}

void check_lattice(bool periodic) {
  expect_matches_oracle(with_ids(lattice_points(8, 6.0)), 6.0, periodic,
                        auto_ghost_options(1.0));
}

void check_planes(bool periodic) {
  expect_matches_oracle(with_ids(plane_points(8.0, 5)), 8.0, periodic,
                        auto_ghost_options(1.0));
}

void check_cospherical_shells(bool periodic) {
  expect_matches_oracle(with_ids(cospherical_points()), 16.0, periodic,
                        auto_ghost_options(2.0));
}

void check_clustered(bool periodic) {
  expect_matches_oracle(with_ids(clustered_points(480, 8.0, 77)), 8.0, periodic,
                        auto_ghost_options(1.0));
}

void check_duplicate_points(bool periodic) {
  // The second copy of each duplicated point has the higher id, so the
  // oracle keeps the first; only the other sites are compared.
  auto pts = random_points(300, 6.0, 41);
  std::set<std::int64_t> skip;
  for (int i = 0; i < 300; i += 15) {
    skip.insert(i);
    skip.insert(static_cast<std::int64_t>(pts.size()));
    pts.push_back(pts[static_cast<std::size_t>(i)]);
  }
  expect_matches_oracle(with_ids(pts), 6.0, periodic, auto_ghost_options(1.0),
                        skip);
}

}  // namespace

TEST(DelaunayOracleSelf, LatticeCellsAreUnitCubes) {
  // The oracle alone, on the most degenerate input: each cell of a
  // periodic unit lattice is the unit cube with six face neighbours.
  const auto ps = with_ids(lattice_points(4, 4.0));
  const auto cells = oracle_cells(ps, 4.0, true);
  ASSERT_EQ(cells.size(), ps.size());
  for (const auto& [id, cell] : cells) {
    EXPECT_NEAR(cell.volume, 1.0, 1e-12) << "site " << id;
    EXPECT_EQ(cell.neighbors.size(), 6u) << "site " << id;
  }
}

TEST(DelaunayOracle, RandomPeriodic) { check_random(true); }
TEST(DelaunayOracle, RandomOpen) { check_random(false); }
TEST(DelaunayOracle, RandomFixedGhostPeriodic) { check_random_fixed_ghost(true); }
TEST(DelaunayOracle, RandomFixedGhostOpen) { check_random_fixed_ghost(false); }
TEST(DelaunayOracle, LatticePeriodic) { check_lattice(true); }
TEST(DelaunayOracle, LatticeOpen) { check_lattice(false); }
TEST(DelaunayOracle, PlanesPeriodic) { check_planes(true); }
TEST(DelaunayOracle, PlanesOpen) { check_planes(false); }
TEST(DelaunayOracle, CosphericalShellsPeriodic) { check_cospherical_shells(true); }
TEST(DelaunayOracle, CosphericalShellsOpen) { check_cospherical_shells(false); }
TEST(DelaunayOracle, ClusteredPeriodic) { check_clustered(true); }
TEST(DelaunayOracle, ClusteredOpen) { check_clustered(false); }
TEST(DelaunayOracle, DuplicatePointsPeriodic) { check_duplicate_points(true); }
TEST(DelaunayOracle, DuplicatePointsOpen) { check_duplicate_points(false); }
