//! The Bowyer–Watson loop `anr_mesh::delaunay` replaced, kept as a test
//! oracle: each inserted point scans every live triangle. The indexed
//! triangulation must return the same vertices and the same triangles
//! in the same order. Shared by the crates' oracle tests with
//! `#[path = ".../support/delaunay_scan.rs"] mod delaunay_scan;`.

use anr_geom::{in_circle, orient2d, Aabb, Point};
use anr_mesh::{MeshError, TriMesh};

/// Delaunay triangulation by scanning every live triangle per point.
pub fn delaunay_scan(points: &[Point]) -> Result<TriMesh, MeshError> {
    if points.len() < 3 {
        return Err(MeshError::TooFewPoints { got: points.len() });
    }

    let Some(bb) = Aabb::from_points(points.iter().copied()) else {
        return Err(MeshError::TooFewPoints { got: 0 });
    };
    let span = bb.diagonal().max(1.0);
    let center = bb.center();

    // Super-triangle large enough to strictly contain every point.
    let m = 20.0 * span;
    let s0 = Point::new(center.x - 2.0 * m, center.y - m);
    let s1 = Point::new(center.x + 2.0 * m, center.y - m);
    let s2 = Point::new(center.x, center.y + 2.0 * m);

    let n = points.len();
    let mut verts: Vec<Point> = points.to_vec();
    verts.push(s0); // index n
    verts.push(s1); // index n + 1
    verts.push(s2); // index n + 2

    // Active triangle list, with each triangle's circumcircle cached in
    // struct-of-arrays form. The cached circle is only a *prefilter*: a
    // triangle whose circle (with a generous relative slack) excludes the
    // query point cannot pass the exact guarded in_circle test below, so
    // skipping it never changes the bad set — the expensive determinant
    // runs only for the handful of candidates near the cavity.
    let mut tris: Vec<[usize; 3]> = vec![[n, n + 1, n + 2]];
    let mut alive: Vec<bool> = vec![true];
    let (c0x, c0y, c0r) = circumcircle(s0, s1, s2);
    let mut ccx: Vec<f64> = vec![c0x];
    let mut ccy: Vec<f64> = vec![c0y];
    let mut cr2: Vec<f64> = vec![c0r];
    let mut dead = 0usize;

    for pi in 0..n {
        let p = verts[pi];

        // Find all "bad" triangles whose circumcircle contains p.
        let mut bad: Vec<usize> = Vec::new();
        for ti in 0..tris.len() {
            if !alive[ti] {
                continue;
            }
            let dx = p.x - ccx[ti];
            let dy = p.y - ccy[ti];
            let d2 = dx * dx + dy * dy;
            let r2 = cr2[ti];
            // Conservative reject: slack is ~1e10× the worst rounding
            // error of the cached center (degenerate triangles cache an
            // infinite radius and always fall through to the exact test).
            if d2 > r2 + 1e-6 * (d2 + r2) {
                continue;
            }
            let t = tris[ti];
            let (a, b, c) = (verts[t[0]], verts[t[1]], verts[t[2]]);
            // Triangles are maintained CCW, required by in_circle's sign.
            // The guard is relative to the determinant's length⁴ scale so
            // cocircular quadruples classify consistently as "not inside"
            // instead of flipping sign with rounding noise.
            let scale = {
                let s = (a.distance_sq(p) + b.distance_sq(p) + c.distance_sq(p)) / 3.0;
                s * s
            };
            if in_circle(a, b, c, p) > 1e-12 * scale {
                bad.push(ti);
            }
        }

        // Boundary of the cavity: edges of bad triangles not shared by
        // two bad triangles.
        let mut edge_count: std::collections::BTreeMap<(usize, usize), (usize, usize, i32)> =
            std::collections::BTreeMap::new();
        for &ti in &bad {
            let t = tris[ti];
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                let key = (a.min(b), a.max(b));
                edge_count
                    .entry(key)
                    .and_modify(|e| e.2 += 1)
                    .or_insert((a, b, 1));
            }
        }

        for &ti in &bad {
            alive[ti] = false;
        }

        let mut hull: Vec<(usize, usize)> = edge_count
            .values()
            .filter(|&&(_, _, cnt)| cnt == 1)
            .map(|&(a, b, _)| (a, b))
            .collect();
        // Deterministic insertion order.
        hull.sort_unstable();

        for (a, b) in hull {
            // Orient the new triangle CCW.
            let (va, vb) = (verts[a], verts[b]);
            let t = if orient2d(va, vb, p) > 0.0 {
                [a, b, pi]
            } else {
                [b, a, pi]
            };
            // Skip degenerate (collinear) triangles.
            if orient2d(verts[t[0]], verts[t[1]], verts[t[2]]) <= 0.0 {
                continue;
            }
            let (cx, cy, r2) = circumcircle(verts[t[0]], verts[t[1]], verts[t[2]]);
            tris.push(t);
            alive.push(true);
            ccx.push(cx);
            ccy.push(cy);
            cr2.push(r2);
        }

        // Compact dead slots once they dominate, preserving relative
        // order so the final triangle list (and thus the output mesh) is
        // identical to the never-compacted scan.
        dead += bad.len();
        if dead * 2 > tris.len() && tris.len() > 64 {
            let mut w = 0usize;
            for r in 0..tris.len() {
                if alive[r] {
                    tris[w] = tris[r];
                    ccx[w] = ccx[r];
                    ccy[w] = ccy[r];
                    cr2[w] = cr2[r];
                    w += 1;
                }
            }
            tris.truncate(w);
            ccx.truncate(w);
            ccy.truncate(w);
            cr2.truncate(w);
            alive.truncate(w);
            alive.fill(true);
            dead = 0;
        }
    }

    // Drop triangles touching the super-triangle.
    let final_tris: Vec<[usize; 3]> = tris
        .into_iter()
        .zip(alive)
        .filter(|(t, a)| *a && t.iter().all(|&v| v < n))
        .map(|(t, _)| t)
        .collect();

    if final_tris.is_empty() {
        return Err(MeshError::AllCollinear);
    }

    verts.truncate(n);
    TriMesh::new(verts, final_tris)
}

/// Circumcircle of triangle `abc` as `(center_x, center_y, radius²)`.
///
/// Near-collinear triangles (twice-area below `1e-8` of the longest
/// squared edge, where the division would amplify rounding into the
/// cached center) return an infinite radius, which makes the caller's
/// prefilter pass-through — the exact in_circle test then decides.
fn circumcircle(a: Point, b: Point, c: Point) -> (f64, f64, f64) {
    let bx = b.x - a.x;
    let by = b.y - a.y;
    let cx = c.x - a.x;
    let cy = c.y - a.y;
    let d = 2.0 * (bx * cy - by * cx);
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;
    let ex = bx - cx;
    let ey = by - cy;
    let l2max = b2.max(c2).max(ex * ex + ey * ey);
    if d.abs() <= 1e-8 * l2max {
        return (a.x, a.y, f64::INFINITY);
    }
    let ux = (cy * b2 - by * c2) / d;
    let uy = (bx * c2 - cx * b2) / d;
    (a.x + ux, a.y + uy, ux * ux + uy * uy)
}
