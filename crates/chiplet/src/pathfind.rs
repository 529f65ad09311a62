//! BFS path-finding helpers shared by the highway generator and routers.
//!
//! Thin convenience wrappers over the [`kernels`](crate::kernels) layer:
//! allocation of the returned containers aside, both functions run on the
//! stamped [`BfsKernel`] and reconstruct paths by the canonical minimum-id
//! predecessor walk, so results are independent of adjacency order.

use crate::ids::PhysQubit;
use crate::kernels::{BfsControl, BfsKernel};
use crate::topology::Topology;

/// Hop distances from `src` to every qubit (`u32::MAX` if unreachable).
pub fn bfs_distances(topo: &Topology, src: PhysQubit) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.num_qubits() as usize];
    let mut bfs = BfsKernel::default();
    bfs.run(
        topo,
        src,
        |_| true,
        |q, d| {
            dist[q.index()] = d;
            BfsControl::Expand
        },
    );
    dist
}

/// A shortest path from `src` to `dst` (inclusive of both endpoints) that
/// never visits a qubit for which `blocked` returns `true` (endpoints are
/// exempt from the predicate), or `None` if unreachable.
///
/// Used by the local router to route data qubits around the highway, and by
/// the highway generator to carve corridors inside a single chiplet. Among
/// equally short paths the minimum-id-predecessor one is returned (the
/// kernel layer's canonical tie-break).
///
/// # Example
///
/// ```
/// use mech_chiplet::{shortest_path_avoiding, ChipletSpec};
/// let topo = ChipletSpec::square(5, 1, 1).build();
/// let a = topo.qubit_at(0, 0).unwrap();
/// let b = topo.qubit_at(0, 4).unwrap();
/// // Block the direct row; the path must detour.
/// let path = shortest_path_avoiding(&topo, a, b, |q| topo.coord(q) == (0, 2)).unwrap();
/// assert!(path.len() > 5);
/// ```
pub fn shortest_path_avoiding<F>(
    topo: &Topology,
    src: PhysQubit,
    dst: PhysQubit,
    blocked: F,
) -> Option<Vec<PhysQubit>>
where
    F: Fn(PhysQubit) -> bool,
{
    if src == dst {
        return Some(vec![src]);
    }
    let mut bfs = BfsKernel::default();
    let mut found = false;
    bfs.run(
        topo,
        src,
        |q| q == dst || !blocked(q),
        |q, _| {
            if q == dst {
                found = true;
                BfsControl::Stop
            } else {
                BfsControl::Expand
            }
        },
    );
    found.then(|| {
        let mut path = Vec::new();
        bfs.reconstruct_into(topo, src, dst, &mut path);
        path
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChipletSpec;

    /// Manhattan distance on the global grid: the exact hop distance on a
    /// square array with every cross link kept.
    fn grid_distance(t: &Topology, a: PhysQubit, b: PhysQubit) -> u32 {
        let ((ra, ca), (rb, cb)) = (t.coord(a), t.coord(b));
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    #[test]
    fn bfs_matches_grid_distance_on_square() {
        let t = ChipletSpec::square(4, 1, 2).build();
        let d = bfs_distances(&t, PhysQubit(0));
        for q in t.qubits() {
            assert_eq!(d[q.index()], grid_distance(&t, PhysQubit(0), q));
        }
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let t = ChipletSpec::square(5, 1, 1).build();
        let a = t.qubit_at(0, 0).unwrap();
        let b = t.qubit_at(4, 4).unwrap();
        let p = shortest_path_avoiding(&t, a, b, |_| false).unwrap();
        assert_eq!(p.first(), Some(&a));
        assert_eq!(p.last(), Some(&b));
        assert_eq!(p.len() as u32, grid_distance(&t, a, b) + 1);
        for w in p.windows(2) {
            assert!(t.are_coupled(w[0], w[1]));
        }
    }

    #[test]
    fn trivial_path_is_single_node() {
        let t = ChipletSpec::square(3, 1, 1).build();
        let p = shortest_path_avoiding(&t, PhysQubit(0), PhysQubit(0), |_| false).unwrap();
        assert_eq!(p, vec![PhysQubit(0)]);
    }

    #[test]
    fn fully_blocked_returns_none() {
        let t = ChipletSpec::square(3, 1, 1).build();
        let a = t.qubit_at(0, 0).unwrap();
        let b = t.qubit_at(2, 2).unwrap();
        assert!(shortest_path_avoiding(&t, a, b, |_| true).is_none());
    }

    #[test]
    fn blocked_source_may_still_start_the_path() {
        let t = ChipletSpec::square(3, 1, 1).build();
        let a = t.qubit_at(0, 0).unwrap();
        let b = t.qubit_at(0, 2).unwrap();
        // Endpoints are exempt from the predicate.
        let p = shortest_path_avoiding(&t, a, b, |q| q == a || q == b).unwrap();
        assert_eq!(p.first(), Some(&a));
        assert_eq!(p.last(), Some(&b));
    }
}
