//! The shared search-kernel layer of the routing substrate.
//!
//! Every graph walk in the stack — the local router's A*, the entrance
//! table's region-restricted BFS, the GHZ tree coloring, the highway claim
//! engine's lazy Dial search, the SABRE baseline's hop table — used to be a
//! hand-rolled loop over its own adjacency representation. This module is
//! the one audited home for all of them:
//!
//! * [`RoutingGraph`] is the flat adjacency contract every kernel runs on
//!   (implemented by [`Topology`](crate::Topology)'s CSR rows, by
//!   [`CsrGraph`] for derived graphs such as the highway mesh, and by
//!   [`AdjacencyView`] for small per-call adjacency lists);
//! * [`BfsKernel`] is the generation-stamped breadth-first search;
//! * [`astar_route`] is the node-weighted A* used for data-region routing,
//!   on a monotone bucket queue;
//! * [`DialSearch`] is the resumable 0/1-bucket Dijkstra behind the
//!   highway claim engine.
//!
//! # Determinism contract
//!
//! Kernel *results* never depend on adjacency iteration order:
//!
//! * distances and settled costs are fixpoints of the relaxation, so any
//!   processing order converges to the same values;
//! * paths are reconstructed **backwards by minimum-id predecessor** from
//!   the settled costs ([`BfsKernel::reconstruct_into`],
//!   [`RoutingScratch::reconstruct_path`]), which is a pure function of
//!   those costs.
//!
//! The only order-sensitive quantity a kernel exposes is the *visit order*
//! of [`BfsKernel::run`] (nodes pop in level order; within a level the
//! order follows the queue, which follows each node's `neighbors` order).
//! Callers whose results depend on visit order must own that order
//! explicitly instead of inheriting whatever their graph happens to store
//! — the entrance table, whose first-visited accesses and mid-level
//! cutoff are pinned by the golden schedules, runs over a dedicated
//! grid-scan-order graph for exactly this reason (`DESIGN.md` §10.3).

use std::collections::VecDeque;

use crate::ids::PhysQubit;
use crate::scratch::{RoutingScratch, SearchCost, StampMap, UNREACHED};

/// A flat adjacency view over nodes identified by [`PhysQubit`]: the
/// substrate contract all search kernels run on.
///
/// Implementations must be *symmetric* (if `b` is in `neighbors(a)` then
/// `a` is in `neighbors(b)`) — every graph in this codebase is undirected,
/// and backward path reconstruction relies on it.
pub trait RoutingGraph {
    /// Number of addressable nodes (`PhysQubit` ids are `< num_nodes`).
    fn num_nodes(&self) -> usize;
    /// The neighbors of `q` as one contiguous slice.
    fn neighbors(&self, q: PhysQubit) -> &[PhysQubit];
}

/// A compressed-sparse-row graph built from an undirected edge list, for
/// derived graphs that are not the device topology itself (the highway
/// mesh inside [`HighwaySkeleton`]). Rows are sorted by neighbor id, and
/// each adjacency slot remembers the originating edge index, so edge
/// payloads stay addressable in O(log degree).
///
/// [`HighwaySkeleton`]: ../../mech_highway/struct.HighwaySkeleton.html
///
/// # Example
///
/// ```
/// use mech_chiplet::{CsrGraph, PhysQubit, RoutingGraph};
/// let g = CsrGraph::from_edges(4, &[(PhysQubit(0), PhysQubit(2)), (PhysQubit(2), PhysQubit(1))]);
/// assert_eq!(g.neighbors(PhysQubit(2)), &[PhysQubit(0), PhysQubit(1)]);
/// assert_eq!(g.edge_id(PhysQubit(1), PhysQubit(2)), Some(1));
/// assert_eq!(g.edge_id(PhysQubit(0), PhysQubit(1)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    starts: Vec<u32>,
    targets: Vec<PhysQubit>,
    /// `edge_ids[slot]` = index into the source edge list of the edge
    /// behind `targets[slot]`.
    edge_ids: Vec<u32>,
}

impl CsrGraph {
    /// Builds the CSR form of an undirected edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: &[(PhysQubit, PhysQubit)]) -> CsrGraph {
        let mut starts = vec![0u32; n + 1];
        for &(a, b) in edges {
            starts[a.index() + 1] += 1;
            starts[b.index() + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut targets = vec![PhysQubit(0); 2 * edges.len()];
        let mut edge_ids = vec![0u32; 2 * edges.len()];
        let mut cursor: Vec<u32> = starts[..n].to_vec();
        for (idx, &(a, b)) in edges.iter().enumerate() {
            for (x, y) in [(a, b), (b, a)] {
                let c = cursor[x.index()] as usize;
                targets[c] = y;
                edge_ids[c] = idx as u32;
                cursor[x.index()] += 1;
            }
        }
        // Sort each row by neighbor id, keeping the edge ids aligned.
        for q in 0..n {
            let (lo, hi) = (starts[q] as usize, starts[q + 1] as usize);
            // Degrees are tiny (≤ 4 on every lattice); insertion sort over
            // the parallel arrays avoids materializing pairs.
            for i in lo + 1..hi {
                let mut j = i;
                while j > lo && targets[j - 1] > targets[j] {
                    targets.swap(j - 1, j);
                    edge_ids.swap(j - 1, j);
                    j -= 1;
                }
            }
        }
        CsrGraph {
            starts,
            targets,
            edge_ids,
        }
    }

    /// The source-edge index of the edge between `a` and `b`, or `None` if
    /// they are not adjacent. O(log degree) via binary search on the
    /// sorted row.
    pub fn edge_id(&self, a: PhysQubit, b: PhysQubit) -> Option<u32> {
        let lo = self.starts[a.index()] as usize;
        let hi = self.starts[a.index() + 1] as usize;
        let row = &self.targets[lo..hi];
        let i = row.partition_point(|&q| q < b);
        (i < row.len() && row[i] == b).then(|| self.edge_ids[lo + i])
    }

    /// Number of undirected edges (each fills two row slots).
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }
}

impl RoutingGraph for CsrGraph {
    fn num_nodes(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    fn neighbors(&self, q: PhysQubit) -> &[PhysQubit] {
        let lo = self.starts[q.index()] as usize;
        let hi = self.starts[q.index() + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// Borrowed per-node adjacency lists as a [`RoutingGraph`], for small
/// graphs assembled on the fly (the GHZ preparation's claimed tree).
#[derive(Debug, Clone, Copy)]
pub struct AdjacencyView<'a> {
    /// `lists[q]` = neighbors of node `q`.
    pub lists: &'a [Vec<PhysQubit>],
}

impl RoutingGraph for AdjacencyView<'_> {
    fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    fn neighbors(&self, q: PhysQubit) -> &[PhysQubit] {
        &self.lists[q.index()]
    }
}

/// What [`BfsKernel::run`] should do after visiting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsControl {
    /// Enqueue the node's admissible unvisited neighbors and continue.
    Expand,
    /// Continue without expanding this node.
    Skip,
    /// Abort the search (distances settled so far stay readable).
    Stop,
}

/// Generation-stamped breadth-first search: distances invalidate in O(1)
/// per run, so hot loops that BFS per source (SABRE's hop table, entrance
/// table) share one kernel without reallocating or clearing device-sized
/// arrays.
///
/// # Example
///
/// ```
/// use mech_chiplet::{BfsControl, BfsKernel, ChipletSpec, PhysQubit};
/// let topo = ChipletSpec::square(4, 1, 1).build();
/// let mut bfs = BfsKernel::default();
/// bfs.run(&topo, PhysQubit(0), |_| true, |_, _| BfsControl::Expand);
/// assert_eq!(bfs.distance(PhysQubit(15)), Some(6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BfsKernel {
    dist: StampMap<u32>,
    queue: VecDeque<PhysQubit>,
}

impl BfsKernel {
    /// Runs a BFS from `src` over `g`, restricted to nodes for which
    /// `enter` returns `true` (`src` itself is exempt). `visit(q, d)` is
    /// called once per reached node in pop order — levels in increasing
    /// distance, order *within* a level unspecified (derive nothing
    /// order-sensitive from it) — and steers the search via
    /// [`BfsControl`].
    pub fn run<G: RoutingGraph>(
        &mut self,
        g: &G,
        src: PhysQubit,
        mut enter: impl FnMut(PhysQubit) -> bool,
        mut visit: impl FnMut(PhysQubit, u32) -> BfsControl,
    ) {
        self.dist.begin(g.num_nodes());
        self.queue.clear();
        self.dist.insert(src, 0);
        self.queue.push_back(src);
        while let Some(q) = self.queue.pop_front() {
            let d = self.dist.get(q).expect("queued nodes carry a distance");
            match visit(q, d) {
                BfsControl::Stop => return,
                BfsControl::Skip => continue,
                BfsControl::Expand => {}
            }
            for &nb in g.neighbors(q) {
                if self.dist.get(nb).is_none() && enter(nb) {
                    self.dist.insert(nb, d + 1);
                    self.queue.push_back(nb);
                }
            }
        }
    }

    /// The distance of `q` in the last run (`None` if unreached).
    pub fn distance(&self, q: PhysQubit) -> Option<u32> {
        self.dist.get(q)
    }

    /// Reconstructs a shortest path from `src` to `dst` out of the settled
    /// distances, walking backwards by **minimum-id predecessor**: at each
    /// node the parent is the smallest-id neighbor one level closer to the
    /// source. This is a pure function of the distances, so the chosen
    /// path is independent of adjacency order and of the forward visit
    /// order — the canonical tie-break shared with
    /// [`RoutingScratch::reconstruct_path`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not reached by the last run.
    pub(crate) fn reconstruct_into<G: RoutingGraph>(
        &self,
        g: &G,
        src: PhysQubit,
        dst: PhysQubit,
        path: &mut Vec<PhysQubit>,
    ) {
        path.clear();
        path.push(dst);
        let mut cur = dst;
        let mut d = self.dist.get(dst).expect("destination was reached");
        while cur != src {
            let parent = g
                .neighbors(cur)
                .iter()
                .copied()
                .filter(|&u| self.dist.get(u) == Some(d - 1))
                .min()
                .expect("reached nodes have a shortest-path predecessor");
            path.push(parent);
            cur = parent;
            d -= 1;
        }
        path.reverse();
    }
}

/// How many settles the weighted search kernels run between polls of
/// [`RoutingScratch::cancel`]. Small enough that a cancelled request
/// leaves any search within microseconds; large enough that the atomic
/// load is invisible in profiles.
const CANCEL_POLL_INTERVAL: u32 = 256;

/// Node-weighted A* over a [`RoutingGraph`] into a caller-provided
/// [`RoutingScratch`], returning whether `to` was reached with its final
/// cost settled.
///
/// The search minimizes the sum of `weight(v)` over entered nodes (the
/// start pays nothing), guided by the admissible *and consistent*
/// heuristic `h` (each hop must cost at least `h(q) - h(v)`; on a
/// [`Topology`](crate::Topology) the Manhattan distance between grid
/// coordinates qualifies whenever every weight is ≥ 1, because every link
/// joins grid-adjacent cells). Nodes failing `enter` are impassable,
/// except `to` which is always enterable.
///
/// The open set is a monotone bucket queue keyed by `f − h(from)`:
/// consistency makes f non-decreasing along every relaxation, so no entry
/// lands below the bucket being drained. Pops within one bucket follow no
/// particular order, and need none. With a consistent heuristic a node's
/// cost is final when it pops, whatever the order among equal f, so the
/// expanded set (every node whose final f does not exceed the goal cost)
/// and each recorded cost (the minimum over expanded neighbors) do not
/// depend on it.
///
/// On success every node whose f-value does not exceed the goal cost is
/// fully settled — exactly the set a backward
/// [`RoutingScratch::reconstruct_path`] (same `weight` as `step`) can
/// visit, so reconstruction from the scratch is valid immediately and
/// produces the same min-id path a plain Dijkstra would (see the
/// equivalence argument on `reconstruct_path`).
pub fn astar_route<G: RoutingGraph>(
    scratch: &mut RoutingScratch,
    g: &G,
    from: PhysQubit,
    to: PhysQubit,
    enter: impl Fn(PhysQubit) -> bool,
    weight: impl Fn(PhysQubit) -> u32,
    h: impl Fn(PhysQubit) -> u32,
) -> bool {
    scratch.begin(g.num_nodes());
    scratch.set_cost(from, (0, 0));
    let h_from = h(from) as usize;
    // Entries carry their g-value, so the staleness check is one
    // comparison against the stored cost instead of a heuristic
    // re-evaluation per pop.
    scratch.queue.push(0, from, 0);
    // Once the goal cost is known, keep draining entries with f ≤ g(to):
    // that finalizes every node the path reconstruction can visit
    // (anything with a better f), at which point the recorded costs agree
    // with a full Dijkstra's.
    let mut last_key = usize::MAX;
    let mut key = 0usize;
    let mut polls = 0u32;

    while key <= last_key && key < scratch.queue.used() {
        let Some((q, gq)) = scratch.queue.pop(key) else {
            key += 1;
            continue;
        };
        polls += 1;
        if polls.is_multiple_of(CANCEL_POLL_INTERVAL) && scratch.cancel.is_cancelled() {
            // The session maps an aborted search to `Cancelled`; costs
            // settled so far are abandoned with the whole compile.
            return false;
        }
        if gq != scratch.cost(q).0 {
            continue; // stale entry superseded by a cheaper relaxation
        }
        if q == to {
            continue; // never expand through the destination
        }
        for &v in g.neighbors(q) {
            if v != to && !enter(v) {
                continue;
            }
            let ng = gq + weight(v);
            if ng < scratch.cost(v).0 {
                scratch.set_cost(v, (ng, 0));
                // A consistent heuristic never keys an entry below the
                // bucket being drained; the clamp keeps an inconsistent
                // one from stranding it there.
                let f = (ng + h(v)) as usize;
                debug_assert!(f >= h_from + key, "heuristic is not consistent");
                let v_key = f.saturating_sub(h_from).max(key);
                if v == to {
                    last_key = v_key;
                }
                scratch.queue.push(v_key, v, ng);
            }
        }
    }

    scratch.reached(to)
}

/// Resumable Dial-style bucket search for lexicographic
/// `(0/1 primary, hops)` costs, the engine behind highway claim routing.
///
/// With 0/1 node weights the Dijkstra fixpoint is computable by draining
/// FIFO buckets indexed by primary cost: each bucket drains to a fixpoint
/// before the next starts, so once bucket `p` has drained every cost with
/// primary ≤ `p` is final. The scan is *lazy* — [`DialSearch::advance_to`]
/// drains only as many buckets as the queried destination needs and
/// resumes where it stopped, so one search serves many destinations while
/// near ones pay a fraction of the graph.
///
/// Costs live in a caller-provided [`RoutingScratch`], so acceptance
/// checks (`RoutingScratch::reached`) and backward min-id
/// reconstruction run against the same settled state.
///
/// A live search survives a node whose entry weight drops to 0
/// ([`DialSearch::zero_weight`]): the node is lowered and requeued, and
/// the scan rewinds to its bucket. Recorded costs are path costs under
/// the new weights, so they stay upper bounds, and draining from the
/// rewound bucket reaches the same unique fixpoint a fresh search would.
#[derive(Debug, Clone, Default)]
pub struct DialSearch {
    /// FIFO buckets indexed by primary cost.
    buckets: Vec<VecDeque<PhysQubit>>,
    /// Source of the live search.
    src: PhysQubit,
    /// Next bucket to drain (no entry is queued below it, so all
    /// primaries below it are final).
    next: usize,
    /// Entries still queued across `buckets[next..]`.
    pending: usize,
}

impl DialSearch {
    /// Ensures the bucket array can hold primaries up to `max_primary`.
    pub fn fit(&mut self, max_primary: usize) {
        if self.buckets.len() < max_primary + 1 {
            self.buckets.resize_with(max_primary + 1, VecDeque::new);
        }
    }

    /// Starts a fresh search from `src` with initial cost `start`,
    /// invalidating any previous (possibly partially drained) search.
    ///
    /// # Panics
    ///
    /// Panics if [`DialSearch::fit`] has not sized the buckets to cover
    /// `start` (and callers must fit the maximum primary cost any
    /// relaxation can reach before advancing).
    pub fn begin(
        &mut self,
        scratch: &mut RoutingScratch,
        n: usize,
        src: PhysQubit,
        start: SearchCost,
    ) {
        assert!(
            (start.0 as usize) < self.buckets.len(),
            "DialSearch::fit must size the buckets before begin"
        );
        if self.pending > 0 {
            // An invalidated search left queued entries behind (it only
            // drained as far as its queries needed).
            for bucket in &mut self.buckets[self.next..] {
                bucket.clear();
            }
            self.pending = 0;
        }
        scratch.begin(n);
        scratch.set_cost(src, start);
        self.buckets[start.0 as usize].push_back(src);
        self.src = src;
        self.next = start.0 as usize;
        self.pending = 1;
    }

    /// Repairs the live search after entering `v` became free (weight 0;
    /// the caller's `step` must return `Some(0)` for `v` from now on).
    /// `v` is lowered to the best cost through a reached neighbor — or to
    /// `(0, 0)` if it is the source — and requeued, rewinding the scan to
    /// its new bucket, so the next [`DialSearch::advance_to`] propagates
    /// the decrease. A reached neighbor must still be passable, which
    /// holds while no weight has risen since [`DialSearch::begin`].
    pub fn zero_weight<G: RoutingGraph>(
        &mut self,
        scratch: &mut RoutingScratch,
        g: &G,
        v: PhysQubit,
    ) {
        let lowered = if v == self.src {
            Some((0, 0))
        } else {
            g.neighbors(v)
                .iter()
                .map(|&u| scratch.cost(u))
                .filter(|&c| c != UNREACHED)
                .map(|c| (c.0, c.1 + 1))
                .min()
        };
        if let Some(cost) = lowered.filter(|&c| c < scratch.cost(v)) {
            scratch.set_cost(v, cost);
            self.buckets[cost.0 as usize].push_back(v);
            self.pending += 1;
            self.next = self.next.min(cost.0 as usize);
        }
    }

    /// Drains the live search until `to`'s cost is final (returning
    /// `true`) or the search is exhausted with `to` unreached (`false`).
    /// `step(v)` returns the primary weight of entering `v`, or `None` for
    /// impassable nodes — one closure so callers resolve passability and
    /// weight with a single state lookup per neighbor.
    pub fn advance_to<G: RoutingGraph>(
        &mut self,
        scratch: &mut RoutingScratch,
        g: &G,
        to: PhysQubit,
        step: impl Fn(PhysQubit) -> Option<u32>,
    ) -> bool {
        let mut polls = 0u32;
        loop {
            let c = scratch.cost(to);
            if c != UNREACHED && (c.0 as usize) < self.next {
                return true;
            }
            if self.pending == 0 {
                // Exhausted: every recorded cost is final. After a
                // `zero_weight` rewound `next`, a reached `to` may sit at
                // or above it, so "below `next`" alone would miss it.
                return c != UNREACHED;
            }
            let p = self.next;
            while let Some(q) = self.buckets[p].pop_front() {
                self.pending -= 1;
                polls += 1;
                if polls.is_multiple_of(CANCEL_POLL_INTERVAL) && scratch.cancel.is_cancelled() {
                    // Report the destination unreached; the caller's
                    // session is aborting, so the half-drained state is
                    // irrelevant (a fresh `begin` resets it regardless).
                    return false;
                }
                let cost = scratch.cost(q);
                if cost.0 != p as u32 {
                    continue; // superseded by a cheaper bucket
                }
                for &nb in g.neighbors(q) {
                    let Some(w) = step(nb) else { continue };
                    let ncost = (cost.0 + w, cost.1 + 1);
                    if ncost < scratch.cost(nb) {
                        scratch.set_cost(nb, ncost);
                        self.buckets[ncost.0 as usize].push_back(nb);
                        self.pending += 1;
                    }
                }
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChipletSpec;
    use crate::Topology;

    /// Manhattan distance on the global grid: the exact hop distance on a
    /// square array with every cross link kept.
    fn grid_distance(t: &Topology, a: PhysQubit, b: PhysQubit) -> u32 {
        let ((ra, ca), (rb, cb)) = (t.coord(a), t.coord(b));
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let edges = [
            (PhysQubit(3), PhysQubit(1)),
            (PhysQubit(0), PhysQubit(3)),
            (PhysQubit(1), PhysQubit(0)),
        ];
        let g = CsrGraph::from_edges(4, &edges);
        assert_eq!(g.neighbors(PhysQubit(3)), &[PhysQubit(0), PhysQubit(1)]);
        assert_eq!(g.neighbors(PhysQubit(0)), &[PhysQubit(1), PhysQubit(3)]);
        assert_eq!(g.neighbors(PhysQubit(2)), &[]);
        assert_eq!(g.edge_id(PhysQubit(1), PhysQubit(3)), Some(0));
        assert_eq!(g.edge_id(PhysQubit(3), PhysQubit(1)), Some(0));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn bfs_distances_match_grid_distance_on_square() {
        let topo = ChipletSpec::square(5, 1, 2).build();
        let mut bfs = BfsKernel::default();
        bfs.run(&topo, PhysQubit(7), |_| true, |_, _| BfsControl::Expand);
        for q in topo.qubits() {
            assert_eq!(bfs.distance(q), Some(grid_distance(&topo, PhysQubit(7), q)));
        }
    }

    #[test]
    fn bfs_stop_freezes_the_frontier() {
        let topo = ChipletSpec::square(5, 1, 1).build();
        let mut bfs = BfsKernel::default();
        let mut visited = 0u32;
        bfs.run(
            &topo,
            PhysQubit(0),
            |_| true,
            |_, d| {
                visited += 1;
                if d >= 2 {
                    BfsControl::Stop
                } else {
                    BfsControl::Expand
                }
            },
        );
        assert!(visited < topo.num_qubits());
    }

    #[test]
    fn reconstruct_walks_min_id_predecessors() {
        let topo = ChipletSpec::square(4, 1, 1).build();
        let mut bfs = BfsKernel::default();
        let dst = PhysQubit(15);
        bfs.run(&topo, PhysQubit(0), |_| true, |_, _| BfsControl::Expand);
        let mut path = Vec::new();
        bfs.reconstruct_into(&topo, PhysQubit(0), dst, &mut path);
        assert_eq!(path.first(), Some(&PhysQubit(0)));
        assert_eq!(path.last(), Some(&dst));
        assert_eq!(
            path.len() as u32,
            grid_distance(&topo, PhysQubit(0), dst) + 1
        );
        // Min-id: on a full grid the backward walk always prefers the
        // north/west predecessor, so the forward path runs east along row
        // 0 first, then south down the last column.
        for w in path.windows(2) {
            assert!(topo.are_coupled(w[0], w[1]));
            assert!(w[0] < w[1], "min-id walk moves through ascending ids");
        }
    }

    #[test]
    fn astar_reaches_and_settles_the_goal() {
        let topo = ChipletSpec::square(5, 1, 1).build();
        let mut scratch = RoutingScratch::default();
        let (from, to) = (PhysQubit(0), PhysQubit(24));
        let reached = astar_route(
            &mut scratch,
            &topo,
            from,
            to,
            |_| true,
            |_| 1,
            |q| grid_distance(&topo, q, to),
        );
        assert!(reached);
        assert_eq!(scratch.cost(to), (grid_distance(&topo, from, to), 0));
    }

    #[test]
    fn astar_respects_blocked_nodes() {
        let topo = ChipletSpec::square(3, 1, 1).build();
        let mut scratch = RoutingScratch::default();
        let reached = astar_route(
            &mut scratch,
            &topo,
            PhysQubit(0),
            PhysQubit(8),
            |_| false,
            |_| 1,
            |q| grid_distance(&topo, q, PhysQubit(8)),
        );
        assert!(!reached, "everything but the endpoints is impassable");
    }

    #[test]
    fn dial_search_is_lazy_and_resumable() {
        let topo = ChipletSpec::square(5, 1, 1).build();
        let n = topo.num_qubits() as usize;
        let mut scratch = RoutingScratch::default();
        let mut dial = DialSearch::default();
        dial.fit(n + 1);
        dial.begin(&mut scratch, n, PhysQubit(0), (1, 0));
        // A near destination needs few buckets...
        assert!(dial.advance_to(&mut scratch, &topo, PhysQubit(1), |_| Some(1)));
        // Primary costs below `next` are final in the live search.
        let settled_near = dial.next;
        // ...a far one resumes the same search further.
        assert!(dial.advance_to(&mut scratch, &topo, PhysQubit(24), |_| Some(1)));
        assert!(dial.next > settled_near);
        assert_eq!(
            scratch.cost(PhysQubit(24)).0,
            1 + grid_distance(&topo, PhysQubit(0), PhysQubit(24))
        );
    }

    /// Zeroing node weights under a live search with `zero_weight` must
    /// settle exactly the costs a fresh search under the new weights
    /// settles — whether the old search was half drained or exhausted,
    /// and with or without the source among the zeroed nodes.
    #[test]
    fn zero_weight_repair_matches_a_fresh_search() {
        let topo = ChipletSpec::square(6, 1, 2).build();
        let n = topo.num_qubits() as usize;
        let src = PhysQubit(7);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            // Weight 0 (cheap), 1 (plain) or impassable; the cheap set only
            // ever grows, so every change is a decrease.
            let mut weight: Vec<Option<u32>> = (0..n)
                .map(|_| (next_rand() % 9 != 0).then_some(1))
                .collect();
            weight[src.index()] = Some(1);
            let mut scratch = RoutingScratch::default();
            let mut dial = DialSearch::default();
            dial.fit(n + 1);
            dial.begin(&mut scratch, n, src, (1, 0));
            // Drain partway (or fully, on odd rounds) before any change.
            let probe = PhysQubit((next_rand() % n as u64) as u32);
            let target = if round % 2 == 1 { PhysQubit(0) } else { probe };
            let w = weight.clone();
            dial.advance_to(&mut scratch, &topo, target, |q| w[q.index()]);
            if round % 2 == 1 {
                for q in topo.qubits() {
                    dial.advance_to(&mut scratch, &topo, q, |v| w[v.index()]);
                }
            }
            for _ in 0..3 {
                let lowered: Vec<PhysQubit> = topo
                    .qubits()
                    .filter(|q| weight[q.index()] == Some(1) && next_rand() % 5 == 0)
                    .collect();
                for &v in &lowered {
                    weight[v.index()] = Some(0);
                }
                for &v in &lowered {
                    dial.zero_weight(&mut scratch, &topo, v);
                }
                let mut fresh_scratch = RoutingScratch::default();
                let mut fresh = DialSearch::default();
                fresh.fit(n + 1);
                let start = (weight[src.index()].unwrap_or(1), 0);
                fresh.begin(&mut fresh_scratch, n, src, start);
                let w = weight.clone();
                for q in topo.qubits() {
                    let got = dial.advance_to(&mut scratch, &topo, q, |v| w[v.index()]);
                    let want = fresh.advance_to(&mut fresh_scratch, &topo, q, |v| w[v.index()]);
                    assert_eq!(got, want, "round {round}: reachability of {q}");
                    if want {
                        assert_eq!(
                            scratch.cost(q),
                            fresh_scratch.cost(q),
                            "round {round}: final cost of {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adjacency_view_serves_small_graphs() {
        let lists = vec![
            vec![PhysQubit(1)],
            vec![PhysQubit(0), PhysQubit(2)],
            vec![PhysQubit(1)],
        ];
        let view = AdjacencyView { lists: &lists };
        let mut bfs = BfsKernel::default();
        bfs.run(&view, PhysQubit(0), |_| true, |_, _| BfsControl::Expand);
        assert_eq!(bfs.distance(PhysQubit(2)), Some(2));
    }
}
