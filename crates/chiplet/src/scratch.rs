//! Reusable pathfinding workspace shared by the routers.
//!
//! The compiler's hot path runs a weighted shortest-path search per routed
//! two-qubit gate and per highway claim. Allocating device-sized cost
//! arrays for each search dominates small-search cost, so
//! [`RoutingScratch`] keeps the arrays alive across searches and
//! invalidates them in O(1) with a [`StampMap`]: a slot's stored cost is
//! valid only when its stamp equals the current generation.
//!
//! Costs are lexicographic `(primary, secondary)` pairs so one workspace
//! serves both the local router (swap cost, untied) and the highway
//! occupancy router (newly claimed qubits, tie-broken by hops).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::ids::PhysQubit;

/// A shared cooperative cancellation flag.
///
/// Clones share one flag: any holder may [`CancelToken::cancel`], and the
/// compile stack observes it at two granularities — the session checks
/// between rounds, and the long-running search kernels ([`astar_route`],
/// [`DialSearch`]) poll the token installed in their [`RoutingScratch`]
/// every few hundred settles, so even a pathological intra-round search
/// cannot outlive a cancellation by much. A cancelled kernel aborts with
/// "unreached", which the session maps to `Cancelled` — cancellation
/// never changes the schedule of a compile that is allowed to finish.
///
/// [`astar_route`]: crate::kernels::astar_route
/// [`DialSearch`]: crate::kernels::DialSearch
///
/// # Example
///
/// ```
/// use mech_chiplet::CancelToken;
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it. Irrevocable.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone has cancelled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A read-only membership predicate over physical qubits.
///
/// Routing must avoid *pinned* positions. Callers track pinned state in
/// different shapes (hash sets in tests, incremental masks plus occupancy
/// tables in the compiler), so the routers accept any implementor instead
/// of forcing an owned `HashSet` to be materialized per call.
pub trait QubitSet {
    /// `true` if `q` is in the set.
    fn contains_qubit(&self, q: PhysQubit) -> bool;
}

impl QubitSet for HashSet<PhysQubit> {
    fn contains_qubit(&self, q: PhysQubit) -> bool {
        self.contains(&q)
    }
}

/// A reusable qubit-keyed map with O(1) clearing: an entry is present only
/// when its generation stamp is current, so hot loops that refill a small
/// map every iteration (entrance sets during group assembly, GHZ-prep
/// color classes, table-build BFS distances) pay neither hashing nor a
/// clear proportional to the device size. This is the one canonical home
/// of the stamp/wraparound machinery — build new scratch types on it
/// instead of hand-rolling the idiom.
///
/// # Example
///
/// ```
/// use mech_chiplet::{PhysQubit, StampMap};
/// let mut m: StampMap<u32> = StampMap::default();
/// m.begin(8);
/// m.insert(PhysQubit(3), 7);
/// assert_eq!(m.get(PhysQubit(3)), Some(7));
/// m.begin(8); // O(1) clear
/// assert_eq!(m.get(PhysQubit(3)), None);
/// ```
#[derive(Debug, Clone)]
pub struct StampMap<T> {
    value: Vec<T>,
    stamp: Vec<u32>,
    generation: u32,
}

impl<T> Default for StampMap<T> {
    fn default() -> Self {
        StampMap {
            value: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
        }
    }
}

impl<T: Copy + Default> StampMap<T> {
    /// Empties the map and sizes it for `n` qubits.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.value.resize(n, T::default());
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 clears ago could alias. Reset.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// The value recorded for `q` since the last [`StampMap::begin`]
    /// (`None` for absent or out-of-range qubits).
    pub fn get(&self, q: PhysQubit) -> Option<T> {
        (self.stamp.get(q.index()) == Some(&self.generation)).then(|| self.value[q.index()])
    }

    /// Records `v` for `q`.
    pub fn insert(&mut self, q: PhysQubit, v: T) {
        self.stamp[q.index()] = self.generation;
        self.value[q.index()] = v;
    }
}

/// A reusable qubit set with O(1) clearing: [`StampMap`] with a unit
/// payload, implementing [`QubitSet`] for the routers.
///
/// # Example
///
/// ```
/// use mech_chiplet::{PhysQubit, QubitSet, StampSet};
/// let mut s = StampSet::default();
/// s.begin(8);
/// s.insert(PhysQubit(3));
/// assert!(s.contains_qubit(PhysQubit(3)));
/// s.begin(8); // O(1) clear
/// assert!(!s.contains_qubit(PhysQubit(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StampSet {
    map: StampMap<()>,
}

impl StampSet {
    /// Empties the set and sizes it for `n` qubits.
    pub fn begin(&mut self, n: usize) {
        self.map.begin(n);
    }

    /// Adds `q` to the set.
    pub fn insert(&mut self, q: PhysQubit) {
        self.map.insert(q, ());
    }
}

impl QubitSet for StampSet {
    fn contains_qubit(&self, q: PhysQubit) -> bool {
        // Out-of-range qubits are simply not members, matching the other
        // `QubitSet` implementations.
        self.map.get(q).is_some()
    }
}

/// Lexicographic search cost: `(primary, secondary)`.
pub(crate) type SearchCost = (u32, u32);

/// Cost value marking an unreached node.
pub const UNREACHED: SearchCost = (u32::MAX, u32::MAX);

/// A monotone bucket queue of `(node, g)` entries keyed by a small
/// integer, for searches whose keys never decrease ([`astar_route`] keys
/// by `f − h(from)`). Pops within one bucket are last-in first-out.
/// Clearing empties only the buckets used since the last clear, so a
/// short search pays for its own buckets, not for the longest one before
/// it.
///
/// [`astar_route`]: crate::kernels::astar_route
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketQueue {
    buckets: Vec<Vec<(PhysQubit, u32)>>,
    /// One past the highest bucket pushed since the last clear.
    used: usize,
}

impl BucketQueue {
    /// Queues `(q, g)` in bucket `key`.
    #[inline]
    pub(crate) fn push(&mut self, key: usize, q: PhysQubit, g: u32) {
        if key >= self.buckets.len() {
            self.buckets.resize_with(key + 1, Vec::new);
        }
        self.used = self.used.max(key + 1);
        self.buckets[key].push((q, g));
    }

    /// Takes the most recent entry of bucket `key`.
    #[inline]
    pub(crate) fn pop(&mut self, key: usize) -> Option<(PhysQubit, u32)> {
        self.buckets.get_mut(key)?.pop()
    }

    /// One past the highest bucket that may hold an entry.
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// Empties every bucket used since the last clear.
    fn clear(&mut self) {
        for bucket in &mut self.buckets[..self.used] {
            bucket.clear();
        }
        self.used = 0;
    }
}

/// A generation-stamped cost map plus a reusable bucket queue.
///
/// # Example
///
/// ```
/// use mech_chiplet::{PhysQubit, RoutingScratch, UNREACHED};
/// let mut scratch = RoutingScratch::default();
/// scratch.begin(4);
/// assert_eq!(scratch.cost(PhysQubit(2)), UNREACHED);
/// scratch.set_cost(PhysQubit(2), (5, 0));
/// assert_eq!(scratch.cost(PhysQubit(2)), (5, 0));
/// scratch.begin(4); // O(1) invalidation
/// assert_eq!(scratch.cost(PhysQubit(2)), UNREACHED);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingScratch {
    cost: StampMap<SearchCost>,
    /// The open set of [`astar_route`](crate::kernels::astar_route).
    pub(crate) queue: BucketQueue,
    /// Reusable path buffer for searches that return node sequences.
    pub path: Vec<PhysQubit>,
    /// Cooperative cancellation observed by the search kernels running on
    /// this workspace (default: a private token nobody cancels).
    pub cancel: CancelToken,
}

impl RoutingScratch {
    /// Starts a fresh search over `n` nodes: clears the queue and
    /// invalidates all stored costs without touching the arrays.
    pub fn begin(&mut self, n: usize) {
        self.cost.begin(n);
        self.queue.clear();
    }

    /// The cost recorded for `q` in the current search ([`UNREACHED`] if
    /// never set since [`RoutingScratch::begin`]).
    // `#[inline]` here and on `set_cost`: the search kernels call both once
    // per relaxation from another codegen unit, where a non-leaf wrapper
    // over `StampMap` is not inlined on its own.
    #[inline]
    pub fn cost(&self, q: PhysQubit) -> SearchCost {
        self.cost.get(q).unwrap_or(UNREACHED)
    }

    /// Records `cost` for `q` in the current search.
    #[inline]
    pub fn set_cost(&mut self, q: PhysQubit, cost: SearchCost) {
        self.cost.insert(q, cost);
    }

    /// `true` if `q` carries a recorded cost in the current search.
    ///
    /// After a search that ran to exhaustion, this is exactly
    /// reachability — the basis for the highway claim engine's O(1)
    /// candidate rejection (one search answers every destination).
    pub(crate) fn reached(&self, q: PhysQubit) -> bool {
        self.cost(q) != UNREACHED
    }

    /// Reconstructs the shortest path from `from` to `to` into `self.path`
    /// from the settled costs of the current search, walking backwards: at
    /// each node the predecessor is the *minimum-id* neighbor whose settled
    /// cost accounts for the step onto the node (`step(node)` is the
    /// node-weight paid when entering it).
    ///
    /// This is exactly the prev tree a forward Dijkstra with
    /// `(cost, qubit)` pop order and strict-improvement prev tracking
    /// records: all optimal predecessors of a node share one settled cost
    /// (node weights), and the first of them to relax it is the one with
    /// the smallest id. Both routers rely on this equivalence to keep
    /// compiled schedules bit-identical across search-strategy changes —
    /// keep the reasoning here, in one place.
    ///
    /// **Multi-target reconstruction.** One search may serve *many*
    /// destinations: after the Dijkstra runs to exhaustion every stored
    /// cost is final, so `reconstruct_path` may be called repeatedly with
    /// different `to` values against the same settled state. Each such
    /// reconstruction equals what a fresh early-exit search to that `to`
    /// would have produced, because along any optimal path the
    /// `(cost, hops)` pairs strictly increase (hops grow by one per step),
    /// so every node the backward walk can match pops before `to` would
    /// have — its stored cost at the early exit is already final, and the
    /// predecessor match sets are identical in both runs.
    ///
    /// **Early stop.** The walk also ends at the first node for which
    /// `stop` holds, leaving `self.path` as the suffix from that node to
    /// `to`. Because each step is a pure function of the node and the
    /// settled costs, the part left out is exactly the path a walk to the
    /// stop node would produce; callers that already hold that path (the
    /// claim engine marks the paths it has applied) skip it this way.
    /// Pass `|_| false` for the full path.
    ///
    /// Requires every node on the optimal path to carry its final cost
    /// (the searches guarantee this before calling).
    pub fn reconstruct_path<I: Iterator<Item = PhysQubit>>(
        &mut self,
        from: PhysQubit,
        to: PhysQubit,
        step: impl Fn(PhysQubit) -> SearchCost,
        neighbors: impl Fn(PhysQubit) -> I,
        stop: impl Fn(PhysQubit) -> bool,
    ) {
        self.path.clear();
        self.path.push(to);
        let mut cur = to;
        let mut g_cur = self.cost(to);
        while cur != from && !stop(cur) {
            let w = step(cur);
            let target = (g_cur.0 - w.0, g_cur.1 - w.1);
            let mut parent: Option<PhysQubit> = None;
            for u in neighbors(cur) {
                if self.cost(u) == target && parent.is_none_or(|p| u < p) {
                    parent = Some(u);
                }
            }
            let u = parent.expect("settled node has a shortest-path predecessor");
            self.path.push(u);
            cur = u;
            g_cur = target;
        }
        self.path.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_invalidates_previous_search() {
        let mut s = RoutingScratch::default();
        s.begin(8);
        s.set_cost(PhysQubit(3), (1, 2));
        s.queue.push(0, PhysQubit(3), 1);
        s.queue.push(5, PhysQubit(4), 2);
        s.begin(8);
        assert_eq!(s.cost(PhysQubit(3)), UNREACHED);
        assert_eq!(s.queue.used(), 0);
        assert_eq!(s.queue.pop(0), None);
        assert_eq!(s.queue.pop(5), None);
        // A shorter search after a longer one clears only its own buckets
        // and still leaves nothing behind.
        s.queue.push(1, PhysQubit(2), 0);
        s.begin(8);
        assert!((0..8).all(|k| s.queue.pop(k).is_none()));
    }

    #[test]
    fn grows_to_larger_devices() {
        let mut s = RoutingScratch::default();
        s.begin(2);
        s.begin(10);
        s.set_cost(PhysQubit(9), (0, 0));
        assert_eq!(s.cost(PhysQubit(9)), (0, 0));
    }

    #[test]
    fn hashset_implements_qubit_set() {
        let set: HashSet<PhysQubit> = [PhysQubit(1)].into_iter().collect();
        assert!(set.contains_qubit(PhysQubit(1)));
        assert!(!set.contains_qubit(PhysQubit(2)));
    }
}
