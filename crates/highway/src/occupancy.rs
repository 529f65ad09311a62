//! Spatial sharing of the highway: path claiming with maximal reuse.
//!
//! Claiming is built around a **one-search engine**: a single Dijkstra
//! from a search origin (the hub entrance, during group assembly) settles
//! the minimal-new-claim cost to *every* highway node at once. Against a
//! settled search, candidate destinations are accepted or rejected in
//! O(1) and winning paths are reconstructed from the same cost field —
//! provably the path a dedicated per-candidate search would have found,
//! since both are pure in `(owner, group, origin, destination)` (see
//! [`RoutingScratch::reconstruct_path`] for the argument, and
//! `DESIGN.md` §9 for the engine contract). When the searching group's
//! own claim grows its corridor, the search is repaired in place (the
//! new nodes only got cheaper to enter); any other owner change starts a
//! fresh one. The search runs over the device's shared
//! [`HighwaySkeleton`], the one claim graph.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mech_chiplet::fault::{self, FaultSite};
use mech_chiplet::{
    CancelToken, DialSearch, PhysQubit, QubitSet, RoutingGraph, RoutingScratch, StampSet,
};

use crate::skeleton::HighwaySkeleton;

/// Identifier of a multi-target gate currently holding highway resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Why a route could not be claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Every route from source to destination runs through qubits owned by
    /// another gate; the component must wait for the next shuttle.
    Congested,
    /// An endpoint is not a highway qubit (compiler bug).
    NotHighway {
        /// The offending qubit.
        qubit: PhysQubit,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Congested => write!(f, "all routes are occupied by other highway gates"),
            RouteError::NotHighway { qubit } => {
                write!(f, "{qubit} is not a highway qubit")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The resources one group holds: claimed qubits and traversed edges, both
/// in claim order (the GHZ preparation entangles exactly these).
#[derive(Debug, Clone, Default)]
struct GroupClaim {
    nodes: Vec<PhysQubit>,
    edges: Vec<(PhysQubit, PhysQubit)>,
    /// Occupancy-unique stamp marking this claim's entries in `edge_seen`
    /// (never reused, so releases need no cleanup).
    stamp: u32,
}

/// Tracks which highway qubits are occupied by which multi-target gate
/// during the current shuttle, and routes new components over the highway
/// graph.
///
/// Routing minimizes the number of *additional* qubits a component claims:
/// qubits already owned by the same gate cost 0, free qubits cost 1, and
/// qubits owned by other gates are impassable (paper §6.1, highway
/// routing).
///
/// An occupancy table routes over one device's [`HighwaySkeleton`] for
/// its whole life (the compiler creates one per compilation, all sharing
/// the device's skeleton).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mech_chiplet::{ChipletSpec, HighwayLayout};
/// use mech_highway::{GroupId, HighwayOccupancy, HighwaySkeleton};
///
/// let topo = ChipletSpec::square(7, 1, 2).build();
/// let hw = HighwayLayout::generate(&topo, 1);
/// let skeleton = HighwaySkeleton::build(topo.num_qubits() as usize, &hw);
/// let mut occ = HighwayOccupancy::new(Arc::new(skeleton));
/// let (a, b) = (hw.nodes()[0], *hw.nodes().last().unwrap());
/// let path = occ.claim_route(a, b, GroupId(0)).unwrap();
/// assert_eq!(path.first(), Some(&a));
/// assert_eq!(path.last(), Some(&b));
/// // A second gate cannot cross the claimed corridor.
/// assert!(occ.claim_route(a, b, GroupId(1)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct HighwayOccupancy {
    owner: Vec<Option<GroupId>>,
    groups: HashMap<GroupId, GroupClaim>,
    /// Groups holding resources, kept sorted incrementally.
    active: Vec<GroupId>,
    /// Number of currently claimed qubits, maintained incrementally.
    claimed: usize,
    /// Recycled claim buffers (released groups return here).
    claim_pool: Vec<GroupClaim>,
    /// `edge_seen[edge index] = stamp` of the group whose edge list holds
    /// that layout edge — O(1) dedup during claims.
    edge_seen: Vec<u32>,
    next_stamp: u32,
    /// Reusable routing workspace (same mechanism as the local router).
    scratch: RoutingScratch,
    /// Immutable CSR view of the highway graph, shared with the device
    /// artifacts.
    skeleton: Arc<HighwaySkeleton>,
    /// The resumable 0/1-bucket kernel driving the one-search claim
    /// engine.
    dial: DialSearch,
    /// `(origin, group)` of the search live in `scratch`; `None` once an
    /// owner change the search cannot absorb invalidates it.
    search_key: Option<(PhysQubit, GroupId)>,
    /// Nodes whose path back to the live search's origin has been applied
    /// under its current cost field (cleared on every begin and repair);
    /// a claim's backward walk stops at the first one.
    applied: StampSet,
    searches: u64,
    skips: u64,
}

impl HighwayOccupancy {
    /// Creates an empty occupancy table that claims over the shared
    /// `skeleton` (no per-table graph build).
    pub fn new(skeleton: Arc<HighwaySkeleton>) -> Self {
        let mut dial = DialSearch::default();
        dial.fit(skeleton.dial_levels());
        HighwayOccupancy {
            owner: vec![None; skeleton.num_qubits()],
            groups: HashMap::new(),
            active: Vec::new(),
            claimed: 0,
            claim_pool: Vec::new(),
            edge_seen: vec![0; skeleton.csr().num_edges()],
            next_stamp: 1,
            scratch: RoutingScratch::default(),
            skeleton,
            dial,
            search_key: None,
            applied: StampSet::default(),
            searches: 0,
            skips: 0,
        }
    }

    /// Shares a cancellation token with the claim-search kernel: a
    /// cancelled token makes in-flight searches abort as unreachable (the
    /// candidate fails like a congested one), so the session can surface
    /// `Cancelled` without finishing the search.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.scratch.cancel = cancel;
    }

    /// The gate currently occupying `q`, if any.
    pub(crate) fn owner(&self, q: PhysQubit) -> Option<GroupId> {
        self.owner[q.index()]
    }

    /// `true` if `q` is unowned or owned by `g`.
    pub fn available_for(&self, q: PhysQubit, g: GroupId) -> bool {
        self.owner[q.index()].is_none_or(|o| o == g)
    }

    /// The qubits claimed by `g`, in claim order.
    pub fn nodes_of(&self, g: GroupId) -> &[PhysQubit] {
        self.groups.get(&g).map_or(&[], |c| c.nodes.as_slice())
    }

    /// The highway edges traversed by `g`'s routes.
    pub fn edges_of(&self, g: GroupId) -> &[(PhysQubit, PhysQubit)] {
        self.groups.get(&g).map_or(&[], |c| c.edges.as_slice())
    }

    /// All groups holding resources, ascending (maintained incrementally;
    /// no allocation or sort per call).
    pub fn active_groups(&self) -> &[GroupId] {
        &self.active
    }

    /// Full claim-engine searches run so far (diagnostic; monotone over the
    /// table's life).
    pub fn claim_searches(&self) -> u64 {
        self.searches
    }

    /// Claim attempts resolved *without* running a search so far: settled
    /// results reused across candidates, trivial self-claims, and
    /// endpoint-unavailable rejections (diagnostic; monotone — every
    /// attempt counts here or in [`HighwayOccupancy::claim_searches`],
    /// never both).
    pub fn claim_skips(&self) -> u64 {
        self.skips
    }

    /// Routes from `from` to `to` over the highway graph and claims the
    /// path for `g`, minimizing newly claimed qubits (reuse within the same
    /// gate is free). Returns the node path including both endpoints.
    ///
    /// Consecutive claims of one group from one origin share one search:
    /// after the first, rejections and acceptances are answered from its
    /// settled costs, and a claim that grows the group's corridor repairs
    /// it in place instead of discarding it (see the module docs).
    ///
    /// # Errors
    ///
    /// [`RouteError::NotHighway`] if an endpoint is off the highway;
    /// [`RouteError::Congested`] if every route crosses another gate's
    /// claim.
    pub fn claim_route(
        &mut self,
        from: PhysQubit,
        to: PhysQubit,
        g: GroupId,
    ) -> Result<Vec<PhysQubit>, RouteError> {
        self.claim(from, to, g, false)?;
        Ok(self.scratch.path.clone())
    }

    /// [`HighwayOccupancy::claim_route`] without materializing the path:
    /// claims in place and reports only success. The compiler's group
    /// assembly uses this — it reads the claims back via
    /// [`HighwayOccupancy::nodes_of`] / [`HighwayOccupancy::edges_of`], so
    /// the per-claim path allocation would be pure overhead. For the same
    /// reason its backward walk stops at the first node whose path back to
    /// `from` an earlier claim already applied: that prefix is owned and
    /// its edges are recorded, so skipping it leaves
    /// [`HighwayOccupancy::nodes_of`] / [`HighwayOccupancy::edges_of`]
    /// exactly as the full path would.
    ///
    /// # Errors
    ///
    /// Exactly as [`HighwayOccupancy::claim_route`].
    pub fn try_claim(
        &mut self,
        from: PhysQubit,
        to: PhysQubit,
        g: GroupId,
    ) -> Result<(), RouteError> {
        self.claim(from, to, g, true)
    }

    /// The claim behind [`HighwayOccupancy::claim_route`] (`walk_stop`
    /// off: the scratch path is the full route) and
    /// [`HighwayOccupancy::try_claim`] (`walk_stop` on: the scratch path
    /// may start at an already-applied node).
    fn claim(
        &mut self,
        from: PhysQubit,
        to: PhysQubit,
        g: GroupId,
        walk_stop: bool,
    ) -> Result<(), RouteError> {
        for q in [from, to] {
            if !self.skeleton.is_highway(q) {
                return Err(RouteError::NotHighway { qubit: q });
            }
        }
        if fault::trip(FaultSite::ClaimEngine) {
            // Injected claim failure: fails like an ordinarily congested
            // candidate, with no occupancy state change.
            return Err(RouteError::Congested);
        }
        if !self.available_for(from, g) || !self.available_for(to, g) {
            self.skips += 1;
            return Err(RouteError::Congested);
        }

        // Trivial self-claim (hub entrances): no search required.
        if from == to {
            self.skips += 1;
            self.scratch.path.clear();
            self.scratch.path.push(from);
            self.apply_claim(g);
            return Ok(());
        }

        if self.search_key == Some((from, g)) {
            self.skips += 1;
        } else {
            self.begin_search(from, g);
        }
        if !self.advance_search_to(to, g) {
            return Err(RouteError::Congested);
        }
        self.reconstruct(from, to, g, walk_stop);
        for &q in &self.scratch.path {
            self.applied.insert(q);
        }
        self.apply_claim(g);
        Ok(())
    }

    /// Starts a fresh one-search pass from `from` for `g`, invalidating
    /// any previous search state.
    ///
    /// Cost is `(newly claimed qubits, hops)` lexicographically — entering
    /// a free node costs 1, a `g`-owned node 0, other-owned nodes are
    /// impassable. With 0/1 node weights the search runs on the kernel
    /// layer's resumable [`DialSearch`]: each bucket drains to a fixpoint
    /// before the next starts, so once bucket `p` has drained every cost
    /// with primary ≤ `p` is final — the unique fixpoint of the same
    /// relaxation a heap Dijkstra computes, with no heap traffic. The scan
    /// is *lazy*: [`HighwayOccupancy::advance_search_to`] drains only as
    /// many buckets as the queried destination needs and resumes where it
    /// stopped, so near-corridor candidates cost a fraction of the full
    /// graph while one search still serves every destination.
    fn begin_search(&mut self, from: PhysQubit, g: GroupId) {
        let start = (u32::from(self.owner[from.index()] != Some(g)), 0);
        self.dial
            .begin(&mut self.scratch, self.owner.len(), from, start);
        self.applied.begin(self.owner.len());
        self.search_key = Some((from, g));
        self.searches += 1;
    }

    /// Drains the live search until `to`'s cost is final (returning `true`)
    /// or the search is exhausted with `to` unreached (`false`).
    fn advance_search_to(&mut self, to: PhysQubit, g: GroupId) -> bool {
        let Self {
            owner,
            scratch,
            skeleton,
            dial,
            ..
        } = self;
        let graph = skeleton.csr();
        dial.advance_to(scratch, graph, to, |nb| match owner[nb.index()] {
            None => Some(1),
            Some(o) if o == g => Some(0),
            Some(_) => None,
        })
    }

    /// Reconstructs the minimal-new-claim path from the settled search into
    /// the scratch path buffer, walking backwards by minimum-id
    /// predecessor — exactly the prev tree of the `(cost, hops, qubit)`-
    /// ordered forward search (see [`RoutingScratch::reconstruct_path`]).
    /// With `walk_stop` the walk ends at the first applied node.
    fn reconstruct(&mut self, from: PhysQubit, to: PhysQubit, g: GroupId, walk_stop: bool) {
        let Self {
            owner,
            scratch,
            skeleton,
            applied,
            ..
        } = self;
        let graph = skeleton.csr();
        scratch.reconstruct_path(
            from,
            to,
            |q| (u32::from(owner[q.index()] != Some(g)), 1),
            |q| graph.neighbors(q).iter().copied(),
            |q| walk_stop && applied.contains_qubit(q),
        );
        debug_assert!(scratch.path[0] == from || applied.contains_qubit(scratch.path[0]));
    }

    /// Claims every unowned node of the scratch path for `g` and records
    /// the traversed edges, deduplicated in O(1) via the edge-stamp table.
    /// Growth repairs `g`'s own live search and invalidates any other.
    fn apply_claim(&mut self, g: GroupId) {
        if !self.groups.contains_key(&g) {
            let mut claim = self.claim_pool.pop().unwrap_or_default();
            claim.nodes.clear();
            claim.edges.clear();
            claim.stamp = self.next_stamp;
            self.next_stamp += 1;
            self.groups.insert(g, claim);
            let pos = self
                .active
                .binary_search(&g)
                .expect_err("group cannot be active without resources");
            self.active.insert(pos, g);
        }
        let Self {
            owner,
            groups,
            claimed,
            edge_seen,
            scratch,
            skeleton,
            dial,
            search_key,
            applied,
            ..
        } = self;
        let graph = skeleton.csr();
        let claim = groups.get_mut(&g).expect("inserted above");
        let before = claim.nodes.len();
        for &q in &scratch.path {
            if owner[q.index()].is_none() {
                owner[q.index()] = Some(g);
                *claimed += 1;
                claim.nodes.push(q);
            }
        }
        for w in scratch.path.windows(2) {
            let eid = graph
                .edge_id(w[0], w[1])
                .expect("claimed paths step along highway edges") as usize;
            if edge_seen[eid] != claim.stamp {
                edge_seen[eid] = claim.stamp;
                claim.edges.push((w[0].min(w[1]), w[0].max(w[1])));
            }
        }
        if claim.nodes.len() > before {
            if search_key.is_some_and(|(_, sg)| sg == g) {
                // Entering the new nodes now costs `g` 0 instead of 1: a
                // pure decrease, repaired in place (`DESIGN.md` §9.2).
                // Applied-path marks belong to the old cost field.
                for &v in &claim.nodes[before..] {
                    dial.zero_weight(scratch, graph, v);
                }
                applied.begin(owner.len());
            } else {
                // The new nodes are impassable to any other group.
                *search_key = None;
            }
        }
    }

    /// Releases the resources of a single group (used when a gate fails to
    /// assemble and abandons its claims before executing anything).
    pub fn release(&mut self, g: GroupId) {
        if let Some(mut claim) = self.groups.remove(&g) {
            for &q in &claim.nodes {
                self.owner[q.index()] = None;
            }
            self.claimed -= claim.nodes.len();
            claim.nodes.clear();
            claim.edges.clear();
            self.claim_pool.push(claim);
            if let Ok(pos) = self.active.binary_search(&g) {
                self.active.remove(pos);
            }
            // Weights rise for `g` and fall for every other group; a
            // repair absorbs only `g`'s own decreases, so start afresh.
            self.search_key = None;
        }
    }

    /// Releases everything (end of shuttle).
    pub fn release_all(&mut self) {
        if self.active.is_empty() {
            return;
        }
        self.owner.iter_mut().for_each(|o| *o = None);
        self.claimed = 0;
        for (_, mut claim) in self.groups.drain() {
            claim.nodes.clear();
            claim.edges.clear();
            self.claim_pool.push(claim);
        }
        self.active.clear();
        self.search_key = None;
    }

    /// Number of currently claimed qubits (O(1), maintained incrementally).
    pub fn claimed_count(&self) -> usize {
        self.claimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_chiplet::{ChipletSpec, HighwayLayout};

    fn setup() -> (HighwayLayout, Arc<HighwaySkeleton>) {
        let topo = ChipletSpec::square(7, 2, 2).build();
        let hw = HighwayLayout::generate(&topo, 1);
        let skeleton = Arc::new(HighwaySkeleton::build(topo.num_qubits() as usize, &hw));
        (hw, skeleton)
    }

    #[test]
    fn route_claims_all_path_nodes() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        let path = occ.claim_route(a, b, GroupId(0)).unwrap();
        for q in &path {
            assert_eq!(occ.owner(*q), Some(GroupId(0)));
        }
        assert_eq!(occ.claimed_count(), path.len());
        assert_eq!(occ.nodes_of(GroupId(0)).len(), path.len());
    }

    #[test]
    fn reuse_within_a_gate_is_free() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        let first = occ.claim_route(a, b, GroupId(0)).unwrap();
        let before = occ.claimed_count();
        // Routing between two nodes already on the claimed path adds
        // nothing.
        let mid = first[first.len() / 2];
        occ.claim_route(a, mid, GroupId(0)).unwrap();
        assert_eq!(occ.claimed_count(), before);
    }

    #[test]
    fn settled_search_is_reused_across_zero_growth_claims() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        occ.claim_route(a, b, GroupId(0)).unwrap();
        // The corridor claim grew the owner set, so the next claim settles
        // one fresh search; every claim after that lies entirely on the
        // corridor (zero growth) and reuses it.
        let path = occ.nodes_of(GroupId(0)).to_vec();
        occ.claim_route(a, path[1], GroupId(0)).unwrap();
        let searches = occ.claim_searches();
        let skips = occ.claim_skips();
        for &mid in &path[2..path.len() - 1] {
            occ.claim_route(a, mid, GroupId(0)).unwrap();
        }
        assert_eq!(occ.claim_searches(), searches, "no new search may run");
        assert_eq!(
            occ.claim_skips(),
            skips + (path.len() - 3) as u64,
            "every reuse claim counts as a skip"
        );
    }

    #[test]
    fn other_gates_are_impassable() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        occ.claim_route(a, b, GroupId(0)).unwrap();
        assert_eq!(
            occ.claim_route(a, b, GroupId(1)),
            Err(RouteError::Congested)
        );
    }

    #[test]
    fn disjoint_regions_coexist() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        // Claim a short route in one corner and another far away.
        let a = hw.nodes()[0];
        let a2 = hw
            .highway_neighbors(a)
            .next()
            .expect("corner node has a neighbor");
        occ.claim_route(a, a2, GroupId(0)).unwrap();
        let b = *hw.nodes().last().unwrap();
        let b2 = hw
            .highway_neighbors(b)
            .next()
            .expect("far node has a neighbor");
        occ.claim_route(b, b2, GroupId(1)).unwrap();
        assert_eq!(occ.active_groups(), vec![GroupId(0), GroupId(1)]);
    }

    #[test]
    fn non_highway_endpoint_is_rejected() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let data = hw.data_qubits()[0];
        let err = occ
            .claim_route(data, hw.nodes()[0], GroupId(0))
            .unwrap_err();
        assert_eq!(err, RouteError::NotHighway { qubit: data });
    }

    #[test]
    fn release_all_frees_everything() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        occ.claim_route(a, b, GroupId(0)).unwrap();
        occ.release_all();
        assert_eq!(occ.claimed_count(), 0);
        assert!(occ.active_groups().is_empty());
        occ.claim_route(a, b, GroupId(1)).unwrap();
    }

    #[test]
    fn release_restores_cross_corridor_reachability() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        occ.claim_route(a, b, GroupId(0)).unwrap();
        assert_eq!(
            occ.claim_route(a, b, GroupId(1)),
            Err(RouteError::Congested)
        );
        occ.release(GroupId(0));
        occ.claim_route(a, b, GroupId(1)).unwrap();
        assert_eq!(occ.active_groups(), vec![GroupId(1)]);
    }

    #[test]
    fn tables_sharing_a_skeleton_keep_independent_claims() {
        let (hw, skeleton) = setup();
        let mut first = HighwayOccupancy::new(Arc::clone(&skeleton));
        let mut second = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        let path = first.claim_route(a, b, GroupId(0)).unwrap();
        assert_eq!(second.claim_route(a, b, GroupId(1)).unwrap(), path);
        assert_eq!(first.owner(path[0]), Some(GroupId(0)));
        assert_eq!(second.owner(path[0]), Some(GroupId(1)));
    }

    #[test]
    fn edges_follow_claimed_routes() {
        let (hw, skeleton) = setup();
        let mut occ = HighwayOccupancy::new(skeleton);
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        let path = occ.claim_route(a, b, GroupId(0)).unwrap();
        assert_eq!(occ.edges_of(GroupId(0)).len(), path.len() - 1);
        for (x, y) in occ.edges_of(GroupId(0)) {
            assert!(hw.edge_between(*x, *y).is_some());
        }
    }
}
