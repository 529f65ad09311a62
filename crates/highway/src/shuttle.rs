//! Temporal sharing of the highway: the shuttle lifecycle.
//!
//! A *shuttle* is one period during which GHZ states live on the highway
//! (paper §6.2). Within a shuttle, multi-target gates claim disjoint paths,
//! attach their hub qubits, and stream component operations; the shuttle's
//! period stretches dynamically as long as newly arriving components can
//! still use free entrances. Closing the shuttle measures every remaining
//! entangled highway qubit (with Pauli/phase corrections fed forward to the
//! hub data qubits) and releases all paths for the next round.

use std::collections::HashMap;
use std::sync::Arc;

use mech_chiplet::{PhysCircuit, PhysQubit, QubitSet, SemGate1, SemGate2, SemPauli, Topology};

use crate::occupancy::{GroupId, HighwayOccupancy};
use crate::skeleton::HighwaySkeleton;

/// A multi-target gate holding highway resources in the current shuttle.
#[derive(Debug, Clone)]
pub struct ActiveGroup {
    /// The occupancy group.
    pub id: GroupId,
    /// Physical position of the hub data qubit (pinned until close).
    pub hub_data: PhysQubit,
    /// Whether the hub is Hadamard-conjugated (shared-target aggregation).
    pub conjugated: bool,
}

/// Counters reported by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShuttleStats {
    /// Number of shuttles (GHZ prepare/consume rounds).
    pub shuttles: u64,
    /// Multi-target gates executed on the highway.
    pub highway_gates: u64,
    /// Total 2-qubit components executed on the highway.
    pub components: u64,
}

/// One closed shuttle, for timeline inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuttleRecord {
    /// 0-based shuttle index.
    pub index: u64,
    /// Time at which the closing corrections completed (depth units).
    pub closed_at: u64,
    /// Multi-target gates that shared this shuttle.
    pub groups: u32,
    /// Components executed during this shuttle.
    pub components: u64,
    /// Highway qubits that were claimed.
    pub claimed_qubits: usize,
}

/// The state of the current shuttle: claimed paths, live GHZ qubits and the
/// groups using them.
#[derive(Debug, Clone)]
pub struct ShuttleState {
    /// Path/claim bookkeeping (spatial sharing).
    pub occupancy: HighwayOccupancy,
    groups: Vec<ActiveGroup>,
    /// Live GHZ qubits per group, sorted ascending (binary-search
    /// membership; deterministic iteration for the closing measurements).
    live: HashMap<GroupId, Vec<PhysQubit>>,
    /// hub_mask[q] = q is the hub data position of an open group. Updated
    /// incrementally by `register_group`/`close` so the routing-time pinned
    /// set never has to be rebuilt.
    hub_mask: Vec<bool>,
    next_id: u32,
    stats: ShuttleStats,
    trace: Vec<ShuttleRecord>,
    components_at_open: u64,
    horizon: u64,
}

/// A borrow-based view of everything local routing must avoid: hubs of
/// open groups and highway qubits holding live GHZ states. O(1) to create
/// and query; stays consistent automatically because it reads the shuttle's
/// incrementally maintained state instead of snapshotting it.
#[derive(Debug, Clone, Copy)]
pub struct PinnedView<'a> {
    hubs: &'a [bool],
    occupancy: &'a HighwayOccupancy,
}

impl QubitSet for PinnedView<'_> {
    fn contains_qubit(&self, q: PhysQubit) -> bool {
        self.hubs[q.index()] || self.occupancy.owner(q).is_some()
    }
}

/// Like [`PinnedView`], but treating the claims of one group as free.
///
/// Used while routing the hub of a group still being assembled: its own
/// freshly claimed highway qubits hold no GHZ state yet, so crossing them
/// (with the restoring 3-SWAP pass-through) is harmless.
#[derive(Debug, Clone, Copy)]
pub struct PinnedViewExcluding<'a> {
    hubs: &'a [bool],
    occupancy: &'a HighwayOccupancy,
    group: GroupId,
}

impl QubitSet for PinnedViewExcluding<'_> {
    fn contains_qubit(&self, q: PhysQubit) -> bool {
        self.hubs[q.index()] || self.occupancy.owner(q).is_some_and(|o| o != self.group)
    }
}

impl ShuttleState {
    /// Creates an idle shuttle manager whose occupancy table claims over
    /// the shared `skeleton`.
    pub fn new(skeleton: Arc<HighwaySkeleton>) -> Self {
        ShuttleState {
            hub_mask: vec![false; skeleton.num_qubits()],
            occupancy: HighwayOccupancy::new(skeleton),
            groups: Vec::new(),
            live: HashMap::new(),
            next_id: 0,
            stats: ShuttleStats::default(),
            trace: Vec::new(),
            components_at_open: 0,
            horizon: 0,
        }
    }

    /// The current pinned set as a zero-cost view (hub positions plus
    /// claimed highway qubits).
    pub fn pinned_view(&self) -> PinnedView<'_> {
        PinnedView {
            hubs: &self.hub_mask,
            occupancy: &self.occupancy,
        }
    }

    /// [`ShuttleState::pinned_view`] with the claims of group `g` treated
    /// as free (for routing `g`'s own hub during assembly).
    pub fn pinned_view_excluding(&self, g: GroupId) -> PinnedViewExcluding<'_> {
        PinnedViewExcluding {
            hubs: &self.hub_mask,
            occupancy: &self.occupancy,
            group: g,
        }
    }

    /// The close time of the most recent shuttle. Shuttles are *global*
    /// highway time windows (paper §6.2): no operation of the next shuttle
    /// may be scheduled before this time. Callers opening a new shuttle
    /// must floor the clocks of the claimed highway qubits to this value
    /// before preparing GHZ states on them.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The closed-shuttle timeline accumulated so far.
    pub fn trace(&self) -> &[ShuttleRecord] {
        &self.trace
    }

    /// Allocates a fresh group id.
    pub fn next_group_id(&mut self) -> GroupId {
        let id = GroupId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Registers a group whose GHZ state is prepared, recording its live
    /// qubits.
    pub fn register_group(
        &mut self,
        group: ActiveGroup,
        live: impl IntoIterator<Item = PhysQubit>,
    ) {
        let mut qs: Vec<PhysQubit> = live.into_iter().collect();
        qs.sort_unstable();
        qs.dedup(); // the old set-based storage absorbed duplicates
        self.live.insert(group.id, qs);
        self.hub_mask[group.hub_data.index()] = true;
        self.groups.push(group);
        self.stats.highway_gates += 1;
    }

    /// `true` while any group holds highway resources.
    pub fn is_open(&self) -> bool {
        !self.groups.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ShuttleStats {
        self.stats
    }

    /// Attaches the hub to the GHZ state: `CNOT(hub → entrance)`, measure
    /// the entrance, and feed X corrections forward to the group's
    /// remaining GHZ qubits (paper Fig. 3, left half). Returns the outcome
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `entrance` is not live for this group.
    pub fn attach_hub(
        &mut self,
        pc: &mut PhysCircuit,
        topo: &Topology,
        gid: GroupId,
        hub_data: PhysQubit,
        entrance: PhysQubit,
    ) -> u64 {
        let live = self.live.get_mut(&gid).expect("group is registered");
        let pos = live
            .binary_search(&entrance)
            .unwrap_or_else(|_| panic!("hub entrance {entrance} is not live for {gid}"));
        live.remove(pos);
        // Semantics: CNOT(hub→entrance) then Z-measuring the entrance turns
        // the remaining bus qubits into Z-basis copies of the hub data qubit
        // (up to an X correction on every copy when the outcome is 1). The
        // conditional X on the entrance itself resets it to |0⟩.
        pc.record_gate2(SemGate2::Cnot, hub_data, entrance);
        pc.two_qubit(topo, hub_data, entrance);
        let slot = pc.record_measure(entrance, None);
        let outcome = pc.measure(entrance);
        if pc.sem_recording() {
            pc.record_cond_pauli(entrance, SemPauli::X, vec![slot]);
        }
        for &q in live.iter() {
            if pc.sem_recording() {
                pc.record_cond_pauli(q, SemPauli::X, vec![slot]);
            }
            pc.advance(q, outcome);
            pc.one_qubit(q); // conditional X correction (free)
        }
        outcome
    }

    /// Executes one gate component: a controlled operation from the live
    /// GHZ qubit `entrance` onto the data qubit at `access`. `sem` names
    /// the effective two-qubit interaction for the semantic trace (the bus
    /// copies make control-from-entrance equal control-from-hub for
    /// Z-controlled interactions); it is ignored when recording is off.
    /// Returns the start time.
    ///
    /// # Panics
    ///
    /// Panics if `entrance` is not live for this group.
    pub fn component(
        &mut self,
        pc: &mut PhysCircuit,
        topo: &Topology,
        gid: GroupId,
        entrance: PhysQubit,
        access: PhysQubit,
        sem: SemGate2,
    ) -> u64 {
        assert!(
            self.live
                .get(&gid)
                .is_some_and(|l| l.binary_search(&entrance).is_ok()),
            "component entrance {entrance} is not live for {gid}"
        );
        // Basis changes on the data qubit (CZ vs CX vs CP) are free 1-qubit
        // gates.
        pc.one_qubit(access);
        pc.record_gate2(sem, entrance, access);
        let t = pc.two_qubit(topo, entrance, access);
        pc.one_qubit(access);
        self.stats.components += 1;
        t
    }

    /// Closes the shuttle: measures every remaining live GHZ qubit (after a
    /// free basis-change H), feeds the phase corrections forward to each
    /// hub, and releases all claims. Returns the time at which every hub is
    /// corrected, or `None` if the shuttle was already idle.
    pub fn close(&mut self, pc: &mut PhysCircuit) -> Option<u64> {
        if self.groups.is_empty() {
            return None;
        }
        let record_groups = self.groups.len() as u32;
        let record_claimed = self.occupancy.claimed_count();
        let mut hub_ready = 0u64;
        for group in &self.groups {
            let live = self.live.remove(&group.id).unwrap_or_default();
            let mut outcome = 0u64;
            let mut slots: Vec<u32> = Vec::new();
            for &q in &live {
                pc.one_qubit(q); // H before X-basis measurement (free)
                if pc.sem_recording() {
                    pc.record_gate1(q, SemGate1::H);
                    let slot = pc.record_measure(q, None);
                    pc.record_cond_pauli(q, SemPauli::X, vec![slot]);
                    slots.push(slot);
                }
                outcome = outcome.max(pc.measure(q));
            }
            // Conditional Z (and the closing H for conjugated hubs) on the
            // hub data qubit — free, but it must wait for the outcomes.
            // Semantically: X-measuring the bus copies disentangles them
            // from the hub up to a Z on the hub conditioned on the outcome
            // parity; the conditional X after each measurement resets the
            // consumed qubit to |0⟩. The parity-Z must precede the closing H
            // of conjugated hubs.
            if pc.sem_recording() && !slots.is_empty() {
                pc.record_cond_pauli(group.hub_data, SemPauli::Z, slots);
            }
            pc.advance(group.hub_data, outcome);
            pc.one_qubit(group.hub_data);
            if group.conjugated {
                pc.record_gate1(group.hub_data, SemGate1::H);
                pc.one_qubit(group.hub_data);
            }
            hub_ready = hub_ready.max(pc.time(group.hub_data));
            self.hub_mask[group.hub_data.index()] = false;
        }
        self.groups.clear();
        self.occupancy.release_all();
        // Shuttle periods are totally ordered on the global highway
        // timeline, even when a caller forgot to floor this shuttle's
        // operations to the previous close.
        let hub_ready = hub_ready.max(self.horizon);
        self.horizon = hub_ready;
        self.trace.push(ShuttleRecord {
            index: self.stats.shuttles,
            closed_at: hub_ready,
            groups: record_groups,
            components: self.stats.components - self.components_at_open,
            claimed_qubits: record_claimed,
        });
        self.components_at_open = self.stats.components;
        self.stats.shuttles += 1;
        Some(hub_ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghz::{prepare_ghz_with, GhzScratch};
    use mech_chiplet::{ChipletSpec, CostModel, HighwayLayout, Topology};
    use std::collections::HashSet;

    fn setup() -> (Topology, HighwayLayout, ShuttleState) {
        let topo = ChipletSpec::square(7, 1, 2).build();
        let hw = HighwayLayout::generate(&topo, 1);
        let skeleton = HighwaySkeleton::build(topo.num_qubits() as usize, &hw);
        let st = ShuttleState::new(Arc::new(skeleton));
        (topo, hw, st)
    }

    /// Claims a route across the device for a fresh group and prepares its
    /// GHZ state.
    fn open_group(
        pc: &mut PhysCircuit,
        topo: &Topology,
        hw: &HighwayLayout,
        st: &mut ShuttleState,
    ) -> (GroupId, Vec<PhysQubit>) {
        let gid = st.next_group_id();
        let a = hw.nodes()[0];
        let b = *hw.nodes().last().unwrap();
        let path = st.occupancy.claim_route(a, b, gid).unwrap();
        let entrances: HashSet<PhysQubit> = path.iter().copied().collect();
        let nodes = st.occupancy.nodes_of(gid).to_vec();
        let edges = st.occupancy.edges_of(gid).to_vec();
        let live = prepare_ghz_with(
            pc,
            topo,
            hw,
            &nodes,
            &edges,
            &entrances,
            &mut GhzScratch::default(),
        );
        // Pick a hub access next to `a`.
        let hub_data = topo
            .neighbors(a)
            .iter()
            .copied()
            .find(|&q| !hw.is_highway(q))
            .unwrap();
        st.register_group(
            ActiveGroup {
                id: gid,
                hub_data,
                conjugated: false,
            },
            live.clone(),
        );
        (gid, live)
    }

    #[test]
    fn full_shuttle_lifecycle() {
        let (topo, hw, mut st) = setup();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        assert!(!st.is_open());

        let (gid, live) = open_group(&mut pc, &topo, &hw, &mut st);
        assert!(st.is_open());

        // Attach hub at the first live entrance.
        let hub_entrance = live[0];
        let hub_data = st.groups[0].hub_data;
        st.attach_hub(&mut pc, &topo, gid, hub_data, hub_entrance);

        // Execute a component at another live entrance.
        let target_entrance = *live.last().unwrap();
        let access = topo
            .neighbors(target_entrance)
            .iter()
            .copied()
            .find(|&q| !hw.is_highway(q) && q != hub_data)
            .unwrap();
        st.component(&mut pc, &topo, gid, target_entrance, access, SemGate2::Cnot);

        let end = st.close(&mut pc).unwrap();
        assert!(end > 0);
        assert!(!st.is_open());
        assert_eq!(st.stats().shuttles, 1);
        assert_eq!(st.stats().highway_gates, 1);
        assert_eq!(st.stats().components, 1);
        // Occupancy is released.
        assert_eq!(st.occupancy.claimed_count(), 0);
    }

    #[test]
    fn close_on_idle_returns_none() {
        let (topo, _, mut st) = setup();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        assert_eq!(st.close(&mut pc), None);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn attaching_at_consumed_entrance_panics() {
        let (topo, hw, mut st) = setup();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let (gid, live) = open_group(&mut pc, &topo, &hw, &mut st);
        let hub_data = st.groups[0].hub_data;
        st.attach_hub(&mut pc, &topo, gid, hub_data, live[0]);
        // Same entrance again: must panic.
        st.attach_hub(&mut pc, &topo, gid, hub_data, live[0]);
    }

    #[test]
    fn hub_waits_for_closing_measurements() {
        let (topo, hw, mut st) = setup();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let (gid, live) = open_group(&mut pc, &topo, &hw, &mut st);
        let hub_data = st.groups[0].hub_data;
        st.attach_hub(&mut pc, &topo, gid, hub_data, live[0]);
        let end = st.close(&mut pc).unwrap();
        assert_eq!(pc.time(hub_data), end);
    }

    #[test]
    fn group_ids_are_unique() {
        let (_, _, mut st) = setup();
        let a = st.next_group_id();
        let b = st.next_group_id();
        assert_ne!(a, b);
    }
}
