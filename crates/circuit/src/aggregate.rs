//! Aggregation of commutable controlled gates into multi-target gates.
//!
//! The MECH protocol (paper Fig. 3) executes many controlled gates sharing a
//! *control* qubit in a single round over a GHZ state. This module groups
//! ready gates around *hub* qubits:
//!
//! * a CNOT joins a **plain** group at its control, or — conjugated by a
//!   Hadamard on the hub (`CNOT(x, h) = H_h · CZ(x, h) · H_h`) — a
//!   **conjugated** group at its target (this is how shared-target programs
//!   like Bernstein–Vazirani ride the highway);
//! * diagonal gates (CZ, CPhase, RZZ) are symmetric and join a plain group
//!   at either operand.
//!
//! Groups are formed greedily, largest first, mirroring the paper's ranking
//! of aggregated gates by component count.

use crate::circuit::Circuit;
use crate::dag::{set_bits, GateId, GateSet};
use crate::gate::{Gate, TwoQubitKind};
use crate::qubit::Qubit;

/// One 2-qubit component of a [`MultiTargetGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetComponent {
    /// The original gate in the logical circuit.
    pub gate: GateId,
    /// The non-hub operand — the qubit that receives the controlled
    /// operation from the highway.
    pub other: Qubit,
}

/// How the hub couples to the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupKind {
    /// The hub is the control of every component as written.
    Plain,
    /// Components are CNOTs *targeting* the hub; a Hadamard on the hub
    /// before and after the group turns each into a CZ controlled by the
    /// hub.
    Conjugated,
}

/// A set of controlled gates sharing a hub qubit, executable concurrently
/// over one GHZ state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTargetGate {
    /// The shared control qubit.
    pub hub: Qubit,
    /// Whether the hub needs Hadamard conjugation.
    pub kind: GroupKind,
    /// The components, each touching a distinct non-hub qubit.
    pub components: Vec<TargetComponent>,
}

impl MultiTargetGate {
    /// Number of 2-qubit components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the group has no components (never produced by
    /// [`aggregate_controlled`]).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// One bucket membership of an aggregable gate: which hub it can join, how
/// it couples there, and which operand would receive the highway operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BucketSlot {
    hub: Qubit,
    other: Qubit,
    kind: GroupKind,
}

/// Incrementally maintained aggregation candidates over a ready front.
///
/// The compiler calls the greedy grouping once per round, but between
/// consecutive rounds only a handful of gates enter or leave the ready
/// front — rebuilding the per-hub candidate buckets from the whole front
/// every time is the dominant compile cost on all-commuting programs
/// (QAOA readies tens of thousands of gates at once). This structure keeps
/// the buckets alive across rounds:
///
/// * `AggregationFront::insert` / `AggregationFront::remove` maintain,
///   per `(hub, kind)`, a **sorted** list of `(gate, other operand)`
///   entries, plus one bitset of all aggregable and one of all
///   non-aggregable two-qubit gates in the front;
/// * [`AggregationFront::carve`] runs the greedy grouping over the live
///   buckets without touching gates that never changed.
///
/// # Invariants
///
/// * Every bucket is sorted ascending by [`GateId`] — the same order the
///   per-round rebuild used to produce by scanning the ready set in
///   order — and leftovers come out ascending by bit order, so carving is
///   **bit-identical** to [`aggregate_controlled`] on the same front.
/// * A gate is a member of either zero buckets or exactly the buckets its
///   operands admit (its bit in `agg` says which); `insert` and `remove`
///   are idempotent, so suspending a gate (in-flight on the highway) and
///   later completing it is safe.
/// * Carve scratch is reused: `assigned` is a bitset zeroed word by word
///   at the start of each carve, `seen` is generation-stamped and
///   component buffers are pooled. A carve reads only bucket entries
///   (never `slots`) and skips buckets too small to form a group.
#[derive(Debug, Clone)]
pub struct AggregationFront {
    /// slots[g] = bucket memberships of gate g (`None` for one-qubit,
    /// measurement and non-controlled two-qubit gates).
    slots: Vec<Option<[BucketSlot; 2]>>,
    /// two_qubit[g] = whether g is any two-qubit gate.
    two_qubit: Vec<bool>,
    plain: Vec<Vec<(GateId, Qubit)>>,
    conjugated: Vec<Vec<(GateId, Qubit)>>,
    /// All tracked aggregable gates.
    agg: GateSet,
    /// All tracked non-aggregable two-qubit gates (SWAPs).
    other: GateSet,
    /// Bumped by every insert or remove that changes the tracked set.
    revision: u64,
    // --- carve scratch ---
    /// Hub visit order: `(usize::MAX - bucket len, hub, kind)`.
    order: Vec<(usize, Qubit, GroupKind)>,
    /// Gates placed in a group by the current carve.
    assigned: GateSet,
    seen: Vec<u64>,
    stamp: u64,
    comp_pool: Vec<Vec<TargetComponent>>,
}

impl AggregationFront {
    /// Creates an empty front for `circuit`, precomputing every gate's
    /// bucket memberships.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        let nq = circuit.num_qubits() as usize;
        let mut slots = Vec::with_capacity(circuit.len());
        let mut two_qubit = Vec::with_capacity(circuit.len());
        let slot = |hub, other, kind| BucketSlot { hub, other, kind };
        for gate in circuit.gates() {
            two_qubit.push(gate.is_two_qubit());
            slots.push(match *gate {
                Gate::Two { kind, a, b, .. } if kind.is_controlled() => {
                    let at_b = match kind {
                        TwoQubitKind::Cnot => GroupKind::Conjugated,
                        _ => GroupKind::Plain,
                    };
                    Some([slot(a, b, GroupKind::Plain), slot(b, a, at_b)])
                }
                _ => None,
            });
        }
        AggregationFront {
            slots,
            two_qubit,
            plain: vec![Vec::new(); nq],
            conjugated: vec![Vec::new(); nq],
            agg: GateSet::new(circuit.len()),
            other: GateSet::new(circuit.len()),
            revision: 0,
            order: Vec::new(),
            assigned: GateSet::new(circuit.len()),
            seen: vec![0; nq],
            stamp: 0,
            comp_pool: Vec::new(),
        }
    }

    fn bucket_mut(&mut self, hub: Qubit, kind: GroupKind) -> &mut Vec<(GateId, Qubit)> {
        match kind {
            GroupKind::Plain => &mut self.plain[hub.index()],
            GroupKind::Conjugated => &mut self.conjugated[hub.index()],
        }
    }

    /// Starts tracking a ready two-qubit gate. One-qubit gates and
    /// measurements are ignored; re-inserting a tracked gate is a no-op.
    pub(crate) fn insert(&mut self, id: GateId) {
        match self.slots[id.index()] {
            Some(slots) if self.agg.insert(id) => {
                self.revision += 1;
                for s in slots {
                    let bucket = self.bucket_mut(s.hub, s.kind);
                    let pos = bucket.partition_point(|&(g, _)| g < id);
                    bucket.insert(pos, (id, s.other));
                }
            }
            None if self.two_qubit[id.index()] => {
                self.revision += u64::from(self.other.insert(id));
            }
            _ => {}
        }
    }

    /// Stops tracking a gate (completed, or suspended while in flight on
    /// the highway). Removing an untracked gate is a no-op.
    pub(crate) fn remove(&mut self, id: GateId) {
        match self.slots[id.index()] {
            Some(slots) if self.agg.remove(id) => {
                self.revision += 1;
                for s in slots {
                    let bucket = self.bucket_mut(s.hub, s.kind);
                    let pos = bucket.partition_point(|&(g, _)| g < id);
                    debug_assert_eq!(bucket[pos].0, id, "gate {id:?} missing from bucket");
                    bucket.remove(pos);
                }
            }
            None => self.revision += u64::from(self.other.remove(id)),
            _ => {}
        }
    }

    /// Counts the inserts and removes that changed the tracked set. Equal
    /// readings bracket no change, so a carve between them would repeat
    /// the previous carve exactly.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Greedily groups the tracked gates into multi-target gates, exactly
    /// as [`aggregate_controlled`] would on the same front: groups come out
    /// largest first, `leftovers` holds every tracked two-qubit gate that
    /// joined no group, ascending. Groups smaller than `min_components`
    /// (floored at 2) are not formed; their gates stay leftovers.
    ///
    /// `groups` from the previous round may be passed back in; their
    /// component buffers are recycled, so steady-state carving allocates
    /// no component buffers.
    pub fn carve(
        &mut self,
        min_components: usize,
        groups: &mut Vec<MultiTargetGate>,
        leftovers: &mut Vec<GateId>,
    ) {
        let min = min_components.max(2);
        for mut g in groups.drain(..) {
            g.components.clear();
            self.comp_pool.push(g.components);
        }
        leftovers.clear();
        self.assigned.clear();

        // Greedy by current bucket size: visit hubs from the most to the
        // least populous and carve each one's group from the
        // still-unassigned gates. (A single pass — re-counting after every
        // pick would be quadratic on all-commuting fronts.) A bucket
        // smaller than `min` cannot form a group, so it is not visited.
        // The keys are unique, so the unstable sort is deterministic.
        self.order.clear();
        for (q, (p, c)) in self.plain.iter().zip(&self.conjugated).enumerate() {
            for (bucket, kind) in [(p, GroupKind::Plain), (c, GroupKind::Conjugated)] {
                if bucket.len() >= min {
                    self.order
                        .push((usize::MAX - bucket.len(), Qubit(q as u32), kind));
                }
            }
        }
        self.order.sort_unstable();

        let Self {
            plain,
            conjugated,
            order,
            assigned,
            seen,
            stamp,
            comp_pool,
            ..
        } = self;
        for &(_, hub, kind) in order.iter() {
            let bucket = match kind {
                GroupKind::Plain => &plain[hub.index()],
                GroupKind::Conjugated => &conjugated[hub.index()],
            };
            // A fresh seen-stamp per group: duplicate pairs keep one
            // component.
            *stamp += 1;
            let group_stamp = *stamp;
            let mut comps = comp_pool.pop().unwrap_or_default();
            debug_assert!(comps.is_empty());
            for &(gate, other) in bucket {
                if assigned.contains(gate) || seen[other.index()] == group_stamp {
                    continue;
                }
                seen[other.index()] = group_stamp;
                comps.push(TargetComponent { gate, other });
            }
            if comps.len() >= min {
                for c in &comps {
                    assigned.insert(c.gate);
                }
                groups.push(MultiTargetGate {
                    hub,
                    kind,
                    components: comps,
                });
            } else {
                comps.clear();
                comp_pool.push(comps);
            }
        }

        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a.hub.cmp(&b.hub)));

        // Leftovers: the unassigned aggregable gates and every
        // non-aggregable one, ascending by bit order.
        let words = (self.agg.words.iter().zip(&self.assigned.words))
            .zip(&self.other.words)
            .map(|((&a, &s), &o)| (a & !s) | o);
        leftovers.extend(set_bits(0, words));
    }
}

/// Groups the `ready` gates of `circuit` into multi-target gates.
///
/// Returns the groups (largest first) and the leftover gates that should be
/// executed as regular 2-qubit gates. A group needs at least
/// `min_components` components (floored at 2) to be worth a highway
/// shuttle: the protocol costs one GHZ preparation plus measurements per
/// shuttle, so tiny groups don't pay for themselves. One-qubit gates and
/// measurements in `ready` are always returned in the leftovers.
///
/// This is the one-shot convenience form of [`AggregationFront`]: it builds
/// a front from `ready`, carves once and returns the result. `ready` is
/// treated as a set — grouping is independent of its order (candidates are
/// always considered ascending by [`GateId`]). Callers that aggregate over
/// an evolving front every round should maintain an [`AggregationFront`]
/// incrementally instead.
///
/// # Example
///
/// ```
/// use mech_circuit::{aggregate_controlled, Circuit, GateId, Qubit};
/// # fn main() -> Result<(), mech_circuit::CircuitError> {
/// let mut c = Circuit::new(4);
/// for t in 1..4 {
///     c.cnot(Qubit(0), Qubit(t))?;
/// }
/// let ready: Vec<GateId> = (0..3).map(GateId).collect();
/// let (groups, rest) = aggregate_controlled(&c, &ready, 3);
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].hub, Qubit(0));
/// assert_eq!(groups[0].len(), 3);
/// assert!(rest.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn aggregate_controlled(
    circuit: &Circuit,
    ready: &[GateId],
    min_components: usize,
) -> (Vec<MultiTargetGate>, Vec<GateId>) {
    let mut front = AggregationFront::new(circuit);
    // Non-two-qubit gates pass through as leftovers (the front tracks only
    // two-qubit gates).
    let mut passthrough: Vec<GateId> = Vec::new();
    for &id in ready {
        if circuit.gates()[id.index()].is_two_qubit() {
            front.insert(id);
        } else {
            passthrough.push(id);
        }
    }
    let mut groups = Vec::new();
    let mut leftovers = Vec::new();
    front.carve(min_components, &mut groups, &mut leftovers);
    leftovers.extend(passthrough);
    leftovers.sort_unstable();
    (groups, leftovers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of tracked gates (aggregable + regular two-qubit).
    fn tracked(front: &AggregationFront) -> usize {
        front.agg.iter().count() + front.other.iter().count()
    }

    /// Reference implementation: the pre-incremental per-round rebuild
    /// (flat bucket arrays refilled from the ready list on every call),
    /// kept verbatim as the oracle the front must match gate-for-gate.
    fn aggregate_oracle(
        circuit: &Circuit,
        ready: &[GateId],
        min_components: usize,
    ) -> (Vec<MultiTargetGate>, Vec<GateId>) {
        let min = min_components.max(2);
        let nq = circuit.num_qubits() as usize;
        let mut plain: Vec<Vec<GateId>> = vec![Vec::new(); nq];
        let mut conjugated: Vec<Vec<GateId>> = vec![Vec::new(); nq];
        let mut leftovers = Vec::new();
        let mut aggregable: Vec<GateId> = Vec::new();
        for &id in ready {
            match circuit.gates()[id.index()] {
                Gate::Two { kind, a, b, .. } if kind.is_controlled() => {
                    aggregable.push(id);
                    match kind {
                        TwoQubitKind::Cnot => {
                            plain[a.index()].push(id);
                            conjugated[b.index()].push(id);
                        }
                        TwoQubitKind::Cz | TwoQubitKind::Cphase | TwoQubitKind::Rzz => {
                            plain[a.index()].push(id);
                            plain[b.index()].push(id);
                        }
                        TwoQubitKind::Swap => unreachable!("swap is not controlled"),
                    }
                }
                _ => leftovers.push(id),
            }
        }
        let mut assigned = vec![false; circuit.len()];
        let mut groups = Vec::new();
        let mut order: Vec<(Qubit, GroupKind)> = Vec::new();
        for q in 0..nq as u32 {
            if !plain[q as usize].is_empty() {
                order.push((Qubit(q), GroupKind::Plain));
            }
            if !conjugated[q as usize].is_empty() {
                order.push((Qubit(q), GroupKind::Conjugated));
            }
        }
        let bucket = |hub: Qubit, kind: GroupKind| -> &Vec<GateId> {
            match kind {
                GroupKind::Plain => &plain[hub.index()],
                GroupKind::Conjugated => &conjugated[hub.index()],
            }
        };
        order.sort_by_key(|&(hub, kind)| {
            (
                std::cmp::Reverse(bucket(hub, kind).len()),
                hub,
                matches!(kind, GroupKind::Conjugated),
            )
        });
        let mut seen_stamp = vec![0u32; nq];
        for (ordinal, &(hub, kind)) in order.iter().enumerate() {
            let stamp = ordinal as u32 + 1;
            let mut comps: Vec<TargetComponent> = Vec::new();
            for &id in bucket(hub, kind) {
                if assigned[id.index()] {
                    continue;
                }
                let Gate::Two { a, b, .. } = circuit.gates()[id.index()] else {
                    continue;
                };
                let other = if a == hub { b } else { a };
                if seen_stamp[other.index()] != stamp {
                    seen_stamp[other.index()] = stamp;
                    comps.push(TargetComponent { gate: id, other });
                }
            }
            if comps.len() >= min {
                for c in &comps {
                    assigned[c.gate.index()] = true;
                }
                groups.push(MultiTargetGate {
                    hub,
                    kind,
                    components: comps,
                });
            }
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a.hub.cmp(&b.hub)));
        for id in aggregable {
            if !assigned[id.index()] {
                leftovers.push(id);
            }
        }
        leftovers.sort();
        (groups, leftovers)
    }

    /// A deterministic mixed-kind program over `nq` qubits.
    fn mixed_program(nq: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(nq);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..gates {
            let a = Qubit(next(u64::from(nq)) as u32);
            let mut b = Qubit(next(u64::from(nq)) as u32);
            if b == a {
                b = Qubit((a.0 + 1) % nq);
            }
            match next(5) {
                0 => c.cnot(a, b).unwrap(),
                1 => c.cz(a, b).unwrap(),
                2 => c.cp(a, b, 0.3).unwrap(),
                3 => c.rzz(a, b, 0.7).unwrap(),
                _ => c
                    .push(Gate::Two {
                        kind: TwoQubitKind::Swap,
                        a,
                        b,
                        angle: 0.0,
                    })
                    .unwrap(),
            };
        }
        c
    }

    #[test]
    fn one_shot_wrapper_matches_oracle() {
        for seed in 0..6 {
            let c = mixed_program(12, 80, seed + 1);
            let ready: Vec<GateId> = (0..c.len() as u32).map(GateId).collect();
            for min in [2, 3, 5] {
                let got = aggregate_controlled(&c, &ready, min);
                let want = aggregate_oracle(&c, &ready, min);
                assert_eq!(got, want, "seed={seed} min={min}");
            }
        }
    }

    #[test]
    fn incremental_front_matches_fresh_rebuild_under_churn() {
        // Drive a front through interleaved insert/remove cycles (ready,
        // suspended, completed, re-carved) and after every carve compare
        // against the oracle rebuilt from scratch on the same live set.
        // Program sizes straddle the 64-gate words of the front's bitsets.
        for (size, seed) in [(63, 3), (64, 5), (65, 7), (120, 9), (129, 11), (301, 13)] {
            let c = mixed_program(10, size, seed);
            let mut front = AggregationFront::new(&c);
            let mut live: Vec<GateId> = Vec::new();
            let mut groups = Vec::new();
            let mut leftovers = Vec::new();
            let mut state = 0xdeadbeefu64 ^ seed;
            let mut next = |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            for round in 0..size / 3 {
                // Insert a few random gates (idempotently), remove a few.
                for _ in 0..5 {
                    let id = GateId(next(c.len() as u64) as u32);
                    front.insert(id);
                    front.insert(id); // idempotent
                    if !live.contains(&id) {
                        live.push(id);
                    }
                }
                for _ in 0..2 {
                    if live.is_empty() {
                        break;
                    }
                    let id = live.swap_remove(next(live.len() as u64) as usize);
                    front.remove(id);
                    front.remove(id); // idempotent
                }
                let min = 2 + round % 3;
                front.carve(min, &mut groups, &mut leftovers);
                // The oracle's bucket order follows its input order; the
                // compiler always offered the ready set ascending, which
                // is the order the front maintains.
                let mut live_sorted = live.clone();
                live_sorted.sort_unstable();
                let (want_groups, want_rest) = aggregate_oracle(&c, &live_sorted, min);
                assert_eq!(tracked(&front), live.len(), "size {size} round {round}");
                assert_eq!(
                    groups, want_groups,
                    "groups diverged: size {size} round {round}"
                );
                assert_eq!(
                    leftovers, want_rest,
                    "leftovers diverged: size {size} round {round}"
                );
            }
        }
    }

    #[test]
    fn front_len_tracks_membership() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.push(Gate::Two {
            kind: TwoQubitKind::Swap,
            a: Qubit(2),
            b: Qubit(3),
            angle: 0.0,
        })
        .unwrap();
        c.h(Qubit(0)).unwrap();
        let mut front = AggregationFront::new(&c);
        assert_eq!(tracked(&front), 0);
        front.insert(GateId(0));
        front.insert(GateId(1));
        front.insert(GateId(2)); // one-qubit: ignored
        assert_eq!(tracked(&front), 2);
        front.remove(GateId(0));
        assert_eq!(tracked(&front), 1);
        front.remove(GateId(0)); // idempotent
        assert_eq!(tracked(&front), 1);
    }

    #[test]
    fn shared_control_cnots_form_one_plain_group() {
        let mut c = Circuit::new(5);
        for t in 1..5 {
            c.cnot(Qubit(0), Qubit(t)).unwrap();
        }
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].kind, GroupKind::Plain);
        assert_eq!(groups[0].len(), 4);
        assert!(rest.is_empty());
    }

    #[test]
    fn shared_target_cnots_form_one_conjugated_group() {
        let mut c = Circuit::new(5);
        for s in 1..5 {
            c.cnot(Qubit(s), Qubit(0)).unwrap();
        }
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].kind, GroupKind::Conjugated);
        assert_eq!(groups[0].len(), 4);
        assert!(rest.is_empty());
    }

    #[test]
    fn below_threshold_gates_stay_regular() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(2), Qubit(3)).unwrap();
        let ready = vec![GateId(0), GateId(1)];
        let (groups, rest) = aggregate_controlled(&c, &ready, 3);
        assert!(groups.is_empty());
        assert_eq!(rest, vec![GateId(0), GateId(1)]);
    }

    #[test]
    fn each_gate_joins_at_most_one_group() {
        // cx(0,1) could join hub 0 (plain) or hub 1 (conjugated); with more
        // gates at hub 0 it must land there and only there.
        let mut c = Circuit::new(5);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        c.cnot(Qubit(0), Qubit(3)).unwrap();
        c.cnot(Qubit(4), Qubit(1)).unwrap();
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total + rest.len(), 4);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn duplicate_other_qubits_are_not_grouped_twice() {
        // Two CP gates on the same pair: only one may join per group.
        let mut c = Circuit::new(3);
        c.cp(Qubit(0), Qubit(1), 0.1).unwrap();
        c.cp(Qubit(0), Qubit(1), 0.2).unwrap();
        c.cp(Qubit(0), Qubit(2), 0.3).unwrap();
        let ready: Vec<GateId> = (0..3).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn diagonal_gates_group_on_either_operand() {
        // rzz(1,0), rzz(0,2): hub 0 works even though operand order differs.
        let mut c = Circuit::new(3);
        c.rzz(Qubit(1), Qubit(0), 0.1).unwrap();
        c.rzz(Qubit(0), Qubit(2), 0.1).unwrap();
        let ready = vec![GateId(0), GateId(1)];
        let (groups, _) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        let others: Vec<Qubit> = groups[0].components.iter().map(|c| c.other).collect();
        assert!(others.contains(&Qubit(1)) && others.contains(&Qubit(2)));
    }

    #[test]
    fn one_qubit_gates_pass_through_as_leftovers() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let ready = vec![GateId(0)];
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert!(groups.is_empty());
        assert_eq!(rest, vec![GateId(0)]);
    }

    #[test]
    fn groups_are_sorted_largest_first() {
        let mut c = Circuit::new(8);
        // hub 0: 3 components; hub 4: 2 components.
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        c.cnot(Qubit(0), Qubit(3)).unwrap();
        c.cnot(Qubit(4), Qubit(5)).unwrap();
        c.cnot(Qubit(4), Qubit(6)).unwrap();
        let ready: Vec<GateId> = (0..5).map(GateId).collect();
        let (groups, _) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 2);
        assert!(groups[0].len() >= groups[1].len());
    }
}
