//! Commutation-aware dependency analysis.
//!
//! The paper's `Circuit.py` "allows gate commutation to find the earliest
//! execution time of each gate". We realize this with a per-qubit *block*
//! decomposition: on each qubit, consecutive gates sharing the same
//! [`PauliRole`] form a block whose members commute
//! pairwise, and every gate of block `k` depends on *all* gates of block
//! `k-1`. Gates with [`PauliRole::Other`] (H, SWAP, measurement) form
//! singleton blocks, acting as barriers.
//!
//! This encodes the full commutation partial order without materializing the
//! (potentially quadratic) edge set: readiness reduces to "is the previous
//! block on each operand fully executed?", which [`DagSchedule`] tracks with
//! counters.

use crate::aggregate::AggregationFront;
use crate::circuit::{Circuit, CircuitError};
use crate::commute::PauliRole;
use crate::gate::Gate;
use crate::qubit::Qubit;

/// Identifier of a gate: its position in the circuit's program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// The raw index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of gate ids, one bit per gate of the program: O(1) insert,
/// remove and contains, iteration ascending by [`GateId`].
#[derive(Debug, Clone)]
pub(crate) struct GateSet {
    pub(crate) words: Vec<u64>,
    len: usize,
    /// Every word below `low` is zero.
    low: usize,
}

impl GateSet {
    pub(crate) fn new(num_gates: usize) -> Self {
        GateSet {
            words: vec![0; num_gates.div_ceil(64)],
            len: 0,
            low: 0,
        }
    }

    pub(crate) fn contains(&self, g: GateId) -> bool {
        self.words[g.index() / 64] >> (g.index() % 64) & 1 == 1
    }

    /// Adds `g`; returns whether it was absent.
    pub(crate) fn insert(&mut self, g: GateId) -> bool {
        let (w, bit) = (g.index() / 64, 1u64 << (g.index() % 64));
        let absent = self.words[w] & bit == 0;
        self.low = if self.len == 0 { w } else { self.low.min(w) };
        self.words[w] |= bit;
        self.len += usize::from(absent);
        absent
    }

    /// Drops `g`; returns whether it was present.
    pub(crate) fn remove(&mut self, g: GateId) -> bool {
        let (w, bit) = (g.index() / 64, 1u64 << (g.index() % 64));
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= usize::from(present);
        if w == self.low {
            self.skip_empty_words();
        }
        present
    }

    fn skip_empty_words(&mut self) {
        while self.len > 0 && self.words[self.low] == 0 {
            self.low += 1;
        }
    }

    /// Removes and returns the lowest id.
    pub(crate) fn pop_first(&mut self) -> Option<GateId> {
        if self.len == 0 {
            return None;
        }
        self.skip_empty_words();
        let w = self.words[self.low];
        self.words[self.low] = w & (w - 1);
        self.len -= 1;
        Some(GateId((self.low * 64) as u32 + w.trailing_zeros()))
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The index of the lowest nonzero word (the word count if empty).
    pub(crate) fn first_word(&self) -> usize {
        if self.len == 0 {
            self.words.len()
        } else {
            self.low
        }
    }

    /// The members, ascending; stops once all `len` are out.
    pub(crate) fn iter(&self) -> impl Iterator<Item = GateId> + '_ {
        set_bits(self.low, self.words[self.low..].iter().copied()).take(self.len)
    }
}

/// The ids of the set bits of `words`, ascending, where the first word
/// holds ids `64 * first..`.
pub(crate) fn set_bits(
    first: usize,
    words: impl Iterator<Item = u64>,
) -> impl Iterator<Item = GateId> {
    words.enumerate().flat_map(move |(i, mut w)| {
        std::iter::from_fn(move || {
            let bit = (w != 0).then(|| w.trailing_zeros())?;
            w &= w - 1;
            Some(GateId(((first + i) * 64) as u32 + bit))
        })
    })
}

/// A maximal run of same-role gates on one qubit.
#[derive(Debug, Clone)]
struct Block {
    role: PauliRole,
    gates: Vec<GateId>,
}

/// Per-operand position of a gate: which qubit, which block on it, and
/// the gate's role there (the block's role, kept here so
/// [`CommutationDag::check_built_from`] reads one entry per operand).
#[derive(Debug, Clone, Copy)]
struct BlockPos {
    qubit: u32,
    block: u32,
    role: PauliRole,
}

/// The commutation structure of a [`Circuit`].
///
/// Constructing the DAG is `O(total gate operands)`. Use
/// [`CommutationDag::schedule`] to walk the circuit front-to-back respecting
/// only true (non-commuting) dependencies.
///
/// # Example
///
/// ```
/// use mech_circuit::{Circuit, CommutationDag, Qubit};
/// # fn main() -> Result<(), mech_circuit::CircuitError> {
/// let mut c = Circuit::new(3);
/// c.cnot(Qubit(0), Qubit(1))?;
/// c.cnot(Qubit(0), Qubit(2))?; // commutes with the first (shared control)
/// let dag = CommutationDag::new(&c);
/// let mut sched = dag.schedule();
/// assert_eq!(sched.ready_two_qubit().count(), 2); // both CNOTs are immediately ready
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CommutationDag {
    /// blocks[q] = ordered blocks on qubit q.
    blocks: Vec<Vec<Block>>,
    /// gate_pos[g] = positions of gate g on its operands (1 or 2 entries).
    gate_pos: Vec<[Option<BlockPos>; 2]>,
    /// two_qubit[g] = whether gate g is a two-qubit gate (partitions the
    /// schedule's ready front).
    two_qubit: Vec<bool>,
    num_gates: usize,
}

impl CommutationDag {
    /// Builds the commutation DAG of `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let nq = circuit.num_qubits() as usize;
        let mut blocks: Vec<Vec<Block>> = vec![Vec::new(); nq];
        let mut gate_pos = vec![[None, None]; circuit.len()];
        let two_qubit: Vec<bool> = circuit.gates().iter().map(Gate::is_two_qubit).collect();

        for (id, gate) in circuit.iter() {
            for (slot, q) in (&gate.qubits()).into_iter().enumerate() {
                let role = gate.role_on(q);
                let qblocks = &mut blocks[q.index()];
                let start_new = match qblocks.last() {
                    Some(b) => b.role != role || role == PauliRole::Other,
                    None => true,
                };
                if start_new {
                    qblocks.push(Block {
                        role,
                        gates: Vec::new(),
                    });
                }
                let bidx = qblocks.len() - 1;
                qblocks[bidx].gates.push(id);
                gate_pos[id.index()][slot] = Some(BlockPos {
                    qubit: q.0,
                    block: bidx as u32,
                    role,
                });
            }
        }

        CommutationDag {
            blocks,
            gate_pos,
            two_qubit,
            num_gates: circuit.len(),
        }
    }

    /// Checks that this DAG was built from `circuit`: the same width, the
    /// same gate count, and every gate of the same arity on the same
    /// operands in the same commutation roles. Gates that differ only in
    /// kind or angle within one role (CZ and CPHASE, two Rz angles) build
    /// the same DAG, so they pass.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DagMismatch`] when it was not.
    pub fn check_built_from(&self, circuit: &Circuit) -> Result<(), CircuitError> {
        let same_gate = |((gate, pos), &two_qubit): ((&Gate, &[Option<BlockPos>; 2]), &bool)| {
            let on = |slot: usize, q: Qubit, role: PauliRole| {
                pos[slot].is_some_and(|p| p.qubit == q.0 && p.role == role)
            };
            two_qubit == gate.is_two_qubit()
                && match *gate {
                    Gate::One { gate, q } => on(0, q, gate.role()) && pos[1].is_none(),
                    Gate::Measure { q } => on(0, q, PauliRole::Other) && pos[1].is_none(),
                    Gate::Two { kind, a, b, .. } => {
                        on(0, a, kind.role_a()) && on(1, b, kind.role_b())
                    }
                }
        };
        let built_from = self.blocks.len() == circuit.num_qubits() as usize
            && self.num_gates == circuit.len()
            && circuit
                .gates()
                .iter()
                .zip(&self.gate_pos)
                .zip(&self.two_qubit)
                .all(same_gate);
        built_from.then_some(()).ok_or(CircuitError::DagMismatch)
    }

    /// Starts a scheduling session over this DAG.
    pub fn schedule(&self) -> DagSchedule<'_> {
        DagSchedule::new(self)
    }
}

/// Incremental front-layer tracker over a [`CommutationDag`].
///
/// The ready front is maintained incrementally and *partitioned by gate
/// kind*: one-qubit gates and measurements on one side, two-qubit gates on
/// the other, because the compiler treats them in separate phases every
/// round. Iterate either side without allocating via
/// [`DagSchedule::ready_one_qubit`] / [`DagSchedule::ready_two_qubit`],
/// drain the cheap side with [`DagSchedule::pop_ready_one_qubit`], and
/// commit gates with [`DagSchedule::complete`]. The combined front is
/// always an antichain of pairwise-commuting gates.
///
/// Each side is a bitset over gate ids (one bit per program gate):
/// insert, remove and membership are O(1), popping the lowest id resumes
/// from a low-word hint, and iteration comes out ascending and stops once
/// every member is out, so a full rescan of a small front costs only the
/// words between its lowest and highest members.
#[derive(Debug, Clone)]
pub struct DagSchedule<'a> {
    dag: &'a CommutationDag,
    /// done[q][b] = completed gates within block b of qubit q.
    done: Vec<Vec<u32>>,
    completed: Vec<bool>,
    /// Ready one-qubit gates and measurements.
    ready_one: GateSet,
    /// Ready two-qubit gates.
    ready_two: GateSet,
    num_completed: usize,
    /// Incrementally maintained aggregation candidates (compiler sessions
    /// attach one; plain schedules don't pay for it).
    aggregation: Option<AggregationFront>,
}

impl<'a> DagSchedule<'a> {
    fn new(dag: &'a CommutationDag) -> Self {
        let done = dag.blocks.iter().map(|bs| vec![0u32; bs.len()]).collect();
        let mut s = DagSchedule {
            dag,
            done,
            completed: vec![false; dag.num_gates],
            ready_one: GateSet::new(dag.num_gates),
            ready_two: GateSet::new(dag.num_gates),
            num_completed: 0,
            aggregation: None,
        };
        for g in 0..dag.num_gates {
            let id = GateId(g as u32);
            if s.is_ready(id) {
                s.insert_ready(id);
            }
        }
        s
    }

    fn block_done(&self, qubit: u32, block: u32) -> bool {
        let b = &self.dag.blocks[qubit as usize][block as usize];
        self.done[qubit as usize][block as usize] as usize == b.gates.len()
    }

    fn is_ready(&self, g: GateId) -> bool {
        if self.completed[g.index()] {
            return false;
        }
        self.dag.gate_pos[g.index()]
            .iter()
            .flatten()
            .all(|pos| pos.block == 0 || self.block_done(pos.qubit, pos.block - 1))
    }

    fn front_of(&mut self, g: GateId) -> &mut GateSet {
        if self.dag.two_qubit[g.index()] {
            &mut self.ready_two
        } else {
            &mut self.ready_one
        }
    }

    fn insert_ready(&mut self, g: GateId) {
        self.front_of(g).insert(g);
        if let Some(front) = &mut self.aggregation {
            front.insert(g);
        }
    }

    /// Attaches an incrementally maintained [`AggregationFront`] seeded
    /// from the current two-qubit ready front. From here on the front
    /// tracks readiness automatically; use
    /// [`DagSchedule::aggregation_front_mut`] to carve each round and
    /// [`DagSchedule::suspend_from_aggregation`] for gates executing on the
    /// highway whose completion is deferred to the shuttle close.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the circuit this schedule's DAG was built
    /// from (gate count mismatch).
    pub fn attach_aggregation(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.len(),
            self.dag.num_gates,
            "aggregation front attached to a different circuit"
        );
        let mut front = AggregationFront::new(circuit);
        for g in self.ready_two.iter() {
            front.insert(g);
        }
        self.aggregation = Some(front);
    }

    /// The attached aggregation front, if any.
    pub fn aggregation_front_mut(&mut self) -> Option<&mut AggregationFront> {
        self.aggregation.as_mut()
    }

    /// Withdraws a ready two-qubit gate from the aggregation front without
    /// completing it: the gate has executed as a component of a highway
    /// gate, but retires from the DAG only when the shuttle closes (its
    /// logical effect is final after the closing corrections). It must not
    /// be offered for aggregation or regular routing in the meantime.
    pub fn suspend_from_aggregation(&mut self, g: GateId) {
        debug_assert!(self.is_gate_ready(g), "suspended gate must be ready");
        if let Some(front) = &mut self.aggregation {
            front.remove(g);
        }
    }

    /// Iterates the ready one-qubit gates and measurements, ascending.
    pub fn ready_one_qubit(&self) -> impl Iterator<Item = GateId> + '_ {
        self.ready_one.iter()
    }

    /// Iterates the ready two-qubit gates, ascending.
    pub fn ready_two_qubit(&self) -> impl Iterator<Item = GateId> + '_ {
        self.ready_two.iter()
    }

    /// Drain-style front consumption: removes and completes the smallest
    /// ready one-qubit gate or measurement, returning its id (the caller
    /// emits the corresponding physical op). Newly unlocked gates join the
    /// front immediately, so looping until `None` executes every
    /// transitively unlockable non-two-qubit gate.
    pub fn pop_ready_one_qubit(&mut self) -> Option<GateId> {
        let g = self.ready_one.pop_first()?;
        self.finish(g);
        Some(g)
    }

    /// `true` when `g` is currently in the ready set.
    pub fn is_gate_ready(&self, g: GateId) -> bool {
        if self.dag.two_qubit[g.index()] {
            self.ready_two.contains(g)
        } else {
            self.ready_one.contains(g)
        }
    }

    /// `true` once `g` has been completed.
    pub fn is_completed(&self, g: GateId) -> bool {
        self.completed[g.index()]
    }

    /// Number of gates completed so far.
    pub fn completed_count(&self) -> usize {
        self.num_completed
    }

    /// `true` once every gate has been completed.
    pub fn is_finished(&self) -> bool {
        self.num_completed == self.dag.num_gates
    }

    /// Marks `g` as executed, unlocking successors.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not currently ready (executing it would violate a
    /// dependency), which indicates a compiler bug.
    pub fn complete(&mut self, g: GateId) {
        assert!(
            self.front_of(g).remove(g),
            "gate {g:?} completed while not ready"
        );
        self.finish(g);
    }

    /// Marks an already-dequeued gate done and promotes newly unlocked
    /// successors into the ready front.
    fn finish(&mut self, g: GateId) {
        self.completed[g.index()] = true;
        self.num_completed += 1;
        if let Some(front) = &mut self.aggregation {
            front.remove(g); // no-op if already suspended
        }
        let dag = self.dag;
        for pos in dag.gate_pos[g.index()].iter().flatten() {
            self.done[pos.qubit as usize][pos.block as usize] += 1;
            // If this block just finished, gates of the next block on this
            // qubit may have become ready.
            if self.block_done(pos.qubit, pos.block) {
                let qblocks = &dag.blocks[pos.qubit as usize];
                if let Some(next) = qblocks.get(pos.block as usize + 1) {
                    for &cand in &next.gates {
                        if self.is_ready(cand) {
                            self.insert_ready(cand);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The gates that must complete before `g` may execute: all members
    /// of the preceding block on each of `g`'s operands.
    fn predecessors(dag: &CommutationDag, g: GateId) -> Vec<GateId> {
        let mut preds = BTreeSet::new();
        for pos in dag.gate_pos[g.index()].iter().flatten() {
            if pos.block > 0 {
                let prev = &dag.blocks[pos.qubit as usize][pos.block as usize - 1];
                preds.extend(prev.gates.iter().copied());
            }
        }
        preds.into_iter().collect()
    }

    /// The whole ready front, ascending.
    fn snapshot(s: &DagSchedule<'_>) -> Vec<GateId> {
        let mut all: Vec<GateId> = s.ready_one_qubit().chain(s.ready_two_qubit()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn sequential_cnot_chain_is_serialized() {
        // cx(0,1); cx(1,2); cx(2,3): each depends on the previous.
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(1), Qubit(2)).unwrap();
        c.cnot(Qubit(2), Qubit(3)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        assert_eq!(snapshot(&s), vec![GateId(0)]);
        s.complete(GateId(0));
        assert_eq!(snapshot(&s), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(snapshot(&s), vec![GateId(2)]);
        s.complete(GateId(2));
        assert!(s.is_finished());
    }

    #[test]
    fn shared_control_fanout_is_fully_parallel() {
        let mut c = Circuit::new(5);
        for t in 1..5 {
            c.cnot(Qubit(0), Qubit(t)).unwrap();
        }
        let dag = CommutationDag::new(&c);
        let s = dag.schedule();
        assert_eq!(snapshot(&s).len(), 4);
    }

    #[test]
    fn shared_target_fanin_is_fully_parallel() {
        let mut c = Circuit::new(5);
        for src in 1..5 {
            c.cnot(Qubit(src), Qubit(0)).unwrap();
        }
        let dag = CommutationDag::new(&c);
        let s = dag.schedule();
        assert_eq!(snapshot(&s).len(), 4);
    }

    #[test]
    fn rz_between_shared_control_cnots_does_not_block() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.rz(Qubit(0), 0.3).unwrap(); // diagonal on the shared control
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        let dag = CommutationDag::new(&c);
        let s = dag.schedule();
        assert_eq!(snapshot(&s).len(), 3);
    }

    #[test]
    fn hadamard_is_a_barrier_between_commuting_gates() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        assert_eq!(snapshot(&s), vec![GateId(0)]);
        s.complete(GateId(0));
        assert_eq!(snapshot(&s), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(snapshot(&s), vec![GateId(2)]);
    }

    #[test]
    fn two_rz_then_x_orders_x_after_both() {
        // Regression for the "latest non-commuting predecessor" pitfall:
        // rz(0); rz(0); x(0) — the x must wait on BOTH rz gates.
        let mut c = Circuit::new(1);
        c.rz(Qubit(0), 0.1).unwrap();
        c.rz(Qubit(0), 0.2).unwrap();
        c.x(Qubit(0)).unwrap();
        let dag = CommutationDag::new(&c);
        assert_eq!(predecessors(&dag, GateId(2)), vec![GateId(0), GateId(1)]);
        let mut s = dag.schedule();
        assert_eq!(snapshot(&s), vec![GateId(0), GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(snapshot(&s), vec![GateId(0)]); // x still blocked
        s.complete(GateId(0));
        assert_eq!(snapshot(&s), vec![GateId(2)]);
    }

    #[test]
    fn predecessors_of_first_block_are_empty() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let dag = CommutationDag::new(&c);
        assert!(predecessors(&dag, GateId(0)).is_empty());
    }

    #[test]
    fn measurement_blocks_the_qubit() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.measure(Qubit(1)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        s.complete(GateId(0));
        assert_eq!(snapshot(&s), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(snapshot(&s), vec![GateId(2)]);
        s.complete(GateId(2));
        assert!(s.is_finished());
        assert_eq!(s.completed_count(), 3);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn completing_a_blocked_gate_panics() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(1), Qubit(2)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        s.complete(GateId(1));
    }

    #[test]
    fn ready_fronts_match_a_reference_model_across_word_boundaries() {
        // Random completion orders on programs whose sizes straddle the
        // 64-gate words of the ready bitsets, checked after every step
        // against a `BTreeSet` front recomputed from the predecessor sets.
        for (size, seed) in [(63u64, 1u64), (64, 2), (65, 3), (129, 4), (300, 5)] {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut next = |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let nq = 9;
            let mut c = Circuit::new(nq);
            for _ in 0..size {
                let a = Qubit(next(u64::from(nq)) as u32);
                let b = Qubit((a.0 + 1 + next(u64::from(nq) - 1) as u32) % nq);
                match next(6) {
                    0 => c.h(a).unwrap(),
                    1 => c.rz(a, 0.4).unwrap(),
                    2 => c.measure(a).unwrap(),
                    3 => c.cnot(a, b).unwrap(),
                    4 => c.cz(a, b).unwrap(),
                    _ => c.rzz(a, b, 0.2).unwrap(),
                };
            }
            let dag = CommutationDag::new(&c);
            let preds: Vec<Vec<GateId>> = (0..c.len() as u32)
                .map(|g| predecessors(&dag, GateId(g)))
                .collect();
            let mut s = dag.schedule();
            let mut done = vec![false; c.len()];
            loop {
                let ready: BTreeSet<GateId> = (0..c.len() as u32)
                    .map(GateId)
                    .filter(|g| {
                        !done[g.index()] && preds[g.index()].iter().all(|p| done[p.index()])
                    })
                    .collect();
                let (two, one): (BTreeSet<GateId>, BTreeSet<GateId>) = ready
                    .iter()
                    .partition(|g| c.gates()[g.index()].is_two_qubit());
                assert!(s.ready_one_qubit().eq(one.iter().copied()), "size {size}");
                assert!(s.ready_two_qubit().eq(two.iter().copied()), "size {size}");
                assert_eq!(s.ready_one.len + s.ready_two.len, ready.len());
                for g in (0..c.len() as u32).map(GateId) {
                    assert_eq!(s.is_gate_ready(g), ready.contains(&g), "{g:?}");
                }
                if ready.is_empty() {
                    break;
                }
                // Pop the lowest one-qubit gate, or complete any ready gate.
                let g = if !one.is_empty() && next(3) == 0 {
                    let g = s.pop_ready_one_qubit();
                    assert_eq!(g, one.first().copied());
                    g.unwrap()
                } else {
                    let g = *ready.iter().nth(next(ready.len() as u64) as usize).unwrap();
                    s.complete(g);
                    g
                };
                done[g.index()] = true;
            }
            assert!(s.is_finished(), "size {size}");
            assert_eq!(s.pop_ready_one_qubit(), None);
        }
    }

    #[test]
    fn block_count_matches_role_runs() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), 0.1).unwrap();
        c.rz(Qubit(0), 0.2).unwrap();
        c.x(Qubit(0)).unwrap();
        c.x(Qubit(0)).unwrap();
        c.h(Qubit(0)).unwrap();
        c.h(Qubit(0)).unwrap();
        let dag = CommutationDag::new(&c);
        // [rz rz] [x x] [h] [h] -> 4 blocks (Other gates are singletons):
        // each gate depends on exactly the whole previous block.
        let preds: Vec<Vec<GateId>> = (0..6).map(|g| predecessors(&dag, GateId(g))).collect();
        assert_eq!(
            preds,
            [
                vec![],
                vec![],
                vec![GateId(0), GateId(1)],
                vec![GateId(0), GateId(1)],
                vec![GateId(2), GateId(3)],
                vec![GateId(4)],
            ]
        );
    }
}
