//! Commutation-aware dependency analysis.
//!
//! The paper's `Circuit.py` "allows gate commutation to find the earliest
//! execution time of each gate". We realize this with a per-qubit *block*
//! decomposition: on each qubit, consecutive gates sharing the same
//! [`PauliRole`](crate::PauliRole) form a block whose members commute
//! pairwise, and every gate of block `k` depends on *all* gates of block
//! `k-1`. Gates with [`PauliRole::Other`] (H, SWAP, measurement) form
//! singleton blocks, acting as barriers.
//!
//! This encodes the full commutation partial order without materializing the
//! (potentially quadratic) edge set: readiness reduces to "is the previous
//! block on each operand fully executed?", which [`DagSchedule`] tracks with
//! counters.

use std::collections::BTreeSet;

use crate::aggregate::AggregationFront;
use crate::circuit::Circuit;
use crate::commute::PauliRole;
use crate::gate::Gate;

/// Identifier of a gate: its position in the circuit's program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// The raw index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A maximal run of same-role gates on one qubit.
#[derive(Debug, Clone)]
struct Block {
    role: PauliRole,
    gates: Vec<GateId>,
}

/// Per-operand position of a gate: which qubit, and which block on it.
#[derive(Debug, Clone, Copy)]
struct BlockPos {
    qubit: u32,
    block: u32,
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
/// assert_eq!(sched.ready_len(), 2); // both CNOTs are immediately ready
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

    /// Number of gates covered by this DAG.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// The gates that must complete before `g` may execute: all members of
    /// the preceding block on each of `g`'s operands.
    ///
    /// Intended for tests and diagnostics; the scheduler never materializes
    /// this set.
    pub fn predecessors(&self, g: GateId) -> Vec<GateId> {
        let mut preds = BTreeSet::new();
        for pos in self.gate_pos[g.index()].iter().flatten() {
            if pos.block > 0 {
                let prev = &self.blocks[pos.qubit as usize][pos.block as usize - 1];
                preds.extend(prev.gates.iter().copied());
            }
        }
        preds.into_iter().collect()
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
#[derive(Debug, Clone)]
pub struct DagSchedule<'a> {
    dag: &'a CommutationDag,
    /// done[q][b] = completed gates within block b of qubit q.
    done: Vec<Vec<u32>>,
    completed: Vec<bool>,
    /// Ready one-qubit gates and measurements.
    ready_one: BTreeSet<GateId>,
    /// Ready two-qubit gates.
    ready_two: BTreeSet<GateId>,
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
            ready_one: BTreeSet::new(),
            ready_two: BTreeSet::new(),
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

    fn front_of(&mut self, g: GateId) -> &mut BTreeSet<GateId> {
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
        for &g in &self.ready_two {
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

    /// The currently executable gates, in ascending [`GateId`] order.
    ///
    /// Allocates a fresh `Vec` — intended for tests and diagnostics only;
    /// the compiler's per-round path iterates the partitioned front
    /// borrow-based instead.
    pub fn ready_snapshot(&self) -> Vec<GateId> {
        let mut all: Vec<GateId> = self
            .ready_one
            .iter()
            .chain(self.ready_two.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// Iterates the ready one-qubit gates and measurements, ascending.
    pub fn ready_one_qubit(&self) -> impl Iterator<Item = GateId> + '_ {
        self.ready_one.iter().copied()
    }

    /// Iterates the ready two-qubit gates, ascending.
    pub fn ready_two_qubit(&self) -> impl Iterator<Item = GateId> + '_ {
        self.ready_two.iter().copied()
    }

    /// Number of currently ready gates (both kinds).
    pub fn ready_len(&self) -> usize {
        self.ready_one.len() + self.ready_two.len()
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
            self.ready_two.contains(&g)
        } else {
            self.ready_one.contains(&g)
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
            self.front_of(g).remove(&g),
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
    use crate::qubit::Qubit;

    #[test]
    fn sequential_cnot_chain_is_serialized() {
        // cx(0,1); cx(1,2); cx(2,3): each depends on the previous.
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(1), Qubit(2)).unwrap();
        c.cnot(Qubit(2), Qubit(3)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        assert_eq!(s.ready_snapshot(), vec![GateId(0)]);
        s.complete(GateId(0));
        assert_eq!(s.ready_snapshot(), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(s.ready_snapshot(), vec![GateId(2)]);
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
        assert_eq!(s.ready_snapshot().len(), 4);
    }

    #[test]
    fn shared_target_fanin_is_fully_parallel() {
        let mut c = Circuit::new(5);
        for src in 1..5 {
            c.cnot(Qubit(src), Qubit(0)).unwrap();
        }
        let dag = CommutationDag::new(&c);
        let s = dag.schedule();
        assert_eq!(s.ready_snapshot().len(), 4);
    }

    #[test]
    fn rz_between_shared_control_cnots_does_not_block() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.rz(Qubit(0), 0.3).unwrap(); // diagonal on the shared control
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        let dag = CommutationDag::new(&c);
        let s = dag.schedule();
        assert_eq!(s.ready_snapshot().len(), 3);
    }

    #[test]
    fn hadamard_is_a_barrier_between_commuting_gates() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        let dag = CommutationDag::new(&c);
        let mut s = dag.schedule();
        assert_eq!(s.ready_snapshot(), vec![GateId(0)]);
        s.complete(GateId(0));
        assert_eq!(s.ready_snapshot(), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(s.ready_snapshot(), vec![GateId(2)]);
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
        assert_eq!(dag.predecessors(GateId(2)), vec![GateId(0), GateId(1)]);
        let mut s = dag.schedule();
        assert_eq!(s.ready_snapshot(), vec![GateId(0), GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(s.ready_snapshot(), vec![GateId(0)]); // x still blocked
        s.complete(GateId(0));
        assert_eq!(s.ready_snapshot(), vec![GateId(2)]);
    }

    #[test]
    fn predecessors_of_first_block_are_empty() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let dag = CommutationDag::new(&c);
        assert!(dag.predecessors(GateId(0)).is_empty());
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
        assert_eq!(s.ready_snapshot(), vec![GateId(1)]);
        s.complete(GateId(1));
        assert_eq!(s.ready_snapshot(), vec![GateId(2)]);
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
        let preds: Vec<Vec<GateId>> = (0..6).map(|g| dag.predecessors(GateId(g))).collect();
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
