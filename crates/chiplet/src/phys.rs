//! Physical circuits: timed operations on physical qubits.
//!
//! A [`PhysCircuit`] is the output of both compilers. Operations are
//! scheduled ASAP — each op starts at the latest availability time of its
//! operands ([`PhysCircuit::advance`] delays a qubit for protocol
//! synchronization points) — so circuit depth falls out of per-qubit
//! clocks. Costs follow the paper's metric: two-qubit gates have unit
//! duration, measurements take [`CostModel::meas_latency`], one-qubit
//! gates and classical corrections are free.

use crate::cost::CostModel;
use crate::ids::{LinkKind, PhysQubit};
use crate::sem::{SemEvent, SemEventKind, SemGate1, SemGate2, SemPauli, SemTrace};
use crate::topology::Topology;

/// The kind of a physical operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysOpKind {
    /// A two-qubit entangling gate (CNOT/CZ — same cost) over a link of the
    /// given kind.
    TwoQubit(LinkKind),
    /// Any one-qubit gate (free in the cost model).
    OneQubit,
    /// A computational-basis measurement.
    Measure,
}

/// One scheduled physical operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysOp {
    /// Operation kind.
    pub kind: PhysOpKind,
    /// First operand.
    pub a: PhysQubit,
    /// Second operand for two-qubit kinds.
    pub b: Option<PhysQubit>,
    /// Start time in depth units.
    pub start: u64,
    /// Duration in depth units.
    pub duration: u32,
}

impl PhysOp {
    /// The time at which the op finishes.
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.duration)
    }
}

/// Tallies of the error-prone operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// On-chip two-qubit gates.
    pub on_chip_cnots: u64,
    /// Cross-chip two-qubit gates.
    pub cross_chip_cnots: u64,
    /// Measurements.
    pub measurements: u64,
    /// One-qubit gates (not error-weighted, tracked for completeness).
    pub one_qubit: u64,
}

/// A growing, ASAP-scheduled physical circuit.
///
/// # Example
///
/// ```
/// use mech_chiplet::{ChipletSpec, CostModel, PhysCircuit, PhysQubit};
/// let topo = ChipletSpec::square(4, 1, 1).build();
/// let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
/// let (a, b) = (PhysQubit(0), PhysQubit(1));
/// pc.two_qubit(&topo, a, b);
/// pc.two_qubit(&topo, a, PhysQubit(4));
/// assert_eq!(pc.depth(), 2); // serialized on qubit 0
/// ```
#[derive(Debug, Clone)]
pub struct PhysCircuit {
    cost: CostModel,
    ops: Vec<PhysOp>,
    clock: Vec<u64>,
    counts: OpCounts,
    /// Semantic side channel (see [`crate::sem`]); `None` unless recording
    /// was enabled. Never affects ops, clocks, or counts.
    sem: Option<SemTrace>,
}

impl PhysCircuit {
    /// Creates an empty circuit over `num_qubits` physical qubits.
    pub fn new(num_qubits: u32, cost: CostModel) -> Self {
        PhysCircuit {
            cost,
            ops: Vec::new(),
            clock: vec![0; num_qubits as usize],
            counts: OpCounts::default(),
            sem: None,
        }
    }

    /// Turns on semantic event recording (see [`crate::sem`]). The emitting
    /// layers append a [`SemEvent`] per meaningful step; the op stream is
    /// unaffected.
    pub fn enable_sem_recording(&mut self) {
        if self.sem.is_none() {
            self.sem = Some(SemTrace::default());
        }
    }

    /// `true` when semantic events are being recorded. Emitters guard their
    /// (potentially allocating) event construction on this.
    pub fn sem_recording(&self) -> bool {
        self.sem.is_some()
    }

    /// The recorded semantic events, in emission order (empty unless
    /// [`PhysCircuit::enable_sem_recording`] was called).
    pub fn sem_events(&self) -> &[SemEvent] {
        self.sem.as_ref().map_or(&[], |t| &t.events)
    }

    /// Records a one-qubit gate's semantic identity. No-op unless recording.
    pub fn record_gate1(&mut self, q: PhysQubit, g: SemGate1) {
        let op = self.ops.len() as u32;
        if let Some(t) = &mut self.sem {
            t.events.push(SemEvent {
                op,
                kind: SemEventKind::Gate1 { q, g },
            });
        }
    }

    /// Records a two-qubit gate's semantic identity (`a` is the control for
    /// [`SemGate2::Cnot`]). No-op unless recording.
    pub fn record_gate2(&mut self, kind: SemGate2, a: PhysQubit, b: PhysQubit) {
        let op = self.ops.len() as u32;
        if let Some(t) = &mut self.sem {
            t.events.push(SemEvent {
                op,
                kind: SemEventKind::Gate2 { kind, a, b },
            });
        }
    }

    /// Records a measurement event and returns its outcome slot (the count
    /// of previously recorded measurements). Returns 0 when not recording.
    pub fn record_measure(&mut self, q: PhysQubit, logical: Option<u32>) -> u32 {
        let op = self.ops.len() as u32;
        match &mut self.sem {
            Some(t) => {
                let slot = t.num_measures;
                t.num_measures += 1;
                t.events.push(SemEvent {
                    op,
                    kind: SemEventKind::Measure { q, logical },
                });
                slot
            }
            None => 0,
        }
    }

    /// Records a classically-controlled Pauli correction on `q`, applied
    /// iff the XOR of the outcomes in `slots` is 1. No-op unless recording.
    pub fn record_cond_pauli(&mut self, q: PhysQubit, pauli: SemPauli, slots: Vec<u32>) {
        let op = self.ops.len() as u32;
        if let Some(t) = &mut self.sem {
            t.events.push(SemEvent {
                op,
                kind: SemEventKind::CondPauli { q, pauli, slots },
            });
        }
    }

    /// The number of physical qubits the circuit schedules over.
    pub fn num_qubits(&self) -> u32 {
        self.clock.len() as u32
    }

    /// The scheduled operations, in emission order.
    pub fn ops(&self) -> &[PhysOp] {
        &self.ops
    }

    /// The availability time of qubit `q`.
    pub fn time(&self, q: PhysQubit) -> u64 {
        self.clock[q.index()]
    }

    /// Moves qubit `q`'s clock forward to at least `t` (protocol
    /// synchronization, e.g. waiting for a classically fed-forward
    /// correction).
    pub fn advance(&mut self, q: PhysQubit, t: u64) {
        let c = &mut self.clock[q.index()];
        *c = (*c).max(t);
    }

    /// Schedules a two-qubit gate between coupled qubits ASAP. Returns the
    /// start time.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not coupled in `topo` — emitting such a
    /// gate is always a compiler bug.
    pub fn two_qubit(&mut self, topo: &Topology, a: PhysQubit, b: PhysQubit) -> u64 {
        let kind = topo
            .coupling(a, b)
            .unwrap_or_else(|| panic!("two-qubit gate on uncoupled pair {a}, {b}"));
        self.emit_resolved(kind, a, b)
    }

    /// The one emission routine behind every two-qubit schedule:
    /// [`PhysCircuit::two_qubit`] resolves the coupling and delegates here,
    /// and the multi-CNOT gadgets (swap, bridge) resolve each coupling
    /// once instead of per CNOT.
    fn emit_resolved(&mut self, kind: LinkKind, a: PhysQubit, b: PhysQubit) -> u64 {
        let start = self.time(a).max(self.time(b));
        let end = start + 1;
        self.clock[a.index()] = end;
        self.clock[b.index()] = end;
        match kind {
            LinkKind::OnChip => self.counts.on_chip_cnots += 1,
            LinkKind::CrossChip => self.counts.cross_chip_cnots += 1,
        }
        self.ops.push(PhysOp {
            kind: PhysOpKind::TwoQubit(kind),
            a,
            b: Some(b),
            start,
            duration: 1,
        });
        start
    }

    /// Schedules a SWAP as three CNOTs over the same link —
    /// CNOT(a, b)·CNOT(b, a)·CNOT(a, b). Returns the start time of the
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the qubits are not coupled.
    pub fn swap(&mut self, topo: &Topology, a: PhysQubit, b: PhysQubit) -> u64 {
        let kind = topo
            .coupling(a, b)
            .unwrap_or_else(|| panic!("SWAP on uncoupled pair {a}, {b}"));
        // Swaps are always literal swaps regardless of caller, so the
        // semantic event is recorded here rather than at every call site.
        self.record_gate2(SemGate2::Swap, a, b);
        let s = self.emit_resolved(kind, a, b);
        self.emit_resolved(kind, b, a);
        self.emit_resolved(kind, a, b);
        s
    }

    /// Schedules a bridge gate — an effective CNOT between `a` and `c`
    /// through the middle qubit `b`, leaving `b`'s state untouched — as 4
    /// CNOTs (paper Fig. 2b). Returns the start time.
    ///
    /// # Panics
    ///
    /// Panics if `(a, b)` or `(b, c)` are not coupled.
    pub fn bridge(&mut self, topo: &Topology, a: PhysQubit, b: PhysQubit, c: PhysQubit) -> u64 {
        let ab = topo
            .coupling(a, b)
            .unwrap_or_else(|| panic!("bridge on uncoupled pair {a}, {b}"));
        let bc = topo
            .coupling(b, c)
            .unwrap_or_else(|| panic!("bridge on uncoupled pair {b}, {c}"));
        let s = self.emit_resolved(bc, b, c);
        self.emit_resolved(ab, a, b);
        self.emit_resolved(bc, b, c);
        self.emit_resolved(ab, a, b);
        s
    }

    /// Records a (free) one-qubit gate on `q`.
    pub fn one_qubit(&mut self, q: PhysQubit) {
        self.counts.one_qubit += 1;
        self.ops.push(PhysOp {
            kind: PhysOpKind::OneQubit,
            a: q,
            b: None,
            start: self.time(q),
            duration: 0,
        });
    }

    /// Schedules a measurement of `q` ASAP. Returns the time at which the
    /// (classical) outcome is available.
    pub fn measure(&mut self, q: PhysQubit) -> u64 {
        let start = self.time(q);
        let end = start + u64::from(self.cost.meas_latency);
        self.clock[q.index()] = end;
        self.counts.measurements += 1;
        self.ops.push(PhysOp {
            kind: PhysOpKind::Measure,
            a: q,
            b: None,
            start,
            duration: self.cost.meas_latency,
        });
        end
    }

    /// Circuit depth: the latest clock across all qubits.
    pub fn depth(&self) -> u64 {
        self.clock.iter().copied().max().unwrap_or(0)
    }

    /// Operation tallies.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Effective CNOT count under this circuit's cost model (paper §7.1).
    pub fn eff_cnots(&self) -> f64 {
        self.cost.eff_cnots(
            self.counts.on_chip_cnots,
            self.counts.cross_chip_cnots,
            self.counts.measurements,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChipletSpec;

    fn topo2() -> Topology {
        ChipletSpec::square(4, 1, 2).build()
    }

    #[test]
    fn asap_scheduling_tracks_operand_clocks() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        assert_eq!(pc.two_qubit(&t, PhysQubit(0), PhysQubit(1)), 0);
        assert_eq!(pc.two_qubit(&t, PhysQubit(2), PhysQubit(3)), 0);
        assert_eq!(pc.two_qubit(&t, PhysQubit(1), PhysQubit(2)), 1);
        assert_eq!(pc.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "uncoupled")]
    fn uncoupled_two_qubit_panics() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.two_qubit(&t, PhysQubit(0), PhysQubit(5));
    }

    #[test]
    fn swap_is_three_cnots() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.swap(&t, PhysQubit(0), PhysQubit(1));
        assert_eq!(pc.counts().on_chip_cnots, 3);
        assert_eq!(pc.depth(), 3);
        let (q0, q1) = (PhysQubit(0), PhysQubit(1));
        let operands: Vec<_> = pc.ops().iter().map(|op| (op.a, op.b)).collect();
        assert_eq!(
            operands,
            [(q0, Some(q1)), (q1, Some(q0)), (q0, Some(q1))],
            "CNOT(a, b)·CNOT(b, a)·CNOT(a, b)"
        );
    }

    #[test]
    fn bridge_is_four_cnots_leaving_middle_busy() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.bridge(&t, PhysQubit(0), PhysQubit(1), PhysQubit(2));
        assert_eq!(pc.counts().on_chip_cnots, 4);
        assert_eq!(pc.time(PhysQubit(1)), 4);
    }

    #[test]
    fn measurement_latency_follows_cost_model() {
        let t = topo2();
        let cost = CostModel {
            meas_latency: 5,
            ..CostModel::default()
        };
        let mut pc = PhysCircuit::new(t.num_qubits(), cost);
        let done = pc.measure(PhysQubit(0));
        assert_eq!(done, 5);
        assert_eq!(pc.depth(), 5);
    }

    #[test]
    fn cross_chip_gates_counted_separately() {
        let t = topo2();
        let a = t.qubit_at(0, 3).unwrap();
        let b = t.qubit_at(0, 4).unwrap();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.two_qubit(&t, a, b);
        assert_eq!(pc.counts().cross_chip_cnots, 1);
        assert_eq!(pc.counts().on_chip_cnots, 0);
        assert!((pc.eff_cnots() - 7.4).abs() < 1e-9);
    }

    #[test]
    fn advance_and_after_create_idle_gaps() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.advance(PhysQubit(0), 10);
        pc.advance(PhysQubit(1), 12);
        let s = pc.two_qubit(&t, PhysQubit(0), PhysQubit(1));
        assert_eq!(s, 12);
        assert_eq!(pc.time(PhysQubit(0)), 13);
    }

    #[test]
    fn one_qubit_gates_are_free() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.one_qubit(PhysQubit(0));
        assert_eq!(pc.depth(), 0);
        assert_eq!(pc.counts().one_qubit, 1);
    }

    #[test]
    fn op_end_accounts_duration() {
        let t = topo2();
        let mut pc = PhysCircuit::new(t.num_qubits(), CostModel::default());
        pc.measure(PhysQubit(3));
        let op = pc.ops()[0];
        assert_eq!(op.end(), 2);
    }
}
