//! Semantic schedule verification: replays a compiled schedule's recorded
//! [`SemEvent`] stream on the device-scale [`Tableau`] and checks that the
//! final stabilizer state equals the ideal circuit's, modulo the final
//! qubit mapping.
//!
//! # What "equal" means
//!
//! Let `n` be the logical width, `N ≥ n` the device width, and `L` the
//! number of program measurements (each purified onto a fresh ancilla —
//! see below). The ideal circuit runs on an `(n + L)`-qubit tableau; each
//! of its `n + L` stabilizer generators is lifted to `N + L` qubits
//! through the compiler's final logical→physical map (purification
//! ancillas map to themselves, and the lift acts as the identity on the
//! `N − n` non-image device qubits) and must stabilize the compiled state
//! with the same sign. Every non-image device qubit must additionally be
//! stabilized by `+Z_q` (protocol ancillas returned to `|0⟩`). Those
//! `(n + L) + (N − n) = N + L` operators are independent, and a
//! stabilizer group on `N + L` qubits has exactly `N + L` independent
//! generators — so passing all checks implies the two purified states are
//! *identical*, not merely similar.
//!
//! # How it is checked
//!
//! The verifier decides that equality without the `N + L` membership
//! queries. After replaying the trace it runs the purified ideal circuit
//! in reverse on the same tableau, each gate mapped through the final map
//! and inverted (S and Sdg exchanged; every other gate is its own
//! inverse). The schedule passes iff the tableau is then `|0…0⟩`: every
//! stabilizer row X-free with a `+` sign. That is the same decision.
//! Ideal generator `i` is `U Z_i U†`, so its lift stabilizes the compiled
//! state iff `Z_map(i)` stabilizes the uncomputed one, and the ideal
//! circuit never touches a non-image qubit, so its `+Z_q` check carries
//! over unchanged. The check reads `O((N + L)²/64)` words, where one
//! membership query alone costs that much.
//!
//! Only a failing pass pays for the queries: it re-applies the ideal
//! circuit to restore the compiled state, builds the ideal tableau, and
//! scans generators then non-image qubits in order, so the
//! [`VerifyError`] names the first diverging generator (or ancilla) and
//! its lifted Pauli.
//!
//! # Measurement handling
//!
//! Protocol-internal measurements (GHZ cascade reading, shuttle
//! open/close) draw their random outcomes from an [`OutcomePolicy`];
//! [`SchedVerifier::verify_sweep`] runs zeros, ones and a seeded mix,
//! which drives every classically-controlled correction down both
//! branches.
//!
//! *Program* measurements are **purified** instead of sampled: on both
//! sides, the `j`-th measurement of the program (in program order) is
//! replaced by a CNOT onto a dedicated fresh ancilla `a_j`, deferring the
//! collapse (the input circuit has no classical control, so this is the
//! textbook deferred-measurement equivalence). Purification is what makes
//! the check robust to schedule reordering: the compiler may legally
//! commute a measurement past gates on disjoint qubits, and while the
//! *determinedness* of an individual outcome depends on the linearization
//! (measure either half of a Bell pair first — that one is random, the
//! other determined), the purified states of any two valid linearizations
//! are literally identical. Comparing purified states therefore checks the
//! full joint outcome distribution *and* the post-measurement state at
//! once: a schedule that turns a uniform outcome deterministic (or vice
//! versa) diverges in some lifted generator.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mech_chiplet::{PhysQubit, SemEvent, SemEventKind, SemGate1, SemGate2, SemPauli};
use mech_circuit::{Circuit, Gate, OneQubitGate, TwoQubitKind};

use crate::tableau::{Membership, PauliString, Tableau};

/// How to resolve measurement outcomes that are uniformly random.
///
/// A verification pass is a pure function of the schedule and the policy,
/// so a failure under one policy reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomePolicy {
    /// Every random outcome reads 0 — exercises the "no correction" branch
    /// of measurement-based protocols.
    Zeros,
    /// Every random outcome reads 1 — exercises every classically-
    /// controlled correction.
    Ones,
    /// Outcomes drawn from a seeded RNG — a reproducible mix of branches.
    Seeded(u64),
}

impl OutcomePolicy {
    /// The three policies the verification suites sweep. `Zeros` and
    /// `Ones` cover both branches of every correction; the seeded policy
    /// adds an arbitrary interleaving.
    pub const SWEEP: [OutcomePolicy; 3] = [
        OutcomePolicy::Zeros,
        OutcomePolicy::Ones,
        OutcomePolicy::Seeded(0x6d65_6368),
    ];
}

/// A stream of desired outcomes realized from an [`OutcomePolicy`].
struct OutcomeSource {
    policy: OutcomePolicy,
    rng: Option<StdRng>,
}

impl OutcomeSource {
    fn new(policy: OutcomePolicy) -> Self {
        let rng = match policy {
            OutcomePolicy::Seeded(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        OutcomeSource { policy, rng }
    }

    fn next_outcome(&mut self) -> bool {
        match (&self.policy, &mut self.rng) {
            (OutcomePolicy::Zeros, _) => false,
            (OutcomePolicy::Ones, _) => true,
            (OutcomePolicy::Seeded(_), Some(rng)) => rng.gen_bool(0.5),
            (OutcomePolicy::Seeded(_), None) => unreachable!("seeded source has an rng"),
        }
    }
}

fn apply_one(tab: &mut Tableau, gate: OneQubitGate, q: u32) {
    match gate {
        OneQubitGate::H => tab.h(q),
        OneQubitGate::X => tab.x(q),
        OneQubitGate::Y => tab.y(q),
        OneQubitGate::Z => tab.z(q),
        OneQubitGate::S => tab.s(q),
        OneQubitGate::Sdg => tab.sdg(q),
        OneQubitGate::T
        | OneQubitGate::Tdg
        | OneQubitGate::Rx(_)
        | OneQubitGate::Ry(_)
        | OneQubitGate::Rz(_) => unreachable!("screened by is_clifford"),
    }
}

fn apply_two(tab: &mut Tableau, kind: TwoQubitKind, a: u32, b: u32) {
    match kind {
        TwoQubitKind::Cnot => tab.cnot(a, b),
        TwoQubitKind::Cz => tab.cz(a, b),
        TwoQubitKind::Swap => tab.swap(a, b),
        TwoQubitKind::Cphase | TwoQubitKind::Rzz => unreachable!("screened by is_clifford"),
    }
}

/// A structured miscompile report (or a reason the schedule cannot be
/// verified at all).
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The ideal circuit contains a non-Clifford gate; stabilizer
    /// verification does not apply.
    NonCliffordInput {
        /// Index of the offending gate in the ideal circuit.
        gate_index: usize,
    },
    /// The recorded trace contains a non-Clifford event.
    NonCliffordTrace {
        /// Op index of the offending event.
        op: u32,
    },
    /// The schedule carries no semantic trace (recording was off).
    MissingTrace,
    /// The compiled schedule measures a program qubit more times than the
    /// ideal circuit does.
    ExtraMeasurement {
        /// The over-measured program qubit.
        logical: u32,
        /// Op index of the surplus measurement.
        op: u32,
    },
    /// The compiled schedule never realized some of the ideal circuit's
    /// measurements.
    MissingMeasurement {
        /// The under-measured program qubit.
        logical: u32,
        /// How many of its measurements were never realized.
        missing: usize,
    },
    /// A classically-controlled correction referenced an outcome slot that
    /// no measurement produced — or one claimed by a purified program
    /// measurement, whose outcome the verifier deliberately never samples
    /// (the compiler only ever conditions on protocol-internal outcomes).
    BadSlot {
        /// Op index of the correction.
        op: u32,
        /// The dangling slot.
        slot: u32,
    },
    /// An ideal stabilizer generator, lifted through the final mapping,
    /// does not stabilize the compiled state.
    StabilizerMismatch {
        /// Index of the diverging generator (row of the ideal tableau).
        generator: u32,
        /// The lifted generator that failed.
        pauli: PauliString,
        /// How it failed: wrong sign, or not in the group at all.
        membership: Membership,
    },
    /// A physical qubit outside the image of the final mapping is not in
    /// `|0⟩` — protocol ancillas were not cleanly returned.
    AncillaEntangled {
        /// The entangled physical qubit.
        q: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NonCliffordInput { gate_index } => {
                write!(f, "ideal circuit gate {gate_index} is not clifford")
            }
            VerifyError::NonCliffordTrace { op } => {
                write!(f, "trace event at op {op} is not clifford")
            }
            VerifyError::MissingTrace => {
                write!(f, "schedule carries no semantic trace (recording was off)")
            }
            VerifyError::ExtraMeasurement { logical, op } => {
                write!(f, "surplus measurement of logical q{logical} at op {op}")
            }
            VerifyError::MissingMeasurement { logical, missing } => {
                write!(
                    f,
                    "{missing} measurement(s) of logical q{logical} never realized"
                )
            }
            VerifyError::BadSlot { op, slot } => {
                write!(
                    f,
                    "correction at op {op} references unknown outcome slot {slot}"
                )
            }
            VerifyError::StabilizerMismatch {
                generator,
                pauli,
                membership,
            } => write!(
                f,
                "stabilizer generator {generator} diverged: lifted {pauli} is {} \
                 of the compiled state",
                match membership {
                    Membership::InWithWrongSign => "a stabilizer with the wrong sign",
                    Membership::NotIn => "not a stabilizer",
                    Membership::In => "a stabilizer", // unreachable in errors
                }
            ),
            VerifyError::AncillaEntangled { q } => {
                write!(
                    f,
                    "physical qubit {q} is not returned to |0> (ancilla entangled)"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statistics from one successful verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// The policy that resolved random outcomes.
    pub policy: OutcomePolicy,
    /// Events executed from the trace.
    pub events: usize,
    /// Protocol-internal measurements replayed.
    pub protocol_measurements: u32,
    /// Logical (program) measurements purified onto fresh ancillas.
    pub logical_measurements: u32,
    /// Purified ideal stabilizer generators (program qubits plus
    /// measurement ancillas) checked against the compiled state.
    pub generators_checked: u32,
    /// Non-image physical qubits checked to be `|0⟩`.
    pub ancillas_checked: u32,
}

/// Verifies a compiled schedule's semantic trace against its ideal
/// circuit. Borrow-only: construct once, [`SchedVerifier::verify`] per
/// policy or [`SchedVerifier::verify_sweep`] for the standard sweep.
#[derive(Debug, Clone, Copy)]
pub struct SchedVerifier<'a> {
    ideal: &'a Circuit,
    num_phys: u32,
    events: &'a [SemEvent],
    final_positions: &'a [PhysQubit],
}

impl<'a> SchedVerifier<'a> {
    /// Builds a verifier.
    ///
    /// `events` is the schedule's recorded trace
    /// (`PhysCircuit::sem_events`), `num_phys` the device width, and
    /// `final_positions[q]` the physical home of program qubit `q` when
    /// the schedule ends (`CompileResult::final_positions`).
    ///
    /// # Panics
    ///
    /// Panics if `final_positions` is not exactly one entry per ideal
    /// qubit, names a qubit off the device or twice, or if the device is
    /// narrower than the program.
    pub fn new(
        ideal: &'a Circuit,
        num_phys: u32,
        events: &'a [SemEvent],
        final_positions: &'a [PhysQubit],
    ) -> Self {
        assert_eq!(
            final_positions.len(),
            ideal.num_qubits() as usize,
            "final mapping must cover every program qubit"
        );
        assert!(
            num_phys >= ideal.num_qubits(),
            "device narrower than the program"
        );
        let mut image = vec![false; num_phys as usize];
        for p in final_positions {
            let seen = image
                .get_mut(p.index())
                .expect("final position off the device");
            assert!(
                !std::mem::replace(seen, true),
                "final mapping repeats {p:?}"
            );
        }
        SchedVerifier {
            ideal,
            num_phys,
            events,
            final_positions,
        }
    }

    /// Runs one verification pass under `policy`.
    pub fn verify(&self, policy: OutcomePolicy) -> Result<VerifyReport, VerifyError> {
        let plan = self.plan()?;
        self.run(&plan, &mut Tableau::new(plan.width), policy)
    }

    /// Runs three outcome policies — zeros, ones, and a seeded mix — so
    /// every classically-controlled correction is exercised on both
    /// branches. Returns the per-policy reports, or the first failure.
    ///
    /// The policy-independent work (the Clifford screen, the ancilla
    /// assignment, the final map) is done once, and the three passes share
    /// one tableau.
    pub fn verify_sweep(&self) -> Result<Vec<VerifyReport>, VerifyError> {
        let plan = self.plan()?;
        let mut tab = Tableau::new(plan.width);
        OutcomePolicy::SWEEP
            .iter()
            .map(|&p| self.run(&plan, &mut tab, p))
            .collect()
    }

    /// The policy-independent part of a pass: screens the inputs and
    /// assigns the purification ancillas.
    fn plan(&self) -> Result<Plan, VerifyError> {
        if let Some(gate_index) = self.ideal.gates().iter().position(|g| !g.is_clifford()) {
            return Err(VerifyError::NonCliffordInput { gate_index });
        }
        if self.events.is_empty() && !self.ideal.is_empty() {
            return Err(VerifyError::MissingTrace);
        }
        let n = self.ideal.num_qubits();

        // Assign one purification ancilla per program measurement, in
        // program order: `anc[q][s]` is the ancilla of qubit q's s-th
        // measurement. Both runs copy onto the same ancilla for the same
        // (qubit, occurrence) pair, so reordered-but-commuting schedules
        // produce literally the same purified state.
        let mut anc: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        let mut total = 0u32;
        for gate in self.ideal.gates() {
            if let Gate::Measure { q } = gate {
                anc[q.0 as usize].push(total);
                total += 1;
            }
        }

        // The final map on the widened device: program qubit q to its
        // final home, ancilla j to device qubit N + j.
        let mut map: Vec<u32> = self.final_positions.iter().map(|p| p.0).collect();
        map.extend((0..total).map(|j| self.num_phys + j));
        Ok(Plan {
            anc,
            total,
            map,
            width: (self.num_phys + total).max(1),
        })
    }

    /// One pass under `policy` on `tab` (reset first): replays the
    /// compiled trace, then uncomputes the purified ideal circuit through
    /// the final map and checks that `|0…0⟩` is left.
    fn run(
        &self,
        plan: &Plan,
        tab: &mut Tableau,
        policy: OutcomePolicy,
    ) -> Result<VerifyReport, VerifyError> {
        let n = self.ideal.num_qubits();
        let anc = &plan.anc;

        // Replay the compiled event stream on the widened device tableau:
        // device qubits 0..N, purification ancillas N..N+total.
        tab.reset();
        let mut source = OutcomeSource::new(policy);
        let mut slots: Vec<Option<bool>> = Vec::new();
        let mut seq = vec![0usize; n as usize];
        let mut protocol_measurements = 0u32;
        let mut logical_measurements = 0u32;
        for ev in self.events {
            match &ev.kind {
                SemEventKind::Gate1 { q, g } => match g {
                    SemGate1::H => tab.h(q.0),
                    SemGate1::X => tab.x(q.0),
                    SemGate1::Y => tab.y(q.0),
                    SemGate1::Z => tab.z(q.0),
                    SemGate1::S => tab.s(q.0),
                    SemGate1::Sdg => tab.sdg(q.0),
                    SemGate1::Id => {}
                    SemGate1::NonClifford => {
                        return Err(VerifyError::NonCliffordTrace { op: ev.op })
                    }
                },
                SemEventKind::Gate2 { kind, a, b } => match kind {
                    SemGate2::Cnot => tab.cnot(a.0, b.0),
                    SemGate2::Cz => tab.cz(a.0, b.0),
                    SemGate2::Swap => tab.swap(a.0, b.0),
                    SemGate2::NonClifford => {
                        return Err(VerifyError::NonCliffordTrace { op: ev.op })
                    }
                },
                SemEventKind::Measure { q, logical } => match logical {
                    None => {
                        let desired = source.next_outcome();
                        let o = tab.measure(q.0, desired);
                        slots.push(Some(o.value));
                        protocol_measurements += 1;
                    }
                    Some(l) => {
                        let s = seq[*l as usize];
                        let &a = anc[*l as usize]
                            .get(s)
                            .ok_or(VerifyError::ExtraMeasurement {
                                logical: *l,
                                op: ev.op,
                            })?;
                        seq[*l as usize] += 1;
                        tab.cnot(q.0, self.num_phys + a);
                        slots.push(None);
                        logical_measurements += 1;
                    }
                },
                SemEventKind::CondPauli {
                    q,
                    pauli,
                    slots: deps,
                } => {
                    let mut parity = false;
                    for &slot in deps {
                        parity ^= slots
                            .get(slot as usize)
                            .copied()
                            .flatten()
                            .ok_or(VerifyError::BadSlot { op: ev.op, slot })?;
                    }
                    if parity {
                        match pauli {
                            SemPauli::X => tab.x(q.0),
                            SemPauli::Y => tab.y(q.0),
                            SemPauli::Z => tab.z(q.0),
                        }
                    }
                }
            }
        }

        // Every ideal measurement must have been realized.
        for (l, ancillas) in anc.iter().enumerate() {
            if seq[l] < ancillas.len() {
                return Err(VerifyError::MissingMeasurement {
                    logical: l as u32,
                    missing: ancillas.len() - seq[l],
                });
            }
        }

        // The compiled state equals the lifted purified ideal state V|0⟩
        // iff V†·(compiled state) = |0…0⟩ (see the module docs). On a
        // mismatch, redo V to restore the compiled state for diagnosis.
        self.run_ideal(tab, &plan.map, plan.total, true);
        if tab.is_zero_state() {
            return Ok(VerifyReport {
                policy,
                events: self.events.len(),
                protocol_measurements,
                logical_measurements,
                generators_checked: n + plan.total,
                ancillas_checked: self.num_phys - n,
            });
        }
        self.run_ideal(tab, &plan.map, plan.total, false);
        Err(self.diagnose(plan, tab))
    }

    /// Runs the purified ideal circuit on `tab` through `map` (program
    /// qubits first, then the `total` measurement ancillas): forward, or
    /// inverted — gates in reverse order with S and Sdg exchanged, every
    /// other gate (CNOT, CZ, SWAP, H and the Paulis) being its own inverse.
    fn run_ideal(&self, tab: &mut Tableau, map: &[u32], total: u32, inverse: bool) {
        let n = self.ideal.num_qubits() as usize;
        let gates = self.ideal.gates();
        let mut measured = if inverse { total } else { 0 };
        for i in 0..gates.len() {
            let gate = gates[if inverse { gates.len() - 1 - i } else { i }];
            match gate {
                Gate::One { gate, q } => {
                    let gate = match gate {
                        OneQubitGate::S if inverse => OneQubitGate::Sdg,
                        OneQubitGate::Sdg if inverse => OneQubitGate::S,
                        g => g,
                    };
                    apply_one(tab, gate, map[q.index()]);
                }
                Gate::Two { kind, a, b, .. } => {
                    apply_two(tab, kind, map[a.index()], map[b.index()]);
                }
                Gate::Measure { q } => {
                    // Measurement j (program order) copies onto ancilla j.
                    if inverse {
                        measured -= 1;
                    }
                    tab.cnot(map[q.index()], map[n + measured as usize]);
                    if !inverse {
                        measured += 1;
                    }
                }
            }
        }
    }

    /// Names the first operator the compiled state in `tab` fails: lifts
    /// each purified ideal stabilizer generator through the final map and
    /// tests its membership, then tests `+Z_q` on every non-image device
    /// qubit.
    fn diagnose(&self, plan: &Plan, tab: &mut Tableau) -> VerifyError {
        let n = self.ideal.num_qubits();
        let total = plan.total;
        let mut ideal_tab = Tableau::new((n + total).max(1));
        let identity: Vec<u32> = (0..n + total).collect();
        self.run_ideal(&mut ideal_tab, &identity, total, false);

        let wide = self.num_phys + total;
        for i in 0..n + total {
            let lifted = ideal_tab.stabilizer(i).lift(wide, &plan.map);
            let membership = tab.membership(&lifted);
            if membership != Membership::In {
                return VerifyError::StabilizerMismatch {
                    generator: i,
                    pauli: lifted,
                    membership,
                };
            }
        }

        // Every non-image device qubit (highway, ancilla, spare) must sit
        // in |0⟩.
        for q in 0..self.num_phys {
            if self.final_positions.contains(&PhysQubit(q)) {
                continue;
            }
            let mut zq = PauliString::identity(wide);
            zq.set_z(q);
            if tab.membership(&zq) != Membership::In {
                return VerifyError::AncillaEntangled { q };
            }
        }
        unreachable!("the uncompute check and the membership scan disagree")
    }
}

/// The policy-independent inputs of a verification pass.
struct Plan {
    /// `anc[q][s]`: the purification ancilla of qubit q's s-th measurement.
    anc: Vec<Vec<u32>>,
    /// Number of program measurements, one ancilla each.
    total: u32,
    /// The final map: program qubit q to its physical home, ancilla j to
    /// device-tableau qubit `N + j`.
    map: Vec<u32>,
    /// Device-tableau width: device qubits plus ancillas.
    width: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_circuit::Qubit;

    fn ev(op: u32, kind: SemEventKind) -> SemEvent {
        SemEvent { op, kind }
    }

    fn g1(op: u32, q: u32, g: SemGate1) -> SemEvent {
        ev(op, SemEventKind::Gate1 { q: PhysQubit(q), g })
    }

    fn g2(op: u32, kind: SemGate2, a: u32, b: u32) -> SemEvent {
        ev(
            op,
            SemEventKind::Gate2 {
                kind,
                a: PhysQubit(a),
                b: PhysQubit(b),
            },
        )
    }

    fn meas(op: u32, q: u32, logical: Option<u32>) -> SemEvent {
        ev(
            op,
            SemEventKind::Measure {
                q: PhysQubit(q),
                logical,
            },
        )
    }

    fn cond(op: u32, q: u32, pauli: SemPauli, slots: Vec<u32>) -> SemEvent {
        ev(
            op,
            SemEventKind::CondPauli {
                q: PhysQubit(q),
                pauli,
                slots,
            },
        )
    }

    /// The identity transcription of a circuit: each program qubit lives
    /// on the like-numbered physical qubit, no protocol structure.
    fn transcribe(c: &Circuit) -> Vec<SemEvent> {
        use mech_circuit::{Gate, OneQubitGate, TwoQubitKind};
        c.gates()
            .iter()
            .enumerate()
            .map(|(i, gate)| {
                let op = i as u32;
                match *gate {
                    Gate::One { gate, q } => g1(
                        op,
                        q.0,
                        match gate {
                            OneQubitGate::H => SemGate1::H,
                            OneQubitGate::X => SemGate1::X,
                            OneQubitGate::Y => SemGate1::Y,
                            OneQubitGate::Z => SemGate1::Z,
                            OneQubitGate::S => SemGate1::S,
                            OneQubitGate::Sdg => SemGate1::Sdg,
                            _ => SemGate1::NonClifford,
                        },
                    ),
                    Gate::Two { kind, a, b, .. } => g2(
                        op,
                        match kind {
                            TwoQubitKind::Cnot => SemGate2::Cnot,
                            TwoQubitKind::Cz => SemGate2::Cz,
                            TwoQubitKind::Swap => SemGate2::Swap,
                            _ => SemGate2::NonClifford,
                        },
                        a.0,
                        b.0,
                    ),
                    Gate::Measure { q } => meas(op, q.0, Some(q.0)),
                }
            })
            .collect()
    }

    fn positions(n: u32) -> Vec<PhysQubit> {
        (0..n).map(PhysQubit).collect()
    }

    #[test]
    fn identity_transcription_verifies_on_a_wider_device() {
        let c = mech_circuit::benchmarks::random_clifford(6, 80, 17);
        let events = transcribe(&c);
        let pos = positions(6);
        let v = SchedVerifier::new(&c, 20, &events, &pos);
        let reports = v.verify_sweep().expect("faithful transcription verifies");
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[0].generators_checked, 12,
            "6 qubits + 6 purified measures"
        );
        assert_eq!(reports[0].ancillas_checked, 14);
        assert_eq!(reports[0].logical_measurements, 6);
    }

    #[test]
    fn measurement_based_gadget_verifies_on_both_branches() {
        // CNOT(c, t) via a Z-copy ancilla b: CNOT(c,b); CNOT(b,t);
        // X-measure b; Z^m on c; X^m resets b. This is the shuttle
        // protocol in miniature — the Ones policy forces every correction.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.measure_all();
        let events = vec![
            g1(0, 0, SemGate1::H),
            g2(1, SemGate2::Cnot, 0, 2),
            g2(2, SemGate2::Cnot, 2, 1),
            g1(3, 2, SemGate1::H),
            meas(4, 2, None), // slot 0
            cond(5, 2, SemPauli::X, vec![0]),
            cond(6, 0, SemPauli::Z, vec![0]),
            meas(7, 0, Some(0)), // slot 1
            meas(8, 1, Some(1)), // slot 2
        ];
        let pos = positions(2);
        let v = SchedVerifier::new(&c, 3, &events, &pos);
        let reports = v.verify_sweep().expect("gadget equals cnot");
        assert_eq!(reports[1].policy, OutcomePolicy::Ones);
        assert_eq!(reports[1].protocol_measurements, 1);
    }

    #[test]
    fn dropped_correction_fails_only_on_the_firing_branch() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let events = vec![
            g1(0, 0, SemGate1::H),
            g2(1, SemGate2::Cnot, 0, 2),
            g2(2, SemGate2::Cnot, 2, 1),
            g1(3, 2, SemGate1::H),
            meas(4, 2, None),
            cond(5, 2, SemPauli::X, vec![0]),
            // Missing: cond Z on qubit 0 — a real miscompile.
        ];
        let pos = positions(2);
        let v = SchedVerifier::new(&c, 3, &events, &pos);
        assert!(
            v.verify(OutcomePolicy::Zeros).is_ok(),
            "zeros branch hides it"
        );
        let err = v.verify(OutcomePolicy::Ones).unwrap_err();
        assert!(
            matches!(err, VerifyError::StabilizerMismatch { .. }),
            "ones branch exposes it: {err}"
        );
        assert!(err.to_string().contains("diverged"));
        // A seeded policy lands on either branch, and the same seed always
        // lands on the same one, so a seeded failure reproduces.
        let seeded: Vec<bool> = (0..16)
            .map(|seed| v.verify(OutcomePolicy::Seeded(seed)).is_ok())
            .collect();
        assert!(seeded.contains(&true) && seeded.contains(&false));
        for (seed, &ok) in (0..16).zip(&seeded) {
            assert_eq!(v.verify(OutcomePolicy::Seeded(seed)).is_ok(), ok);
        }
    }

    #[test]
    fn entangled_ancilla_is_reported() {
        let mut c = Circuit::new(1);
        c.x(Qubit(0)).unwrap();
        let events = vec![g1(0, 0, SemGate1::X), g1(1, 1, SemGate1::H)];
        let pos = positions(1);
        let v = SchedVerifier::new(&c, 2, &events, &pos);
        let err = v.verify(OutcomePolicy::Zeros).unwrap_err();
        assert_eq!(err, VerifyError::AncillaEntangled { q: 1 });
    }

    #[test]
    fn outcome_distribution_divergence_is_caught() {
        // Ideal H then measure: a uniform outcome. Compiled forgets the H:
        // deterministic 0. The purified ideal state is a Bell pair with
        // the measurement ancilla; the compiled one is |00⟩ — the lifted
        // generator X⊗X fails membership.
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).unwrap();
        c.measure(Qubit(0)).unwrap();
        let events = vec![meas(0, 0, Some(0))];
        let pos = positions(1);
        let v = SchedVerifier::new(&c, 1, &events, &pos);
        let err = v.verify(OutcomePolicy::Ones).unwrap_err();
        assert!(
            matches!(err, VerifyError::StabilizerMismatch { .. }),
            "purification exposes the dropped hadamard: {err}"
        );
    }

    #[test]
    fn commuted_measurement_order_still_verifies() {
        // The compiler may measure either half of a Bell pair first; both
        // linearizations must verify even though the random/determined
        // split differs between them.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.measure_all();
        let swapped = vec![
            g1(0, 0, SemGate1::H),
            g2(1, SemGate2::Cnot, 0, 1),
            meas(2, 1, Some(1)), // program measures qubit 0 first
            meas(3, 0, Some(0)),
        ];
        let pos = positions(2);
        let v = SchedVerifier::new(&c, 2, &swapped, &pos);
        v.verify_sweep()
            .expect("commuting reorder is not a miscompile");
    }

    #[test]
    fn non_clifford_input_is_rejected_up_front() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.rz(Qubit(0), 0.2).unwrap();
        let events = vec![g1(0, 0, SemGate1::H)];
        let pos = positions(2);
        let v = SchedVerifier::new(&c, 2, &events, &pos);
        assert_eq!(
            v.verify(OutcomePolicy::Zeros).unwrap_err(),
            VerifyError::NonCliffordInput { gate_index: 1 }
        );
    }

    #[test]
    fn missing_trace_is_distinguished_from_empty_programs() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).unwrap();
        let pos = positions(1);
        let v = SchedVerifier::new(&c, 1, &[], &pos);
        assert_eq!(
            v.verify(OutcomePolicy::Zeros).unwrap_err(),
            VerifyError::MissingTrace
        );
        let empty = Circuit::new(1);
        let v = SchedVerifier::new(&empty, 1, &[], &pos);
        assert!(v.verify(OutcomePolicy::Zeros).is_ok());
    }

    #[test]
    fn unrealized_and_surplus_measurements_are_reported() {
        let mut c = Circuit::new(1);
        c.measure(Qubit(0)).unwrap();
        let pos = positions(1);
        let none: Vec<SemEvent> = vec![g1(0, 0, SemGate1::Id)];
        let v = SchedVerifier::new(&c, 1, &none, &pos);
        assert_eq!(
            v.verify(OutcomePolicy::Zeros).unwrap_err(),
            VerifyError::MissingMeasurement {
                logical: 0,
                missing: 1
            }
        );
        let twice = vec![meas(0, 0, Some(0)), meas(1, 0, Some(0))];
        let v = SchedVerifier::new(&c, 1, &twice, &pos);
        assert_eq!(
            v.verify(OutcomePolicy::Zeros).unwrap_err(),
            VerifyError::ExtraMeasurement { logical: 0, op: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "final mapping repeats")]
    fn a_final_mapping_that_repeats_a_qubit_is_refused() {
        let c = Circuit::new(2);
        let pos = [PhysQubit(1), PhysQubit(1)];
        let _ = SchedVerifier::new(&c, 3, &[], &pos);
    }

    #[test]
    fn error_messages_are_lowercase_and_specific() {
        let e = VerifyError::StabilizerMismatch {
            generator: 3,
            pauli: PauliString::identity(2),
            membership: Membership::NotIn,
        };
        let msg = e.to_string();
        assert!(msg.contains("generator 3 diverged"), "{msg}");
        assert!(msg.starts_with(char::is_lowercase));
        let e = VerifyError::AncillaEntangled { q: 17 };
        assert!(e.to_string().contains("qubit 17"));
    }
}
