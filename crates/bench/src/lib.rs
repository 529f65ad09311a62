//! Shared experiment harness for the MECH reproduction.
//!
//! Each binary in this crate regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §4 for the index). This library
//! holds the common machinery: building a device + highway, generating the
//! benchmark sized to the data region, compiling with both MECH and the
//! SABRE baseline, and formatting rows.

use mech::mech_highway::ShuttleStats;
use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_circuit::benchmarks::Benchmark;

pub mod serve;

pub mod defects {
    //! Canonical degraded-device fixtures.
    //!
    //! Defect-tolerance tests and the chaos CI job need to agree on what
    //! "the degraded 441-qubit device" means, or their results stop being
    //! comparable across PRs. This module is the single source of that
    //! fixture: a deterministic scan of the *pristine* artifacts picks the
    //! dead set, so the fixture never depends on a random seed and never
    //! accidentally names a highway resource when it means a data one.

    use mech::mech_chiplet::{DefectMap, LinkKind, PhysQubit};
    use mech::DeviceSpec;

    /// The paper's 441-qubit evaluation device (`square(7, 3, 3)`) with
    /// the canonical ≤2% defect set: all six timed program families must
    /// still compile on it, with schedules touching zero dead resources.
    ///
    /// The dead set comes from a deterministic scan of the pristine
    /// artifacts: four spread-out dead data qubits, one interior
    /// (non-crossroad) dead highway node, three dead on-chip data links
    /// and one dead cross-chip seam link — never the same resource twice.
    pub fn degraded_441q() -> DeviceSpec {
        let spec = DeviceSpec::square(7, 3, 3);
        let pristine = spec.build_artifacts();
        let topo = pristine.topology();
        let layout = pristine.layout();

        let data = layout.data_qubits();
        assert!(data.len() >= 16, "fixture needs a real data region");
        let dead_qubits: Vec<PhysQubit> = data
            .iter()
            .copied()
            .step_by(data.len() / 4)
            .take(4)
            .collect();
        let is_dead = |q: PhysQubit| dead_qubits.contains(&q);

        // One interior corridor node: the corridor detours around it.
        let nodes = layout.nodes();
        let dead_node = nodes
            .iter()
            .copied()
            .skip(nodes.len() / 2)
            .find(|&q| !layout.crossroads().contains(&q))
            .expect("a multi-chiplet highway has interior nodes");

        // Dead links between live data qubits only: a link with a highway
        // endpoint would double as a corridor or entrance defect, which
        // the dead node above already covers.
        let mut on_chip = Vec::new();
        let mut cross = Vec::new();
        for q in (0..topo.num_qubits()).map(PhysQubit) {
            if layout.is_highway(q) || is_dead(q) {
                continue;
            }
            for link in topo.neighbor_links(q) {
                if q >= link.to || layout.is_highway(link.to) || is_dead(link.to) {
                    continue;
                }
                match link.kind {
                    LinkKind::OnChip => on_chip.push((q, link.to)),
                    LinkKind::CrossChip => cross.push((q, link.to)),
                }
            }
        }
        let dead_links: Vec<(PhysQubit, PhysQubit)> = on_chip
            .iter()
            .step_by((on_chip.len() / 3).max(1))
            .take(3)
            .chain(cross.first())
            .copied()
            .collect();

        spec.with_defects(
            DefectMap::new()
                .with_dead_qubits(dead_qubits)
                .with_dead_qubit(dead_node)
                .with_dead_links(dead_links),
        )
    }
}

pub mod programs {
    //! The canonical seeded benchmark programs.
    //!
    //! Every harness that times or regression-tests the compilers on "the
    //! QFT program" must mean the *same* circuit, or numbers stop being
    //! comparable across binaries and PRs. This module is the single
    //! source of those programs: the `perfbench` benchmark serves them,
    //! the golden-schedule tests fingerprint them. Change a generator or a
    //! seed here and every golden fingerprint is invalidated — regenerate
    //! them (see `tests/golden_schedules.rs`) in the same change.

    use mech_circuit::benchmarks::{random_circuit, random_clifford, Benchmark};
    use mech_circuit::{Circuit, Qubit};

    /// Seed for the four paper families.
    pub(crate) const FAMILY_SEED: u64 = 2024;

    /// Quantum Fourier transform on `n` qubits.
    pub fn qft(n: u32) -> Circuit {
        Benchmark::Qft.generate(n, FAMILY_SEED)
    }

    /// QAOA MaxCut layer on `n` qubits.
    pub fn qaoa(n: u32) -> Circuit {
        Benchmark::Qaoa.generate(n, FAMILY_SEED)
    }

    /// Hardware-efficient VQE ansatz on `n` qubits.
    pub fn vqe(n: u32) -> Circuit {
        Benchmark::Vqe.generate(n, FAMILY_SEED)
    }

    /// Bernstein–Vazirani oracle on `n` qubits.
    pub fn bv(n: u32) -> Circuit {
        Benchmark::Bv.generate(n, FAMILY_SEED)
    }

    /// Sparse random circuit (`4n` gates): routing-bound.
    pub fn rand_sparse(n: u32) -> Circuit {
        random_circuit(n, 4 * n as usize, 11)
    }

    /// Dense random circuit (`12n` gates): aggregation-bound.
    pub fn rand_dense(n: u32) -> Circuit {
        random_circuit(n, 12 * n as usize, 12)
    }

    /// Fixed-size random program used by the golden-schedule regression
    /// tests (width-capped, 400 gates).
    pub fn golden_random(n: u32) -> Circuit {
        random_circuit(n.min(40), 400, 77)
    }

    /// GHZ state preparation on `n` qubits (H + CNOT chain), measured out.
    /// The smallest interesting Clifford family: one multi-target-friendly
    /// entangling pattern, fully verifiable by the stabilizer backend.
    pub fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::with_capacity(n, 2 * n as usize);
        c.h(Qubit(0)).expect("in range");
        for q in 1..n {
            c.cnot(Qubit(q - 1), Qubit(q)).expect("in range");
        }
        c.measure_all();
        c
    }

    /// Seeded random Clifford circuit (`6n` gates): the stress member of
    /// the verification corpus — H/S/Sdg/Paulis/CNOT/CZ drawn uniformly.
    pub fn rand_clifford(n: u32) -> Circuit {
        random_clifford(n, 6 * n as usize, FAMILY_SEED)
    }

    /// A named family generator: the program for a given width.
    pub type FamilyGen = fn(u32) -> Circuit;

    /// The six compile-benchmark program families: the paper's four plus
    /// the two random-circuit densities. The defect suite compiles all of
    /// them on the degraded fixture; `perfbench` serves `bv` on
    /// `recalibrate-sweep` and the other five on `serve-paper-mix`.
    pub const TIMED_FAMILIES: [(&str, FamilyGen); 6] = [
        ("qft", qft),
        ("qaoa", qaoa),
        ("vqe", vqe),
        ("bv", bv),
        ("rand-sparse", rand_sparse),
        ("rand-dense", rand_dense),
    ];

    /// The Clifford program families the semantic verifier can check end
    /// to end (QFT/QAOA/VQE carry rotations and are outside the stabilizer
    /// formalism). Shared by `perfbench`'s `verify-clifford` workload,
    /// the defect suite, and `tests/verify.rs`.
    pub const CLIFFORD_FAMILIES: [(&str, FamilyGen); 3] =
        [("ghz", ghz), ("bv", bv), ("rand-clifford", rand_clifford)];
}

pub mod verify {
    //! Glue between the compiler and the stabilizer verifier in
    //! `mech-sim`: compile with [`CompilerConfig::record_sem_trace`] set,
    //! then hand the recorded event stream plus the final qubit mapping to
    //! [`SchedVerifier`].

    use mech::{CompileResult, CompilerConfig};
    use mech_circuit::Circuit;

    pub use mech_sim::{OutcomePolicy, SchedVerifier, VerifyError, VerifyReport};

    /// The compiler configuration for verifiable compiles: `config` with
    /// semantic-trace recording switched on (schedules stay byte-identical
    /// either way — the trace is a side channel).
    pub fn recording(config: CompilerConfig) -> CompilerConfig {
        CompilerConfig {
            record_sem_trace: true,
            ..config
        }
    }

    /// Verifies a compiled schedule against its ideal circuit under the
    /// standard outcome sweep (zeros, ones, seeded; see
    /// [`SchedVerifier::verify_sweep`]), so every
    /// classically-controlled correction runs both branches.
    ///
    /// The result must have been compiled with
    /// [`CompilerConfig::record_sem_trace`] (see [`recording`]); otherwise
    /// this returns [`VerifyError::MissingTrace`].
    ///
    /// # Errors
    ///
    /// Any [`VerifyError`]: non-Clifford input, a measurement divergence,
    /// a diverged stabilizer generator, or an entangled ancilla.
    pub fn verify_compiled(
        ideal: &Circuit,
        result: &CompileResult,
    ) -> Result<Vec<VerifyReport>, VerifyError> {
        if !result.circuit.sem_recording() {
            return Err(VerifyError::MissingTrace);
        }
        SchedVerifier::new(
            ideal,
            result.circuit.num_qubits(),
            result.circuit.sem_events(),
            &result.final_positions,
        )
        .verify_sweep()
    }
}

/// Everything measured for one (architecture, program) cell.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Program family.
    pub bench: Benchmark,
    /// Number of data qubits (program width).
    pub data_qubits: u32,
    /// Total device qubits.
    pub total_qubits: u32,
    /// Baseline (SABRE) metrics.
    pub baseline: Metrics,
    /// MECH metrics.
    pub mech: Metrics,
    /// Highway shuttle counters.
    pub shuttle: ShuttleStats,
    /// Fraction of qubits used as highway ancillas.
    pub highway_pct: f64,
}

impl RunOutcome {
    /// `1 − mech/baseline` for depth.
    pub fn depth_improvement(&self) -> f64 {
        self.mech.depth_improvement_over(&self.baseline)
    }

    /// `1 − mech/baseline` for effective CNOTs.
    pub fn eff_improvement(&self) -> f64 {
        self.mech.eff_cnots_improvement_over(&self.baseline)
    }
}

/// Builds the device named by `spec`, generates `bench` at the
/// data-region width, and compiles it with both pipelines, which share
/// the one artifact bundle.
///
/// # Panics
///
/// Panics if compilation fails (layout bugs — the harness treats them as
/// fatal).
pub fn run_cell(
    spec: DeviceSpec,
    bench: Benchmark,
    seed: u64,
    config: CompilerConfig,
) -> RunOutcome {
    let device = spec.build_artifacts();
    let n = device.num_data_qubits();
    let program = bench.generate(n, seed);

    let mech = MechCompiler::new(device.clone(), config)
        .compile(&program)
        .expect("MECH compilation");
    let baseline = BaselineCompiler::new(device.topology(), config)
        .compile(&program)
        .expect("baseline compilation");

    RunOutcome {
        bench,
        data_qubits: n,
        total_qubits: device.topology().num_qubits(),
        baseline: Metrics::from_circuit(&baseline),
        mech: mech.metrics(),
        shuttle: mech.shuttle_stats,
        highway_pct: mech.highway_percentage,
    }
}

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarnessArgs {
    /// Shrink architectures for a fast smoke run.
    pub quick: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl HarnessArgs {
    /// Parses `--quick` / `--csv` from the process arguments; anything else
    /// prints usage and exits.
    pub fn parse() -> Self {
        let mut args = HarnessArgs::default();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--csv" => args.csv = true,
                other => {
                    eprintln!("unknown argument {other}; supported: --quick --csv");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// Prints one outcome row in the Table-2 format.
pub fn print_row(o: &RunOutcome, csv: bool) {
    if csv {
        println!(
            "{}-{},{},{},{:.3},{:.0},{:.0},{:.3},{:.3}",
            o.bench,
            o.data_qubits,
            o.baseline.depth,
            o.mech.depth,
            o.depth_improvement(),
            o.baseline.eff_cnots,
            o.mech.eff_cnots,
            o.eff_improvement(),
            o.highway_pct
        );
    } else {
        println!(
            "{:<10} {:>12} {:>10} {:>8.1}% {:>14.0} {:>12.0} {:>8.1}% {:>8.1}%",
            format!("{}-{}", o.bench, o.data_qubits),
            o.baseline.depth,
            o.mech.depth,
            100.0 * o.depth_improvement(),
            o.baseline.eff_cnots,
            o.mech.eff_cnots,
            100.0 * o.eff_improvement(),
            100.0 * o.highway_pct
        );
    }
}

/// Prints the Table-2 header.
pub fn print_header(csv: bool) {
    if csv {
        println!(
            "program,baseline_depth,mech_depth,depth_improvement,baseline_eff_cnots,mech_eff_cnots,eff_improvement,highway_pct"
        );
    } else {
        println!(
            "{:<10} {:>12} {:>10} {:>9} {:>14} {:>12} {:>9} {:>9}",
            "program",
            "base depth",
            "mech",
            "improve",
            "base eff_CNOT",
            "mech eff",
            "improve",
            "hw %"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_consistent_outcome() {
        let spec = DeviceSpec::square(5, 1, 2);
        let o = run_cell(spec, Benchmark::Bv, 1, CompilerConfig::default());
        assert!(o.data_qubits > 0);
        assert!(o.mech.depth > 0 && o.baseline.depth > 0);
        assert!(o.highway_pct > 0.0);
        assert!(o.depth_improvement() <= 1.0);
    }
}
