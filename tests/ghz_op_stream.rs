//! Emission-order pin for GHZ preparation.
//!
//! The golden fingerprints hash counts and the shuttle timeline, so they
//! cannot see the order in which ops are emitted or which operand of a
//! CNOT comes first. This file hashes the whole op stream (kind,
//! operands, start, duration) and the semantic trace of
//!
//! * both GHZ preparations on randomly claimed trees of the four
//!   `(6, 2, 2)` coupling structures at highway densities 1–3 and of one
//!   defect-pruned layout, with random entrance sets and clocks;
//! * whole compiles of `bv`, `qaoa` and `rand_clifford` at half and full
//!   width on the same devices under both GHZ styles, trace recording on.
//!
//! To regenerate after an *intentional* emission change, run
//! `MECH_GOLDEN_PRINT=1 cargo test --test ghz_op_stream -- --nocapture`.

use std::collections::HashSet;
use std::fmt::Debug;
use std::sync::Arc;

use mech::{CompilerConfig, DeviceSpec, GhzStyle, MechCompiler};
use mech_bench::{programs, verify};
use mech_chiplet::{
    ChipletSpec, CostModel, CouplingStructure, DefectMap, HighwayLayout, PhysCircuit, PhysQubit,
};
use mech_highway::{
    prepare_ghz_chain, prepare_ghz_with, GhzScratch, GroupId, HighwayOccupancy, HighwaySkeleton,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the `Debug` rendering of every item.
fn hash_all<T: Debug>(h: &mut u64, items: &[T]) {
    for item in items {
        for b in format!("{item:?};").bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_circuit(h: &mut u64, pc: &PhysCircuit) {
    hash_all(h, pc.ops());
    hash_all(h, pc.sem_events());
}

fn check(name: &str, actual: u64, golden: u64) {
    if std::env::var_os("MECH_GOLDEN_PRINT").is_some() {
        println!("GOLDEN {name} = {actual:#018x}");
        return;
    }
    assert_eq!(
        actual, golden,
        "{name}: GHZ op stream diverged ({actual:#018x})"
    );
}

/// The pinned devices: every structure at `(6, 2, 2)` and densities 1–3,
/// plus a defect-pruned square device.
fn devices() -> Vec<DeviceSpec> {
    let mut specs = Vec::new();
    for s in CouplingStructure::ALL {
        for density in 1..=3 {
            specs.push(DeviceSpec::new(ChipletSpec::new(s, 6, 2, 2)).with_density(density));
        }
    }
    specs.push(pruned_square());
    specs
}

/// `square(6, 2, 2)` with one interior highway node, one data qubit and
/// one cross-chip highway link dead.
fn pruned_square() -> DeviceSpec {
    let spec = DeviceSpec::square(6, 2, 2);
    let pristine = spec.build_artifacts();
    let layout = pristine.layout();
    let nodes = layout.nodes();
    let dead_node = nodes
        .iter()
        .copied()
        .skip(nodes.len() / 3)
        .find(|q| !layout.crossroads().contains(q))
        .expect("interior highway node");
    let data = layout.data_qubits();
    let cross = layout
        .edges()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, mech_chiplet::HighwayEdgeKind::Cross))
        .expect("stitch edge");
    spec.with_defects(
        DefectMap::new()
            .with_dead_qubit(dead_node)
            .with_dead_qubit(data[data.len() / 2])
            .with_dead_link(cross.a, cross.b),
    )
}

/// Claims a random tree from a random origin, as group assembly does:
/// the origin's self-claim, then claims from it to random highway nodes.
fn claim_tree(
    occ: &mut HighwayOccupancy,
    layout: &HighwayLayout,
    g: GroupId,
    rng: &mut StdRng,
) -> (Vec<PhysQubit>, Vec<(PhysQubit, PhysQubit)>) {
    let nodes = layout.nodes();
    let origin = nodes[rng.gen_range(0..nodes.len())];
    occ.try_claim(origin, origin, g).expect("fresh table");
    for _ in 0..rng.gen_range(1..8) {
        let to = nodes[rng.gen_range(0..nodes.len())];
        let _ = occ.try_claim(origin, to, g);
    }
    let claimed = (occ.nodes_of(g).to_vec(), occ.edges_of(g).to_vec());
    occ.release(g);
    claimed
}

#[test]
fn ghz_preps_on_random_trees_keep_their_op_stream() {
    let mut h = FNV_OFFSET;
    let mut rng = StdRng::seed_from_u64(28);
    let mut scratch = GhzScratch::default();
    for spec in devices() {
        let device = spec.build_artifacts();
        let (topo, layout) = (device.topology(), device.layout());
        let skeleton = Arc::new(HighwaySkeleton::build(topo.num_qubits() as usize, layout));
        let mut occ = HighwayOccupancy::new(skeleton);
        for t in 0..24 {
            let (nodes, edges) = claim_tree(&mut occ, layout, GroupId(t), &mut rng);
            let entrances: HashSet<PhysQubit> = nodes
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let clocks: Vec<u64> = nodes.iter().map(|_| rng.gen_range(0..4)).collect();
            for measurement_based in [true, false] {
                let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
                pc.enable_sem_recording();
                for (&q, &t) in nodes.iter().zip(&clocks) {
                    pc.advance(q, t);
                }
                let live = if measurement_based {
                    prepare_ghz_with(
                        &mut pc,
                        topo,
                        layout,
                        &nodes,
                        &edges,
                        &entrances,
                        &mut scratch,
                    )
                } else {
                    prepare_ghz_chain(&mut pc, topo, layout, &nodes, &edges, &mut scratch)
                };
                hash_circuit(&mut h, &pc);
                hash_all(&mut h, &live);
            }
        }
    }
    check("preps", h, 0xffc1_37d7_188a_3402);
}

#[test]
fn compiles_keep_their_op_stream_under_both_ghz_styles() {
    let mut h = FNV_OFFSET;
    for spec in devices() {
        let device = spec.build_artifacts();
        let n = device.num_data_qubits();
        for ghz_style in [GhzStyle::MeasurementBased, GhzStyle::Chain] {
            let config = verify::recording(CompilerConfig {
                ghz_style,
                ..CompilerConfig::default()
            });
            for gen in [programs::bv, programs::qaoa, programs::rand_clifford] {
                for width in [(n / 2).max(2), n] {
                    // Some dense-highway devices leave the data region
                    // disconnected; their routing errors are pinned too.
                    match MechCompiler::new(Arc::clone(&device), config).compile(&gen(width)) {
                        Ok(r) => {
                            hash_circuit(&mut h, &r.circuit);
                            hash_all(&mut h, &r.final_positions);
                        }
                        Err(e) => hash_all(&mut h, &[e.to_string()]),
                    }
                }
            }
        }
    }
    check("compiles", h, 0x3415_a162_0073_1331);
}
