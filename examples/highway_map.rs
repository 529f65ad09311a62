//! Visualize highway layouts on every coupling structure, then verify the
//! communication protocol itself on the state-vector simulator: a
//! multi-target CNOT executed over a GHZ state must equal the direct
//! fan-out.
//!
//! Run with: `cargo run --release --example highway_map`

use mech::DeviceSpec;
use mech_chiplet::{render_layout, ChipletSpec, CouplingStructure};
use mech_statevec::protocol::{ghz_chain, multi_target_protocol};
use mech_statevec::State;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    for structure in CouplingStructure::ALL {
        let device = DeviceSpec::new(ChipletSpec::new(structure, 7, 1, 2)).build_artifacts();
        let layout = device.layout();
        println!(
            "== {} (1x2 array of 7x7 chiplets, {} highway qubits = {:.1}%)",
            structure.name(),
            layout.num_highway_qubits(),
            100.0 * layout.percentage()
        );
        println!("{}", render_layout(device.topology(), layout));
    }

    // Protocol check: control q0, GHZ q1..q3, targets q4..q5.
    println!("verifying the Fig. 3 protocol on the state-vector simulator...");
    let mut rng = StdRng::seed_from_u64(1);
    let mut input = State::zero(6);
    input.ry(0, 1.1);
    input.ry(4, 0.4);
    input.ry(5, 2.0);

    let mut via = input.clone();
    ghz_chain(&mut via, &[1, 2, 3]);
    multi_target_protocol(&mut via, 0, &[1, 2, 3], &[4, 5], &mut rng, |s, m, t| {
        s.cnot(m, t)
    });

    let mut direct = input;
    direct.cnot(0, 4);
    direct.cnot(0, 5);
    for m in 1..4 {
        if via.probability_of_qubit(m) > 0.5 {
            direct.x(m);
        }
    }
    println!(
        "fidelity(protocol, direct fan-out) = {:.12}",
        via.fidelity(&direct)
    );
}
