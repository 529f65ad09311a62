//! Executable verifications of the paper's circuit identities.
//!
//! These functions implement, at the state-vector level, the protocols the
//! MECH compiler schedules symbolically: the naive GHZ preparation (paper
//! Fig. 1) and the multi-target communication protocol (Fig. 3). The tests
//! add the measurement-based GHZ preparation (Figs. 5, 6) and the bridge
//! gate (Fig. 2b), and assert the equivalences the compiler's cost model
//! takes for granted.

use rand::Rng;

use crate::state::State;

/// Prepares a GHZ state on `members` (all `|0⟩`) with the naive CNOT chain
/// (paper Fig. 1a): depth grows linearly with the member count.
pub fn ghz_chain(state: &mut State, members: &[u32]) {
    assert!(!members.is_empty(), "GHZ needs at least one qubit");
    state.h(members[0]);
    for w in members.windows(2) {
        state.cnot(w[0], w[1]);
    }
}

/// Executes the multi-entry communication protocol (paper Fig. 3):
/// controlled gates sharing the control `control` execute on all `targets`
/// concurrently over a GHZ state on `ghz` (`ghz[0]` is consumed by the
/// attach measurement; `ghz[1..]` serve the targets).
///
/// `apply` performs one controlled component from a GHZ member onto its
/// target (e.g. `|s.cnot(m, t)|` for CNOT components).
///
/// # Panics
///
/// Panics unless `ghz.len() >= targets.len() + 1`.
pub fn multi_target_protocol<R, F>(
    state: &mut State,
    control: u32,
    ghz: &[u32],
    targets: &[u32],
    rng: &mut R,
    mut apply: F,
) where
    R: Rng,
    F: FnMut(&mut State, u32, u32),
{
    assert!(
        ghz.len() > targets.len(),
        "need one GHZ qubit per target plus the attach qubit"
    );

    // Attach: entangle the control's value into the cat state.
    state.cnot(control, ghz[0]);
    if state.measure(ghz[0], rng) {
        for &m in &ghz[1..] {
            state.x(m);
        }
    }

    // Concurrent controlled components.
    for (i, &t) in targets.iter().enumerate() {
        apply(state, ghz[1 + i], t);
    }

    // Disentangle: X-basis measurements; odd parity feeds a Z back to the
    // control.
    let mut parity = false;
    for &m in &ghz[1..] {
        state.h(m);
        parity ^= state.measure(m, rng);
    }
    if parity {
        state.z(control);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-9;

    /// Prepares a GHZ state on `members` using the measurement-based scheme of
    /// paper Figs. 5–6: every member after the first starts in `|+⟩`, an
    /// auxiliary `|0⟩` qubit between consecutive members absorbs two CNOTs and
    /// is measured, and an X correction on the new member repairs outcome 1.
    ///
    /// All entangling gates commute across different auxiliaries, which is why
    /// the hardware version runs in constant depth; here they execute
    /// sequentially for clarity.
    ///
    /// # Panics
    ///
    /// Panics unless `aux.len() + 1 == members.len()`.
    fn ghz_measurement_based<R: Rng>(state: &mut State, members: &[u32], aux: &[u32], rng: &mut R) {
        assert_eq!(
            aux.len() + 1,
            members.len(),
            "one auxiliary qubit between each pair of members"
        );
        state.h(members[0]);
        // |+⟩ initialization and the two CNOT layers (cluster-like, parallel).
        for &m in &members[1..] {
            state.h(m);
        }
        for (i, &t) in aux.iter().enumerate() {
            state.cnot(members[i], t);
            state.cnot(members[i + 1], t);
        }
        // Measure the auxiliaries. Auxiliary `i` reads `m_i ⊕ m_{i+1}`, so
        // member `j` needs an X exactly when the prefix parity of the outcomes
        // up to `j` is odd (member 0 is the reference).
        let mut prefix_parity = false;
        for (i, &t) in aux.iter().enumerate() {
            prefix_parity ^= state.measure(t, rng);
            if prefix_parity {
                state.x(members[i + 1]);
            }
        }
    }

    /// The bridge gate (paper Fig. 2b): an effective `CNOT(a → c)` through the
    /// middle qubit `b`, leaving `b` untouched, as four physical CNOTs.
    fn bridge_cnot(state: &mut State, a: u32, b: u32, c: u32) {
        state.cnot(b, c);
        state.cnot(a, b);
        state.cnot(b, c);
        state.cnot(a, b);
    }

    #[test]
    fn measurement_based_ghz_equals_chain() {
        // 3 members + 2 auxiliaries on 5 qubits, across many outcome
        // branches.
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let members = [0u32, 2, 4];
            let aux = [1u32, 3];
            let mut mb = State::zero(5);
            ghz_measurement_based(&mut mb, &members, &aux, &mut rng);

            let mut chain = State::zero(5);
            ghz_chain(&mut chain, &members);
            // Auxiliaries end collapsed in |0⟩ or |1⟩; project the chain
            // state's auxiliaries to match before comparing.
            for &t in &aux {
                let p1 = mb.probability_of_qubit(t);
                if p1 > 0.5 {
                    chain.x(t);
                }
            }
            assert!(
                mb.approx_eq(&chain, EPS),
                "seed {seed}: fidelity {}",
                mb.fidelity(&chain)
            );
        }
    }

    #[test]
    fn protocol_equals_direct_fanout_cnots() {
        // Control q0, GHZ on q1..q4, targets q5..q7: the protocol must act
        // exactly like CNOT(q0 -> each target) on a random input.
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut input = State::zero(8);
            input.ry(0, 0.3 + seed as f64 * 0.11);
            input.rz(0, 1.1);
            for t in 5..8 {
                input.ry(t, 0.2 * t as f64);
            }

            let mut via_protocol = input.clone();
            ghz_chain(&mut via_protocol, &[1, 2, 3, 4]);
            multi_target_protocol(
                &mut via_protocol,
                0,
                &[1, 2, 3, 4],
                &[5, 6, 7],
                &mut rng,
                |s, m, t| s.cnot(m, t),
            );

            let mut direct = input;
            for t in 5..8 {
                direct.cnot(0, t);
            }
            // The GHZ qubits end collapsed; project the direct state to
            // match the measured outcomes.
            for m in 1..5 {
                let p1 = via_protocol.probability_of_qubit(m);
                if p1 > 0.5 {
                    direct.x(m);
                }
            }
            assert!(
                via_protocol.approx_eq(&direct, EPS),
                "seed {seed}: fidelity {}",
                via_protocol.fidelity(&direct)
            );
        }
    }

    #[test]
    fn protocol_works_for_cz_components() {
        // Same protocol with CZ components — the conjugated-group case.
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let mut input = State::zero(5);
            input.ry(0, 0.9);
            input.ry(3, 1.3);
            input.ry(4, 0.4);

            let mut via = input.clone();
            ghz_chain(&mut via, &[1, 2]);
            multi_target_protocol(&mut via, 0, &[1, 2], &[3], &mut rng, |s, m, t| s.cz(m, t));

            let mut direct = input;
            direct.cz(0, 3);
            for m in 1..3 {
                if via.probability_of_qubit(m) > 0.5 {
                    direct.x(m);
                }
            }
            assert!(via.approx_eq(&direct, EPS), "seed {seed}");
        }
    }

    #[test]
    fn bridge_is_a_cnot_leaving_the_middle_alone() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let input = State::random_product(3, &mut rng);

            let mut via = input.clone();
            bridge_cnot(&mut via, 0, 1, 2);

            let mut direct = input;
            direct.cnot(0, 2);
            assert!(via.approx_eq(&direct, EPS), "seed {seed}");
        }
    }

    #[test]
    fn conjugated_group_identity() {
        // H on the hub before/after CZ components == shared-target CNOTs.
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let input = State::random_product(4, &mut rng);

            // Hub = q0; sources q1..q3 all target the hub.
            let mut via = input.clone();
            via.h(0);
            for srcq in 1..4 {
                via.cz(srcq, 0);
            }
            via.h(0);

            let mut direct = input;
            for srcq in 1..4 {
                direct.cnot(srcq, 0);
            }
            assert!(via.approx_eq(&direct, EPS), "seed {seed}");
        }
    }
}
