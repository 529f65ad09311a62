//! Running logical circuits on the simulator.

use rand::Rng;

use mech_circuit::{Circuit, Gate};

use crate::state::State;

/// The result of simulating a circuit.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final state (measured qubits are collapsed, not removed).
    pub state: State,
    /// Measurement outcomes in program order.
    pub measurements: Vec<bool>,
}

/// Simulates `circuit` from `|0…0⟩`, sampling measurements with `rng`.
///
/// # Panics
///
/// Panics if the circuit is wider than 24 qubits.
///
/// # Example
///
/// ```
/// use mech_circuit::{Circuit, Qubit};
/// use mech_statevec::run_circuit;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mech_circuit::CircuitError> {
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0))?;
/// c.cnot(Qubit(0), Qubit(1))?;
/// c.measure(Qubit(0))?;
/// c.measure(Qubit(1))?;
/// let out = run_circuit(&c, &mut StdRng::seed_from_u64(1));
/// // Bell pair: both measurements agree.
/// assert_eq!(out.measurements[0], out.measurements[1]);
/// # Ok(())
/// # }
/// ```
pub fn run_circuit<R: Rng>(circuit: &Circuit, rng: &mut R) -> RunOutcome {
    let mut state = State::zero(circuit.num_qubits());
    let mut measurements = Vec::new();
    for gate in circuit.gates() {
        match *gate {
            Gate::Measure { q } => measurements.push(state.measure(q.0, rng)),
            _ => state.apply(gate),
        }
    }
    RunOutcome {
        state,
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_circuit::benchmarks::bv_with_secret;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernstein_vazirani_recovers_the_secret() {
        // The whole point of BV: one query reveals the secret string.
        let secret = [true, false, true, true, false];
        let c = bv_with_secret(6, &secret);
        let out = run_circuit(&c, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.measurements, secret.to_vec());
    }

    #[test]
    fn qft_of_zero_measures_uniformly_random() {
        let c = mech_circuit::benchmarks::qft(4);
        // |0000⟩ under QFT is the uniform superposition; all outcome
        // patterns are possible. Just check it runs and measures 4 bits.
        let out = run_circuit(&c, &mut StdRng::seed_from_u64(4));
        assert_eq!(out.measurements.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = mech_circuit::benchmarks::qaoa_maxcut(5, 1, 2);
        let a = run_circuit(&c, &mut StdRng::seed_from_u64(7));
        let b = run_circuit(&c, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.measurements, b.measurements);
    }
}
