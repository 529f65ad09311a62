use rand::Rng;

use mech_circuit::{Gate, OneQubitGate, TwoQubitKind};

use crate::complex::C64;

/// A dense `n`-qubit state vector (little-endian: qubit 0 is the least
/// significant bit of the basis index).
///
/// Practical up to ~20 qubits; the protocol verifications need at most a
/// dozen.
#[derive(Debug, Clone)]
pub struct State {
    n: u32,
    amps: Vec<C64>,
}

impl State {
    /// `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (state would not fit in memory).
    pub fn zero(n: u32) -> Self {
        assert!(n <= 24, "state vector too large for {n} qubits");
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        State { n, amps }
    }

    /// Applies one unitary program gate: the one place the simulator
    /// reads a [`Gate`].
    ///
    /// # Panics
    ///
    /// Panics on [`Gate::Measure`]: sampling needs an rng, so
    /// [`run_circuit`](crate::run_circuit) measures on its own and other
    /// callers collapse with [`State::collapse`].
    pub fn apply(&mut self, gate: &Gate) {
        match *gate {
            Gate::One { gate, q } => match gate {
                OneQubitGate::H => self.h(q.0),
                OneQubitGate::X => self.x(q.0),
                OneQubitGate::Y => self.y(q.0),
                OneQubitGate::Z => self.z(q.0),
                OneQubitGate::S => self.s(q.0),
                OneQubitGate::Sdg => self.rz(q.0, -std::f64::consts::FRAC_PI_2),
                OneQubitGate::T => self.rz(q.0, std::f64::consts::FRAC_PI_4),
                OneQubitGate::Tdg => self.rz(q.0, -std::f64::consts::FRAC_PI_4),
                OneQubitGate::Rx(a) => self.rx(q.0, a),
                OneQubitGate::Ry(a) => self.ry(q.0, a),
                OneQubitGate::Rz(a) => self.rz(q.0, a),
            },
            Gate::Two { kind, a, b, angle } => match kind {
                TwoQubitKind::Cnot => self.cnot(a.0, b.0),
                TwoQubitKind::Cz => self.cz(a.0, b.0),
                TwoQubitKind::Cphase => self.cp(a.0, b.0, angle),
                TwoQubitKind::Rzz => self.rzz(a.0, b.0, angle),
                TwoQubitKind::Swap => self.swap(a.0, b.0),
            },
            Gate::Measure { .. } => panic!("State::apply takes unitary gates only"),
        }
    }

    /// The probability of a computational-basis state.
    pub fn probability(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr()
    }

    /// Applies an arbitrary 2×2 unitary `[[a, b], [c, d]]` to qubit `q`.
    pub(crate) fn apply_1q(&mut self, q: u32, m: [[C64; 2]; 2]) {
        let mask = 1usize << q;
        for i in 0..self.amps.len() {
            if i & mask == 0 {
                let j = i | mask;
                let (x, y) = (self.amps[i], self.amps[j]);
                self.amps[i] = m[0][0] * x + m[0][1] * y;
                self.amps[j] = m[1][0] * x + m[1][1] * y;
            }
        }
    }

    /// Hadamard.
    pub fn h(&mut self, q: u32) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = C64::new(s, 0.0);
        self.apply_1q(q, [[h, h], [h, -h]]);
    }

    /// Pauli-X.
    pub fn x(&mut self, q: u32) {
        self.apply_1q(q, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: u32) {
        self.apply_1q(q, [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]);
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: u32) {
        self.apply_1q(q, [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]);
    }

    /// Phase gate `S`.
    pub fn s(&mut self, q: u32) {
        self.apply_1q(q, [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]);
    }

    /// `Rz(θ) = diag(e^{-iθ/2}, e^{+iθ/2})`.
    pub fn rz(&mut self, q: u32, theta: f64) {
        let a = C64::cis(-theta / 2.0);
        let b = C64::cis(theta / 2.0);
        self.apply_1q(q, [[a, C64::ZERO], [C64::ZERO, b]]);
    }

    /// `Ry(θ)`.
    pub fn ry(&mut self, q: u32, theta: f64) {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        self.apply_1q(
            q,
            [
                [C64::new(c, 0.0), C64::new(-s, 0.0)],
                [C64::new(s, 0.0), C64::new(c, 0.0)],
            ],
        );
    }

    /// `Rx(θ)`.
    pub fn rx(&mut self, q: u32, theta: f64) {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        self.apply_1q(
            q,
            [
                [C64::new(c, 0.0), C64::new(0.0, -s)],
                [C64::new(0.0, -s), C64::new(c, 0.0)],
            ],
        );
    }

    /// CNOT with control `c` and target `t`.
    pub fn cnot(&mut self, c: u32, t: u32) {
        let (cm, tm) = (1usize << c, 1usize << t);
        for i in 0..self.amps.len() {
            if i & cm != 0 && i & tm == 0 {
                self.amps.swap(i, i | tm);
            }
        }
    }

    /// CZ.
    pub fn cz(&mut self, a: u32, b: u32) {
        let (am, bm) = (1usize << a, 1usize << b);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if i & am != 0 && i & bm != 0 {
                *amp = -*amp;
            }
        }
    }

    /// Controlled-phase with angle `theta`.
    pub fn cp(&mut self, a: u32, b: u32, theta: f64) {
        let (am, bm) = (1usize << a, 1usize << b);
        let phase = C64::cis(theta);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if i & am != 0 && i & bm != 0 {
                *amp = phase * *amp;
            }
        }
    }

    /// `RZZ(θ) = exp(-iθ/2 · Z⊗Z)`.
    pub fn rzz(&mut self, a: u32, b: u32, theta: f64) {
        let (am, bm) = (1usize << a, 1usize << b);
        let plus = C64::cis(-theta / 2.0);
        let minus = C64::cis(theta / 2.0);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            let parity = ((i & am != 0) as u8) ^ ((i & bm != 0) as u8);
            *amp = if parity == 0 { plus } else { minus } * *amp;
        }
    }

    /// SWAP.
    pub fn swap(&mut self, a: u32, b: u32) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    /// Returns the outcome.
    pub(crate) fn measure<R: Rng>(&mut self, q: u32, rng: &mut R) -> bool {
        let mask = 1usize << q;
        let p1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.collapse(q, outcome);
        outcome
    }

    /// Projects qubit `q` onto `outcome` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (near-)zero probability.
    pub fn collapse(&mut self, q: u32, outcome: bool) {
        let mask = 1usize << q;
        let keep = if outcome { mask } else { 0 };
        let p: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask == keep)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!(p > 1e-12, "collapsing onto a zero-probability outcome");
        let norm = 1.0 / p.sqrt();
        for (i, amp) in self.amps.iter_mut().enumerate() {
            *amp = if i & mask == keep {
                amp.scale(norm)
            } else {
                C64::ZERO
            };
        }
    }

    /// The marginal probability that qubit `q` reads 1.
    pub fn probability_of_qubit(&self, q: u32) -> f64 {
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn inner(&self, other: &State) -> C64 {
        assert_eq!(self.n, other.n, "state widths differ");
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²` — 1.0 iff the states are equal up to a
    /// global phase.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// `true` if the states agree up to global phase within `tol`.
    pub fn approx_eq(&self, other: &State, tol: f64) -> bool {
        (self.fidelity(other) - 1.0).abs() < tol
    }

    /// Prepares a pseudo-random product state (seeded) — useful as a test
    /// input that is unlikely to hide phase errors.
    pub fn random_product<R: Rng>(n: u32, rng: &mut R) -> State {
        let mut s = State::zero(n);
        for q in 0..n {
            s.ry(q, rng.gen_range(0.0..std::f64::consts::PI));
            s.rz(q, rng.gen_range(0.0..std::f64::consts::PI));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    #[test]
    fn bell_pair_probabilities() {
        let mut s = State::zero(2);
        s.h(0);
        s.cnot(0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
    }

    #[test]
    fn xx_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let s0 = State::random_product(3, &mut rng);
        let mut s = s0.clone();
        s.x(1);
        s.x(1);
        assert!(s.approx_eq(&s0, EPS));
    }

    #[test]
    fn hzh_equals_x() {
        let mut rng = StdRng::seed_from_u64(2);
        let s0 = State::random_product(2, &mut rng);
        let mut a = s0.clone();
        a.h(0);
        a.z(0);
        a.h(0);
        let mut b = s0;
        b.x(0);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    fn cz_is_symmetric_and_matches_cp_pi() {
        let mut rng = StdRng::seed_from_u64(3);
        let s0 = State::random_product(2, &mut rng);
        let mut a = s0.clone();
        a.cz(0, 1);
        let mut b = s0.clone();
        b.cz(1, 0);
        assert!(a.approx_eq(&b, EPS));
        let mut c = s0;
        c.cp(0, 1, std::f64::consts::PI);
        assert!(a.approx_eq(&c, EPS));
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut s = State::zero(2);
        s.x(0); // |01⟩ (qubit 0 set)
        s.swap(0, 1);
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn h_conjugation_turns_cz_into_cnot() {
        let mut rng = StdRng::seed_from_u64(4);
        let s0 = State::random_product(2, &mut rng);
        let mut a = s0.clone();
        a.h(1);
        a.cz(0, 1);
        a.h(1);
        let mut b = s0;
        b.cnot(0, 1);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    fn measurement_collapses_bell_pair() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = State::zero(2);
        s.h(0);
        s.cnot(0, 1);
        let m0 = s.measure(0, &mut rng);
        // The second qubit must now be perfectly correlated.
        let expect = if m0 { 0b11 } else { 0b00 };
        assert!((s.probability(expect) - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_matches_cnot_rz_cnot() {
        let mut rng = StdRng::seed_from_u64(6);
        let s0 = State::random_product(2, &mut rng);
        let theta = 0.73;
        let mut a = s0.clone();
        a.rzz(0, 1, theta);
        let mut b = s0;
        b.cnot(0, 1);
        b.rz(1, theta);
        b.cnot(0, 1);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    fn fidelity_is_zero_for_orthogonal_states() {
        let z = State::zero(1);
        let mut o = State::zero(1);
        o.x(0);
        assert!(z.fidelity(&o) < EPS);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn impossible_collapse_panics() {
        let mut s = State::zero(1);
        s.collapse(0, true);
    }

    #[test]
    fn s_gate_squares_to_z() {
        let mut rng = StdRng::seed_from_u64(8);
        let s0 = State::random_product(1, &mut rng);
        let mut a = s0.clone();
        a.s(0);
        a.s(0);
        let mut b = s0;
        b.z(0);
        assert!(a.approx_eq(&b, EPS));
    }

    #[test]
    fn y_equals_ixz_up_to_phase() {
        let mut rng = StdRng::seed_from_u64(9);
        let s0 = State::random_product(1, &mut rng);
        let mut a = s0.clone();
        a.y(0);
        let mut b = s0;
        b.z(0);
        b.x(0);
        assert!(a.approx_eq(&b, EPS)); // global phase i ignored by fidelity
    }
}
