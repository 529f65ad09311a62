//! A bit-matrix stabilizer tableau (Aaronson–Gottesman CHP style).
//!
//! The dense state-vector simulator in [`crate::State`] verifies the MECH
//! protocol identities on a dozen qubits; it cannot touch a 441-qubit
//! device. This tableau can: rows are bit-packed into `u64` words, so a
//! full-device schedule verification is a few hundred kilobytes of matrix
//! and every gate is a word-wise sweep over `2n + 1` rows.
//!
//! # Layout
//!
//! For `n` qubits the tableau holds `2n + 1` rows of `2n + 1` bits each
//! (conceptually): rows `0..n` are the destabilizer generators, rows
//! `n..2n` the stabilizer generators, and row `2n` is scratch space for
//! measurement. Each row stores an X bit-vector, a Z bit-vector (both
//! `ceil(n/64)` words), and a sign bit (`r = 1` means the generator carries
//! a −1 phase; tableau generators never acquire imaginary phases).
//!
//! # Measurement determinism
//!
//! [`Tableau::measure`] reports whether the outcome was *determined* (Z on
//! the measured qubit is ± a stabilizer element, so the outcome is forced)
//! or *random* (some stabilizer generator anticommutes with it, so both
//! outcomes have probability ½). For random outcomes the caller supplies
//! the desired result — that is what makes the verifier deterministic and
//! lets it hold the compiled execution to the exact outcome sequence the
//! ideal execution sampled, on *both* branches of every
//! classically-controlled correction.

/// Outcome of a tableau measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOutcome {
    /// The measured bit.
    pub value: bool,
    /// `true` if the outcome was forced by the state (probability 1);
    /// `false` if it was uniformly random and the caller's desired value
    /// was installed.
    pub determined: bool,
}

/// Where a Pauli string sits relative to a tableau's stabilizer group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The string, with its sign, is a stabilizer of the state.
    In,
    /// The string is in the group up to sign, but with the opposite sign —
    /// the state is an eigenstate with eigenvalue −1 instead of +1.
    InWithWrongSign,
    /// The string is not in the stabilizer group at all (it anticommutes
    /// with some generator, or is an independent commuting operator).
    NotIn,
}

/// A signed Pauli string on `n` qubits, bit-packed like a tableau row.
///
/// `neg` is the sign: `false` = `+P`, `true` = `−P`. Imaginary phases are
/// not representable (and never needed — Hermitian Pauli observables have
/// real sign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliString {
    n: u32,
    x: Vec<u64>,
    z: Vec<u64>,
    /// `true` if the string carries a −1 sign.
    pub neg: bool,
}

impl PauliString {
    /// The identity string `+I⊗…⊗I` on `n` qubits.
    pub fn identity(n: u32) -> Self {
        let words = words_for(n);
        PauliString {
            n,
            x: vec![0; words],
            z: vec![0; words],
            neg: false,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// Sets the X component on qubit `q` (an existing Z bit makes it a Y).
    pub fn set_x(&mut self, q: u32) {
        assert!(q < self.n, "qubit out of range");
        self.x[(q / 64) as usize] |= 1u64 << (q % 64);
    }

    /// Sets the Z component on qubit `q` (an existing X bit makes it a Y).
    pub fn set_z(&mut self, q: u32) {
        assert!(q < self.n, "qubit out of range");
        self.z[(q / 64) as usize] |= 1u64 << (q % 64);
    }

    /// The X bit on qubit `q`.
    pub fn x_bit(&self, q: u32) -> bool {
        self.x[(q / 64) as usize] >> (q % 64) & 1 == 1
    }

    /// The Z bit on qubit `q`.
    pub fn z_bit(&self, q: u32) -> bool {
        self.z[(q / 64) as usize] >> (q % 64) & 1 == 1
    }

    /// Re-embeds the string into `m ≥ n` qubits, sending qubit `q` to
    /// `map[q]` and acting as the identity everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `map` is shorter than `n` qubits or maps out of range.
    pub fn lift(&self, m: u32, map: &[u32]) -> PauliString {
        assert!(map.len() >= self.n as usize, "map too short");
        let mut out = PauliString::identity(m);
        for q in 0..self.n {
            if self.x_bit(q) {
                out.set_x(map[q as usize]);
            }
            if self.z_bit(q) {
                out.set_z(map[q as usize]);
            }
        }
        out.neg = self.neg;
        out
    }
}

impl std::fmt::Display for PauliString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", if self.neg { '-' } else { '+' })?;
        for q in 0..self.n {
            let c = match (self.x_bit(q), self.z_bit(q)) {
                (false, false) => 'I',
                (true, false) => 'X',
                (false, true) => 'Z',
                (true, true) => 'Y',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

fn words_for(n: u32) -> usize {
    (n as usize).div_ceil(64).max(1)
}

/// The CHP tableau itself. Starts in `|0…0⟩` (stabilizers `Z_q`,
/// destabilizers `X_q`).
#[derive(Debug, Clone)]
pub struct Tableau {
    n: u32,
    words: usize,
    /// `(2n + 1) × words` X bits, row-major.
    x: Vec<u64>,
    /// `(2n + 1) × words` Z bits, row-major.
    z: Vec<u64>,
    /// Sign bit per row, 0 or 1.
    r: Vec<u8>,
}

impl Tableau {
    /// `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let words = words_for(n);
        let rows = 2 * n as usize + 1;
        let mut t = Tableau {
            n,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![0; rows],
        };
        for q in 0..n {
            t.set_bit_x(q as usize, q); // destabilizer q = X_q
            t.set_bit_z(n as usize + q as usize, q); // stabilizer q = Z_q
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    fn word(&self, q: u32) -> usize {
        (q / 64) as usize
    }

    fn mask(&self, q: u32) -> u64 {
        1u64 << (q % 64)
    }

    fn set_bit_x(&mut self, row: usize, q: u32) {
        let (w, m) = (self.word(q), self.mask(q));
        self.x[row * self.words + w] |= m;
    }

    fn set_bit_z(&mut self, row: usize, q: u32) {
        let (w, m) = (self.word(q), self.mask(q));
        self.z[row * self.words + w] |= m;
    }

    fn x_bit(&self, row: usize, q: u32) -> bool {
        self.x[row * self.words + self.word(q)] & self.mask(q) != 0
    }

    fn z_bit(&self, row: usize, q: u32) -> bool {
        self.z[row * self.words + self.word(q)] & self.mask(q) != 0
    }

    /// Hadamard on `q`: swaps the X and Z columns, flipping signs of rows
    /// where both are set (Y → −Y).
    pub fn h(&mut self, q: u32) {
        let (w, m) = (self.word(q), self.mask(q));
        for row in 0..2 * self.n as usize {
            let xi = row * self.words + w;
            let (xb, zb) = (self.x[xi] & m, self.z[xi] & m);
            if xb != 0 && zb != 0 {
                self.r[row] ^= 1;
            }
            self.x[xi] = (self.x[xi] & !m) | zb;
            self.z[xi] = (self.z[xi] & !m) | xb;
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: u32) {
        let (w, m) = (self.word(q), self.mask(q));
        for row in 0..2 * self.n as usize {
            let xi = row * self.words + w;
            if self.x[xi] & m != 0 && self.z[xi] & m != 0 {
                self.r[row] ^= 1;
            }
            self.z[xi] ^= self.x[xi] & m;
        }
    }

    /// Inverse phase gate on `q`.
    pub fn sdg(&mut self, q: u32) {
        // Sdg = S·Z, and Z is a sign-only update, so conjugate directly:
        // X → −Y, Y → X, Z → Z. Flip the sign when X is set and Z is not.
        let (w, m) = (self.word(q), self.mask(q));
        for row in 0..2 * self.n as usize {
            let xi = row * self.words + w;
            if self.x[xi] & m != 0 && self.z[xi] & m == 0 {
                self.r[row] ^= 1;
            }
            self.z[xi] ^= self.x[xi] & m;
        }
    }

    /// Pauli-X on `q` (flips the sign of Z- and Y-carrying rows).
    pub fn x(&mut self, q: u32) {
        for row in 0..2 * self.n as usize {
            if self.z_bit(row, q) {
                self.r[row] ^= 1;
            }
        }
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: u32) {
        for row in 0..2 * self.n as usize {
            if self.x_bit(row, q) {
                self.r[row] ^= 1;
            }
        }
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: u32) {
        for row in 0..2 * self.n as usize {
            if self.x_bit(row, q) != self.z_bit(row, q) {
                self.r[row] ^= 1;
            }
        }
    }

    /// CNOT with control `c`, target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cnot(&mut self, c: u32, t: u32) {
        assert_ne!(c, t, "cnot operands must differ");
        let (wc, mc) = (self.word(c), self.mask(c));
        let (wt, mt) = (self.word(t), self.mask(t));
        for row in 0..2 * self.n as usize {
            let base = row * self.words;
            let xc = self.x[base + wc] & mc != 0;
            let zc = self.z[base + wc] & mc != 0;
            let xt = self.x[base + wt] & mt != 0;
            let zt = self.z[base + wt] & mt != 0;
            if xc && zt && (xt == zc) {
                self.r[row] ^= 1;
            }
            if xc {
                self.x[base + wt] ^= mt;
            }
            if zt {
                self.z[base + wc] ^= mc;
            }
        }
    }

    /// CZ (symmetric), as an H-conjugated CNOT.
    pub fn cz(&mut self, a: u32, b: u32) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// SWAP, as three CNOTs.
    pub fn swap(&mut self, a: u32, b: u32) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Multiplies row `i` into row `h` (`row_h ← row_i · row_h`), tracking
    /// the sign word-parallel.
    fn rowmult(&mut self, h: usize, i: usize) {
        let mut phase: i64 = 2 * self.r[h] as i64 + 2 * self.r[i] as i64;
        for w in 0..self.words {
            let (x1, z1) = (self.x[i * self.words + w], self.z[i * self.words + w]);
            let (x2, z2) = (self.x[h * self.words + w], self.z[h * self.words + w]);
            // Classify row i's Paulis per qubit and count the ±i factors
            // picked up against row h: X·Y, Y·Z, Z·X contribute +i;
            // X·Z, Y·X, Z·Y contribute −i.
            let (xi1, yi1, zi1) = (x1 & !z1, x1 & z1, !x1 & z1);
            let (xi2, yi2, zi2) = (x2 & !z2, x2 & z2, !x2 & z2);
            let plus = (xi1 & yi2) | (yi1 & zi2) | (zi1 & xi2);
            let minus = (xi1 & zi2) | (yi1 & xi2) | (zi1 & yi2);
            phase += plus.count_ones() as i64 - minus.count_ones() as i64;
            self.x[h * self.words + w] ^= x1;
            self.z[h * self.words + w] ^= z1;
        }
        let phase = phase.rem_euclid(4);
        // Destabilizer rows (h < n) can accumulate imaginary phases during
        // measurement row-sums; their signs are never read, so only
        // stabilizer and scratch rows must stay real.
        debug_assert!(
            phase % 2 == 0 || h < self.n as usize,
            "rowmult produced an imaginary phase on row {h}"
        );
        self.r[h] = ((phase / 2) & 1) as u8;
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        for w in 0..self.words {
            self.x[dst * self.words + w] = self.x[src * self.words + w];
            self.z[dst * self.words + w] = self.z[src * self.words + w];
        }
        self.r[dst] = self.r[src];
    }

    fn zero_row(&mut self, row: usize) {
        for w in 0..self.words {
            self.x[row * self.words + w] = 0;
            self.z[row * self.words + w] = 0;
        }
        self.r[row] = 0;
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// If the outcome is random (some stabilizer generator anticommutes
    /// with `Z_q`), the state collapses onto `desired` and the result is
    /// marked non-determined. If the outcome is forced, `desired` is
    /// ignored and the forced value is returned.
    pub fn measure(&mut self, q: u32, desired: bool) -> MeasureOutcome {
        let n = self.n as usize;
        // A stabilizer row with an X component on q anticommutes with Z_q:
        // the outcome is random.
        let pivot = (n..2 * n).find(|&row| self.x_bit(row, q));
        if let Some(p) = pivot {
            for row in 0..2 * n {
                if row != p && self.x_bit(row, q) {
                    self.rowmult(row, p);
                }
            }
            // The old stabilizer becomes the destabilizer of the new Z_q
            // generator, whose sign encodes the chosen outcome.
            self.copy_row(p - n, p);
            self.zero_row(p);
            self.set_bit_z(p, q);
            self.r[p] = desired as u8;
            MeasureOutcome {
                value: desired,
                determined: false,
            }
        } else {
            // Determined: Z_q = ± product of the stabilizer rows selected
            // by the destabilizers that anticommute with Z_q.
            let scratch = 2 * n;
            self.zero_row(scratch);
            self.set_bit_z(scratch, q);
            // Seed the scratch row with +Z_q, then multiply in the
            // selected stabilizers; the accumulated sign is the outcome.
            self.r[scratch] = 0;
            for i in 0..n {
                if self.x_bit(i, q) {
                    self.rowmult(scratch, i + n);
                }
            }
            MeasureOutcome {
                value: self.r[scratch] == 1,
                determined: true,
            }
        }
    }

    /// Extracts stabilizer generator `i` (`0 ≤ i < n`) as a
    /// [`PauliString`].
    pub fn stabilizer(&self, i: u32) -> PauliString {
        assert!(i < self.n, "generator index out of range");
        let row = (self.n + i) as usize;
        let mut p = PauliString::identity(self.n);
        p.x.copy_from_slice(&self.x[row * self.words..(row + 1) * self.words]);
        p.z.copy_from_slice(&self.z[row * self.words..(row + 1) * self.words]);
        p.neg = self.r[row] == 1;
        p
    }

    /// Tests whether the signed Pauli string `p` stabilizes the state.
    ///
    /// Decomposes `p` over the generators using the destabilizer pairing
    /// (generator `i` appears in the product iff `p` anticommutes with
    /// destabilizer `i`), builds that product in the scratch row, and
    /// compares. `O(n²/64)` per call.
    ///
    /// # Panics
    ///
    /// Panics if `p` is on a different number of qubits.
    pub fn membership(&mut self, p: &PauliString) -> Membership {
        assert_eq!(p.n, self.n, "pauli width mismatch");
        let n = self.n as usize;
        let scratch = 2 * n;
        self.zero_row(scratch);
        for i in 0..n {
            // Symplectic product of p with destabilizer i.
            let mut parity = 0u32;
            for w in 0..self.words {
                let anti =
                    (p.x[w] & self.z[i * self.words + w]) ^ (p.z[w] & self.x[i * self.words + w]);
                parity ^= anti.count_ones() & 1;
            }
            if parity & 1 == 1 {
                self.rowmult(scratch, i + n);
            }
        }
        let same_paulis = (0..self.words).all(|w| {
            self.x[scratch * self.words + w] == p.x[w] && self.z[scratch * self.words + w] == p.z[w]
        });
        if !same_paulis {
            Membership::NotIn
        } else if (self.r[scratch] == 1) == p.neg {
            Membership::In
        } else {
            Membership::InWithWrongSign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zq(n: u32, q: u32) -> PauliString {
        let mut p = PauliString::identity(n);
        p.set_z(q);
        p
    }

    #[test]
    fn fresh_state_is_all_zeros() {
        let mut t = Tableau::new(3);
        for q in 0..3 {
            let m = t.measure(q, true);
            assert!(m.determined);
            assert!(!m.value);
            assert_eq!(t.membership(&zq(3, q)), Membership::In);
        }
    }

    #[test]
    fn x_flips_a_determined_outcome() {
        let mut t = Tableau::new(2);
        t.x(0);
        let m = t.measure(0, false);
        assert!(m.determined);
        assert!(m.value);
        let m = t.measure(1, true);
        assert!(m.determined);
        assert!(!m.value);
    }

    #[test]
    fn bell_pair_is_correlated_on_both_branches() {
        for &branch in &[false, true] {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            // XX and ZZ stabilize the Bell pair.
            let mut xx = PauliString::identity(2);
            xx.set_x(0);
            xx.set_x(1);
            let mut zz = PauliString::identity(2);
            zz.set_z(0);
            zz.set_z(1);
            assert_eq!(t.membership(&xx), Membership::In);
            assert_eq!(t.membership(&zz), Membership::In);
            let m0 = t.measure(0, branch);
            assert!(!m0.determined);
            assert_eq!(m0.value, branch);
            let m1 = t.measure(1, !branch);
            assert!(m1.determined, "second Bell half must be forced");
            assert_eq!(m1.value, branch);
        }
    }

    #[test]
    fn ghz_parity_measurements() {
        // X-measuring one member of a 3-GHZ leaves a parity-conditioned
        // Bell pair — the identity behind the highway's cascade reading.
        for &branch in &[false, true] {
            let mut t = Tableau::new(3);
            t.h(0);
            t.cnot(0, 1);
            t.cnot(1, 2);
            t.h(2); // X-basis measurement of qubit 2
            let m = t.measure(2, branch);
            assert!(!m.determined);
            if m.value {
                t.z(0); // the protocol's conditional correction
            }
            let mut xx = PauliString::identity(3);
            xx.set_x(0);
            xx.set_x(1);
            let mut zz = PauliString::identity(3);
            zz.set_z(0);
            zz.set_z(1);
            assert_eq!(t.membership(&xx), Membership::In);
            assert_eq!(t.membership(&zz), Membership::In);
        }
    }

    #[test]
    fn sdg_composes_with_s_to_identity() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.sdg(0);
        t.h(0);
        let m = t.measure(0, true);
        assert!(m.determined);
        assert!(!m.value);
    }

    #[test]
    fn s_twice_equals_z() {
        // S²|+⟩ = Z|+⟩ = |−⟩, so an H then measurement reads 1.
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.s(0);
        t.h(0);
        let m = t.measure(0, false);
        assert!(m.determined);
        assert!(m.value);
    }

    #[test]
    fn membership_detects_sign_and_absence() {
        let mut t = Tableau::new(2);
        t.x(0); // state |10⟩: stabilized by −Z_0, +Z_1
        let mut mz = zq(2, 0);
        assert_eq!(t.membership(&mz), Membership::InWithWrongSign);
        mz.neg = true;
        assert_eq!(t.membership(&mz), Membership::In);
        let mut xx = PauliString::identity(2);
        xx.set_x(0);
        assert_eq!(t.membership(&xx), Membership::NotIn);
    }

    #[test]
    fn swap_moves_an_excitation() {
        let mut t = Tableau::new(2);
        t.x(0);
        t.swap(0, 1);
        assert!(t.measure(1, false).value);
        assert!(!t.measure(0, true).value);
    }

    #[test]
    fn cz_conjugation_matches_cnot() {
        // H(t)·CZ·H(t) = CNOT: compare stabilizers of both constructions.
        let mut a = Tableau::new(2);
        a.h(0);
        a.cnot(0, 1);
        let mut b = Tableau::new(2);
        b.h(0);
        b.h(1);
        b.cz(0, 1);
        b.h(1);
        for i in 0..2 {
            let g = a.stabilizer(i);
            assert_eq!(b.membership(&g), Membership::In);
        }
    }

    #[test]
    fn lift_embeds_identity_elsewhere() {
        let mut p = PauliString::identity(2);
        p.set_x(0);
        p.set_z(1);
        p.neg = true;
        let l = p.lift(100, &[70, 5]);
        assert!(l.x_bit(70) && !l.z_bit(70));
        assert!(l.z_bit(5) && !l.x_bit(5));
        assert!(l.neg);
        assert!(!l.x_bit(0) && !l.z_bit(0));
    }

    #[test]
    fn wide_tableau_crosses_word_boundaries() {
        // 100 qubits spans two words; entangle across the boundary.
        let mut t = Tableau::new(100);
        t.h(10);
        t.cnot(10, 90);
        let m = t.measure(90, true);
        assert!(!m.determined);
        let m2 = t.measure(10, false);
        assert!(m2.determined);
        assert!(m2.value, "correlated with the forced 1 on qubit 90");
    }

    #[test]
    fn display_renders_signed_paulis() {
        let mut p = PauliString::identity(3);
        p.set_x(0);
        p.set_z(1);
        p.set_x(2);
        p.set_z(2);
        p.neg = true;
        assert_eq!(p.to_string(), "-XZY");
    }
}
