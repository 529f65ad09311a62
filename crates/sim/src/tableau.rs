//! A qubit-major stabilizer tableau (Aaronson–Gottesman CHP, laid out as
//! in Stim).
//!
//! The dense state-vector simulator (the `mech-statevec` crate) verifies
//! the MECH protocol identities on a dozen qubits; it cannot touch a 441-qubit
//! device. This tableau can: a full-device schedule verification is a few
//! hundred kilobytes of bit matrix, and a gate costs a few dozen word
//! operations.
//!
//! # Layout
//!
//! For `n` qubits the tableau holds `2n` generator rows: `n` destabilizers
//! and `n` stabilizers, starting as `X_q` and `Z_q`. It stores them
//! column-wise, as Stim does (Gidney, "Stim: a fast stabilizer circuit
//! simulator", Quantum 2021). Each qubit owns an X column and a Z column
//! of `2·⌈n/64⌉` words, one bit per row: destabilizer `i` is bit `i` of
//! the first `⌈n/64⌉` words, stabilizer `i` bit `i` of the second half,
//! so a destabilizer and its stabilizer sit at the same bit of
//! corresponding words. One more column of the same shape holds the row
//! signs (a set bit is a −1 phase).
//!
//! Qubits and storage columns are two index spaces: qubit `q` lives in
//! column `col_of[q]`, and column `c` holds qubit `qubit_at[c]`. They
//! start equal (and [`Tableau::reset`] makes them equal again); a SWAP
//! exchanges two qubits' columns by exchanging the two labels.
//!
//! # Costs
//!
//! * A gate on qubits `a`, `b` is one word loop over their two to four
//!   contiguous columns plus the sign column. SWAP relabels in O(1): it
//!   moves no word.
//! * A random measurement multiplies the pivot row into every row that
//!   has X on the measured qubit in one column-wise pass. The pass visits
//!   only the words that hold rows to update, and only the columns where
//!   the pivot or its destabilizer is not the identity. It finds those
//!   by reading four words of each *entangled* column (one that was an
//!   operand of a CNOT or CZ, or a random measurement's column); any
//!   other column `c` holds bits only on row pair `c`. A bit-sliced
//!   mod-4 counter per row tracks the `±i` factors.
//! * A determined measurement and [`Tableau::membership`] compute the
//!   sign of a product of commuting stabilizer rows column by column,
//!   without rebuilding any row: `O(n·⌈n/64⌉)` words.
//! * `Tableau::is_zero_state` reads the stabilizer half of every X
//!   column and of the sign column.
//!
//! The scratch buffers measurements and membership queries need live on
//! the tableau, so neither allocates per call.
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
    pub(crate) fn lift(&self, m: u32, map: &[u32]) -> PauliString {
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
    /// Words per half column: destabilizer rows fill words `0..half` of a
    /// column, stabilizer rows words `half..2 * half`.
    half: usize,
    /// `n` X columns of `2 * half` words, qubit-major.
    x: Vec<u64>,
    /// `n` Z columns of `2 * half` words, qubit-major.
    z: Vec<u64>,
    /// The sign column: bit set = the row carries a −1 phase.
    r: Vec<u64>,
    /// Measurement scratch: the rows a random measurement multiplies, or
    /// (first half) the stabilizers a product selects.
    mask: Vec<u64>,
    /// Measurement scratch: low and high bits of the per-row mod-4 phase
    /// counter of a random measurement.
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Measurement scratch: the indices of the non-zero words of `mask`.
    live: Vec<usize>,
    /// `col_of[q]` is the storage column of qubit `q`.
    col_of: Vec<u32>,
    /// `qubit_at[c]` is the qubit stored in column `c` (the inverse of
    /// `col_of`).
    qubit_at: Vec<u32>,
    /// `entangled[c]` is set once storage column `c` may hold bits outside
    /// destabilizer and stabilizer row `c`: it was an operand column of a
    /// CNOT or CZ, or the measured column of a random measurement. A SWAP
    /// moves no bit, so it marks nothing.
    entangled: Vec<bool>,
    /// The set entries of `entangled`, in marking order.
    entangled_cols: Vec<u32>,
    /// Collapse scratch: the columns a random measurement rewrites.
    touched: Vec<u32>,
}

/// The columns `a` and `b` (`a != b`) of a qubit-major bit matrix with
/// `cw` words per column, borrowed mutably together.
fn two_columns(v: &mut [u64], a: u32, b: u32, cw: usize) -> (&mut [u64], &mut [u64]) {
    let (a, b) = (a as usize * cw, b as usize * cw);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a..a + cw], &mut hi[..cw])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[..cw], &mut lo[b..b + cw])
    }
}

impl Tableau {
    /// `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let half = words_for(n);
        let cw = 2 * half;
        let mut t = Tableau {
            n,
            half,
            x: vec![0; n as usize * cw],
            z: vec![0; n as usize * cw],
            r: vec![0; cw],
            mask: vec![0; cw],
            lo: vec![0; cw],
            hi: vec![0; cw],
            live: Vec::with_capacity(cw),
            col_of: Vec::new(),
            qubit_at: Vec::new(),
            entangled: vec![false; n as usize],
            entangled_cols: Vec::new(),
            touched: Vec::new(),
        };
        t.reset();
        t
    }

    /// Returns the tableau to `|0…0⟩`, every qubit in its own column,
    /// without reallocating.
    pub(crate) fn reset(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.r.fill(0);
        let cw = 2 * self.half;
        for q in 0..self.n as usize {
            let bit = 1u64 << (q % 64);
            self.x[q * cw + q / 64] |= bit; // destabilizer q = X_q
            self.z[q * cw + self.half + q / 64] |= bit; // stabilizer q = Z_q
        }
        self.col_of.clear();
        self.col_of.extend(0..self.n);
        self.qubit_at.clear();
        self.qubit_at.extend(0..self.n);
        for c in self.entangled_cols.drain(..) {
            self.entangled[c as usize] = false;
        }
    }

    /// Marks storage column `c` entangled.
    fn entangle(&mut self, c: u32) {
        if !std::mem::replace(&mut self.entangled[c as usize], true) {
            self.entangled_cols.push(c);
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// Words per column.
    fn cw(&self) -> usize {
        2 * self.half
    }

    /// The word range of qubit `q`'s column.
    fn column(&self, q: u32) -> std::ops::Range<usize> {
        assert!(q < self.n, "qubit out of range");
        let (c, cw) = (self.col_of[q as usize] as usize, self.cw());
        c * cw..(c + 1) * cw
    }

    /// Hadamard on `q`: swaps the X and Z columns, flipping signs of rows
    /// where both are set (Y → −Y).
    pub fn h(&mut self, q: u32) {
        let col = self.column(q);
        let rows = self.x[col.clone()].iter_mut().zip(&mut self.z[col]);
        for ((x, z), r) in rows.zip(&mut self.r) {
            *r ^= *x & *z;
            std::mem::swap(x, z);
        }
    }

    /// Phase gate S on `q`: X → Y, Y → −X.
    pub fn s(&mut self, q: u32) {
        let col = self.column(q);
        let rows = self.x[col.clone()].iter().zip(&mut self.z[col]);
        for ((x, z), r) in rows.zip(&mut self.r) {
            *r ^= x & *z;
            *z ^= x;
        }
    }

    /// Inverse phase gate on `q`: X → −Y, Y → X.
    pub fn sdg(&mut self, q: u32) {
        let col = self.column(q);
        let rows = self.x[col.clone()].iter().zip(&mut self.z[col]);
        for ((x, z), r) in rows.zip(&mut self.r) {
            *r ^= x & !*z;
            *z ^= x;
        }
    }

    /// Pauli-X on `q` (flips the sign of Z- and Y-carrying rows).
    pub fn x(&mut self, q: u32) {
        let col = self.column(q);
        for (z, r) in self.z[col].iter().zip(&mut self.r) {
            *r ^= z;
        }
    }

    /// Pauli-Z on `q` (flips the sign of X- and Y-carrying rows).
    pub fn z(&mut self, q: u32) {
        let col = self.column(q);
        for (x, r) in self.x[col].iter().zip(&mut self.r) {
            *r ^= x;
        }
    }

    /// Pauli-Y on `q` (flips the sign of X- and Z-carrying rows).
    pub fn y(&mut self, q: u32) {
        let col = self.column(q);
        let rows = self.x[col.clone()].iter().zip(&self.z[col]);
        for ((x, z), r) in rows.zip(&mut self.r) {
            *r ^= x ^ z;
        }
    }

    /// CNOT with control `c`, target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cnot(&mut self, c: u32, t: u32) {
        assert_ne!(c, t, "cnot operands must differ");
        let (c, t, cw) = (self.col_of[c as usize], self.col_of[t as usize], self.cw());
        let (xc, xt) = two_columns(&mut self.x, c, t, cw);
        let (zc, zt) = two_columns(&mut self.z, c, t, cw);
        let rows = xc.iter().zip(xt).zip(zc.iter_mut().zip(zt.iter()));
        for (((xc, xt), (zc, zt)), r) in rows.zip(&mut self.r) {
            *r ^= xc & zt & !(*xt ^ *zc);
            *xt ^= xc;
            *zc ^= zt;
        }
        self.entangle(c);
        self.entangle(t);
    }

    /// CZ (symmetric): X_a → X_a Z_b, X_b → Z_a X_b.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(&mut self, a: u32, b: u32) {
        assert_ne!(a, b, "cz operands must differ");
        let (a, b, cw) = (self.col_of[a as usize], self.col_of[b as usize], self.cw());
        let (xa, xb) = two_columns(&mut self.x, a, b, cw);
        let (za, zb) = two_columns(&mut self.z, a, b, cw);
        let rows = xa.iter().zip(xb.iter()).zip(za.iter_mut().zip(zb));
        for (((xa, xb), (za, zb)), r) in rows.zip(&mut self.r) {
            *r ^= xa & xb & (*za ^ *zb);
            *za ^= xb;
            *zb ^= xa;
        }
        self.entangle(a);
        self.entangle(b);
    }

    /// SWAP: exchanges the two qubits' storage columns by relabeling, in
    /// O(1). No word moves, so no column becomes entangled.
    pub fn swap(&mut self, a: u32, b: u32) {
        let (a, b) = (a as usize, b as usize);
        self.col_of.swap(a, b);
        self.qubit_at[self.col_of[a] as usize] = a as u32;
        self.qubit_at[self.col_of[b] as usize] = b as u32;
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// If the outcome is random (some stabilizer generator anticommutes
    /// with `Z_q`), the state collapses onto `desired` and the result is
    /// marked non-determined. If the outcome is forced, `desired` is
    /// ignored and the forced value is returned.
    pub fn measure(&mut self, q: u32, desired: bool) -> MeasureOutcome {
        self.measure_by(q, desired, Self::gather_touched)
    }

    /// [`Tableau::measure`] with the columns a random outcome rewrites
    /// chosen by `gather(self, q, pw, pm)`, which fills `touched`.
    fn measure_by(
        &mut self,
        q: u32,
        desired: bool,
        gather: fn(&mut Self, u32, usize, u64),
    ) -> MeasureOutcome {
        let col = self.column(q).start;
        // A stabilizer row with an X component on q anticommutes with Z_q:
        // the outcome is random. The first such row is the pivot.
        let pivot = (self.half..self.cw()).find(|&w| self.x[col + w] != 0);
        match pivot {
            Some(pw) => {
                let pm = 1u64 << self.x[col + pw].trailing_zeros();
                gather(self, q, pw, pm);
                self.collapse(q, pw, pm, desired);
                MeasureOutcome {
                    value: desired,
                    determined: false,
                }
            }
            None => {
                // Determined: Z_q = ± the product of the stabilizers whose
                // destabilizers anticommute with Z_q (have X on q); the
                // product's sign is the outcome.
                let half = self.half;
                self.mask[..half].copy_from_slice(&self.x[col..col + half]);
                MeasureOutcome {
                    value: self.stabilizer_product(|_, _, _| {}),
                    determined: true,
                }
            }
        }
    }

    /// Fills `touched` with the storage columns a random measurement of
    /// `q` with the pivot at bit `pm` of word `pw` rewrites: the entangled
    /// columns (`q`'s column marked first) where the pivot or its
    /// destabilizer is not the identity.
    ///
    /// No other column can qualify. One-qubit gates keep a column's bits
    /// on their rows and a SWAP moves none, so a storage column `c` that
    /// is not entangled holds bits only in destabilizer and stabilizer row
    /// `c`, and its X and Z columns restricted to those two rows are
    /// linearly independent (they anticommute). Every other column
    /// commutes with both in the column-wise symplectic form, so it is
    /// zero on those two rows: stabilizer `c` acts on column `c` alone,
    /// and is the pivot (X in the measured column) only if `c` is `q`'s
    /// column, which is marked. Any other pivot and its destabilizer are
    /// a row pair other than `c`'s, with no bit in column `c`.
    fn gather_touched(&mut self, q: u32, pw: usize, pm: u64) {
        let (dw, cw) = (pw - self.half, self.cw());
        self.entangle(self.col_of[q as usize]);
        self.touched.clear();
        for &c in &self.entangled_cols {
            let base = c as usize * cw;
            let (p, d) = (base + pw, base + dw);
            if (self.x[p] | self.z[p] | self.x[d] | self.z[d]) & pm != 0 {
                self.touched.push(c);
            }
        }
    }

    /// The random-outcome update of [`Tableau::measure`] with the pivot
    /// at bit `pm` of word `pw`, over the columns in `touched`: multiplies
    /// the pivot into every other row with X on `q` (`row ← pivot · row`),
    /// moves it to its destabilizer slot, and replaces it with `±Z_q`
    /// carrying the outcome.
    fn collapse(&mut self, q: u32, pw: usize, pm: u64, desired: bool) {
        let (half, cw) = (self.half, self.cw());
        let dw = pw - half;
        let col = self.column(q).start;
        self.live.clear();
        for w in 0..cw {
            let rows = self.x[col + w] & if w == pw { !pm } else { !0 };
            self.mask[w] = rows;
            if rows != 0 {
                self.live.push(w);
            }
        }
        for &c in &self.touched {
            let base = c as usize * cw;
            let px = self.x[base + pw] & pm != 0;
            let pz = self.z[base + pw] & pm != 0;
            if px || pz {
                for &w in &self.live {
                    let m = self.mask[w];
                    let (x, z) = (self.x[base + w], self.z[base + w]);
                    // The ±i the pivot's Pauli picks up against each row's:
                    // X·Y, Y·Z, Z·X give +i; X·Z, Y·X, Z·Y give −i.
                    let (plus, minus) = match (px, pz) {
                        (true, false) => (x & z, !x & z),
                        (true, true) => (!x & z, x & !z),
                        _ => (x & !z, x & z),
                    };
                    let (plus, minus) = (plus & m, minus & m);
                    // Two-bit counters (hi, lo): +1 on `plus`, −1 on `minus`.
                    self.hi[w] ^= self.lo[w] & plus;
                    self.lo[w] ^= plus;
                    self.hi[w] ^= !self.lo[w] & minus;
                    self.lo[w] ^= minus;
                    if px {
                        self.x[base + w] ^= m;
                    }
                    if pz {
                        self.z[base + w] ^= m;
                    }
                }
            }
            // The old pivot becomes the destabilizer of the new generator.
            for v in [&mut self.x, &mut self.z] {
                let bit = v[base + pw] & pm;
                v[base + dw] = (v[base + dw] & !pm) | bit;
                v[base + pw] &= !pm;
            }
        }
        // Sign of pivot · row: the two signs, times −1 when the ±i factors
        // sum to 2 mod 4 (the counter's high bit).
        let rp = if self.r[pw] & pm != 0 { !0 } else { 0 };
        for &w in &self.live {
            // Destabilizer rows can pick up an imaginary phase here; their
            // signs are never read, so only stabilizer rows must stay real.
            debug_assert!(
                w < half || self.lo[w] == 0,
                "row product produced an imaginary phase on a stabilizer"
            );
            self.r[w] ^= (rp & self.mask[w]) ^ self.hi[w];
            self.lo[w] = 0;
            self.hi[w] = 0;
        }
        self.r[dw] = (self.r[dw] & !pm) | (self.r[pw] & pm);
        self.r[pw] = (self.r[pw] & !pm) | if desired { pm } else { 0 };
        self.z[col + pw] |= pm;
    }

    /// Multiplies the stabilizer rows selected by the first half of `mask`
    /// (bit `i` of word `w` selects stabilizer `64w + i`) column by column.
    /// Calls `visit(q, x, z)` with the product's Pauli on every qubit (in
    /// storage order; the phase is a product over columns) and
    /// returns `true` if the product carries a −1 sign.
    ///
    /// The rows commute, so the product is Hermitian and its phase real.
    /// Per column, writing each Pauli as `i^(xz) X^x Z^z` and moving every
    /// X left of every Z gives the exponent of `i`:
    /// `#Y + 2·#{r < s : z_r x_s} − x·z` of the product, all mod 4.
    fn stabilizer_product(&mut self, mut visit: impl FnMut(u32, bool, bool)) -> bool {
        let (half, cw) = (self.half, self.cw());
        self.live.clear();
        self.live.extend((0..half).filter(|&w| self.mask[w] != 0));
        let mut e = 0u32;
        for &w in &self.live {
            e = e.wrapping_add(2 * (self.r[half + w] & self.mask[w]).count_ones());
        }
        for c in 0..self.n {
            let base = c as usize * cw + half;
            // `before` is all ones iff z has odd parity in earlier words.
            let (mut xs, mut zs, mut pairs, mut before) = (0u32, 0u32, 0u32, 0u64);
            for &w in &self.live {
                let m = self.mask[w];
                let (x, z) = (self.x[base + w] & m, self.z[base + w] & m);
                if x | z == 0 {
                    continue;
                }
                e = e.wrapping_add((x & z).count_ones());
                // Bit s of `prefix` is the parity of z over bits 0..=s.
                let mut prefix = z;
                for k in [1, 2, 4, 8, 16, 32] {
                    prefix ^= prefix << k;
                }
                pairs ^= (x & ((prefix << 1) ^ before)).count_ones();
                if z.count_ones() & 1 == 1 {
                    before = !before;
                }
                xs ^= x.count_ones();
                zs ^= z.count_ones();
            }
            let (x, z) = (xs & 1 == 1, zs & 1 == 1);
            e = e.wrapping_add(2 * (pairs & 1) + if x && z { 3 } else { 0 });
            visit(self.qubit_at[c as usize], x, z);
        }
        debug_assert!(e & 1 == 0, "product of commuting rows is not Hermitian");
        e & 2 != 0
    }

    /// Extracts stabilizer generator `i` (`0 ≤ i < n`) as a
    /// [`PauliString`].
    pub fn stabilizer(&self, i: u32) -> PauliString {
        assert!(i < self.n, "generator index out of range");
        let (w, bit) = (self.half + i as usize / 64, 1u64 << (i % 64));
        let mut p = PauliString::identity(self.n);
        for q in 0..self.n {
            let at = self.column(q).start + w;
            if self.x[at] & bit != 0 {
                p.set_x(q);
            }
            if self.z[at] & bit != 0 {
                p.set_z(q);
            }
        }
        p.neg = self.r[w] & bit != 0;
        p
    }

    /// Tests whether the signed Pauli string `p` stabilizes the state.
    ///
    /// Decomposes `p` over the generators using the destabilizer pairing
    /// (generator `i` appears in the product iff `p` anticommutes with
    /// destabilizer `i`), multiplies those generators column by column,
    /// and compares. `O(n·⌈n/64⌉)` words per call.
    ///
    /// # Panics
    ///
    /// Panics if `p` is on a different number of qubits.
    pub fn membership(&mut self, p: &PauliString) -> Membership {
        assert_eq!(p.n, self.n, "pauli width mismatch");
        let half = self.half;
        self.mask[..half].fill(0);
        for q in 0..self.n {
            let base = self.column(q).start;
            // p's X anticommutes with a destabilizer's Z, p's Z with its X.
            if p.x_bit(q) {
                for w in 0..half {
                    self.mask[w] ^= self.z[base + w];
                }
            }
            if p.z_bit(q) {
                for w in 0..half {
                    self.mask[w] ^= self.x[base + w];
                }
            }
        }
        let mut same_paulis = true;
        let neg = self.stabilizer_product(|q, x, z| {
            same_paulis &= x == p.x_bit(q) && z == p.z_bit(q);
        });
        if !same_paulis {
            Membership::NotIn
        } else if neg == p.neg {
            Membership::In
        } else {
            Membership::InWithWrongSign
        }
    }

    /// `true` iff the state is `|0…0⟩`: every stabilizer generator is
    /// X-free with a `+` sign, so the generators span `{+Z_S}`.
    /// `O(n·⌈n/64⌉)` words.
    pub(crate) fn is_zero_state(&self) -> bool {
        let (half, cw) = (self.half, self.cw());
        self.r[half..].iter().all(|&w| w == 0)
            && self
                .x
                .chunks_exact(cw)
                .all(|col| col[half..].iter().all(|&w| w == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_circuit::benchmarks::random_clifford;
    use mech_circuit::{Circuit, Gate, OneQubitGate, TwoQubitKind};

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

    /// Applies `c`'s gates (measurements skipped), or undoes them: the
    /// gates in reverse with S and Sdg exchanged.
    fn run_gates(t: &mut Tableau, c: &Circuit, inverse: bool) {
        let mut gates: Vec<&Gate> = c.gates().iter().collect();
        if inverse {
            gates.reverse();
        }
        for gate in gates {
            match *gate {
                Gate::One { gate, q } => match gate {
                    OneQubitGate::H => t.h(q.0),
                    OneQubitGate::X => t.x(q.0),
                    OneQubitGate::Y => t.y(q.0),
                    OneQubitGate::Z => t.z(q.0),
                    OneQubitGate::S if inverse => t.sdg(q.0),
                    OneQubitGate::S => t.s(q.0),
                    OneQubitGate::Sdg if inverse => t.s(q.0),
                    OneQubitGate::Sdg => t.sdg(q.0),
                    _ => unreachable!("random_clifford is clifford"),
                },
                Gate::Two { kind, a, b, .. } => match kind {
                    TwoQubitKind::Cnot => t.cnot(a.0, b.0),
                    TwoQubitKind::Cz => t.cz(a.0, b.0),
                    _ => unreachable!("random_clifford emits cnot/cz only"),
                },
                Gate::Measure { .. } => {}
            }
        }
    }

    /// Widths on both sides of the 64-row word boundaries of a column.
    const BOUNDARY_WIDTHS: [u32; 7] = [31, 32, 33, 63, 64, 65, 100];

    #[test]
    fn clifford_then_inverse_leaves_determined_zeros_across_word_boundaries() {
        for n in BOUNDARY_WIDTHS {
            let c = random_clifford(n, 8 * n as usize, u64::from(n));
            let mut t = Tableau::new(n);
            run_gates(&mut t, &c, false);
            assert!(!t.is_zero_state(), "n = {n}: the circuit entangles");
            run_gates(&mut t, &c, true);
            assert!(t.is_zero_state(), "n = {n}");
            for q in 0..n {
                let m = t.measure(q, true);
                assert!(m.determined && !m.value, "n = {n}, qubit {q}: {m:?}");
            }
        }
    }

    #[test]
    fn ghz_chain_across_word_boundaries_is_correlated() {
        for n in BOUNDARY_WIDTHS {
            for branch in [false, true] {
                let mut t = Tableau::new(n);
                t.h(0);
                for q in 1..n {
                    t.cnot(q - 1, q);
                }
                let mut all_x = PauliString::identity(n);
                for q in 0..n {
                    all_x.set_x(q);
                }
                assert_eq!(t.membership(&all_x), Membership::In, "n = {n}");
                let mut ends = zq(n, 0);
                ends.set_z(n - 1);
                assert_eq!(t.membership(&ends), Membership::In, "n = {n}");
                let m = t.measure(n - 1, branch);
                assert!(!m.determined, "n = {n}");
                for q in 0..n - 1 {
                    let m = t.measure(q, !branch);
                    assert!(m.determined, "n = {n}, qubit {q}");
                    assert_eq!(m.value, branch, "n = {n}, qubit {q}");
                }
            }
        }
    }

    /// The reference collapse: rewrites every column, as the tableau did
    /// before it tracked entangled columns.
    fn all_columns(t: &mut Tableau, _: u32, _: usize, _: u64) {
        t.touched.clear();
        t.touched.extend(0..t.n);
    }

    /// The reference SWAP: exchanges the two qubits' columns word by word
    /// and marks both entangled, as the tableau did before SWAP relabeled.
    fn swap_columns(t: &mut Tableau, a: u32, b: u32) {
        if a == b {
            return;
        }
        let (a, b, cw) = (t.col_of[a as usize], t.col_of[b as usize], t.cw());
        let (xa, xb) = two_columns(&mut t.x, a, b, cw);
        xa.swap_with_slice(xb);
        let (za, zb) = two_columns(&mut t.z, a, b, cw);
        za.swap_with_slice(zb);
        t.entangle(a);
        t.entangle(b);
    }

    /// Drives a tableau and a reference through the same operations; the
    /// reference swaps by exchanging columns and collapses every column.
    /// After each operation the two must hold the same generators per
    /// qubit (every stabilizer and destabilizer, signs included), and on
    /// sampled rows agree on `stabilizer` and `membership`; measurements
    /// must agree on the outcome.
    struct Differential {
        t: Tableau,
        reference: Tableau,
        /// Draws the sampled rows and signs of the per-operation checks.
        state: u64,
        random: u32,
        determined: u32,
    }

    impl Differential {
        fn new(n: u32) -> Self {
            Differential {
                t: Tableau::new(n),
                reference: Tableau::new(n),
                state: 0x9e37_79b9_7f4a_7c15 ^ u64::from(n),
                random: 0,
                determined: 0,
            }
        }

        fn apply(&mut self, op: impl Fn(&mut Tableau)) {
            op(&mut self.t);
            op(&mut self.reference);
            self.check("after a gate");
        }

        fn swap(&mut self, a: u32, b: u32) {
            self.t.swap(a, b);
            swap_columns(&mut self.reference, a, b);
            self.check("after a swap");
        }

        fn reset(&mut self) {
            self.t.reset();
            self.reference.reset();
            self.check("after a reset");
        }

        fn measure(&mut self, q: u32, desired: bool) {
            let got = self.t.measure(q, desired);
            let want = self.reference.measure_by(q, desired, all_columns);
            let n = self.t.n;
            assert_eq!(got, want, "n = {n}, qubit {q}");
            self.check("after a measurement");
            if got.determined {
                self.determined += 1;
            } else {
                self.random += 1;
            }
        }

        fn check(&mut self, when: &str) {
            let n = self.t.n;
            let (t, reference) = (&mut self.t, &mut self.reference);
            let same_columns = (0..n).all(|q| {
                let (c, rc) = (t.column(q), reference.column(q));
                t.x[c.clone()] == reference.x[rc.clone()] && t.z[c] == reference.z[rc]
            });
            assert!(
                same_columns && t.r == reference.r,
                "n = {n}: tableau diverged {when}"
            );
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let i = (self.state % u64::from(n)) as u32;
            let mut g = reference.stabilizer(i);
            assert_eq!(t.stabilizer(i), g, "n = {n}: stabilizer {i} {when}");
            g.neg ^= self.state & 1 << 40 != 0;
            let want = reference.membership(&g);
            assert_eq!(t.membership(&g), want, "n = {n}: membership of {g} {when}");
        }
    }

    #[test]
    fn entangled_column_collapse_matches_the_all_columns_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for n in [1u32, 2, 63, 64, 65, 130, 681] {
            let mut rng = StdRng::seed_from_u64(u64::from(n));
            let mut d = Differential::new(n);
            // Half the draws land on a few hot qubits, so entanglement
            // builds up there while most of a wide tableau stays untouched.
            let hot = n.min(6);
            let qubit = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..n)
                }
            };
            let mut swaps = 0;
            for _ in 0..6000 {
                let (a, b) = (qubit(&mut rng), qubit(&mut rng));
                match rng.gen_range(0..14) {
                    0 => d.apply(|t| t.h(a)),
                    1 => d.apply(|t| t.s(a)),
                    2 => d.apply(|t| t.sdg(a)),
                    3 => d.apply(|t| t.x(a)),
                    4 => d.apply(|t| t.y(a)),
                    5 => d.apply(|t| t.z(a)),
                    6 if a != b => d.apply(|t| t.cnot(a, b)),
                    7 if a != b => d.apply(|t| t.cz(a, b)),
                    8 => {
                        d.swap(a, b);
                        swaps += 1;
                    }
                    9 if rng.gen_range(0..40) == 0 => d.reset(),
                    6..=9 => d.apply(|t| t.h(a)),
                    _ => d.measure(a, rng.gen_bool(0.5)),
                }
            }
            assert!(d.random > 0 && d.determined > 0, "n = {n}: both kinds");
            assert!(swaps > 0, "n = {n}: the stream swaps");
        }
    }

    #[test]
    fn hadamard_then_measure_on_a_never_entangled_qubit() {
        for desired in [false, true] {
            let mut d = Differential::new(65);
            d.apply(|t| {
                t.h(0);
                t.cnot(0, 1);
                t.h(64);
            });
            d.measure(64, desired);
            d.measure(64, !desired);
            d.measure(1, desired);
            assert_eq!((d.random, d.determined), (2, 1));
        }
    }

    #[test]
    fn swap_of_a_never_entangled_qubit_with_an_entangled_one() {
        // Either operand order: the never-entangled qubit 2 receives half
        // of the Bell pair, and measuring the other half must rewrite it.
        for (a, b) in [(1, 2), (2, 1)] {
            let mut d = Differential::new(3);
            d.apply(|t| {
                t.h(0);
                t.cnot(0, 1);
            });
            d.swap(a, b);
            d.measure(0, true);
            d.measure(2, false);
            assert_eq!((d.random, d.determined), (1, 1));
        }
    }

    #[test]
    fn swap_chain_then_entangle_and_measure() {
        // Qubits travel through several relabels before and after they
        // entangle; the measured qubit's column is never its own.
        for desired in [false, true] {
            let mut d = Differential::new(70);
            for (a, b) in [(0, 65), (65, 3), (3, 3), (3, 69)] {
                d.swap(a, b);
            }
            d.apply(|t| {
                t.h(69);
                t.cnot(69, 0);
                t.cz(0, 64);
            });
            d.swap(0, 64);
            d.measure(64, desired);
            d.measure(69, !desired);
            d.measure(0, desired);
            assert_eq!((d.random, d.determined), (1, 2));
        }
    }

    #[test]
    fn measurement_right_after_reset() {
        let mut d = Differential::new(4);
        d.apply(|t| {
            t.h(0);
            t.cnot(0, 1);
        });
        d.swap(1, 2);
        d.measure(0, true);
        for q in 0..3 {
            d.reset();
            d.apply(|t| t.h(q));
            d.measure(q, false);
            d.apply(|t| t.h(q));
            d.measure(q, true);
        }
    }

    #[test]
    fn stabilizer_and_membership_agree_across_word_boundaries() {
        for n in BOUNDARY_WIDTHS {
            let c = random_clifford(n, 8 * n as usize, u64::from(n) + 1000);
            let mut t = Tableau::new(n);
            run_gates(&mut t, &c, false);
            // Collapse a spread of qubits so rows span several words.
            for q in (0..n).step_by(7) {
                let m = t.measure(q, q % 2 == 1);
                let again = t.measure(q, !m.value);
                assert!(again.determined && again.value == m.value, "n = {n}");
            }
            for i in 0..n {
                let mut g = t.stabilizer(i);
                assert_eq!(t.membership(&g), Membership::In, "n = {n}, {g}");
                g.neg = !g.neg;
                assert_eq!(t.membership(&g), Membership::InWithWrongSign);
            }
            let mut x0 = PauliString::identity(n);
            x0.set_x(0);
            assert_eq!(t.membership(&x0), Membership::NotIn, "qubit 0 is collapsed");
        }
    }
}
