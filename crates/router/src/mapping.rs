use mech_chiplet::PhysQubit;
use mech_circuit::Qubit;

/// The logical-to-physical qubit assignment.
///
/// Logical (data) qubits of the program are placed on a subset of the
/// physical qubits; SWAPs exchange the contents of two physical positions.
/// Physical qubits may be unoccupied (ancillas, or spare data slots).
///
/// # Example
///
/// ```
/// use mech_chiplet::PhysQubit;
/// use mech_circuit::Qubit;
/// use mech_router::Mapping;
///
/// let mut m = Mapping::trivial(2, &[PhysQubit(5), PhysQubit(9), PhysQubit(11)]);
/// assert_eq!(m.phys(Qubit(0)), PhysQubit(5));
/// m.swap_phys(PhysQubit(5), PhysQubit(11));
/// assert_eq!(m.phys(Qubit(0)), PhysQubit(11));
/// assert_eq!(m.logical(PhysQubit(5)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    log_to_phys: Vec<PhysQubit>,
    phys_to_log: Vec<Option<Qubit>>,
}

impl Mapping {
    /// Places logical qubit `i` on `slots[i]`.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer slots than logical qubits or `slots`
    /// repeats a physical qubit.
    pub fn trivial(num_logical: u32, slots: &[PhysQubit]) -> Self {
        assert!(
            slots.len() >= num_logical as usize,
            "need at least {num_logical} physical slots, got {}",
            slots.len()
        );
        let max_phys = slots.iter().map(|q| q.0).max().unwrap_or(0);
        let mut phys_to_log = vec![None; max_phys as usize + 1];
        let mut log_to_phys = Vec::with_capacity(num_logical as usize);
        for (i, &p) in slots.iter().take(num_logical as usize).enumerate() {
            assert!(phys_to_log[p.index()].is_none(), "slot {p} assigned twice");
            phys_to_log[p.index()] = Some(Qubit(i as u32));
            log_to_phys.push(p);
        }
        Mapping {
            log_to_phys,
            phys_to_log,
        }
    }

    /// The physical position of logical qubit `q`.
    pub fn phys(&self, q: Qubit) -> PhysQubit {
        self.log_to_phys[q.index()]
    }

    /// The logical qubit at physical position `p`, if occupied.
    pub fn logical(&self, p: PhysQubit) -> Option<Qubit> {
        self.phys_to_log.get(p.index()).copied().flatten()
    }

    /// Exchanges the contents of two physical positions (either or both
    /// may be unoccupied).
    pub fn swap_phys(&mut self, a: PhysQubit, b: PhysQubit) {
        let hi = a.index().max(b.index());
        if hi >= self.phys_to_log.len() {
            self.phys_to_log.resize(hi + 1, None);
        }
        let la = self.phys_to_log[a.index()];
        let lb = self.phys_to_log[b.index()];
        self.phys_to_log[a.index()] = lb;
        self.phys_to_log[b.index()] = la;
        if let Some(l) = la {
            self.log_to_phys[l.index()] = b;
        }
        if let Some(l) = lb {
            self.log_to_phys[l.index()] = a;
        }
    }

    /// Verifies internal consistency (both directions agree); used by
    /// property tests.
    pub fn is_consistent(&self) -> bool {
        self.log_to_phys
            .iter()
            .enumerate()
            .all(|(l, &p)| self.phys_to_log[p.index()] == Some(Qubit(l as u32)))
            && self
                .phys_to_log
                .iter()
                .enumerate()
                .filter_map(|(p, l)| l.map(|l| (p, l)))
                .all(|(p, l)| self.log_to_phys[l.index()] == PhysQubit(p as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_mapping_round_trips() {
        let slots: Vec<PhysQubit> = (0..5).map(PhysQubit).collect();
        let m = Mapping::trivial(5, &slots);
        for i in 0..5 {
            assert_eq!(m.phys(Qubit(i)), PhysQubit(i));
            assert_eq!(m.logical(PhysQubit(i)), Some(Qubit(i)));
        }
        assert!(m.is_consistent());
    }

    #[test]
    fn swap_moves_both_occupants() {
        let slots: Vec<PhysQubit> = (0..3).map(PhysQubit).collect();
        let mut m = Mapping::trivial(3, &slots);
        m.swap_phys(PhysQubit(0), PhysQubit(2));
        assert_eq!(m.phys(Qubit(0)), PhysQubit(2));
        assert_eq!(m.phys(Qubit(2)), PhysQubit(0));
        assert!(m.is_consistent());
    }

    #[test]
    fn swap_with_empty_slot_moves_one() {
        let slots = [PhysQubit(0), PhysQubit(1)];
        let mut m = Mapping::trivial(2, &slots);
        m.swap_phys(PhysQubit(1), PhysQubit(7));
        assert_eq!(m.phys(Qubit(1)), PhysQubit(7));
        assert_eq!(m.logical(PhysQubit(1)), None);
        assert_eq!(m.logical(PhysQubit(7)), Some(Qubit(1)));
        assert!(m.is_consistent());
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_slots_panic() {
        Mapping::trivial(2, &[PhysQubit(3), PhysQubit(3)]);
    }

    #[test]
    #[should_panic(expected = "physical slots")]
    fn too_few_slots_panic() {
        Mapping::trivial(3, &[PhysQubit(0)]);
    }
}
