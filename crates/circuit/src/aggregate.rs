//! Aggregation of commutable controlled gates into multi-target gates.
//!
//! The MECH protocol (paper Fig. 3) executes many controlled gates sharing a
//! *control* qubit in a single round over a GHZ state. This module groups
//! ready gates around *hub* qubits:
//!
//! * a CNOT joins a **plain** group at its control, or — conjugated by a
//!   Hadamard on the hub (`CNOT(x, h) = H_h · CZ(x, h) · H_h`) — a
//!   **conjugated** group at its target (this is how shared-target programs
//!   like Bernstein–Vazirani ride the highway);
//! * diagonal gates (CZ, CPhase, RZZ) are symmetric and join a plain group
//!   at either operand.
//!
//! Groups are formed greedily, largest first, mirroring the paper's ranking
//! of aggregated gates by component count.

use crate::circuit::Circuit;
use crate::dag::{set_bits, GateId, GateSet};
use crate::gate::{Gate, TwoQubitKind};
use crate::qubit::Qubit;

/// One 2-qubit component of a [`MultiTargetGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetComponent {
    /// The original gate in the logical circuit.
    pub gate: GateId,
    /// The non-hub operand — the qubit that receives the controlled
    /// operation from the highway.
    pub other: Qubit,
}

/// How the hub couples to the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum GroupKind {
    /// The hub is the control of every component as written.
    #[default]
    Plain,
    /// Components are CNOTs *targeting* the hub; a Hadamard on the hub
    /// before and after the group turns each into a CZ controlled by the
    /// hub.
    Conjugated,
}

/// A set of controlled gates sharing a hub qubit, executable concurrently
/// over one GHZ state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiTargetGate {
    /// The shared control qubit.
    pub hub: Qubit,
    /// Whether the hub needs Hadamard conjugation.
    pub kind: GroupKind,
    /// The components, each touching a distinct non-hub qubit.
    pub components: Vec<TargetComponent>,
}

impl MultiTargetGate {
    /// Number of 2-qubit components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the group has no components (never produced by
    /// [`aggregate_controlled`]).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// A group formed by [`AggregationFront::carve`]: the bucket it was
/// carved from and its size. [`AggregationFront::build`] lists its
/// components, from the front it was carved from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarvedGroup {
    hub: Qubit,
    kind: GroupKind,
    /// How many groups the carve formed before this one.
    rank: u32,
    len: u32,
    /// The front's revision at the carve.
    revision: u64,
}

/// The index of bucket `(hub, kind)`: `2 * hub + kind`, so ascending
/// indices visit hubs ascending, plain before conjugated.
fn bucket_of(hub: Qubit, kind: GroupKind) -> u32 {
    2 * hub.0 + kind as u32
}

/// One bucket entry: a tracked gate and the index of its other bucket,
/// whose hub (`twin >> 1`) is the gate's other operand here.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gate: GateId,
    twin: u32,
}

/// `formed_at` of a bucket that formed no group in the current carve.
const NOT_FORMED: u32 = u32::MAX;

/// A stable counting sort: `out` = `items` by descending `size`, each at
/// most `max`.
fn sort_by_size(
    items: &[u32],
    size: impl Fn(u32) -> usize,
    max: usize,
    slots: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    // slots[i] = the next slot for an item of size `max - i`.
    slots.clear();
    slots.resize(max + 2, 0);
    for &x in items {
        slots[max - size(x) + 1] += 1;
    }
    for i in 1..slots.len() {
        slots[i] += slots[i - 1];
    }
    out.clear();
    out.resize(items.len(), 0);
    for &x in items {
        let slot = &mut slots[max - size(x)];
        out[*slot as usize] = x;
        *slot += 1;
    }
}

/// The single-pair row of bucket `b` for gates whose other bucket is
/// `twin`: three rows per hub, as a conjugated bucket's gates are CNOTs
/// targeting the hub, whose other bucket is always plain.
fn single_row(b: u32, twin: u32) -> usize {
    let (hub, kind) = ((b >> 1) as usize, (b & 1) as usize);
    debug_assert!(
        kind == 0 || twin & 1 == 0,
        "conjugated buckets pair with plain ones"
    );
    3 * hub + 2 * kind + (twin & 1) as usize
}

/// Bit `i` of the bitset that starts at word `row`.
fn bit(bits: &[u64], row: usize, i: usize) -> bool {
    bits[row + i / 64] >> (i % 64) & 1 == 1
}

/// Sets (`on`) or clears bit `i` of the bitset that starts at word `row`.
fn set_bit(bits: &mut [u64], row: usize, i: usize, on: bool) {
    let (w, mask) = (row + i / 64, 1u64 << (i % 64));
    if on {
        bits[w] |= mask;
    } else {
        bits[w] &= !mask;
    }
}

/// Incrementally maintained aggregation candidates over a ready front.
///
/// The compiler calls the greedy grouping once per round, but between
/// consecutive rounds only a handful of gates enter or leave the ready
/// front — rebuilding the per-hub candidate buckets from the whole front
/// every time is the dominant compile cost on all-commuting programs
/// (QAOA readies tens of thousands of gates at once). This structure keeps
/// the buckets alive across rounds:
///
/// * `AggregationFront::insert` / `AggregationFront::remove` maintain,
///   per `(hub, kind)` bucket, a **sorted** list of its gates, plus one
///   bitset of all aggregable and one of all non-aggregable two-qubit
///   gates in the front;
/// * for a gate that is the only tracked gate on its qubit pair (a
///   *single-pair* gate), they also keep its other operand in a per-bucket
///   qubit bitset, split by the kind of the gate's other bucket;
/// * [`AggregationFront::carve`] runs the greedy grouping by counting:
///   see the method for the availability rule that makes it exact.
///
/// # Invariants
///
/// * Every bucket is sorted ascending by [`GateId`] — the same order the
///   per-round rebuild used to produce by scanning the ready set in
///   order — and leftovers come out ascending by bit order, so carving and
///   building are **bit-identical** to [`aggregate_controlled`] on the
///   same front.
/// * A gate is a member of either zero buckets or exactly the buckets its
///   operands admit (its bit in `agg` says which); `insert` and `remove`
///   are idempotent, so suspending a gate (in-flight on the highway) and
///   later completing it is safe.
/// * An aggregable gate is in `multi_gates` iff its qubit pair holds two
///   or more tracked gates; otherwise its other operands are in `single`.
///   `multi[b]` counts bucket `b`'s entries in `multi_gates`.
#[derive(Debug, Clone)]
pub struct AggregationFront {
    /// slots[g] = the two buckets of gate g (`None` for one-qubit,
    /// measurement and non-controlled two-qubit gates).
    slots: Vec<Option<[u32; 2]>>,
    /// two_qubit[g] = whether g is any two-qubit gate.
    two_qubit: Vec<bool>,
    /// Bucket `2 * hub + kind`, ascending by gate.
    buckets: Vec<Vec<Entry>>,
    /// Words per qubit bitset.
    words: usize,
    /// The qubit bitset at word `single_row(b, twin) * words` holds the
    /// other operands of bucket `b`'s single-pair gates whose other bucket
    /// has the kind of bucket `twin`.
    single: Vec<u64>,
    /// multi[b] = entries of bucket `b` on multi-gate pairs.
    multi: Vec<u32>,
    /// Tracked aggregable gates on multi-gate pairs.
    multi_gates: GateSet,
    /// All tracked aggregable gates.
    agg: GateSet,
    /// All tracked non-aggregable two-qubit gates (SWAPs).
    other: GateSet,
    /// Bumped by every insert or remove that changes the tracked set.
    revision: u64,
    // --- carve state, read back by `build` ---
    /// Buckets to visit, largest first; then group ranks, largest first.
    order: Vec<u32>,
    /// Counting-sort input: the buckets to visit, ascending; then the
    /// group ranks, hubs ascending.
    unsorted: Vec<u32>,
    /// Counting-sort slots.
    size_slots: Vec<u32>,
    /// The carved groups, reordered.
    sorted: Vec<CarvedGroup>,
    /// The hub bitsets (row = kind) of the buckets formed so far.
    formed: Vec<u64>,
    /// formed_at[b] = rank of the group bucket `b` formed.
    formed_at: Vec<u32>,
    /// pick_at[g] = 1 + rank of the group that picked
    /// multi-gate-pair gate `g` (0 = unpicked).
    pick_at: Vec<u32>,
    /// The gates with a nonzero `pick_at`.
    picks: Vec<GateId>,
    /// Multi-gate-pair gates the visited bucket would pick.
    tentative: Vec<GateId>,
    /// seen[q] == stamp: the visited bucket already picked a gate on `q`.
    seen: Vec<u64>,
    stamp: u64,
    /// Leftover scratch, one bit per gate, zeroed as it is read out.
    rest: Vec<u64>,
}

impl AggregationFront {
    /// Creates an empty front for `circuit`, precomputing every gate's
    /// bucket memberships.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        let nq = circuit.num_qubits() as usize;
        let words = nq.div_ceil(64);
        let mut slots = Vec::with_capacity(circuit.len());
        let mut two_qubit = Vec::with_capacity(circuit.len());
        for gate in circuit.gates() {
            two_qubit.push(gate.is_two_qubit());
            slots.push(match *gate {
                Gate::Two { kind, a, b, .. } if kind.is_controlled() => {
                    let at_b = match kind {
                        TwoQubitKind::Cnot => GroupKind::Conjugated,
                        _ => GroupKind::Plain,
                    };
                    Some([bucket_of(a, GroupKind::Plain), bucket_of(b, at_b)])
                }
                _ => None,
            });
        }
        AggregationFront {
            slots,
            two_qubit,
            buckets: vec![Vec::new(); 2 * nq],
            words,
            single: vec![0; 3 * nq * words],
            multi: vec![0; 2 * nq],
            multi_gates: GateSet::new(circuit.len()),
            agg: GateSet::new(circuit.len()),
            other: GateSet::new(circuit.len()),
            revision: 0,
            order: Vec::new(),
            unsorted: Vec::new(),
            size_slots: Vec::new(),
            sorted: Vec::new(),
            formed: vec![0; 2 * words],
            formed_at: vec![NOT_FORMED; 2 * nq],
            pick_at: vec![0; circuit.len()],
            picks: Vec::new(),
            tentative: Vec::new(),
            seen: vec![0; nq],
            stamp: 0,
            rest: vec![0; circuit.len().div_ceil(64)],
        }
    }

    /// Adds (`on`) or drops the single-pair bits of a gate in buckets
    /// `[b0, b1]`.
    fn set_single(&mut self, [b0, b1]: [u32; 2], on: bool) {
        for (b, twin) in [(b0, b1), (b1, b0)] {
            let row = single_row(b, twin) * self.words;
            set_bit(&mut self.single, row, (twin >> 1) as usize, on);
        }
    }

    /// Moves gate `g` (buckets `slots`) into (`on`) or out of the
    /// multi-gate-pair set.
    fn set_multi(&mut self, g: GateId, slots: [u32; 2], on: bool) {
        if on {
            self.multi_gates.insert(g);
        } else {
            self.multi_gates.remove(g);
        }
        for b in slots {
            let count = &mut self.multi[b as usize];
            *count = if on { *count + 1 } else { *count - 1 };
        }
    }

    /// Whether pair `{a, b}` holds a single-pair gate: operand `b` in one
    /// of hub `a`'s three single-pair rows.
    fn single_on_pair(&self, a: usize, b: usize) -> bool {
        (3 * a..3 * a + 3).any(|row| bit(&self.single, row * self.words, b))
    }

    /// Whether the qubit pair of buckets `slots`, which holds no
    /// single-pair gate, holds tracked gates (so two or more). Both hubs
    /// then have multi-gate-pair entries, which fronts without such pairs
    /// never do, so those never read a bucket here.
    fn multi_on_pair(&self, slots: [u32; 2]) -> bool {
        let has_multi = |q: u32| self.multi[2 * q as usize] + self.multi[2 * q as usize + 1] > 0;
        has_multi(slots[0] >> 1)
            && has_multi(slots[1] >> 1)
            && self.pair_gates(slots).next().is_some()
    }

    /// The tracked gates on the qubit pair of buckets `[b0, b1]`, read
    /// from whichever operand's two buckets are shorter.
    fn pair_gates(&self, [b0, b1]: [u32; 2]) -> impl Iterator<Item = GateId> + '_ {
        let span = |q: u32| 2 * q as usize..2 * q as usize + 2;
        let len = |q: u32| self.buckets[span(q)].iter().map(Vec::len).sum::<usize>();
        let (hub, other) = if len(b0 >> 1) <= len(b1 >> 1) {
            (b0 >> 1, b1 >> 1)
        } else {
            (b1 >> 1, b0 >> 1)
        };
        self.buckets[span(hub)]
            .iter()
            .flatten()
            .filter(move |e| e.twin >> 1 == other)
            .map(|e| e.gate)
    }

    /// Starts tracking a ready two-qubit gate. One-qubit gates and
    /// measurements are ignored; re-inserting a tracked gate is a no-op.
    pub(crate) fn insert(&mut self, id: GateId) {
        match self.slots[id.index()] {
            Some(slots) if self.agg.insert(id) => {
                self.revision += 1;
                let (a, b) = ((slots[0] >> 1) as usize, (slots[1] >> 1) as usize);
                if self.single_on_pair(a, b) {
                    // The pair's one tracked gate gets company.
                    let prev = self.pair_gates(slots).next().expect("pair is tracked");
                    let prev_slots = self.slots[prev.index()].expect("tracked gate");
                    self.set_single(prev_slots, false);
                    self.set_multi(prev, prev_slots, true);
                    self.set_multi(id, slots, true);
                } else if self.multi_on_pair(slots) {
                    self.set_multi(id, slots, true);
                } else {
                    self.set_single(slots, true);
                }
                for (b, twin) in [(slots[0], slots[1]), (slots[1], slots[0])] {
                    let bucket = &mut self.buckets[b as usize];
                    let pos = bucket.partition_point(|e| e.gate < id);
                    bucket.insert(pos, Entry { gate: id, twin });
                }
            }
            None if self.two_qubit[id.index()] => {
                self.revision += u64::from(self.other.insert(id));
            }
            _ => {}
        }
    }

    /// Stops tracking a gate (completed, or suspended while in flight on
    /// the highway). Removing an untracked gate is a no-op.
    pub(crate) fn remove(&mut self, id: GateId) {
        match self.slots[id.index()] {
            Some(slots) if self.agg.remove(id) => {
                self.revision += 1;
                for b in slots {
                    let bucket = &mut self.buckets[b as usize];
                    let pos = bucket.partition_point(|e| e.gate < id);
                    debug_assert_eq!(bucket[pos].gate, id, "gate {id:?} missing from bucket");
                    bucket.remove(pos);
                }
                if self.multi_gates.contains(id) {
                    self.set_multi(id, slots, false);
                    let mut rest = self.pair_gates(slots);
                    let (first, second) = (rest.next(), rest.next());
                    drop(rest);
                    if let (Some(last), None) = (first, second) {
                        // The pair is down to one tracked gate.
                        let last_slots = self.slots[last.index()].expect("tracked gate");
                        self.set_multi(last, last_slots, false);
                        self.set_single(last_slots, true);
                    }
                } else {
                    self.set_single(slots, false);
                }
            }
            None => self.revision += u64::from(self.other.remove(id)),
            _ => {}
        }
    }

    /// Counts the inserts and removes that changed the tracked set. Equal
    /// readings bracket no change, so a carve between them would repeat
    /// the previous carve exactly.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Greedily groups the tracked gates into multi-target gates, exactly
    /// as [`aggregate_controlled`] would on the same front: `groups` come
    /// out largest first, `leftovers` holds every tracked two-qubit gate
    /// that joined no group, ascending. Groups smaller than
    /// `min_components` (floored at 2) are not formed; their gates stay
    /// leftovers. [`AggregationFront::build`] lists a group's components.
    ///
    /// The greedy visits buckets from the most to the least populous and
    /// forms each one's group from its still-unassigned gates. A
    /// single-pair gate belongs to exactly two buckets, so when one of
    /// them is visited it is still unassigned iff its other bucket has
    /// not formed a group yet. A bucket's group size is therefore a few
    /// popcounts of its single-pair bitsets against the bitsets of the
    /// hubs formed so far. A bucket that holds gates on a multi-gate pair
    /// is walked entry by entry instead, keeping one gate per other
    /// operand, and records which of those gates it picks.
    pub fn carve(
        &mut self,
        min_components: usize,
        groups: &mut Vec<CarvedGroup>,
        leftovers: &mut Vec<GateId>,
    ) {
        let min = min_components.max(2);
        groups.clear();
        leftovers.clear();
        // Reset the last carve's state: its picks and formed buckets.
        for g in self.picks.drain(..) {
            self.pick_at[g.index()] = 0;
        }
        let w = self.words;
        for (i, word) in self.formed.iter_mut().enumerate() {
            for hub in set_bits(i % w, [std::mem::take(word)].into_iter()) {
                self.formed_at[2 * hub.index() + i / w] = NOT_FORMED;
            }
        }
        self.sort_visit_order(min);

        let Self {
            buckets,
            single,
            multi,
            multi_gates,
            revision,
            order,
            formed,
            formed_at,
            pick_at,
            picks,
            tentative,
            seen,
            stamp,
            ..
        } = self;
        let mut formed_entries = 0;
        for &b in order.iter() {
            let b = b as usize;
            let len = if multi[b] == 0 {
                // A plain bucket's two rows pair with both kinds' formed
                // hubs, a conjugated bucket's one row with the plain ones.
                let row = single_row(b as u32, 0) * w;
                let rows = if b & 1 == 0 { 2 * w } else { w };
                (single[row..row + rows].iter().zip(formed.iter()))
                    .map(|(&s, &f)| (s & !f).count_ones() as usize)
                    .sum()
            } else {
                // A fresh seen-stamp per walk: a multi-gate pair keeps one
                // component.
                *stamp += 1;
                tentative.clear();
                let mut len = 0;
                for e in &buckets[b] {
                    if !multi_gates.contains(e.gate) {
                        len += usize::from(formed_at[e.twin as usize] == NOT_FORMED);
                    } else if pick_at[e.gate.index()] == 0 && seen[(e.twin >> 1) as usize] != *stamp
                    {
                        seen[(e.twin >> 1) as usize] = *stamp;
                        tentative.push(e.gate);
                        len += 1;
                    }
                }
                len
            };
            if len < min {
                continue;
            }
            formed_entries += buckets[b].len();
            let rank = groups.len() as u32;
            formed_at[b] = rank;
            set_bit(formed, (b & 1) * w, b >> 1, true);
            if multi[b] != 0 {
                for &g in tentative.iter() {
                    pick_at[g.index()] = rank + 1;
                    picks.push(g);
                }
            }
            groups.push(CarvedGroup {
                hub: Qubit((b >> 1) as u32),
                kind: if b & 1 == 0 {
                    GroupKind::Plain
                } else {
                    GroupKind::Conjugated
                },
                rank,
                len: len as u32,
                revision: *revision,
            });
        }
        self.sort_groups(groups);

        // Leftovers: every tracked gate that joined no group, ascending by
        // bit order. Read whichever side of the carve is cheaper: the
        // formed buckets, whose single-pair gates all joined a group (theirs
        // or their other bucket's), or the rest, whose single-pair gates
        // joined none iff their other bucket formed none either, at the
        // price of passing every bucket. `rest` collects the joined gates of
        // the one or the leftover gates of the other; multi-gate-pair gates
        // go by their picks.
        let rest_entries = 2 * self.agg.len() - formed_entries;
        let read_formed = formed_entries <= rest_entries + self.buckets.len();
        if read_formed {
            for g in groups.iter() {
                for e in &self.buckets[bucket_of(g.hub, g.kind) as usize] {
                    if !self.multi_gates.contains(e.gate) {
                        set_bit(&mut self.rest, 0, e.gate.index(), true);
                    }
                }
            }
            for g in &self.picks {
                set_bit(&mut self.rest, 0, g.index(), true);
            }
        } else {
            for (b, bucket) in self.buckets.iter().enumerate() {
                if bucket.is_empty() || self.formed_at[b] != NOT_FORMED {
                    continue;
                }
                for e in bucket {
                    if self.formed_at[e.twin as usize] == NOT_FORMED
                        && !self.multi_gates.contains(e.gate)
                    {
                        set_bit(&mut self.rest, 0, e.gate.index(), true);
                    }
                }
            }
            for g in self.multi_gates.iter() {
                if self.pick_at[g.index()] == 0 {
                    set_bit(&mut self.rest, 0, g.index(), true);
                }
            }
        }
        // Joined gates are tracked ones, so `agg ^ rest` drops them from
        // `agg`. Words below both sets' lowest members are zero.
        let agg_mask = if read_formed { u64::MAX } else { 0 };
        let first = self.agg.first_word().min(self.other.first_word());
        let words = (self.rest[first..].iter_mut())
            .zip(&self.agg.words[first..])
            .zip(&self.other.words[first..])
            .map(|((r, &a), &o)| ((a & agg_mask) ^ std::mem::take(r)) | o);
        leftovers.extend(set_bits(first, words));
    }

    /// Fills `order` with the buckets of at least `min` gates, by
    /// descending size and ascending index.
    fn sort_visit_order(&mut self, min: usize) {
        self.unsorted.clear();
        let mut max = 0;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if bucket.len() >= min {
                self.unsorted.push(b as u32);
                max = max.max(bucket.len());
            }
        }
        let buckets = &self.buckets;
        sort_by_size(
            &self.unsorted,
            |b| buckets[b as usize].len(),
            max,
            &mut self.size_slots,
            &mut self.order,
        );
    }

    /// Reorders `groups` (by rank, as formed) by descending size,
    /// ascending hub, and rank on ties, as the greedy ranks them: the
    /// ranks listed by hub, then sorted by size.
    fn sort_groups(&mut self, groups: &mut Vec<CarvedGroup>) {
        if groups.len() < 2 {
            return;
        }
        self.unsorted.clear();
        let w = self.words;
        for word in 0..w {
            let hubs = self.formed[word] | self.formed[w + word];
            for hub in set_bits(word, [hubs].into_iter()) {
                let b = 2 * hub.index();
                let (plain, conjugated) = (self.formed_at[b], self.formed_at[b + 1]);
                self.unsorted.push(plain.min(conjugated));
                if plain.max(conjugated) != NOT_FORMED {
                    self.unsorted.push(plain.max(conjugated));
                }
            }
        }
        let max = groups.iter().map(|g| g.len as usize).max().unwrap_or(0);
        sort_by_size(
            &self.unsorted,
            |rank| groups[rank as usize].len as usize,
            max,
            &mut self.size_slots,
            &mut self.order,
        );
        self.sorted.clear();
        self.sorted
            .extend(self.order.iter().map(|&rank| groups[rank as usize]));
        std::mem::swap(groups, &mut self.sorted);
    }

    /// Lists the components of a group of the last carve into `out`,
    /// ascending by gate: the bucket's single-pair gates whose other bucket
    /// formed later or not at all, and the multi-gate-pair gates the group
    /// picked.
    ///
    /// # Panics
    ///
    /// In debug builds, if the front changed since `group` was carved.
    pub fn build(&self, group: &CarvedGroup, out: &mut MultiTargetGate) {
        debug_assert_eq!(
            group.revision, self.revision,
            "group built from a stale carve"
        );
        out.hub = group.hub;
        out.kind = group.kind;
        out.components.clear();
        let bucket = &self.buckets[bucket_of(group.hub, group.kind) as usize];
        out.components.extend(
            bucket
                .iter()
                .filter(|e| {
                    if self.multi_gates.contains(e.gate) {
                        self.pick_at[e.gate.index()] == group.rank + 1
                    } else {
                        self.formed_at[e.twin as usize] > group.rank
                    }
                })
                .map(|e| TargetComponent {
                    gate: e.gate,
                    other: Qubit(e.twin >> 1),
                }),
        );
        debug_assert_eq!(out.len(), group.len as usize);
    }
}

/// Groups the `ready` gates of `circuit` into multi-target gates.
///
/// Returns the groups (largest first) and the leftover gates that should be
/// executed as regular 2-qubit gates. A group needs at least
/// `min_components` components (floored at 2) to be worth a highway
/// shuttle: the protocol costs one GHZ preparation plus measurements per
/// shuttle, so tiny groups don't pay for themselves. One-qubit gates and
/// measurements in `ready` are always returned in the leftovers.
///
/// This is the one-shot convenience form of [`AggregationFront`]: it builds
/// a front from `ready`, carves once, builds every group and returns the
/// result. `ready` is treated as a set — grouping is independent of its
/// order (candidates are always considered ascending by [`GateId`]) and a
/// repeated id counts once. Callers that aggregate over an evolving front
/// every round should maintain an [`AggregationFront`] incrementally
/// instead.
///
/// # Example
///
/// ```
/// use mech_circuit::{aggregate_controlled, Circuit, GateId, Qubit};
/// # fn main() -> Result<(), mech_circuit::CircuitError> {
/// let mut c = Circuit::new(4);
/// for t in 1..4 {
///     c.cnot(Qubit(0), Qubit(t))?;
/// }
/// let ready: Vec<GateId> = (0..3).map(GateId).collect();
/// let (groups, rest) = aggregate_controlled(&c, &ready, 3);
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].hub, Qubit(0));
/// assert_eq!(groups[0].len(), 3);
/// assert!(rest.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn aggregate_controlled(
    circuit: &Circuit,
    ready: &[GateId],
    min_components: usize,
) -> (Vec<MultiTargetGate>, Vec<GateId>) {
    let mut front = AggregationFront::new(circuit);
    // Non-two-qubit gates pass through as leftovers (the front tracks only
    // two-qubit gates).
    let mut passthrough: Vec<GateId> = Vec::new();
    for &id in ready {
        if circuit.gates()[id.index()].is_two_qubit() {
            front.insert(id);
        } else {
            passthrough.push(id);
        }
    }
    let mut carved = Vec::new();
    let mut leftovers = Vec::new();
    front.carve(min_components, &mut carved, &mut leftovers);
    let groups = carved
        .iter()
        .map(|g| {
            let mut group = MultiTargetGate::default();
            front.build(g, &mut group);
            group
        })
        .collect();
    leftovers.extend(passthrough);
    leftovers.sort_unstable();
    leftovers.dedup();
    (groups, leftovers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of tracked gates (aggregable + regular two-qubit).
    fn tracked(front: &AggregationFront) -> usize {
        front.agg.iter().count() + front.other.iter().count()
    }

    /// Reference implementation: the pre-incremental per-round rebuild
    /// (flat bucket arrays refilled from the ready list on every call),
    /// kept verbatim as the oracle the front must match gate-for-gate.
    fn aggregate_oracle(
        circuit: &Circuit,
        ready: &[GateId],
        min_components: usize,
    ) -> (Vec<MultiTargetGate>, Vec<GateId>) {
        let min = min_components.max(2);
        let nq = circuit.num_qubits() as usize;
        let mut plain: Vec<Vec<GateId>> = vec![Vec::new(); nq];
        let mut conjugated: Vec<Vec<GateId>> = vec![Vec::new(); nq];
        let mut leftovers = Vec::new();
        let mut aggregable: Vec<GateId> = Vec::new();
        for &id in ready {
            match circuit.gates()[id.index()] {
                Gate::Two { kind, a, b, .. } if kind.is_controlled() => {
                    aggregable.push(id);
                    match kind {
                        TwoQubitKind::Cnot => {
                            plain[a.index()].push(id);
                            conjugated[b.index()].push(id);
                        }
                        TwoQubitKind::Cz | TwoQubitKind::Cphase | TwoQubitKind::Rzz => {
                            plain[a.index()].push(id);
                            plain[b.index()].push(id);
                        }
                        TwoQubitKind::Swap => unreachable!("swap is not controlled"),
                    }
                }
                _ => leftovers.push(id),
            }
        }
        let mut assigned = vec![false; circuit.len()];
        let mut groups = Vec::new();
        let mut order: Vec<(Qubit, GroupKind)> = Vec::new();
        for q in 0..nq as u32 {
            if !plain[q as usize].is_empty() {
                order.push((Qubit(q), GroupKind::Plain));
            }
            if !conjugated[q as usize].is_empty() {
                order.push((Qubit(q), GroupKind::Conjugated));
            }
        }
        let bucket = |hub: Qubit, kind: GroupKind| -> &Vec<GateId> {
            match kind {
                GroupKind::Plain => &plain[hub.index()],
                GroupKind::Conjugated => &conjugated[hub.index()],
            }
        };
        order.sort_by_key(|&(hub, kind)| {
            (
                std::cmp::Reverse(bucket(hub, kind).len()),
                hub,
                matches!(kind, GroupKind::Conjugated),
            )
        });
        let mut seen_stamp = vec![0u32; nq];
        for (ordinal, &(hub, kind)) in order.iter().enumerate() {
            let stamp = ordinal as u32 + 1;
            let mut comps: Vec<TargetComponent> = Vec::new();
            for &id in bucket(hub, kind) {
                if assigned[id.index()] {
                    continue;
                }
                let Gate::Two { a, b, .. } = circuit.gates()[id.index()] else {
                    continue;
                };
                let other = if a == hub { b } else { a };
                if seen_stamp[other.index()] != stamp {
                    seen_stamp[other.index()] = stamp;
                    comps.push(TargetComponent { gate: id, other });
                }
            }
            if comps.len() >= min {
                for c in &comps {
                    assigned[c.gate.index()] = true;
                }
                groups.push(MultiTargetGate {
                    hub,
                    kind,
                    components: comps,
                });
            }
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a.hub.cmp(&b.hub)));
        for id in aggregable {
            if !assigned[id.index()] {
                leftovers.push(id);
            }
        }
        leftovers.sort();
        (groups, leftovers)
    }

    /// A deterministic mixed-kind program over `nq` qubits.
    fn mixed_program(nq: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(nq);
        let mut next = xorshift(seed);
        for _ in 0..gates {
            let a = Qubit(next(u64::from(nq)) as u32);
            let mut b = Qubit(next(u64::from(nq)) as u32);
            if b == a {
                b = Qubit((a.0 + 1) % nq);
            }
            match next(5) {
                0 => c.cnot(a, b).unwrap(),
                1 => c.cz(a, b).unwrap(),
                2 => c.cp(a, b, 0.3).unwrap(),
                3 => c.rzz(a, b, 0.7).unwrap(),
                _ => c
                    .push(Gate::Two {
                        kind: TwoQubitKind::Swap,
                        a,
                        b,
                        angle: 0.0,
                    })
                    .unwrap(),
            };
        }
        c
    }

    /// Carves `front` and builds every group, as `aggregate_controlled`
    /// does.
    fn carve_all(front: &mut AggregationFront, min: usize) -> (Vec<MultiTargetGate>, Vec<GateId>) {
        let mut carved = Vec::new();
        let mut leftovers = Vec::new();
        front.carve(min, &mut carved, &mut leftovers);
        let groups = carved
            .iter()
            .map(|g| {
                let mut group = MultiTargetGate::default();
                front.build(g, &mut group);
                group
            })
            .collect();
        (groups, leftovers)
    }

    /// A deterministic xorshift stream: `next(m)` is uniform-ish in `0..m`.
    fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        move |m| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        }
    }

    #[test]
    fn one_shot_wrapper_matches_oracle() {
        for seed in 0..6 {
            let c = mixed_program(12, 80, seed + 1);
            let ready: Vec<GateId> = (0..c.len() as u32).map(GateId).collect();
            for min in [2, 3, 5] {
                let got = aggregate_controlled(&c, &ready, min);
                let want = aggregate_oracle(&c, &ready, min);
                assert_eq!(got, want, "seed={seed} min={min}");
            }
        }
    }

    /// Drives a front through interleaved insert/remove cycles (ready,
    /// suspended, completed, re-carved) and after every carve compares the
    /// built groups and the leftovers against the oracle rebuilt from
    /// scratch on the same live set.
    fn churn_matches_oracle(c: &Circuit, rounds: usize, seed: u64) {
        let mut front = AggregationFront::new(c);
        let mut live: Vec<GateId> = Vec::new();
        let mut next = xorshift(0xdeadbeef ^ seed);
        for round in 0..rounds {
            // Insert a few random gates (idempotently), remove a few.
            for _ in 0..5 {
                let id = GateId(next(c.len() as u64) as u32);
                front.insert(id);
                front.insert(id); // idempotent
                if !live.contains(&id) {
                    live.push(id);
                }
            }
            for _ in 0..2 {
                if live.is_empty() {
                    break;
                }
                let id = live.swap_remove(next(live.len() as u64) as usize);
                front.remove(id);
                front.remove(id); // idempotent
            }
            let min = 2 + round % 3;
            let (groups, leftovers) = carve_all(&mut front, min);
            // The oracle's bucket order follows its input order; the
            // compiler always offered the ready set ascending, which is
            // the order the front maintains.
            let mut live_sorted = live.clone();
            live_sorted.sort_unstable();
            let (want_groups, want_rest) = aggregate_oracle(c, &live_sorted, min);
            let at = format!(
                "{} qubits, {} gates, round {round}",
                c.num_qubits(),
                c.len()
            );
            assert_eq!(tracked(&front), live.len(), "{at}");
            assert_eq!(groups, want_groups, "groups diverged: {at}");
            assert_eq!(leftovers, want_rest, "leftovers diverged: {at}");
        }
    }

    #[test]
    fn incremental_front_matches_fresh_rebuild_under_churn() {
        // Ten qubits make pairs with several tracked gates common, across
        // every bucket pairing of the mixed kinds. Program sizes straddle
        // the 64-gate words of the front's gate bitsets.
        for (size, seed) in [(63, 3), (64, 5), (65, 7), (120, 9), (129, 11), (301, 13)] {
            churn_matches_oracle(&mixed_program(10, size, seed), size / 3, seed);
        }
    }

    #[test]
    fn wide_fronts_match_oracle_across_hub_bitset_words() {
        // Widths around the 64-qubit words of the per-hub bitsets: the
        // last qubit of one word and the first of the next are hubs and
        // other operands alike.
        for (nq, seed) in [(63, 17), (64, 19), (65, 23), (129, 29)] {
            let c = mixed_program(nq, 6 * nq as usize, seed);
            churn_matches_oracle(&c, 2 * nq as usize, seed);
        }
    }

    #[test]
    fn dag_driven_fronts_match_oracle() {
        // A compiler-shaped front: readiness comes from a real schedule,
        // each step suspends some ready gates (in flight on the highway)
        // and completes some ready or suspended ones, unlocking
        // successors.
        use crate::benchmarks::{qaoa_maxcut, qft, random_circuit};
        use crate::dag::CommutationDag;
        let programs = [
            qaoa_maxcut(70, 2, 5),
            qft(66),
            random_circuit(65, 900, 3),
            random_circuit(12, 300, 4),
        ];
        for (p, c) in programs.iter().enumerate() {
            let dag = CommutationDag::new(c);
            let mut sched = dag.schedule();
            sched.attach_aggregation(c);
            let mut next = xorshift(p as u64 + 41);
            let mut suspended: Vec<GateId> = Vec::new();
            let mut step = 0;
            loop {
                while sched.pop_ready_one_qubit().is_some() {}
                if sched.is_finished() {
                    break;
                }
                let min = 2 + step % 4;
                let live: Vec<GateId> = sched
                    .ready_two_qubit()
                    .filter(|g| !suspended.contains(g))
                    .collect();
                let front = sched.aggregation_front_mut().expect("attached");
                let (groups, leftovers) = carve_all(front, min);
                let (want_groups, want_rest) = aggregate_oracle(c, &live, min);
                assert_eq!(
                    groups, want_groups,
                    "groups diverged: program {p} step {step}"
                );
                assert_eq!(
                    leftovers, want_rest,
                    "leftovers diverged: program {p} step {step}"
                );
                // Suspend a few live gates, then complete a few ready ones
                // (suspended ones included).
                for _ in 0..3 {
                    if let Some(&g) = live.get(next(live.len().max(1) as u64) as usize) {
                        if !suspended.contains(&g) {
                            sched.suspend_from_aggregation(g);
                            suspended.push(g);
                        }
                    }
                }
                let ready: Vec<GateId> = sched.ready_two_qubit().collect();
                for _ in 0..1 + next(6) {
                    let g = ready[next(ready.len() as u64) as usize];
                    if sched.is_gate_ready(g) {
                        sched.complete(g);
                        suspended.retain(|&s| s != g);
                    }
                }
                step += 1;
            }
        }
    }

    #[test]
    fn front_len_tracks_membership() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.push(Gate::Two {
            kind: TwoQubitKind::Swap,
            a: Qubit(2),
            b: Qubit(3),
            angle: 0.0,
        })
        .unwrap();
        c.h(Qubit(0)).unwrap();
        let mut front = AggregationFront::new(&c);
        assert_eq!(tracked(&front), 0);
        front.insert(GateId(0));
        front.insert(GateId(1));
        front.insert(GateId(2)); // one-qubit: ignored
        assert_eq!(tracked(&front), 2);
        front.remove(GateId(0));
        assert_eq!(tracked(&front), 1);
        front.remove(GateId(0)); // idempotent
        assert_eq!(tracked(&front), 1);
    }

    #[test]
    fn shared_control_cnots_form_one_plain_group() {
        let mut c = Circuit::new(5);
        for t in 1..5 {
            c.cnot(Qubit(0), Qubit(t)).unwrap();
        }
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].kind, GroupKind::Plain);
        assert_eq!(groups[0].len(), 4);
        assert!(rest.is_empty());
    }

    #[test]
    fn shared_target_cnots_form_one_conjugated_group() {
        let mut c = Circuit::new(5);
        for s in 1..5 {
            c.cnot(Qubit(s), Qubit(0)).unwrap();
        }
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].kind, GroupKind::Conjugated);
        assert_eq!(groups[0].len(), 4);
        assert!(rest.is_empty());
    }

    #[test]
    fn below_threshold_gates_stay_regular() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(2), Qubit(3)).unwrap();
        let ready = vec![GateId(0), GateId(1)];
        let (groups, rest) = aggregate_controlled(&c, &ready, 3);
        assert!(groups.is_empty());
        assert_eq!(rest, vec![GateId(0), GateId(1)]);
    }

    #[test]
    fn each_gate_joins_at_most_one_group() {
        // cx(0,1) could join hub 0 (plain) or hub 1 (conjugated); with more
        // gates at hub 0 it must land there and only there.
        let mut c = Circuit::new(5);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        c.cnot(Qubit(0), Qubit(3)).unwrap();
        c.cnot(Qubit(4), Qubit(1)).unwrap();
        let ready: Vec<GateId> = (0..4).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total + rest.len(), 4);
        assert_eq!(groups[0].hub, Qubit(0));
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn duplicate_other_qubits_are_not_grouped_twice() {
        // Two CP gates on the same pair: only one may join per group.
        let mut c = Circuit::new(3);
        c.cp(Qubit(0), Qubit(1), 0.1).unwrap();
        c.cp(Qubit(0), Qubit(1), 0.2).unwrap();
        c.cp(Qubit(0), Qubit(2), 0.3).unwrap();
        let ready: Vec<GateId> = (0..3).map(GateId).collect();
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn diagonal_gates_group_on_either_operand() {
        // rzz(1,0), rzz(0,2): hub 0 works even though operand order differs.
        let mut c = Circuit::new(3);
        c.rzz(Qubit(1), Qubit(0), 0.1).unwrap();
        c.rzz(Qubit(0), Qubit(2), 0.1).unwrap();
        let ready = vec![GateId(0), GateId(1)];
        let (groups, _) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].hub, Qubit(0));
        let others: Vec<Qubit> = groups[0].components.iter().map(|c| c.other).collect();
        assert!(others.contains(&Qubit(1)) && others.contains(&Qubit(2)));
    }

    #[test]
    fn one_qubit_gates_pass_through_as_leftovers() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let ready = vec![GateId(0)];
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert!(groups.is_empty());
        assert_eq!(rest, vec![GateId(0)]);
        // `ready` is a set: a repeated id comes back once, whatever its
        // arity.
        let ready = vec![GateId(0), GateId(1), GateId(0), GateId(1)];
        let (groups, rest) = aggregate_controlled(&c, &ready, 2);
        assert!(groups.is_empty());
        assert_eq!(rest, vec![GateId(0), GateId(1)]);
    }

    #[test]
    fn groups_are_sorted_largest_first() {
        let mut c = Circuit::new(8);
        // hub 0: 3 components; hub 4: 2 components.
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cnot(Qubit(0), Qubit(2)).unwrap();
        c.cnot(Qubit(0), Qubit(3)).unwrap();
        c.cnot(Qubit(4), Qubit(5)).unwrap();
        c.cnot(Qubit(4), Qubit(6)).unwrap();
        let ready: Vec<GateId> = (0..5).map(GateId).collect();
        let (groups, _) = aggregate_controlled(&c, &ready, 2);
        assert_eq!(groups.len(), 2);
        assert!(groups[0].len() >= groups[1].len());
    }
}
