//! Constant-depth GHZ state preparation over a claimed highway path.
//!
//! Implements the paper's measurement-based preparation (Figs. 5–8):
//!
//! 1. every claimed highway qubit is initialized to `|+⟩` (free 1-qubit
//!    layer);
//! 2. a cluster state is created by entangling along every claimed highway
//!    edge — one CNOT for direct on-chip edges, one cross-chip CNOT at
//!    chiplet boundaries, a 4-CNOT bridge gate through the interval qubit
//!    for interleaved edges. Edges sharing a qubit serialize; everything
//!    else runs concurrently, so this stage has constant depth in the path
//!    length;
//! 3. alternate qubits (one color class of the claimed tree) are measured,
//!    collapsing the rest into a GHZ state after Pauli corrections (free,
//!    but the survivors wait for the classical outcomes);
//! 4. measured qubits that must serve as highway entrances are re-entangled
//!    with one CNOT from an unmeasured neighbor (paper §5).

use std::collections::{HashMap, HashSet, VecDeque};

use mech_chiplet::{
    AdjacencyView, BfsControl, BfsKernel, HighwayEdgeKind, HighwayLayout, PhysCircuit, PhysQubit,
    QubitSet, SemGate1, SemGate2, SemPauli, StampMap, Topology,
};

/// The result of a GHZ preparation: which claimed qubits stayed in the
/// entangled state and when it became usable.
#[derive(Debug, Clone)]
pub struct GhzPrep {
    /// Claimed qubits still carrying the GHZ state (including re-entangled
    /// entrances).
    pub live: Vec<PhysQubit>,
    /// Claimed qubits consumed by the cluster→GHZ measurement (and not
    /// re-entangled).
    pub measured: Vec<PhysQubit>,
    /// Time at which the GHZ state is ready on every live qubit.
    pub ready_at: u64,
}

/// Prepares a GHZ state across `nodes` with the *naive CNOT chain* (paper
/// Fig. 1a): a breadth-first cascade of CNOTs along the claimed tree. No
/// measurements are needed and every node stays live, but the depth grows
/// with the tree radius — this is the scheme the paper's constant-depth
/// preparation (Fig. 5) replaces, kept here for the ablation
/// (`CompilerConfig::ghz_style`).
///
/// # Panics
///
/// Panics if the edges do not connect the nodes.
pub fn prepare_ghz_chain(
    pc: &mut PhysCircuit,
    topo: &Topology,
    layout: &HighwayLayout,
    nodes: &[PhysQubit],
    edges: &[(PhysQubit, PhysQubit)],
) -> GhzPrep {
    assert!(
        !nodes.is_empty(),
        "GHZ preparation needs at least one qubit"
    );
    let root = nodes[0];
    pc.one_qubit(root); // H on the root; the rest stay |0⟩.
    pc.record_gate1(root, SemGate1::H);

    // BFS cascade: entangle outward from the root along claimed edges.
    let adjacency: HashMap<PhysQubit, Vec<PhysQubit>> = {
        let mut m: HashMap<PhysQubit, Vec<PhysQubit>> = HashMap::new();
        for &(a, b) in edges {
            m.entry(a).or_default().push(b);
            m.entry(b).or_default().push(a);
        }
        m
    };
    let mut seen: HashSet<PhysQubit> = HashSet::from([root]);
    let mut queue = VecDeque::from([root]);
    while let Some(q) = queue.pop_front() {
        for nb in adjacency.get(&q).into_iter().flatten() {
            if !seen.insert(*nb) {
                continue;
            }
            let edge = layout
                .edge_between(q, *nb)
                .unwrap_or_else(|| panic!("claimed edge {q}-{nb} is not a highway edge"));
            pc.record_gate2(SemGate2::Cnot, q, *nb);
            match edge.kind {
                HighwayEdgeKind::Direct | HighwayEdgeKind::Cross => {
                    pc.two_qubit(topo, q, *nb);
                }
                HighwayEdgeKind::Bridge { via } => {
                    pc.bridge(topo, q, via, *nb);
                }
            }
            queue.push_back(*nb);
        }
    }
    assert_eq!(
        seen.len(),
        nodes.len(),
        "claimed edges must connect all nodes"
    );

    let ready_at = nodes.iter().map(|&q| pc.time(q)).max().unwrap_or(0);
    GhzPrep {
        live: nodes.to_vec(),
        measured: Vec::new(),
        ready_at,
    }
}

/// Reusable workspace for [`prepare_ghz_with`]: adjacency lists, color stamps
/// and work queues kept alive across the many preparations of one
/// compilation, so each prep allocates only its returned `live` list.
#[derive(Debug, Clone, Default)]
pub struct GhzScratch {
    /// `adj[q]` = claimed-tree neighbors of `q`. Only claimed nodes are
    /// touched; their lists are cleared at the start of each prep.
    adj: Vec<Vec<PhysQubit>>,
    /// Tree 2-coloring.
    color: StampMap<u8>,
    /// Used-color bitmask per node for the greedy edge coloring.
    node_colors: StampMap<u16>,
    edge_color: Vec<u8>,
    /// Shared stamped-BFS kernel driving the tree coloring.
    bfs: BfsKernel,
    to_measure: Vec<PhysQubit>,
    reentangle: Vec<(PhysQubit, PhysQubit)>,
}

impl GhzScratch {
    fn begin(&mut self, n: usize, nodes: &[PhysQubit]) {
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        for &q in nodes {
            self.adj[q.index()].clear();
        }
        self.color.begin(n);
        self.node_colors.begin(n);
        self.edge_color.clear();
        self.to_measure.clear();
        self.reentangle.clear();
    }

    fn mark_node_color(&mut self, q: PhysQubit, c: u8) {
        let mask = self.node_colors.get(q).unwrap_or(0) | (1 << c);
        self.node_colors.insert(q, mask);
    }
}

/// Prepares a GHZ state across `nodes`, entangling along `edges` (pairs of
/// adjacent highway qubits as recorded by
/// [`HighwayOccupancy`](crate::HighwayOccupancy)). Qubits in `entrances`
/// are kept usable: if the coloring measures them, they are re-entangled.
///
/// Returns which qubits remain live and when. Emits all operations into
/// `pc`. `s` is reusable workspace: the compiler keeps one per session,
/// so per-group preparations stay allocation-free.
///
/// # Panics
///
/// Panics if an edge is not part of `layout`, or if the edge set does not
/// connect `nodes` (both indicate compiler bugs).
pub fn prepare_ghz_with(
    pc: &mut PhysCircuit,
    topo: &Topology,
    layout: &HighwayLayout,
    nodes: &[PhysQubit],
    edges: &[(PhysQubit, PhysQubit)],
    entrances: &impl QubitSet,
    s: &mut GhzScratch,
) -> GhzPrep {
    assert!(
        !nodes.is_empty(),
        "GHZ preparation needs at least one qubit"
    );

    // |+> initialization.
    for &q in nodes {
        pc.one_qubit(q);
    }

    if nodes.len() == 1 {
        pc.record_gate1(nodes[0], SemGate1::H);
        return GhzPrep {
            live: nodes.to_vec(),
            measured: Vec::new(),
            ready_at: pc.time(nodes[0]),
        };
    }

    s.begin(topo.num_qubits() as usize, nodes);

    // Cluster state: entangle along each claimed edge. Ops are scheduled
    // ASAP in emission order, so edges are emitted color class by color
    // class (greedy edge coloring): non-conflicting edges land in the same
    // layer and the stage keeps its constant depth no matter how long the
    // path is.
    for &(a, b) in edges {
        let used = s.node_colors.get(a).unwrap_or(0) | s.node_colors.get(b).unwrap_or(0);
        let color = (0..16).find(|c| used & (1 << c) == 0).unwrap_or(15) as u8;
        s.edge_color.push(color);
        s.mark_node_color(a, color);
        s.mark_node_color(b, color);
    }
    let max_color = s.edge_color.iter().copied().max().unwrap_or(0);
    for color in 0..=max_color {
        for (i, &(a, b)) in edges.iter().enumerate() {
            if s.edge_color[i] != color {
                continue;
            }
            let edge = layout
                .edge_between(a, b)
                .unwrap_or_else(|| panic!("claimed edge {a}-{b} is not a highway edge"));
            match edge.kind {
                HighwayEdgeKind::Direct | HighwayEdgeKind::Cross => {
                    pc.two_qubit(topo, a, b);
                }
                HighwayEdgeKind::Bridge { via } => {
                    pc.bridge(topo, a, via, b);
                }
            }
        }
    }

    // 2-color the claimed tree; measure the color-1 class. On a tree the
    // color of a node is exactly the parity of its distance from the root,
    // so the coloring rides the shared stamped-BFS kernel (adjacency lists
    // in edge order, wrapped as a kernel graph view).
    for &(a, b) in edges {
        s.adj[a.index()].push(b);
        s.adj[b.index()].push(a);
    }
    let root = nodes[0];
    let mut colored = 0usize;
    {
        let GhzScratch {
            adj, color, bfs, ..
        } = &mut *s;
        let tree = AdjacencyView { lists: adj };
        bfs.run(
            &tree,
            root,
            |_| true,
            |q, d| {
                color.insert(q, (d & 1) as u8);
                colored += 1;
                BfsControl::Expand
            },
        );
    }
    assert_eq!(
        colored,
        nodes.len(),
        "claimed edges must connect all claimed nodes"
    );

    // Semantic reading (recorded only when tracing): the trace records the
    // state of the naive cascade — H on the root, then CNOT parent→child
    // along the claimed tree — not the cluster ops emitted above. Measuring
    // the color-1 class in the X basis removes those members from that GHZ
    // state up to one Z correction on a survivor conditioned on the parity
    // of all outcomes (recorded after the measurement loop below).
    //
    // Known gap: the emitted ops prepare that state only where every
    // measured node has exactly two tree neighbours (the path case the
    // statevector protocol tests check). A measured leaf collapses its
    // neighbour, and a measured node of tree degree ≥ 3 leaves the survivors
    // outside the GHZ class, so verifier passes prove this reading, not the
    // ops.
    if pc.sem_recording() {
        pc.record_gate1(root, SemGate1::H);
        let mut seen: HashSet<PhysQubit> = HashSet::from([root]);
        let mut queue = VecDeque::from([root]);
        while let Some(q) = queue.pop_front() {
            for i in 0..s.adj[q.index()].len() {
                let nb = s.adj[q.index()][i];
                if seen.insert(nb) {
                    pc.record_gate2(SemGate2::Cnot, q, nb);
                    queue.push_back(nb);
                }
            }
        }
    }

    let mut live: Vec<PhysQubit> = Vec::new();
    for &q in nodes {
        if s.color.get(q) == Some(1) {
            s.to_measure.push(q);
        } else {
            live.push(q);
        }
    }
    // Degenerate case: a 2-node path measures one end; keep at least one.
    if live.is_empty() {
        live.push(s.to_measure.pop().expect("nonempty"));
    }

    let mut outcome_time = 0u64;
    let mut measured = Vec::new();
    let mut prep_slots: Vec<u32> = Vec::new();
    for i in 0..s.to_measure.len() {
        let q = s.to_measure[i];
        if pc.sem_recording() {
            // X-basis measurement = H then Z-measure; the conditional X
            // resets the consumed qubit to |0⟩ so it can be reclaimed.
            pc.record_gate1(q, SemGate1::H);
            let slot = pc.record_measure(q, None);
            pc.record_cond_pauli(q, SemPauli::X, vec![slot]);
            prep_slots.push(slot);
        }
        let done = pc.measure(q);
        outcome_time = outcome_time.max(done);
        if entrances.contains_qubit(q) {
            // Re-entangle from the nearest live neighbor.
            let nb = s.adj[q.index()]
                .iter()
                .find(|n| s.color.get(**n) == Some(0))
                .copied()
                .expect("a measured qubit always has a live neighbor in the tree");
            s.reentangle.push((nb, q));
        } else {
            measured.push(q);
        }
    }

    // Pauli corrections on survivors are classically conditioned on the
    // measurement outcomes: every live qubit waits for the last outcome.
    // Semantically a single Z on any one survivor, conditioned on the
    // parity of all removal outcomes, fixes the GHZ sign.
    if pc.sem_recording() && !prep_slots.is_empty() {
        pc.record_cond_pauli(live[0], SemPauli::Z, prep_slots);
    }
    for &q in &live {
        pc.advance(q, outcome_time);
        pc.one_qubit(q); // correction (free)
    }
    for i in 0..s.reentangle.len() {
        let (nb, q) = s.reentangle[i];
        pc.advance(q, outcome_time);
        // Re-entanglement uses the same mechanism as the edge that connects
        // the pair: direct/cross CNOT or a bridge through the interval.
        let edge = layout
            .edge_between(nb, q)
            .expect("re-entangle pair is a highway edge");
        pc.record_gate2(SemGate2::Cnot, nb, q);
        match edge.kind {
            HighwayEdgeKind::Direct | HighwayEdgeKind::Cross => {
                pc.two_qubit(topo, nb, q);
            }
            HighwayEdgeKind::Bridge { via } => {
                pc.bridge(topo, nb, via, q);
            }
        }
        live.push(q);
    }

    let ready_at = live.iter().map(|&q| pc.time(q)).max().unwrap_or(0);
    GhzPrep {
        live,
        measured,
        ready_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_chiplet::{ChipletSpec, CostModel};

    /// [`prepare_ghz_with`] on a fresh scratch.
    fn prepare_ghz(
        pc: &mut PhysCircuit,
        topo: &Topology,
        layout: &HighwayLayout,
        nodes: &[PhysQubit],
        edges: &[(PhysQubit, PhysQubit)],
        entrances: &impl QubitSet,
    ) -> GhzPrep {
        prepare_ghz_with(
            pc,
            topo,
            layout,
            nodes,
            edges,
            entrances,
            &mut GhzScratch::default(),
        )
    }

    fn setup() -> (Topology, HighwayLayout) {
        let topo = ChipletSpec::square(7, 1, 2).build();
        let hw = HighwayLayout::generate(&topo, 1);
        (topo, hw)
    }

    /// Claims a chain of up to `k` highway nodes along a real route between
    /// two far-apart highway qubits.
    fn chain(hw: &HighwayLayout, k: usize) -> (Vec<PhysQubit>, Vec<(PhysQubit, PhysQubit)>) {
        use std::collections::VecDeque;
        // BFS over the highway graph from nodes[0] to find a long shortest
        // path, then truncate to k nodes.
        let start = hw.nodes()[0];
        let mut prev: HashMap<PhysQubit, PhysQubit> = HashMap::new();
        let mut order = vec![start];
        let mut queue = VecDeque::from([start]);
        let mut seen: HashSet<PhysQubit> = HashSet::from([start]);
        while let Some(q) = queue.pop_front() {
            for nb in hw.highway_neighbors(q) {
                if seen.insert(nb) {
                    prev.insert(nb, q);
                    order.push(nb);
                    queue.push_back(nb);
                }
            }
        }
        let far = *order.last().unwrap();
        let mut path = vec![far];
        let mut cur = far;
        while let Some(&p) = prev.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.truncate(k);
        let edges = path.windows(2).map(|w| (w[0], w[1])).collect();
        (path, edges)
    }

    #[test]
    fn single_node_ghz_is_trivial() {
        let (topo, hw) = setup();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep = prepare_ghz(&mut pc, &topo, &hw, &[hw.nodes()[0]], &[], &HashSet::new());
        assert_eq!(prep.live.len(), 1);
        assert_eq!(pc.counts().measurements, 0);
    }

    #[test]
    fn half_the_chain_is_measured() {
        let (topo, hw) = setup();
        let (nodes, edges) = chain(&hw, 8);
        assert!(nodes.len() >= 6, "chain too short: {}", nodes.len());
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep = prepare_ghz(&mut pc, &topo, &hw, &nodes, &edges, &HashSet::new());
        assert_eq!(prep.live.len() + prep.measured.len(), nodes.len());
        let diff = prep.live.len().abs_diff(prep.measured.len());
        assert!(diff <= 1, "live/measured imbalance: {diff}");
    }

    #[test]
    fn preparation_depth_is_constant_in_path_length() {
        let (topo, hw) = setup();
        let (nodes_a, edges_a) = chain(&hw, 4);
        let mut pc_a = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep_a = prepare_ghz(&mut pc_a, &topo, &hw, &nodes_a, &edges_a, &HashSet::new());

        let (nodes_b, edges_b) = chain(&hw, 12);
        assert!(nodes_b.len() > nodes_a.len());
        let mut pc_b = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep_b = prepare_ghz(&mut pc_b, &topo, &hw, &nodes_b, &edges_b, &HashSet::new());

        // Tripling the chain length may add at most a small constant:
        // bridges serialize only locally.
        assert!(
            prep_b.ready_at <= prep_a.ready_at + 10,
            "prep depth grew with length: {} vs {}",
            prep_a.ready_at,
            prep_b.ready_at
        );
    }

    #[test]
    fn measured_entrances_are_reentangled() {
        let (topo, hw) = setup();
        let (nodes, edges) = chain(&hw, 6);
        let entrances: HashSet<PhysQubit> = nodes.iter().copied().collect();
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep = prepare_ghz(&mut pc, &topo, &hw, &nodes, &edges, &entrances);
        // With every node an entrance, all stay live.
        assert_eq!(prep.live.len(), nodes.len());
        assert!(prep.measured.is_empty());
    }

    #[test]
    fn survivors_wait_for_outcomes() {
        let (topo, hw) = setup();
        let (nodes, edges) = chain(&hw, 6);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep = prepare_ghz(&mut pc, &topo, &hw, &nodes, &edges, &HashSet::new());
        let min_live_time = prep.live.iter().map(|&q| pc.time(q)).min().unwrap();
        let max_outcome = pc
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, mech_chiplet::PhysOpKind::Measure))
            .map(|o| o.end())
            .max()
            .unwrap();
        assert!(min_live_time >= max_outcome);
    }

    #[test]
    fn cross_chip_edges_count_cross_cnots() {
        let (topo, hw) = setup();
        // Find a cross edge and prepare over just that pair.
        let e = hw
            .edges()
            .iter()
            .find(|e| matches!(e.kind, HighwayEdgeKind::Cross))
            .expect("two chiplets must be stitched");
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        prepare_ghz(
            &mut pc,
            &topo,
            &hw,
            &[e.a, e.b],
            &[(e.a, e.b)],
            &HashSet::new(),
        );
        assert_eq!(pc.counts().cross_chip_cnots, 1);
    }

    #[test]
    fn chain_prep_keeps_all_nodes_live_without_measurements() {
        let topo = ChipletSpec::square(7, 1, 2).build();
        let hw = HighwayLayout::generate(&topo, 1);
        let nodes: Vec<PhysQubit> = hw.nodes()[..5].to_vec();
        // Build a connected subtree over the first nodes via BFS edges.
        let mut edges = Vec::new();
        let mut seen = vec![nodes[0]];
        while seen.len() < nodes.len() {
            let mut grew = false;
            for &q in &seen.clone() {
                for nb in hw.highway_neighbors(q) {
                    if nodes.contains(&nb) && !seen.contains(&nb) {
                        edges.push((q, nb));
                        seen.push(nb);
                        grew = true;
                    }
                }
            }
            if !grew {
                return; // the first five nodes are not contiguous here; skip
            }
        }
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let prep = prepare_ghz_chain(&mut pc, &topo, &hw, &seen, &edges);
        assert_eq!(prep.live.len(), seen.len());
        assert!(prep.measured.is_empty());
        assert_eq!(pc.counts().measurements, 0);
    }

    #[test]
    fn chain_depth_grows_with_length_unlike_measurement_based() {
        // Compare depth *growth* between a short and a long path: the
        // cascade's critical path scales with length, the measurement-based
        // scheme stays (nearly) flat.
        let topo = ChipletSpec::square(7, 2, 3).build();
        let hw = HighwayLayout::generate(&topo, 1);
        let prep_depths = |k: usize| -> (u64, u64) {
            let (nodes, edges) = chain(&hw, k);
            assert!(nodes.len() >= k, "need a path of {k} nodes");
            let mut pc_chain = PhysCircuit::new(topo.num_qubits(), CostModel::default());
            let chain = prepare_ghz_chain(&mut pc_chain, &topo, &hw, &nodes, &edges);
            let mut pc_mb = PhysCircuit::new(topo.num_qubits(), CostModel::default());
            let mb = prepare_ghz(&mut pc_mb, &topo, &hw, &nodes, &edges, &HashSet::new());
            (chain.ready_at, mb.ready_at)
        };
        let (chain_short, mb_short) = prep_depths(5);
        let (chain_long, mb_long) = prep_depths(16);
        let chain_growth = chain_long - chain_short;
        let mb_growth = mb_long.saturating_sub(mb_short);
        assert!(
            chain_growth >= 3 * mb_growth.max(1),
            "chain grew {chain_growth}, measurement-based grew {mb_growth}"
        );
        assert!(chain_long > mb_long);
    }
}
