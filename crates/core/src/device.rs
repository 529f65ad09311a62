//! The device tier: immutable, shareable per-device artifacts.
//!
//! The compile pipeline is split into two layers (DESIGN.md §11):
//!
//! * [`DeviceArtifacts`] — everything derived from the device alone:
//!   the CSR [`Topology`] (adjacency only; it holds no distance table),
//!   the [`HighwayLayout`], the eager [`EntranceTable`], and the highway
//!   [`HighwaySkeleton`] (CSR claim graph). Immutable, `Send + Sync`,
//!   shared across concurrent compilations via `Arc`;
//! * `CompileSession` (in [`compiler`](crate::MechCompiler)) — the cheap
//!   per-request state: mapping, scratch pools, occupancy, fronts.
//!
//! [`DeviceSpec`] is the *value* that names a device (chiplet geometry +
//! highway density + entrance-candidate limit + defect map); it is
//! `Clone`/`Eq`/`Hash`, and [`DeviceSpec::build_artifacts`] turns it into
//! the one `Arc`-shared bundle every compilation against that device
//! uses.
//!
//! A non-empty [`DefectMap`] names a *degraded* device — a distinct spec
//! whose artifacts are built by masking/pruning the pristine
//! structures (`DESIGN.md` §13): the CSR topology drops every dead edge,
//! the highway layout drops dead corridor nodes/edges, and the entrance
//! table and claim skeleton are rebuilt from the pruned forms. An empty
//! map takes the pristine code paths untouched, so empty-defect builds
//! are byte-identical to pre-defect ones.

use std::sync::Arc;

use mech_chiplet::{ChipletSpec, DefectMap, HighwayLayout, PhysCircuit, PhysOpKind, Topology};
use mech_highway::{EntranceTable, HighwaySkeleton};

/// Default number of highway corridors per chiplet per direction.
pub(crate) const DEFAULT_HIGHWAY_DENSITY: u32 = 1;

/// Default number of entrance candidates examined per data qubit.
pub(crate) const DEFAULT_ENTRANCE_CANDIDATES: usize = 4;

/// The value naming one device configuration: chiplet geometry plus the
/// device-shaped compiler parameters that determine every derived
/// artifact. Two equal specs always produce interchangeable
/// [`DeviceArtifacts`].
///
/// # Example
///
/// ```
/// use mech::DeviceSpec;
///
/// let spec = DeviceSpec::square(6, 2, 2).with_density(2);
/// let device = spec.build_artifacts();
/// assert_eq!(device.spec(), &spec);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceSpec {
    chiplet: ChipletSpec,
    highway_density: u32,
    entrance_candidates: usize,
    /// Dead qubits/links of this calibration epoch. Behind an `Arc` so
    /// cloning a spec (by value through the serve layer, and into every
    /// bundle it builds) never copies the sets; `Eq`/`Hash` see through the
    /// `Arc` to the contents.
    defects: Arc<DefectMap>,
}

impl DeviceSpec {
    /// A device spec with default highway density and entrance-candidate
    /// limit.
    pub fn new(chiplet: ChipletSpec) -> Self {
        DeviceSpec {
            chiplet,
            highway_density: DEFAULT_HIGHWAY_DENSITY,
            entrance_candidates: DEFAULT_ENTRANCE_CANDIDATES,
            defects: Arc::new(DefectMap::default()),
        }
    }

    /// Shorthand for a square-lattice chiplet array (the paper's main
    /// configuration).
    pub fn square(chiplet_size: u32, array_rows: u32, array_cols: u32) -> Self {
        DeviceSpec::new(ChipletSpec::square(chiplet_size, array_rows, array_cols))
    }

    /// Sets the number of highway corridors per chiplet per direction
    /// (paper Fig. 15: 1 ≈ 14%, 2 ≈ 25%, 3 ≈ 41% ancilla overhead on 9×9
    /// chiplets).
    pub fn with_density(mut self, density: u32) -> Self {
        self.highway_density = density;
        self
    }

    /// Sets the number of entrance candidates examined per data qubit
    /// during entrance selection.
    pub fn with_entrance_candidates(mut self, limit: usize) -> Self {
        self.entrance_candidates = limit;
        self
    }

    /// Sets the defect map of this calibration epoch. A non-empty map
    /// names a *different device*: artifacts are masked/pruned around the
    /// dead resources.
    pub fn with_defects(mut self, defects: DefectMap) -> Self {
        self.defects = Arc::new(defects);
        self
    }

    /// The defect map of this calibration epoch (empty = pristine).
    pub fn defects(&self) -> &DefectMap {
        &self.defects
    }

    /// The chiplet geometry.
    pub fn chiplet(&self) -> ChipletSpec {
        self.chiplet
    }

    /// Highway corridors per chiplet per direction.
    pub fn highway_density(&self) -> u32 {
        self.highway_density
    }

    /// Entrance candidates per data qubit.
    pub fn entrance_candidates(&self) -> usize {
        self.entrance_candidates
    }

    /// Builds the artifact bundle for this spec — the only way to get
    /// one. Build once per device and share the returned `Arc` across
    /// every compilation against it.
    pub fn build_artifacts(&self) -> Arc<DeviceArtifacts> {
        Arc::new(DeviceArtifacts::build(self.clone()))
    }
}

/// Everything the compiler derives from a device and never mutates:
/// topology (CSR adjacency; no distance table), highway layout,
/// entrance table, and the highway claim-graph skeleton. Built once per
/// [`DeviceSpec`], shared across any number of concurrent compilations.
#[derive(Debug)]
pub struct DeviceArtifacts {
    spec: DeviceSpec,
    topo: Topology,
    layout: HighwayLayout,
    entrances: EntranceTable,
    skeleton: Arc<HighwaySkeleton>,
}

// The whole point of the device tier: one bundle, many concurrent
// sessions. Checked at compile time.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<DeviceArtifacts>();
};

impl DeviceArtifacts {
    /// Builds the full bundle for `spec`: topology, highway layout,
    /// entrance table (one BFS per data qubit — the only entrance searches
    /// this device will ever run), and CSR claim skeleton.
    ///
    /// Defects are applied in a fixed order: the topology and layout are
    /// always generated *pristine* first (corridor carving assumes
    /// connected chiplet interiors), then masked/pruned, and only the
    /// masked forms feed the entrance table and skeleton — so entrance
    /// BFS can never reach a dead qubit (its masked row is empty) and the
    /// claim graph structurally lacks dead corridor segments. With an
    /// empty map both steps return plain clones and the bundle is
    /// byte-identical to a pristine build.
    fn build(spec: DeviceSpec) -> Self {
        let pristine_topo = spec.chiplet.build();
        let pristine_layout = HighwayLayout::generate(&pristine_topo, spec.highway_density);
        let (topo, layout) = if spec.defects.is_empty() {
            (pristine_topo, pristine_layout)
        } else {
            (
                pristine_topo.masked(&spec.defects),
                pristine_layout.pruned(&spec.defects),
            )
        };
        let entrances = EntranceTable::build(&topo, &layout, spec.entrance_candidates);
        let skeleton = Arc::new(HighwaySkeleton::build(topo.num_qubits() as usize, &layout));
        DeviceArtifacts {
            spec,
            topo,
            layout,
            entrances,
            skeleton,
        }
    }

    /// The spec this bundle was built from.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The chiplet-array topology (CSR adjacency and grid coordinates).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The highway layout.
    pub fn layout(&self) -> &HighwayLayout {
        &self.layout
    }

    /// The eager entrance table (entrance options per data qubit).
    pub(crate) fn entrances(&self) -> &EntranceTable {
        &self.entrances
    }

    /// The shared CSR skeleton of the highway claim graph.
    pub(crate) fn skeleton(&self) -> &Arc<HighwaySkeleton> {
        &self.skeleton
    }

    /// Number of data (non-highway, alive) qubits — the program width this
    /// device supports.
    pub fn num_data_qubits(&self) -> u32 {
        self.layout.num_data_qubits()
    }

    /// Audits a compiled physical circuit against this device's defect
    /// map: every operand must be alive, and every two-qubit op must ride
    /// a coupler that survives in the masked topology. Returns the first
    /// violation as a human-readable description.
    ///
    /// This is the acceptance check for degraded-device compilation — it
    /// inspects the *schedule*, independently of the structures the
    /// compiler routed over, so a masking bug in any layer surfaces here.
    pub fn audit(&self, circuit: &PhysCircuit) -> Result<(), String> {
        let defects = self.spec.defects();
        for (i, op) in circuit.ops().iter().enumerate() {
            for q in [Some(op.a), op.b].into_iter().flatten() {
                if defects.is_dead_qubit(q) {
                    return Err(format!("op {i} ({:?}) touches dead qubit {q}", op.kind));
                }
            }
            if let PhysOpKind::TwoQubit(_) = op.kind {
                let b =
                    op.b.ok_or_else(|| format!("op {i} lacks a second operand"))?;
                if defects.is_dead_link(op.a, b) {
                    return Err(format!("op {i} rides dead link {}-{}", op.a, b));
                }
                if !self.topo.are_coupled(op.a, b) {
                    return Err(format!("op {i} pairs uncoupled qubits {}-{}", op.a, b));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mech_chiplet::{CouplingStructure, PhysQubit};

    #[test]
    fn defective_specs_are_distinct_cache_keys() {
        let pristine = DeviceSpec::square(5, 1, 2);
        let empty = pristine.clone().with_defects(DefectMap::default());
        // Empty defect map: same device.
        assert_eq!(pristine, empty);
        let degraded = pristine
            .clone()
            .with_defects(DefectMap::new().with_dead_qubit(PhysQubit(3)));
        assert_ne!(pristine, degraded);
        // A distinct spec builds a distinct device.
        let dead = PhysQubit(3);
        assert!(!empty
            .build_artifacts()
            .topology()
            .neighbors(dead)
            .is_empty());
        assert!(degraded
            .build_artifacts()
            .topology()
            .neighbors(dead)
            .is_empty());
    }

    #[test]
    fn degraded_artifacts_exclude_dead_resources() {
        let pristine = DeviceSpec::square(5, 1, 2).build_artifacts();
        let dead_data = pristine.layout().data_qubits()[0];
        let dead_node = pristine.layout().nodes()[0];
        let spec = DeviceSpec::square(5, 1, 2).with_defects(
            DefectMap::new()
                .with_dead_qubit(dead_data)
                .with_dead_qubit(dead_node),
        );
        let device = spec.build_artifacts();
        assert_eq!(device.num_data_qubits(), pristine.num_data_qubits() - 1);
        assert!(device.topology().neighbors(dead_data).is_empty());
        assert!(device.topology().neighbors(dead_node).is_empty());
        assert!(!device.layout().nodes().contains(&dead_node));
        assert!(device.entrances().at(dead_data).is_empty());
        assert!(!device.skeleton().is_highway(dead_node));
        // No surviving entrance option mentions the dead highway node.
        for q in device.layout().data_qubits() {
            for opt in device.entrances().at(q) {
                assert_ne!(opt.entrance, dead_node);
                assert_ne!(opt.access, dead_data);
            }
        }
    }

    #[test]
    fn artifacts_are_complete() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        assert_eq!(device.num_data_qubits(), device.layout().num_data_qubits());
        assert!(device.topology().num_qubits() > device.num_data_qubits());
        let q = device.layout().data_qubits()[0];
        assert!(
            !device.entrances().at(q).is_empty(),
            "entrance table built eagerly"
        );
        let skeleton = device.skeleton();
        assert_eq!(skeleton.csr().num_edges(), device.layout().edges().len());
        for &node in device.layout().nodes() {
            assert!(skeleton.is_highway(node));
        }
        assert!(!skeleton.is_highway(q));
    }

    #[test]
    fn spec_keys_compare_structurally() {
        let a = DeviceSpec::square(6, 2, 2).with_density(2);
        let b = DeviceSpec::square(6, 2, 2).with_density(2);
        assert_eq!(a, b);
        assert_ne!(a, b.clone().with_density(1));
        // A different knob is a different device.
        assert_ne!(a, b.with_entrance_candidates(2));
        let heavy_hex = ChipletSpec::new(CouplingStructure::HeavyHexagon, 6, 2, 2);
        assert_ne!(a, DeviceSpec::new(heavy_hex).with_density(2));
    }
}
