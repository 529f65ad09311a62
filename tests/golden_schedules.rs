//! Golden-schedule regression tests.
//!
//! The MECH compiler must be *bit-deterministic*: the paper-figure binaries
//! depend on reproducible schedules, and performance refactors of the hot
//! path (incremental front layer, incremental aggregation front, routing
//! scratch, entrance tables) must not change compiled output. Each test
//! compiles a fixed seeded program on a fixed device and compares an
//! order-insensitive fingerprint — depth, operation counts, off-highway
//! gate count, shuttle statistics and the full per-shuttle timeline —
//! against a golden value captured from the pre-refactor compiler.
//!
//! The seeded programs come from `mech_bench::programs`, the same
//! generators the `perfbench` benchmark serves — the fingerprints below pin
//! exactly the circuits whose compile times the benchmark tracks.
//!
//! To regenerate after an *intentional* schedule change, run
//! `MECH_GOLDEN_PRINT=1 cargo test --test golden_schedules -- --nocapture`
//! and paste the printed fingerprints below.

use std::sync::Arc;

use mech::{BaselineCompiler, CompilerConfig, DeviceArtifacts, DeviceSpec, MechCompiler};
use mech_bench::programs;
use mech_chiplet::{ChipletSpec, CouplingStructure, DefectMap};
use mech_circuit::{benchmarks, Circuit};

/// Renders everything schedule-relevant about a compile result into one
/// comparable string. Deliberately excludes the raw op list: op *emission
/// order* between commuting free one-qubit gates is not part of the
/// schedule contract, while every timed quantity below is.
fn fingerprint(device: &Arc<DeviceArtifacts>, program: &Circuit, config: CompilerConfig) -> String {
    let compiler = MechCompiler::new(Arc::clone(device), config);
    let r = compiler.compile(program).expect("golden program compiles");
    let c = r.circuit.counts();
    let mut fp = format!(
        "depth={} on={} cross={} meas={} one={} regular={} shuttles={} hwgates={} comps={} trace=",
        r.circuit.depth(),
        c.on_chip_cnots,
        c.cross_chip_cnots,
        c.measurements,
        c.one_qubit,
        r.regular_gates,
        r.shuttle_stats.shuttles,
        r.shuttle_stats.highway_gates,
        r.shuttle_stats.components,
    );
    for t in &r.shuttle_trace {
        fp.push_str(&format!(
            "({},{},{},{})",
            t.closed_at, t.groups, t.components, t.claimed_qubits
        ));
    }
    fp
}

/// Asserts the fingerprint matches, or prints it when regenerating.
fn check(name: &str, device: &Arc<DeviceArtifacts>, program: &Circuit, golden: &str) {
    check_with(name, device, program, CompilerConfig::default(), golden);
}

fn check_with(
    name: &str,
    device: &Arc<DeviceArtifacts>,
    program: &Circuit,
    config: CompilerConfig,
    golden: &str,
) {
    let actual = fingerprint(device, program, config);
    if std::env::var_os("MECH_GOLDEN_PRINT").is_some() {
        println!("GOLDEN {name} = {actual}");
        return;
    }
    assert_eq!(
        actual, golden,
        "schedule for {name} diverged from the golden snapshot"
    );
}

#[test]
fn golden_qft_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check("qft_6x6_2x2", &dev, &programs::qft(n), GOLDEN_QFT);
}

#[test]
fn golden_qaoa_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check("qaoa_6x6_2x2", &dev, &programs::qaoa(n), GOLDEN_QAOA);
}

#[test]
fn golden_vqe_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check("vqe_6x6_2x2", &dev, &programs::vqe(n), GOLDEN_VQE);
}

#[test]
fn golden_bv_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check("bv_6x6_2x2", &dev, &programs::bv(n), GOLDEN_BV);
}

#[test]
fn golden_random_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check(
        "random_6x6_2x2",
        &dev,
        &programs::golden_random(n),
        GOLDEN_RANDOM,
    );
}

#[test]
fn golden_qft_heavy_hex_8x8_2x2() {
    // A non-square lattice: heavy-hexagon chiplets have missing cells,
    // degree-3 qubits and corridors carved around holes, so this pins the
    // carve, entrance and claim geometry the square goldens never touch.
    // Captured after the CSR routing-substrate refactor (PR 5) — it locks
    // in the kernel layer's canonical tie-breaks on irregular lattices.
    let dev = DeviceSpec::new(ChipletSpec::new(CouplingStructure::HeavyHexagon, 8, 2, 2))
        .build_artifacts();
    let n = dev.num_data_qubits();
    check(
        "qft_heavyhex_8x8_2x2",
        &dev,
        &programs::qft(n),
        GOLDEN_QFT_HEAVY_HEX,
    );
}

#[test]
fn golden_qft_with_empty_defect_map_is_byte_identical() {
    // The defect model's zero-cost rail (DESIGN.md §13): attaching an
    // *empty* defect map is not allowed to change one byte of the compiled
    // schedule — same golden constant, no separate fingerprint.
    let dev = DeviceSpec::square(6, 2, 2)
        .with_defects(DefectMap::new())
        .build_artifacts();
    let n = dev.num_data_qubits();
    check(
        "qft_6x6_2x2_empty_defects",
        &dev,
        &programs::qft(n),
        GOLDEN_QFT,
    );
}

#[test]
fn golden_qft_dense_highway_7x7_1x2() {
    // A second device shape and a denser highway exercise different claim
    // geometry and entrance tables.
    let dev = DeviceSpec::square(7, 1, 2)
        .with_density(2)
        .build_artifacts();
    let n = dev.num_data_qubits();
    check("qft_7x7_1x2_d2", &dev, &programs::qft(n), GOLDEN_QFT_DENSE);
}

#[test]
fn golden_regular_heavy_6x6_2x2() {
    // A routing-heavy workload: with aggregation effectively disabled
    // (huge `min_components`) nearly every two-qubit gate goes through the
    // regular phase, so this pins SWAP routing and the forced-progress
    // fallback rather than the highway.
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    let config = CompilerConfig {
        min_components: 64,
        ..CompilerConfig::default()
    };
    check_with(
        "regular_heavy_6x6_2x2",
        &dev,
        &benchmarks::random_circuit(n, 1200, 77),
        config,
        GOLDEN_REGULAR_HEAVY,
    );
}

#[test]
fn golden_multi_gate_pairs_at_min_components_2_and_5() {
    // Random programs are the fronts where one qubit pair holds several
    // ready controlled gates, so the aggregation carve picks among them
    // per group; pinning them at a threshold below and above the default
    // covers groups of every size the carve can form.
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    let cases = [
        (
            "rand_dense",
            programs::rand_dense(n),
            2,
            GOLDEN_RAND_DENSE_MIN2,
        ),
        (
            "rand_dense",
            programs::rand_dense(n),
            5,
            GOLDEN_RAND_DENSE_MIN5,
        ),
        ("random", programs::golden_random(n), 2, GOLDEN_RANDOM_MIN2),
        ("random", programs::golden_random(n), 5, GOLDEN_RANDOM_MIN5),
    ];
    for (name, program, min_components, golden) in cases {
        let config = CompilerConfig {
            min_components,
            ..CompilerConfig::default()
        };
        check_with(
            &format!("{name}_6x6_2x2_min{min_components}"),
            &dev,
            &program,
            config,
            golden,
        );
    }
}

/// The SABRE baseline's fingerprint: depth and operation counts of the
/// routed circuit. The baseline walks the same `DagSchedule` ready front
/// as MECH, so these pin that front's iteration order from the other
/// side.
fn baseline_fingerprint(device: &Arc<DeviceArtifacts>, program: &Circuit) -> String {
    let pc = BaselineCompiler::new(device.topology(), CompilerConfig::default())
        .compile(program)
        .expect("golden program routes");
    let c = pc.counts();
    format!(
        "depth={} on={} cross={} meas={} one={}",
        pc.depth(),
        c.on_chip_cnots,
        c.cross_chip_cnots,
        c.measurements,
        c.one_qubit,
    )
}

fn check_baseline(name: &str, device: &Arc<DeviceArtifacts>, program: &Circuit, golden: &str) {
    let actual = baseline_fingerprint(device, program);
    if std::env::var_os("MECH_GOLDEN_PRINT").is_some() {
        println!("GOLDEN {name} = {actual}");
        return;
    }
    assert_eq!(
        actual, golden,
        "baseline schedule for {name} diverged from the golden snapshot"
    );
}

#[test]
fn golden_baseline_qft_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check_baseline(
        "baseline_qft_6x6_2x2",
        &dev,
        &programs::qft(n),
        GOLDEN_BASELINE_QFT,
    );
}

#[test]
fn golden_baseline_qaoa_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check_baseline(
        "baseline_qaoa_6x6_2x2",
        &dev,
        &programs::qaoa(n),
        GOLDEN_BASELINE_QAOA,
    );
}

#[test]
fn golden_baseline_rand_sparse_6x6_2x2() {
    let dev = DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = dev.num_data_qubits();
    check_baseline(
        "baseline_rand_sparse_6x6_2x2",
        &dev,
        &programs::rand_sparse(n),
        GOLDEN_BASELINE_RAND_SPARSE,
    );
}

// ---------------------------------------------------------------------------
// Golden fingerprints, captured from the seed compiler (PR 1 state) before
// the hot-path refactor. `MECH_GOLDEN_PRINT=1` regenerates.
// ---------------------------------------------------------------------------

const GOLDEN_QFT: &str = "depth=3079 on=19975 cross=859 meas=4097 one=21027 regular=3 shuttles=105 hwgates=105 comps=5775 trace=(42,1,107,36)(78,1,106,36)(120,1,105,36)(162,1,104,36)(204,1,103,36)(243,1,102,36)(286,1,101,36)(328,1,100,36)(359,1,99,36)(393,1,98,36)(429,1,97,36)(468,1,96,36)(500,1,95,36)(533,1,94,36)(567,1,93,36)(598,1,92,36)(631,1,91,36)(670,1,90,36)(702,1,89,36)(732,1,88,36)(766,1,87,36)(799,1,86,36)(832,1,85,36)(871,1,84,36)(903,1,83,36)(936,1,82,36)(968,1,81,36)(1001,1,80,36)(1032,1,79,36)(1068,1,78,36)(1102,1,77,34)(1132,1,76,33)(1169,1,75,32)(1203,1,74,32)(1236,1,73,32)(1275,1,72,32)(1309,1,71,32)(1341,1,70,32)(1377,1,69,32)(1411,1,68,32)(1446,1,67,32)(1485,1,66,32)(1517,1,65,32)(1547,1,64,32)(1578,1,63,32)(1611,1,62,32)(1644,1,61,32)(1683,1,60,32)(1712,1,59,32)(1745,1,58,32)(1776,1,57,32)(1806,1,56,32)(1836,1,55,32)(1872,1,54,31)(1904,1,53,30)(1937,1,52,25)(1968,1,51,30)(1998,1,50,30)(2028,1,49,30)(2064,1,48,30)(2095,1,47,32)(2119,1,46,29)(2146,1,45,32)(2175,1,44,29)(2203,1,43,29)(2227,1,42,29)(2250,1,41,32)(2274,1,40,28)(2293,1,39,31)(2315,1,38,27)(2347,1,37,27)(2371,1,36,31)(2394,1,35,31)(2414,1,34,31)(2434,1,33,31)(2455,1,32,26)(2476,1,31,26)(2500,1,30,26)(2520,1,29,26)(2544,1,28,25)(2564,1,27,25)(2586,1,26,21)(2610,1,25,21)(2630,1,24,21)(2654,1,23,16)(2674,1,22,16)(2704,1,21,14)(2735,1,20,14)(2757,1,19,14)(2779,1,18,14)(2801,1,17,14)(2822,1,16,14)(2845,1,15,14)(2865,1,14,14)(2888,1,13,14)(2907,1,12,14)(2927,1,11,14)(2944,1,10,14)(2961,1,9,13)(2982,1,8,13)(2999,1,7,13)(3016,1,6,11)(3034,1,5,8)(3051,1,4,8)(3066,1,3,5)";
const GOLDEN_QAOA: &str = "depth=2431 on=12883 cross=777 meas=3785 one=14624 regular=24 shuttles=90 hwgates=124 comps=2865 trace=(33,1,68,34)(132,1,65,36)(192,1,63,34)(224,1,62,35)(259,1,60,35)(292,1,59,36)(325,1,58,35)(357,1,56,35)(389,1,56,35)(426,1,56,35)(465,1,55,33)(496,1,55,35)(525,1,53,35)(562,2,57,36)(589,1,52,35)(617,1,51,35)(642,1,50,36)(695,2,57,35)(727,1,49,35)(750,1,47,36)(770,2,50,35)(797,1,46,36)(826,1,45,36)(858,1,44,35)(886,1,43,36)(913,1,43,33)(938,1,42,34)(967,1,41,33)(990,1,41,33)(1009,1,40,35)(1033,1,39,34)(1068,2,42,35)(1107,2,43,36)(1134,1,37,36)(1159,1,37,35)(1181,1,36,33)(1201,1,35,36)(1225,1,34,34)(1253,1,34,31)(1277,1,34,33)(1297,2,35,35)(1319,1,32,35)(1354,2,33,33)(1376,1,31,36)(1396,2,32,35)(1418,1,29,34)(1460,3,40,36)(1483,1,27,35)(1507,1,26,35)(1541,2,29,33)(1559,1,26,33)(1587,1,25,32)(1610,1,25,31)(1639,2,25,32)(1673,2,26,28)(1692,1,23,32)(1718,2,24,34)(1734,1,22,34)(1753,1,21,35)(1773,2,23,33)(1791,1,20,31)(1816,2,20,30)(1836,1,18,30)(1858,1,17,32)(1878,1,17,28)(1899,3,23,36)(1916,1,16,29)(1941,2,20,29)(1969,3,18,32)(2028,1,14,26)(2067,1,14,24)(2085,3,17,33)(2110,1,13,27)(2129,2,13,32)(2166,1,12,26)(2181,1,11,30)(2198,4,14,29)(2216,2,12,27)(2232,1,10,26)(2264,2,9,20)(2282,1,8,27)(2300,2,9,22)(2315,1,7,16)(2328,1,7,21)(2342,1,6,23)(2362,2,6,25)(2375,1,5,20)(2403,3,9,25)(2416,2,7,25)(2429,1,4,15)";
const GOLDEN_VQE: &str = "depth=3084 on=19981 cross=859 meas=4097 one=21135 regular=3 shuttles=105 hwgates=105 comps=5775 trace=(42,1,107,36)(78,1,106,36)(120,1,105,36)(162,1,104,36)(204,1,103,36)(243,1,102,36)(286,1,101,36)(328,1,100,36)(359,1,99,36)(393,1,98,36)(429,1,97,36)(468,1,96,36)(500,1,95,36)(533,1,94,36)(567,1,93,36)(598,1,92,36)(631,1,91,36)(670,1,90,36)(702,1,89,36)(732,1,88,36)(766,1,87,36)(799,1,86,36)(832,1,85,36)(871,1,84,36)(903,1,83,36)(936,1,82,36)(968,1,81,36)(1001,1,80,36)(1032,1,79,36)(1068,1,78,36)(1102,1,77,34)(1132,1,76,33)(1169,1,75,32)(1203,1,74,32)(1236,1,73,32)(1275,1,72,32)(1309,1,71,32)(1341,1,70,32)(1377,1,69,32)(1411,1,68,32)(1446,1,67,32)(1485,1,66,32)(1517,1,65,32)(1547,1,64,32)(1578,1,63,32)(1611,1,62,32)(1644,1,61,32)(1683,1,60,32)(1712,1,59,32)(1745,1,58,32)(1776,1,57,32)(1806,1,56,32)(1836,1,55,32)(1872,1,54,31)(1904,1,53,30)(1937,1,52,25)(1968,1,51,30)(1998,1,50,30)(2028,1,49,30)(2064,1,48,30)(2095,1,47,32)(2119,1,46,29)(2146,1,45,32)(2175,1,44,29)(2203,1,43,29)(2227,1,42,29)(2250,1,41,32)(2274,1,40,28)(2293,1,39,31)(2315,1,38,27)(2347,1,37,27)(2371,1,36,31)(2394,1,35,31)(2414,1,34,31)(2434,1,33,31)(2455,1,32,26)(2476,1,31,26)(2500,1,30,26)(2520,1,29,26)(2544,1,28,25)(2564,1,27,25)(2586,1,26,21)(2610,1,25,21)(2630,1,24,21)(2654,1,23,16)(2674,1,22,16)(2704,1,21,14)(2735,1,20,14)(2757,1,19,14)(2779,1,18,14)(2801,1,17,14)(2822,1,16,14)(2845,1,15,14)(2865,1,14,14)(2888,1,13,14)(2907,1,12,14)(2927,1,11,14)(2944,1,10,14)(2961,1,9,13)(2982,1,8,13)(2999,1,7,13)(3016,1,6,11)(3034,1,5,8)(3051,1,4,8)(3066,1,3,5)";
const GOLDEN_BV: &str = "depth=25 on=198 cross=10 meas=154 one=433 regular=0 shuttles=1 hwgates=1 comps=53 trace=(25,1,53,35)";
const GOLDEN_RANDOM: &str = "depth=1414 on=3233 cross=300 meas=276 one=859 regular=160 shuttles=15 hwgates=26 comps=68 trace=(20,2,7,12)(216,1,4,10)(241,1,4,12)(282,2,5,23)(294,1,3,11)(453,2,5,12)(617,2,4,11)(744,3,6,16)(785,2,4,26)(801,1,3,10)(981,3,6,14)(1125,1,3,11)(1285,2,5,11)(1304,2,5,12)(1329,1,4,10)";
const GOLDEN_QFT_HEAVY_HEX: &str = "depth=4301 on=30300 cross=1389 meas=4603 one=21526 regular=17 shuttles=106 hwgates=106 comps=5339 trace=(55,1,103,53)(102,1,102,53)(155,1,101,53)(202,1,100,53)(249,1,96,53)(296,1,98,53)(343,1,97,53)(390,1,93,53)(437,1,95,53)(484,1,91,53)(531,1,93,53)(546,1,1,16)(561,1,1,16)(608,1,92,53)(627,1,2,16)(646,1,2,16)(693,1,90,53)(740,1,90,53)(787,1,89,53)(834,1,88,53)(881,1,87,52)(928,1,86,52)(975,1,85,52)(1022,1,84,52)(1069,1,83,51)(1116,1,82,51)(1160,1,81,51)(1207,1,80,51)(1254,1,79,51)(1298,1,78,51)(1345,1,77,48)(1388,1,76,48)(1435,1,75,49)(1478,1,74,48)(1525,1,73,45)(1572,1,72,46)(1616,1,71,45)(1660,1,70,45)(1703,1,69,44)(1747,1,68,44)(1797,1,67,44)(1844,1,66,44)(1890,1,65,44)(1937,1,64,40)(1985,1,63,40)(2030,1,62,40)(2075,1,61,40)(2126,1,60,40)(2171,1,59,40)(2219,1,58,40)(2266,1,57,40)(2315,1,56,40)(2363,1,55,40)(2412,1,54,40)(2464,1,53,40)(2508,1,52,40)(2558,1,51,27)(2605,1,50,40)(2652,1,49,40)(2704,1,48,27)(2751,1,47,40)(2798,1,46,27)(2849,1,45,27)(2904,1,44,30)(2937,1,43,39)(2979,1,42,30)(3015,1,41,39)(3048,1,40,39)(3087,1,39,27)(3121,1,38,40)(3160,1,37,27)(3202,1,36,27)(3238,1,35,27)(3273,1,34,27)(3305,1,33,24)(3343,1,32,22)(3380,1,31,22)(3417,1,30,22)(3453,1,29,22)(3488,1,28,22)(3523,1,27,20)(3554,1,26,22)(3590,1,25,23)(3623,1,24,22)(3658,1,23,17)(3693,1,22,18)(3724,1,21,17)(3757,1,20,17)(3793,1,19,16)(3827,1,18,16)(3857,1,17,16)(3898,1,16,16)(3928,1,15,16)(3969,1,14,16)(4002,1,13,16)(4037,1,12,16)(4066,1,11,16)(4088,1,6,16)(4116,1,9,16)(4132,1,4,16)(4162,1,7,16)(4187,1,1,7)(4209,1,6,16)(4239,1,3,16)(4261,1,3,16)(4278,1,3,16)";
const GOLDEN_QFT_DENSE: &str = "depth=807 on=3742 cross=115 meas=2052 one=7231 regular=3 shuttles=47 hwgates=47 comps=1222 trace=(23,1,49,45)(41,1,48,45)(59,1,47,45)(80,1,46,46)(97,1,45,45)(115,1,44,45)(134,1,43,45)(152,1,42,45)(169,1,41,44)(187,1,40,46)(204,1,39,44)(220,1,38,43)(236,1,37,43)(252,1,36,43)(271,1,35,42)(288,1,34,42)(304,1,33,40)(320,1,32,41)(337,1,31,39)(353,1,30,40)(370,1,29,37)(386,1,28,36)(402,1,27,35)(419,1,26,36)(436,1,25,35)(453,1,24,36)(469,1,23,35)(485,1,22,36)(502,1,21,35)(518,1,20,36)(534,1,19,22)(550,1,18,22)(565,1,17,22)(581,1,16,22)(597,1,15,22)(614,1,14,22)(629,1,13,22)(644,1,12,22)(660,1,11,22)(679,1,10,22)(694,1,9,20)(709,1,8,20)(724,1,7,18)(743,1,6,14)(756,1,5,11)(768,1,4,11)(779,1,3,9)";
const GOLDEN_REGULAR_HEAVY: &str = "depth=4078 on=14589 cross=1990 meas=108 one=500 regular=700 shuttles=0 hwgates=0 comps=0 trace=";

// SABRE baseline fingerprints, captured at commit 7ec939a, before the
// ready fronts became bitsets.
const GOLDEN_BASELINE_QFT: &str = "depth=8112 on=25527 cross=2796 meas=108 one=108";
const GOLDEN_BASELINE_QAOA: &str = "depth=3459 on=11818 cross=1772 meas=108 one=216";
const GOLDEN_BASELINE_RAND_SPARSE: &str = "depth=434 on=2760 cross=460 meas=108 one=188";

// Random programs at a non-default aggregation threshold, captured at
// commit 9e92ac9, before the aggregation carve counted instead of scanning.
const GOLDEN_RAND_DENSE_MIN2: &str = "depth=3461 on=11536 cross=1382 meas=2392 one=7001 regular=284 shuttles=96 hwgates=195 comps=480 trace=(16,4,9,29)(176,3,7,26)(253,2,7,23)(270,3,6,25)(317,1,4,19)(425,2,5,22)(457,2,4,23)(470,1,4,14)(488,2,6,20)(515,4,8,30)(577,1,4,24)(590,2,4,22)(630,1,3,15)(645,2,5,25)(658,2,4,24)(701,2,5,22)(730,5,7,27)(750,2,6,26)(787,1,4,20)(804,3,6,22)(883,3,6,19)(919,2,5,23)(972,4,8,26)(1005,2,4,24)(1087,3,9,25)(1101,2,5,22)(1151,2,5,22)(1164,3,6,23)(1238,1,4,19)(1326,2,7,20)(1376,2,3,16)(1447,3,6,20)(1499,4,6,26)(1612,4,8,29)(1633,2,5,26)(1671,1,4,17)(1685,3,7,24)(1698,1,3,16)(1745,4,6,26)(1764,2,5,18)(1848,2,7,26)(1861,1,2,15)(1874,2,4,25)(1887,1,2,13)(1904,2,7,26)(1918,1,6,22)(1933,2,5,18)(1947,3,5,24)(1986,2,9,26)(2057,3,6,25)(2078,1,4,22)(2091,2,5,28)(2105,1,5,19)(2147,1,3,18)(2160,2,3,18)(2177,2,4,23)(2209,1,6,19)(2237,2,6,22)(2251,1,4,14)(2266,1,3,15)(2279,1,3,15)(2292,1,3,18)(2320,2,4,27)(2361,1,4,20)(2374,2,3,23)(2391,2,8,24)(2458,4,10,25)(2495,2,9,24)(2512,1,6,23)(2525,2,6,27)(2554,1,3,11)(2567,2,4,22)(2584,2,4,18)(2659,2,3,16)(2672,2,4,19)(2686,2,4,15)(2731,3,4,22)(2764,2,3,21)(2836,4,6,26)(2856,2,4,21)(2955,2,6,20)(3003,2,5,25)(3017,2,6,24)(3061,1,4,20)(3077,3,6,27)(3090,1,5,24)(3123,1,5,20)(3175,1,3,17)(3191,3,6,23)(3204,3,6,24)(3250,1,2,12)(3288,2,5,19)(3301,2,3,20)(3353,1,3,10)(3419,1,2,12)(3432,1,2,19)";
const GOLDEN_RAND_DENSE_MIN5: &str = "depth=5366 on=15412 cross=2156 meas=394 one=1360 regular=680 shuttles=9 hwgates=25 comps=84 trace=(1014,2,6,25)(2172,4,13,27)(2846,3,10,29)(3302,3,11,28)(3615,2,10,28)(3697,3,10,24)(4110,4,9,30)(4738,2,7,21)(4964,2,8,26)";
const GOLDEN_RANDOM_MIN2: &str = "depth=1110 on=2843 cross=223 meas=586 one=1745 regular=85 shuttles=37 hwgates=59 comps=143 trace=(20,2,7,12)(57,1,4,9)(89,1,4,9)(104,2,6,25)(121,2,4,9)(150,2,4,12)(165,2,4,11)(180,1,3,9)(206,1,3,10)(225,1,3,10)(241,1,2,10)(257,3,4,12)(277,4,6,13)(348,3,5,12)(362,1,2,10)(393,2,5,14)(405,1,4,10)(496,1,3,11)(519,2,4,12)(536,1,3,6)(549,2,4,27)(677,2,3,12)(717,2,5,26)(800,1,4,12)(814,1,4,10)(833,1,3,10)(846,1,4,14)(860,1,3,10)(880,3,7,13)(894,1,3,12)(957,1,5,10)(974,1,3,9)(987,1,2,8)(1002,2,4,12)(1045,2,3,24)(1060,1,2,10)(1077,2,4,24)";
const GOLDEN_RANDOM_MIN5: &str = "depth=1588 on=3436 cross=354 meas=101 one=357 regular=206 shuttles=4 hwgates=5 comps=22 trace=(567,2,7,12)(688,1,5,10)(922,1,5,14)(1216,1,5,12)";
