//! Sanity checks on the benchmark harness itself: the paper-figure
//! generators must produce series whose *shape* matches the claims the
//! harness exists to reproduce, even at laptop-scale node counts. These
//! run the actual simulator sweeps at tiny sizes, so they double as fast
//! regression tests for the experiment pipeline.

use crate::fig15::{figure15, Panel};
use crate::fig16::figure16;
use crate::fig9::{figure9, render};
use crate::headline::headlines;
use crate::series::{paper_node_counts, weak_scale_2d, weak_scale_3d, SamplePoint, Series};
use distal_algs::higher_order::HigherOrderKernel;

#[test]
fn weak_scaling_sides_keep_memory_per_node_constant() {
    // 2-D tensors: n^2 scales with nodes, so n scales with sqrt(nodes).
    let base = 8192;
    assert_eq!(weak_scale_2d(base, 1), 8192);
    assert_eq!(weak_scale_2d(base, 4), 16384);
    let n16 = weak_scale_2d(base, 16);
    assert_eq!(n16, 32768);
    // 3-D tensors: n scales with cbrt(nodes).
    assert_eq!(weak_scale_3d(1000, 1), 1000);
    assert_eq!(weak_scale_3d(1000, 8), 2000);
    // Memory per node stays within 2x of the base across a sweep.
    for nodes in paper_node_counts(256) {
        let n = weak_scale_2d(base, nodes);
        let per_node = (n as f64).powi(2) / nodes as f64;
        let ratio = per_node / (base as f64).powi(2);
        assert!((0.5..=2.0).contains(&ratio), "nodes={nodes} ratio={ratio}");
    }
}

#[test]
fn paper_node_counts_double() {
    assert_eq!(paper_node_counts(16), vec![1, 2, 4, 8, 16]);
    assert_eq!(paper_node_counts(1), vec![1]);
}

#[test]
fn series_and_tables() {
    let mut s = Series::new("x");
    s.push(1, SamplePoint::Value(2.0));
    s.push(2, SamplePoint::Oom);
    assert_eq!(s.at(1), Some(2.0));
    assert_eq!(s.at(2), None);
    assert_eq!(s.at(3), None);
}

#[test]
fn figure15a_cpu_shape_holds_at_small_scale() {
    // 4 nodes, small matrices: the qualitative claims of §7.1.1 must
    // already be visible: our best schedule and COSMA within ~15%, and
    // ScaLAPACK/CTF behind the best DISTAL schedule.
    let fig = figure15(Panel::Cpu, 4, 1024);
    let at = |name: &str, nodes: usize| -> f64 {
        fig.series(name)
            .unwrap_or_else(|| panic!("missing series {name}"))
            .at(nodes)
            .unwrap_or_else(|| panic!("missing point {name}@{nodes}"))
    };
    for nodes in [1usize, 4] {
        let ours = ["Our Cannon", "Our SUMMA", "Our PUMMA"]
            .iter()
            .map(|s| at(s, nodes))
            .fold(0.0f64, f64::max);
        let cosma = at("COSMA", nodes);
        let scalapack = at("SCALAPACK", nodes);
        let ctf = at("CTF", nodes);
        assert!(ours > 0.0 && cosma > 0.0);
        assert!(
            ours >= 0.8 * cosma,
            "nodes={nodes}: ours={ours} cosma={cosma}"
        );
        assert!(
            scalapack <= ours,
            "nodes={nodes}: scalapack={scalapack} ours={ours}"
        );
        assert!(ctf <= 1.05 * ours, "nodes={nodes}: ctf={ctf} ours={ours}");
    }
    // The peak-utilization line bounds everything.
    for s in &fig.series {
        for (nodes, p) in &s.points {
            if let Some(v) = p.value() {
                assert!(
                    v <= at("Peak Utilization", *nodes) * 1.001,
                    "{}@{nodes} = {v} exceeds peak",
                    s.name
                );
            }
        }
    }
}

#[test]
fn figure15b_gpu_oom_and_single_node_gap() {
    // GPU panel at 4 nodes with a base size big enough to trigger the 3-D
    // replication OOM on the small framebuffer model used in tests.
    let fig = figure15(Panel::Gpu, 2, 4096);
    // §7.1.2: on a single node our kernels achieve ~2x COSMA (COSMA stages
    // through host memory).
    let ours = fig.series("Our SUMMA").unwrap().at(1).unwrap();
    let cosma = fig.series("COSMA").unwrap().at(1).unwrap();
    assert!(
        ours > 1.5 * cosma,
        "single-node GPU: ours={ours} cosma={cosma} (want ~2x)"
    );
}

#[test]
fn figure16_ttv_outlier_direction() {
    // Figure 16a: CTF's matmul-casting of TTV collapses past one node
    // while ours stays flat — the 45.7x outlier's mechanism.
    let fig = figure16(HigherOrderKernel::Ttv, crate::fig16::Panel::Cpu, 4, 128);
    let ours1 = fig.series("Ours").unwrap().at(1).unwrap();
    let ours4 = fig.series("Ours").unwrap().at(4).unwrap();
    let ctf4 = fig.series("CTF").unwrap().at(4).unwrap();
    assert!(ours4 > 3.0 * ctf4, "ours={ours4} ctf={ctf4}");
    // Ours weak-scales: per-node bandwidth within 2x across the sweep.
    assert!(ours4 > 0.4 * ours1);
}

#[test]
fn figure9_profiles_render_and_classify() {
    let profiles = figure9(4, 256);
    assert!(profiles.len() >= 5);
    let table = render(&profiles);
    for name in ["Cannon", "SUMMA", "Johnson"] {
        assert!(table.contains(name), "{table}");
    }
    // Cannon's systolic pattern has lower source fan-out than SUMMA's
    // broadcasts.
    let cannon = profiles.iter().find(|p| p.name.contains("Cannon")).unwrap();
    let summa = profiles.iter().find(|p| p.name.contains("SUMMA")).unwrap();
    assert!(cannon.max_fanout <= summa.max_fanout);
    // Johnson's is the only family folding distributed reductions here.
    let johnson = profiles
        .iter()
        .find(|p| p.name.contains("Johnson"))
        .unwrap();
    assert!(johnson.reductions > 0);
    assert_eq!(cannon.reductions, 0);
}

#[test]
fn headline_ratios_present() {
    let rows = headlines(2, 512, 64);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.speedup.is_finite() && row.speedup > 0.0, "{row:?}");
    }
    // The table contains the vs-CTF higher-order rows the abstract quotes.
    assert!(rows.iter().any(|r| r.label.contains("TTV")));
}
