//! Cyclops Tensor Framework baseline (Solomonik et al. 2014).
//!
//! CTF is the only prior system with DISTAL's generality (§8). Its strategy:
//! *matricize* every tensor contraction — reshape/redistribute the operand
//! tensors into matrices laid out on CTF's internal processor grid, run its
//! hand-written distributed GEMM (the 2.5D algorithm), and reshape back.
//!
//! The reshapes are where the "unnecessary communication" of §7.2.2 comes
//! from: the user's data distribution rarely matches the internal matrix
//! layout, so the large 3-tensor crosses the network before any flop is
//! computed. DISTAL instead compiles a bespoke kernel against the data where
//! it lies.
//!
//! Here every step is an ordinary statement planned like any other: a
//! reshape is a copy such as `Bm(i,j,k) = B(i,j,k)` whose output format
//! puts `Bm` where CTF's matrix layout wants it, the Khatri-Rao product of
//! MTTKRP is the einsum `Km(j,k,l) = C(j,l) * D(k,l)`, and the next stage
//! declares the same tensor in its matricized shape. A dimension grouping
//! is the identity on the row-major linearization, so the hand-off moves
//! nothing when each row-major element stays on its rank — which the two
//! formats of every handed-off tensor guarantee (block widths are chosen
//! per level, so groupings need not divide the grid evenly).
//!
//! All stages of a kernel run on CTF's internal grid, as a hierarchy of
//! lines (one per grid dimension, so every level partitions one tensor
//! dimension with its own block width); the user's at-rest layouts are
//! restated on it, element for element on the same rank.

use crate::common::{PhasedRun, System};
use distal_algs::higher_order::{near_cubic_3d, HigherOrderKernel};
use distal_algs::matmul::{best_c, MatmulAlgorithm};
use distal_algs::setup::RunConfig;
use distal_core::{BackendError, CompileError, DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::notation::TensorDistribution;
use distal_format::Format;
use distal_ir::expr::Assignment;
use distal_machine::geom::div_ceil;
use distal_machine::grid::Grid;
use distal_machine::spec::MemKind;

/// CTF's GEMM: the 2.5D algorithm, bulk-synchronous.
///
/// # Errors
///
/// Propagates planning errors.
pub fn gemm(config: &RunConfig, n: i64) -> Result<PhasedRun, BackendError> {
    let p = config.processors();
    let alg = MatmulAlgorithm::Solomonik { c: best_c(p) };
    let system = System {
        efficiency: 0.92,
        bulk_synchronous: true,
        compute_mem: None,
    };
    PhasedRun::gemm(config, alg, n, &alg.schedule(p, n, 1), system)
}

/// One level of a layout on CTF's grid of lines.
#[derive(Clone, Copy, Debug)]
enum Part {
    /// The tensor's dimension `d`, in blocks of the given width.
    Dim(usize, i64),
    /// Replicated along the level.
    All,
    /// Held at the level's first coordinate only.
    First,
}
use Part::{All, Dim, First};

/// A format of an `order`-dimensional tensor on CTF's grid of lines, one
/// part per level; no parts is an undistributed tensor.
fn layout(order: usize, parts: &[Part], mem: MemKind) -> Format {
    if parts.is_empty() {
        return Format::undistributed_in(mem);
    }
    let names = &"ijklmn"[..order];
    let levels = parts
        .iter()
        .map(|part| {
            let (machine, width) = match *part {
                Dim(d, width) => (&names[d..=d], width),
                All => ("*", 1),
                First => ("0", 1),
            };
            TensorDistribution::parse(&format!("{names}->{machine} @bc{width}"))
                .expect("one dimension per level is a valid notation")
        })
        .collect();
    Format::hierarchical(levels, mem)
}

/// CTF's internal grid for `kernel` on `p` processors, per its own
/// grid-selection heuristics: a (capped) near-square grid for the
/// matricized mat-vec (TTV) — whose broadcasts of the folded 3-tensor are
/// the "unnecessary communication" behind the paper's outlier — a
/// row-aligned (p, 1) grid for the fat-by-skinny TTM product, which keeps
/// the big operand stationary, a line for the inner product (a
/// k-distributed dot), and the user's own 3-D grid for MTTKRP, whose
/// contraction dimension (j·k = n²) CTF splits across the grid's trailing
/// two dimensions.
fn grid(kernel: HigherOrderKernel, p: i64) -> Vec<i64> {
    match kernel {
        HigherOrderKernel::Ttv => {
            // The largest divisor of p up to the near-square grid's second
            // extent, capped at 8.
            let cap = Grid::near_square_2d(p).extent(1).min(8);
            let gy = (1..=cap).rev().find(|d| p % d == 0).unwrap_or(1);
            vec![p / gy, gy]
        }
        HigherOrderKernel::Ttm => vec![p, 1],
        HigherOrderKernel::Innerprod => vec![p],
        HigherOrderKernel::Mttkrp => near_cubic_3d(p).dims().to_vec(),
    }
}

/// An owner-computes schedule: the statement's `vars` divided into the
/// given numbers of parts and distributed, in order, above the `rest` —
/// one launch point per piece, on the rank of its row-major index.
fn owner_computes(vars: &[(&str, i64)], rest: &[&str]) -> Schedule {
    let mut schedule = Schedule::new();
    let (mut outer, mut inner) = (Vec::new(), Vec::new());
    for (var, parts) in vars {
        let (o, i) = (format!("{var}o"), format!("{var}i"));
        schedule = schedule.divide(var, &o, &i, *parts);
        outer.push(o);
        inner.push(i);
    }
    let outer: Vec<&str> = outer.iter().map(String::as_str).collect();
    let inner = inner.iter().map(String::as_str).chain(rest.iter().copied());
    let order: Vec<&str> = outer.iter().copied().chain(inner).collect();
    schedule.reorder(&order).distribute(&outer)
}

/// CTF's matricized pipeline for a §7.2 higher-order kernel: copy the
/// operands into matrices on CTF's internal grid, run its internal
/// bulk-synchronous GEMM (or dot), and copy the result back into the
/// user's distribution.
///
/// # Errors
///
/// Propagates planning errors from any stage.
pub fn higher_order(
    kernel: HigherOrderKernel,
    config: &RunConfig,
    n: i64,
) -> Result<PhasedRun, BackendError> {
    let p = config.processors();
    let lines = grid(kernel, p);
    let machine = DistalMachine::hierarchical(
        lines.iter().map(|&g| Grid::line(g)).collect(),
        config.proc_kind,
    );
    // §7.2.1: CTF aims at scalability to large core counts rather than
    // fully utilizing a single node.
    let system = System {
        efficiency: 0.55,
        bulk_synchronous: true,
        compute_mem: None,
    };
    let shapes = kernel.shapes(n);
    let mut run = PhasedRun::new(shapes[0].0);
    // Plans `expr` over its tensors — name, shape and layout — under
    // `schedule` as the next stage; the user's inputs are seeded as
    // `distal_algs::setup::higher_order_problem` seeds them.
    let mut stage = |expr: &str,
                     tensors: &[(&str, Vec<i64>, &[Part])],
                     schedule: Schedule|
     -> Result<(), BackendError> {
        let statement =
            Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
        let mut problem = Problem::new(system.spec(config, &statement), machine.clone());
        problem.set_assignment(statement);
        for (name, dims, parts) in tensors {
            let format = layout(dims.len(), parts, config.mem);
            problem.tensor(TensorSpec::new(*name, dims.clone(), format))?;
            let input = shapes.iter().position(|(user, _)| user == name);
            if let Some(idx) = input.filter(|&idx| idx > 0) {
                problem.fill_random(name, 0x51ED + idx as u64)?;
            }
        }
        run.stage(config, system.options(), &problem, &schedule)
    };
    let cube = vec![n, n, n];
    let l = 32.min(n);
    match kernel {
        HigherOrderKernel::Ttv | HigherOrderKernel::Ttm => {
            // Am(r, c) = Bm(r, k) * Cm(k, c), rows r = (i, j); TTV's one
            // column is the vector `c`.
            let ttv = kernel == HigherOrderKernel::Ttv;
            let (gx, gy) = (lines[0], lines[1]);
            let cols = if ttv { 1 } else { l };
            let (bx, by, bc) = (div_ceil(n, gx), div_ceil(n, gy), div_ceil(cols, gy));
            // The user's rows, blocked over all p ranks as on a line.
            let w = div_ceil(n, p);
            let rows = [Dim(0, gy * w), Dim(0, w)];
            stage(
                "Bm(i,j,k) = B(i,j,k)",
                &[
                    ("B", cube.clone(), &rows),
                    ("Bm", cube.clone(), &[Dim(0, bx), Dim(2, by)]),
                ],
                owner_computes(&[("i", gx), ("k", gy)], &["j"]).communicate(&["Bm", "B"], "ko"),
            )?;
            let (expr, input) = if ttv {
                ("Cm(k,l) = c(k)", "c")
            } else {
                ("Cm(k,l) = C(k,l)", "C")
            };
            let cm = [Dim(0, bx), Dim(1, bc)];
            stage(
                expr,
                &[
                    (input, shapes[2].1.clone(), &[All, All]),
                    ("Cm", vec![n, cols], &cm),
                ],
                owner_computes(&[("k", gx), ("l", gy)], &[]).communicate(&["Cm", input], "lo"),
            )?;
            let matrix = |width| [Dim(0, n * bx), Dim(1, width)];
            // Pipeline over at most 16 chunks: barriered micro-steps would
            // be latency-bound on row-aligned (p, 1) grids.
            let chunk = (n / gx.min(16)).max(1);
            // Rows in blocks of Am's and Bm's home width n·bx, so each grid
            // row writes the rows it holds (blocks of ⌈n²/gx⌉ rows do not
            // when gx does not divide n). Launch point (io, jo) is rank
            // io·gy + jo, its grid position, even when fewer than gx
            // blocks cover the rows.
            stage(
                "Am(i,j) = Bm(i,k) * Cm(k,j)",
                &[
                    ("Am", vec![n * n, cols], &matrix(bc)),
                    ("Bm", vec![n * n, n], &matrix(by)),
                    ("Cm", vec![n, cols], &cm),
                ],
                Schedule::new()
                    .split("i", "io", "ii", n * bx)
                    .divide("j", "jo", "ji", gy)
                    .split("k", "ko", "ki", chunk)
                    .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
                    .distribute(&["io", "jo"])
                    .communicate(&["Am"], "jo")
                    .communicate(&["Bm", "Cm"], "ko"),
            )?;
            let (expr, rest, am): (_, &[&str], _) = if ttv {
                (
                    "A(i,j) = Am(i,j)",
                    &["j"],
                    (vec![n, n], [Dim(0, bx), First]),
                )
            } else {
                (
                    "A(i,j,l) = Am(i,j,l)",
                    &["j", "l"],
                    (vec![n, n, l], [Dim(0, bx), Dim(2, bc)]),
                )
            };
            stage(
                expr,
                &[
                    (shapes[0].0, shapes[0].1.clone(), &rows),
                    ("Am", am.0, &am.1),
                ],
                owner_computes(&[("i", p)], rest).communicate(&["A", "Am"], "io"),
            )?;
        }
        HigherOrderKernel::Innerprod => {
            // The k-distributed dot with a final allreduce: CTF's path for
            // full contractions, which need no matricized GEMM.
            let w = div_ceil(n, p);
            for (input, copy) in [("B", "Bm"), ("C", "Cm")] {
                stage(
                    &format!("{copy}(i,j,k) = {input}(i,j,k)"),
                    &[
                        (input, cube.clone(), &[Dim(0, w)]),
                        (copy, cube.clone(), &[Dim(0, w)]),
                    ],
                    owner_computes(&[("i", p)], &["j", "k"]).communicate(&[copy, input], "io"),
                )?;
            }
            let folded = [Dim(0, n * n * w)];
            stage(
                "a = Bm(k) * Cm(k)",
                &[
                    ("a", Vec::new(), &[]),
                    ("Bm", vec![n * n * n], &folded),
                    ("Cm", vec![n * n * n], &folded),
                ],
                // Blocks of the home width n²·w, launch point r on rank r.
                Schedule::new()
                    .split("k", "ko", "ki", n * n * w)
                    .distribute(&["ko"])
                    .communicate(&["a", "Bm", "Cm"], "ko"),
            )?;
        }
        HigherOrderKernel::Mttkrp => {
            // A(i, l) = Bm(i, s) * Km(s, l), contraction s = (j, k) split
            // over the q = gj·gk ranks of each grid slab; the user's A
            // (rows on the x00 line) is already the GEMM's output layout.
            let (gi, gj, gk) = (lines[0], lines[1], lines[2]);
            let q = gj * gk;
            let (bi, ws) = (div_ceil(n, gi), div_ceil(n, q));
            let slabs = |d, width| [Dim(d, gk * width), Dim(d, width)];
            let [s0, s1] = slabs(1, ws);
            let b = [Dim(0, bi), Dim(1, div_ceil(n, gj)), Dim(2, div_ceil(n, gk))];
            stage(
                "Bm(i,j,k) = B(i,j,k)",
                &[
                    ("B", cube.clone(), &b),
                    ("Bm", cube.clone(), &[Dim(0, bi), s0, s1]),
                ],
                owner_computes(&[("i", gi), ("j", q)], &["k"]).communicate(&["Bm", "B"], "jo"),
            )?;
            // The Khatri-Rao product, on the first slab; the GEMM fetches
            // its slices from there.
            let [k0, k1] = slabs(0, ws);
            stage(
                "Km(j,k,l) = C(j,l) * D(k,l)",
                &[
                    ("Km", vec![n, n, l], &[First, k0, k1]),
                    ("C", vec![n, l], &[All, Dim(0, div_ceil(n, gj)), All]),
                    ("D", vec![n, l], &[All, All, Dim(0, div_ceil(n, gk))]),
                ],
                owner_computes(&[("j", q)], &["k", "l"]).communicate(&["Km", "C", "D"], "jo"),
            )?;
            let [m0, m1] = slabs(0, n * ws);
            let [c0, c1] = slabs(1, n * ws);
            stage(
                "A(i,j) = Bm(i,k) * Km(k,j)",
                &[
                    ("A", vec![n, l], &[Dim(0, bi), First, First]),
                    ("Bm", vec![n, n * n], &[Dim(0, bi), c0, c1]),
                    ("Km", vec![n * n, l], &[First, m0, m1]),
                ],
                Schedule::new()
                    .divide("i", "io", "ii", gi)
                    .divide("k", "ko", "ki", q)
                    .reorder(&["io", "ko", "ii", "j", "ki"])
                    .distribute(&["io", "ko"])
                    .communicate(&["A", "Bm", "Km"], "ko"),
            )?;
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::functional;
    use distal_core::{oracle, Plan};
    use distal_format::semantics::hierarchical_pieces;
    use distal_machine::geom::Rect;
    use distal_runtime::{Mode, Op, Privilege};
    use std::collections::BTreeMap;

    fn check_ctf(kernel: HigherOrderKernel, nodes: usize, n: i64) {
        let config = functional(nodes);
        let mut run = higher_order(kernel, &config, n).unwrap();
        run.run().unwrap();
        let got = run.read(&run.output).unwrap();
        let mut dims = BTreeMap::new();
        let mut inputs = BTreeMap::new();
        for (name, d) in kernel.shapes(n) {
            dims.insert(name.to_string(), d);
            if name != run.output {
                inputs.insert(name.to_string(), run.read(name).unwrap());
            }
        }
        let a = Assignment::parse(kernel.expression()).unwrap();
        oracle::check(&a, &dims, &inputs, &got, 1e-6).unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
    }

    #[test]
    fn ctf_ttv_matches_oracle() {
        check_ctf(HigherOrderKernel::Ttv, 2, 8);
    }

    #[test]
    fn ctf_innerprod_matches_oracle() {
        check_ctf(HigherOrderKernel::Innerprod, 2, 8);
    }

    #[test]
    fn ctf_ttm_matches_oracle() {
        check_ctf(HigherOrderKernel::Ttm, 2, 8);
    }

    #[test]
    fn ctf_mttkrp_matches_oracle() {
        check_ctf(HigherOrderKernel::Mttkrp, 2, 8);
    }

    #[test]
    fn ctf_gemm_matches_oracle() {
        let config = functional(2);
        crate::common::assert_gemm_matches_oracle(&mut gemm(&config, 8).unwrap(), 8);
    }

    /// For every rank of `machine`, the row-major linear indices of the
    /// elements `format` places there for a tensor of shape `dims`.
    fn homes(machine: &DistalMachine, dims: &[i64], format: &Format) -> Vec<Vec<i64>> {
        let full = Rect::sized(dims);
        machine
            .grid()
            .points()
            .map(|point| {
                let pieces =
                    hierarchical_pieces(&format.distributions, &full, &machine.hierarchy, &point);
                let mut held: Vec<i64> = pieces
                    .iter()
                    .flat_map(|piece| piece.points().map(|q| full.linearize(&q) as i64))
                    .collect();
                held.sort_unstable();
                held.dedup();
                held
            })
            .collect()
    }

    /// Every element of `tensor` that a compute task of stage `s` of
    /// `run` accesses with a privilege `accessed` admits is homed on the
    /// rank of the task's launch point. Returns how many accesses it
    /// checked.
    fn assert_accesses_stay_home(
        context: &str,
        machine: &DistalMachine,
        run: &PhasedRun,
        s: usize,
        tensor: &str,
        accessed: fn(Privilege) -> bool,
    ) -> usize {
        let compiled = run.instance(s).kernel();
        let spec = &run.plans().nth(s).unwrap().tensors()[tensor];
        let full = Rect::sized(&spec.dims);
        let homes = homes(machine, &spec.dims, &spec.format);
        let region = run.instance(s).region(tensor);
        // A compute task stands at a point of the launch domain (one point
        // of one coordinate when the domain is empty) and runs on the rank
        // of its row-major index there. The reduce-gather's tasks stand at
        // machine points instead; they only read the output, so the filter
        // below passes none of them.
        let launch = match compiled.launch_domain.as_slice() {
            [] => Rect::sized(&[1]),
            dims => Rect::sized(dims),
        };
        let tasks = compiled.compute.ops.iter().flat_map(|op| match op {
            Op::IndexLaunch(launch) => launch.tasks.as_slice(),
            _ => &[],
        });
        let mut checked = 0;
        for task in tasks {
            let reqs = task.reqs.iter();
            for req in reqs.filter(|r| Some(r.region) == region && accessed(r.privilege)) {
                assert!(
                    launch.contains_point(&task.point),
                    "{context}, stage {s}: '{tensor}' accessed at {:?}, outside the launch domain \
                     {launch:?}",
                    task.point,
                );
                let rank = launch.linearize(&task.point);
                let stray = req.rect.points().find(|q| {
                    let at = full.linearize(q) as i64;
                    homes[rank].binary_search(&at).is_err()
                });
                assert!(
                    stray.is_none(),
                    "{context}, stage {s}: '{tensor}' {:?} accessed at launch point {:?} (rank {rank}) \
                     is homed elsewhere",
                    stray.unwrap(),
                    task.point,
                );
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn every_hand_off_keeps_each_element_on_its_rank() {
        for kernel in HigherOrderKernel::all() {
            for nodes in [1, 2, 4] {
                // The tests' n, and one no grid dimension divides.
                for n in [8, 7] {
                    let config = functional(nodes);
                    let lines = grid(kernel, config.processors());
                    let machine = DistalMachine::hierarchical(
                        lines.iter().map(|&g| Grid::line(g)).collect(),
                        config.proc_kind,
                    );
                    let mut run = higher_order(kernel, &config, n).unwrap();
                    run.run().unwrap();
                    let plans: Vec<_> = run.plans().collect();
                    let mut handed = 0;
                    for (s, producer) in plans.iter().enumerate() {
                        let output = &producer.kernel().output;
                        for consumer in &plans[s + 1..] {
                            let Some(to) = consumer.tensors().get(output) else {
                                continue;
                            };
                            let from = &producer.tensors()[output];
                            assert_eq!(
                                homes(&machine, &from.dims, &from.format),
                                homes(&machine, &to.dims, &to.format),
                                "{kernel:?} p = {} n = {n}: '{output}' {:?} -> {:?}",
                                config.processors(),
                                from.dims,
                                to.dims
                            );
                            handed += 1;
                        }
                    }
                    assert!(handed >= 1, "{kernel:?} hands nothing off");
                    // Each stage writes its output where the next stage
                    // finds it (a split contraction's partial sums reduce
                    // into it from elsewhere), and the dot reads its
                    // operands where the copies left them.
                    let context = format!("{kernel:?} p = {} n = {n}", config.processors());
                    let mut written = 0;
                    for (s, plan) in plans.iter().enumerate() {
                        let output = &plan.kernel().output;
                        if !plan.tensors()[output].format.distributions.is_empty() {
                            let write = |p| matches!(p, Privilege::Write | Privilege::ReadWrite);
                            written += assert_accesses_stay_home(
                                &context, &machine, &run, s, output, write,
                            );
                        }
                    }
                    // A stage whose partial sums reduce writes nothing itself,
                    // but some stage of every kernel does.
                    assert!(written > 0, "{context}: no output write was checked");
                    if kernel == HigherOrderKernel::Innerprod {
                        let dot = plans.len() - 1;
                        for operand in ["Bm", "Cm"] {
                            let read = |p| p == Privilege::Read;
                            let checked = assert_accesses_stay_home(
                                &context, &machine, &run, dot, operand, read,
                            );
                            assert!(checked > 0, "{context}: no read of '{operand}' was checked");
                        }
                    }
                    if n == 7 {
                        check_ctf(kernel, nodes, n);
                    }
                }
            }
        }
    }

    #[test]
    fn ctf_ttv_pays_redistribution_traffic() {
        // In model mode, CTF must move (a large part of) B across nodes,
        // while DISTAL's TTV schedule moves nothing (§7.2.2).
        let config = RunConfig::cpu(4, Mode::Model);
        let n = 128;
        let mut ctf = higher_order(HigherOrderKernel::Ttv, &config, n).unwrap();
        let ctf_stats = ctf.run().unwrap();
        let (problem, schedule) =
            distal_algs::setup::higher_order_problem(HigherOrderKernel::Ttv, &config, n).unwrap();
        let mut ours = config.backend().compile_typed(&problem, &schedule).unwrap();
        ours.place_stats().unwrap();
        let ours = ours.execute_stats().unwrap();
        assert_eq!(ours.inter_node_bytes(), 0, "DISTAL TTV should move nothing");
        assert!(
            ctf_stats.inter_node_bytes() > (n * n * n) as u64, // at least ~B/8
            "CTF should redistribute B, moved only {}",
            ctf_stats.inter_node_bytes()
        );
    }
}
