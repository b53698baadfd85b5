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
//! it lies. This module reproduces the pipeline faithfully enough that its
//! functional results are bit-checked against the oracle in tests.

use crate::common::{make_bulk_synchronous, Phase, PhasedRun, Workspace};
use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::{best_c, MatmulAlgorithm};
use distal_algs::setup::RunConfig;
use distal_core::lower::CompileOptions;
use distal_core::{
    BackendError, CompileError, CompiledKernel, DistalMachine, GridMapper, Schedule,
};
use distal_format::Format;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use distal_runtime::kernel::{Kernel, KernelCtx};
use distal_runtime::program::{IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};

/// CTF's GEMM: the 2.5D algorithm, bulk-synchronous.
///
/// # Errors
///
/// Propagates compile and seeding errors.
pub fn gemm(config: &RunConfig, n: i64) -> Result<PhasedRun, BackendError> {
    let p = config.processors();
    let alg = MatmulAlgorithm::Solomonik { c: best_c(p) };
    let options = CompileOptions {
        leaf_efficiency: Some(0.92),
        ..CompileOptions::default()
    };
    PhasedRun::gemm(config, alg, n, &alg.schedule(p, n, 1), &options, true)
}

/// A reshape between two tensors whose row-major linearizations agree
/// (dimension grouping): `dst[ℓ] = src[ℓ]`.
struct ReshapeKernel {
    src_dims: Vec<i64>,
    dst_dims: Vec<i64>,
}

impl Kernel for ReshapeKernel {
    fn name(&self) -> &str {
        "reshape"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        // args[0] = dst (Write), args[1] = src (Read).
        let rect = ctx.args[0].rect.clone();
        if rect.is_empty() {
            return;
        }
        let dst_full = Rect::sized(&self.dst_dims);
        let src_full = Rect::sized(&self.src_dims);
        for q in rect.points() {
            let linear = dst_full.linearize(&q) as i64;
            let p = src_full.delinearize(linear);
            let v = ctx.args[1].at(p.coords());
            ctx.args[0].set(q.coords(), v);
        }
    }
}

/// Builds the Khatri-Rao product `K(s, l) = C(s / n, l) * D(s mod n, l)`
/// needed to matricize MTTKRP (the "element-wise operation" of §7.2.1).
struct KrpKernel {
    n: i64,
}

impl Kernel for KrpKernel {
    fn name(&self) -> &str {
        "khatri-rao"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let rect = ctx.args[0].rect.clone();
        if rect.is_empty() {
            return;
        }
        for q in rect.points() {
            let (s, l) = (q[0], q[1]);
            let c = ctx.args[1].at(&[s / self.n, l]);
            let d = ctx.args[2].at(&[s % self.n, l]);
            ctx.args[0].set(q.coords(), c * d);
        }
    }
}

/// Groups of consecutive `fine` dimensions forming each `coarse` dimension
/// of a reshape, when `coarse` really is a grouping of `fine`.
///
/// A coarse extent of 1 consumes no fine dimensions (it is a synthetic
/// matrix dimension, e.g. the single column of TTV's `Cm`).
fn fold_groups(fine: &[i64], coarse: &[i64]) -> Option<Vec<Vec<usize>>> {
    let mut groups = Vec::new();
    let mut s = 0;
    for &d in coarse {
        let mut group = Vec::new();
        let mut prod = 1;
        while prod < d {
            if s >= fine.len() {
                return None;
            }
            group.push(s);
            prod *= fine[s];
            s += 1;
        }
        if prod != d {
            return None;
        }
        groups.push(group);
    }
    (s == fine.len() || fine[s..].iter().all(|&e| e == 1)).then_some(groups)
}

/// The source rectangle covering everything a destination tile needs, for
/// reshapes in either direction (fold or unfold).
fn src_rect_for(dst_tile: &Rect, src_dims: &[i64], dst_dims: &[i64]) -> Rect {
    let mut lo = vec![0i64; src_dims.len()];
    let mut hi: Vec<i64> = src_dims.iter().map(|e| (e - 1).max(0)).collect();
    if let Some(groups) = fold_groups(src_dims, dst_dims) {
        // dst is coarser: each dst dim groups consecutive src dims.
        for (d, group) in groups.iter().enumerate() {
            match group.len() {
                0 => {}
                1 => {
                    lo[group[0]] = dst_tile.lo()[d];
                    hi[group[0]] = dst_tile.hi()[d];
                }
                _ => {
                    // Leading dim bounds; trailing dims span fully.
                    let trailing: i64 = group[1..].iter().map(|&g| src_dims[g]).product();
                    lo[group[0]] = dst_tile.lo()[d] / trailing;
                    hi[group[0]] = dst_tile.hi()[d] / trailing;
                }
            }
        }
    } else if let Some(groups) = fold_groups(dst_dims, src_dims) {
        // src is coarser: each src dim is the row-major fold of a group of
        // dst dims; the tile's corners bound the folded coordinate.
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                lo[s] = 0;
                hi[s] = 0;
                continue;
            }
            let mut smin = 0;
            let mut smax = 0;
            for &g in group {
                smin = smin * dst_dims[g] + dst_tile.lo()[g];
                smax = smax * dst_dims[g] + dst_tile.hi()[g];
            }
            lo[s] = smin;
            hi[s] = smax;
        }
    } else {
        panic!("reshape between {src_dims:?} and {dst_dims:?} is not a dimension grouping");
    }
    Rect::new(Point::new(lo), Point::new(hi))
}

/// Builds a program that redistributes `src` into the matricized tensor
/// `dst` (tiled on `dst_machine`), reading across the network as needed.
fn reshape_program(
    ws: &Workspace,
    src: &str,
    dst: &str,
    dst_machine: &DistalMachine,
) -> Result<Program, CompileError> {
    let src_b = ws.binding(src)?;
    let dst_b = ws.binding(dst)?;
    let mapper = GridMapper::new(dst_machine, ws.phys())?;
    let mut program = Program::new();
    let kernel = program.register_kernel(std::sync::Arc::new(ReshapeKernel {
        src_dims: src_b.dims.clone(),
        dst_dims: dst_b.dims.clone(),
    }));
    let dst_rect = Rect::sized(&dst_b.dims);
    let mut tasks = Vec::new();
    let owners: Vec<(Point, Rect)> = if dst_b.format.is_distributed() {
        dst_machine
            .grid()
            .points()
            .map(|point| {
                let tile = distal_format::semantics::hierarchical_tile(
                    &dst_b.format.distributions,
                    &dst_rect,
                    &dst_machine.hierarchy,
                    &point,
                );
                (point, tile)
            })
            .filter(|(_, t)| !t.is_empty())
            .collect()
    } else {
        // Undistributed destination (e.g. the scalar `a`): rank 0 owns it.
        vec![(dst_machine.grid().rect().lo().clone(), dst_rect.clone())]
    };
    for (point, tile) in owners {
        let rank = mapper.rank(&point);
        let src_rect = src_rect_for(&tile, &src_b.dims, &dst_b.dims);
        let mem = mapper.mem_for(rank, dst_b.format.mem);
        let mut dst_req = RegionReq::new(dst_b.region, tile.clone(), Privilege::Write, mem);
        dst_req.pin = true;
        let src_req = RegionReq::new(src_b.region, src_rect.clone(), Privilege::Read, mem);
        let mut task = TaskDesc::new(
            kernel,
            mapper.proc_for_rank(rank),
            point.clone(),
            vec![dst_req, src_req],
        );
        task.bytes = (tile.volume() + src_rect.volume()) as f64 * 8.0;
        tasks.push(task);
    }
    program.push(Op::IndexLaunch(IndexLaunch {
        name: format!("reshape-{src}-to-{dst}"),
        tasks,
    }));
    // The fetched pieces of the source are transient.
    program.push(Op::DiscardScratch {
        region: src_b.region,
        keep_recent: 0,
    });
    program.push(Op::Barrier);
    Ok(program)
}

/// CTF's matricized pipeline for a §7.2 higher-order kernel.
///
/// Phases: reshape operands onto the internal near-square matrix grid,
/// run the internal bulk-synchronous GEMM, reshape the result back into the
/// user's distribution.
///
/// # Errors
///
/// Propagates compile errors from any phase, and seeding errors.
pub fn higher_order(
    kernel: HigherOrderKernel,
    config: &RunConfig,
    n: i64,
) -> Result<PhasedRun, BackendError> {
    let p = config.processors();
    // User tensors start in the same at-rest distributions DISTAL uses
    // (§7.2: inputs distributed to match the chosen schedule).
    let user_machine = DistalMachine::flat(kernel.grid(p), config.proc_kind);
    let mut ws = Workspace::new(config.spec.clone(), config.mode);
    let shapes = kernel.shapes(n);
    let formats = kernel.formats(config.mem);
    for ((name, dims), format) in shapes.iter().zip(formats) {
        ws.tensor(name, dims.clone(), format);
    }
    for (idx, (name, _)) in shapes.iter().enumerate().skip(1) {
        ws.seed(name, 0x51ED + idx as u64)?;
    }

    // Internal matrix dimensions (M, N, K) per kernel.
    let l = 32.min(n);
    let (m_rows, n_cols, k_contr) = match kernel {
        HigherOrderKernel::Ttv => (n * n, 1, n),
        HigherOrderKernel::Innerprod => (1, 1, n * n * n),
        HigherOrderKernel::Ttm => (n * n, l, n),
        HigherOrderKernel::Mttkrp => (n, l, n * n),
    };
    // CTF's internal processor grid, per its own grid-selection heuristics:
    // a (capped) near-square grid for the matricized mat-vec (TTV) — whose
    // broadcasts of the folded 3-tensor are the "unnecessary communication"
    // behind the paper's outlier — and row-aligned (p, 1) grids for the
    // fat-by-skinny TTM/MTTKRP products, which keep the big operand
    // stationary. Innerprod bypasses the matrix machinery entirely (a
    // k-distributed dot + allreduce).
    let g2 = match kernel {
        HigherOrderKernel::Ttv => {
            let ns = Grid::near_square_2d(p);
            let gy = divisor_at_most(p, ns.extent(1).min(8));
            Grid::grid2(p / gy, gy)
        }
        HigherOrderKernel::Innerprod => Grid::line(p),
        HigherOrderKernel::Ttm => Grid::grid2(p, 1),
        // MTTKRP's contraction dimension (j·k = n²) dwarfs both free
        // dimensions; CTF splits it across the grid's second dimension and
        // reduces the small output.
        HigherOrderKernel::Mttkrp => Grid::near_square_2d(p),
    };
    let internal = DistalMachine::flat(g2.clone(), config.proc_kind);
    let tiled = Format::parse("xy->xy", config.mem).unwrap();

    let mut phases: Vec<Phase> = Vec::new();
    // Data starts at rest in the user's distributions (untimed, as the
    // paper's timers exclude input staging); every reshape below then pays
    // real redistribution traffic from those homes.
    let placement_names: Vec<(&str, bool)> = shapes
        .iter()
        .skip(1)
        .map(|(name, _)| (*name, true))
        .collect();
    phases.push(Phase::Untimed(
        ws.placement(&placement_names, &user_machine)?,
    ));

    match kernel {
        HigherOrderKernel::Ttv => {
            ws.tensor("Bm", vec![m_rows, k_contr], tiled.clone());
            ws.tensor("Cm", vec![k_contr, n_cols], tiled.clone());
            ws.tensor("Am", vec![m_rows, n_cols], tiled.clone());
            phases.push(Phase::Raw(reshape_program(&ws, "B", "Bm", &internal)?));
            phases.push(Phase::Raw(reshape_program(&ws, "c", "Cm", &internal)?));
            phases.push(Phase::Kernel(internal_matmul(
                &ws,
                &internal,
                &g2,
                ("Am", "Bm", "Cm"),
                k_contr,
            )?));
            phases.push(Phase::Raw(reshape_program(&ws, "Am", "A", &user_machine)?));
        }
        HigherOrderKernel::Innerprod => {
            // Folded vectors, distributed by rows (aligned with the user
            // layout); the dot is k-distributed with a final allreduce.
            let vec_fmt = Format::parse("x->x", config.mem).unwrap();
            ws.tensor("Bm", vec![k_contr], vec_fmt.clone());
            ws.tensor("Cm", vec![k_contr], vec_fmt);
            ws.tensor("am", Vec::new(), Format::undistributed());
            phases.push(Phase::Raw(reshape_program(&ws, "B", "Bm", &internal)?));
            phases.push(Phase::Raw(reshape_program(&ws, "C", "Cm", &internal)?));
            phases.push(Phase::Kernel(internal_dot(&ws, &internal, p)?));
            phases.push(Phase::Raw(reshape_program(&ws, "am", "a", &user_machine)?));
        }
        HigherOrderKernel::Ttm => {
            ws.tensor("Bm", vec![m_rows, k_contr], tiled.clone());
            ws.tensor("Cm", vec![k_contr, n_cols], tiled.clone());
            ws.tensor("Am", vec![m_rows, n_cols], tiled.clone());
            phases.push(Phase::Raw(reshape_program(&ws, "B", "Bm", &internal)?));
            phases.push(Phase::Raw(reshape_program(&ws, "C", "Cm", &internal)?));
            phases.push(Phase::Kernel(internal_matmul(
                &ws,
                &internal,
                &g2,
                ("Am", "Bm", "Cm"),
                k_contr,
            )?));
            phases.push(Phase::Raw(reshape_program(&ws, "Am", "A", &user_machine)?));
        }
        HigherOrderKernel::Mttkrp => {
            // Bm (n x n²) 2D-tiled; Km k-sliced along the grid's second
            // dimension (replicated over the first); Am reduced onto the
            // first grid column.
            ws.tensor("Bm", vec![m_rows, k_contr], tiled.clone());
            ws.tensor(
                "Km",
                vec![k_contr, n_cols],
                Format::parse("xy->*x", config.mem).unwrap(),
            );
            ws.tensor(
                "Am",
                vec![m_rows, n_cols],
                Format::parse("xy->x0", config.mem).unwrap(),
            );
            phases.push(Phase::Raw(reshape_program(&ws, "B", "Bm", &internal)?));
            phases.push(Phase::Raw(krp_program(&ws, n, &internal)?));
            phases.push(Phase::Kernel(internal_kdist_matmul(
                &ws,
                &internal,
                &g2,
                ("Am", "Bm", "Km"),
            )?));
            phases.push(Phase::Raw(reshape_program(&ws, "Am", "A", &user_machine)?));
        }
    }

    Ok(PhasedRun::new(ws, phases, shapes[0].0))
}

/// A divisor of `p` no larger than `cap` (largest such).
fn divisor_at_most(p: i64, cap: i64) -> i64 {
    (1..=cap.max(1)).rev().find(|d| p % d == 0).unwrap_or(1)
}

/// CTF's k-distributed dot product with a final allreduce (its path for
/// full contractions like innerprod, which need no matricized GEMM).
fn internal_dot(
    ws: &Workspace,
    internal: &DistalMachine,
    p: i64,
) -> Result<CompiledKernel, CompileError> {
    let schedule = Schedule::new()
        .distribute_onto(&["k"], &["ko"], &["ki"], &[p])
        .communicate(&["am", "Bm", "Cm"], "ko");
    let options = CompileOptions {
        leaf_efficiency: Some(0.55),
        ..CompileOptions::default()
    };
    let mut kernel = ws.compile(internal, "am = Bm(k) * Cm(k)", &schedule, &options)?;
    make_bulk_synchronous(kernel.compute.program_mut());
    Ok(kernel)
}

/// The k-distributed contraction CTF uses when the contraction dimension
/// dominates (MTTKRP): tiles of `Bm` and slices of `Km` stay put, partial
/// outputs reduce across the grid's second dimension.
fn internal_kdist_matmul(
    ws: &Workspace,
    internal: &DistalMachine,
    grid: &Grid,
    names: (&str, &str, &str),
) -> Result<CompiledKernel, CompileError> {
    let (am, bm, cm) = names;
    let expr = format!("{am}(i,j) = {bm}(i,k) * {cm}(k,j)");
    let (gi, gk) = (grid.extent(0), grid.extent(1));
    let schedule = Schedule::new()
        .divide("i", "io", "ii", gi)
        .divide("k", "ko", "ki", gk)
        .reorder(&["io", "ko", "ii", "j", "ki"])
        .distribute(&["io", "ko"])
        .communicate(&[am, bm, cm], "ko");
    let options = CompileOptions {
        leaf_efficiency: Some(0.55),
        ..CompileOptions::default()
    };
    let mut kernel = ws.compile(internal, &expr, &schedule, &options)?;
    make_bulk_synchronous(kernel.compute.program_mut());
    Ok(kernel)
}

/// The internal bulk-synchronous SUMMA the matricized contraction runs on.
fn internal_matmul(
    ws: &Workspace,
    internal: &DistalMachine,
    grid: &Grid,
    names: (&str, &str, &str),
    k_contr: i64,
) -> Result<CompiledKernel, CompileError> {
    let (am, bm, cm) = names;
    let expr = format!("{am}(i,j) = {bm}(i,k) * {cm}(k,j)");
    let (gx, gy) = (grid.extent(0), grid.extent(1));
    // Pipeline over at most 16 chunks: barriered micro-steps would be
    // latency-bound on row-aligned (p, 1) grids.
    let chunk = (k_contr / gx.min(16)).max(1);
    let schedule = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
        .split("k", "ko", "ki", chunk)
        .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
        .communicate(&[am], "jo")
        .communicate(&[bm, cm], "ko");
    let options = CompileOptions {
        // §7.2.1: CTF aims at scalability to large core counts rather than
        // fully utilizing a single node.
        leaf_efficiency: Some(0.55),
        ..CompileOptions::default()
    };
    let mut kernel = ws.compile(internal, &expr, &schedule, &options)?;
    make_bulk_synchronous(kernel.compute.program_mut());
    Ok(kernel)
}

/// Builds `Km(s, l) = C(s/n, l) * D(s%n, l)` tiles on the internal grid.
fn krp_program(ws: &Workspace, n: i64, internal: &DistalMachine) -> Result<Program, CompileError> {
    let (km, c, d) = (ws.binding("Km")?, ws.binding("C")?, ws.binding("D")?);
    let mapper = GridMapper::new(internal, ws.phys())?;
    let mut program = Program::new();
    let kernel = program.register_kernel(std::sync::Arc::new(KrpKernel { n }));
    let km_rect = Rect::sized(&km.dims);
    let mut tasks = Vec::new();
    for point in internal.grid().points() {
        let tile = distal_format::semantics::hierarchical_tile(
            &km.format.distributions,
            &km_rect,
            &internal.hierarchy,
            &point,
        );
        if tile.is_empty() {
            continue;
        }
        let rank = mapper.rank(&point);
        let mem = mapper.mem_for(rank, km.format.mem);
        // C rows s/n for s in tile rows; D rows s%n (conservatively all).
        let c_rect = Rect::sized(&c.dims).restrict(0, tile.lo()[0] / n, tile.hi()[0] / n);
        let d_rect = Rect::sized(&d.dims);
        let mut km_req = RegionReq::new(km.region, tile.clone(), Privilege::Write, mem);
        km_req.pin = true;
        let mut task = TaskDesc::new(
            kernel,
            mapper.proc_for_rank(rank),
            point.clone(),
            vec![
                km_req,
                RegionReq::new(c.region, c_rect, Privilege::Read, mem),
                RegionReq::new(d.region, d_rect, Privilege::Read, mem),
            ],
        );
        task.flops = tile.volume() as f64;
        task.bytes = 2.0 * tile.volume() as f64 * 8.0;
        tasks.push(task);
    }
    program.push(Op::IndexLaunch(IndexLaunch {
        name: "khatri-rao".into(),
        tasks,
    }));
    program.push(Op::Barrier);
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_core::oracle;
    use distal_ir::expr::Assignment;
    use distal_machine::spec::MachineSpec;
    use distal_runtime::Mode;
    use std::collections::BTreeMap;

    #[test]
    fn fold_group_inference() {
        // (i, j, k) -> (i*j, k)
        assert_eq!(
            fold_groups(&[4, 4, 4], &[16, 4]),
            Some(vec![vec![0, 1], vec![2]])
        );
        // (i, j, k) -> (i, j*k)
        assert_eq!(
            fold_groups(&[4, 4, 4], &[4, 16]),
            Some(vec![vec![0], vec![1, 2]])
        );
        // (i, j, k) -> (1, i*j*k): the synthetic row dim consumes nothing.
        assert_eq!(
            fold_groups(&[4, 4, 4], &[1, 64]),
            Some(vec![vec![], vec![0, 1, 2]])
        );
        // Non-grouping shapes are rejected.
        assert_eq!(fold_groups(&[4, 4], &[8, 2]), None);
    }

    #[test]
    fn src_rect_covers_folded_tile() {
        // Bm (16, 4) from B (4, 4, 4): tile rows 5..10 need i in 1..2.
        let tile = Rect::new(Point::new(vec![5, 0]), Point::new(vec![10, 3]));
        let r = src_rect_for(&tile, &[4, 4, 4], &[16, 4]);
        assert_eq!(r.lo().coords(), &[1, 0, 0]);
        assert_eq!(r.hi().coords(), &[2, 3, 3]);
    }

    fn check_ctf(kernel: HigherOrderKernel, nodes: usize, n: i64) {
        let mut config = RunConfig::cpu(nodes, Mode::Functional);
        config.spec = MachineSpec::small(nodes);
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
        let want = oracle::evaluate(&a, &dims, &inputs).unwrap();
        for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < 1e-6 * (1.0 + w.abs()),
                "{kernel:?} at {idx}: {g} vs {w}"
            );
        }
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
        let mut config = RunConfig::cpu(2, Mode::Functional);
        config.spec = MachineSpec::small(2);
        crate::common::assert_gemm_matches_oracle(&mut gemm(&config, 8).unwrap(), 8);
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
