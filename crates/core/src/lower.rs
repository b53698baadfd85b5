//! Lowering scheduled statements to runtime programs (paper §6.2).
//!
//! Code generation walks the scheduled concrete index notation:
//!
//! * the outermost *distributed* loops become the index-launch domain (one
//!   point task per processor coordinate; directly nested distributed loops
//!   flatten into one multi-dimensional launch);
//! * sequential loops that carry (or sit above) `communicate` relations are
//!   emitted as program-level loops of index launches — each iteration
//!   re-fetches the tensors communicated at that level, which is exactly how
//!   aggregated communication manifests in a Legion program;
//! * everything below becomes the leaf kernel, with per-task rectangles
//!   derived by the bounds analysis in [`distal_ir::provenance`];
//! * scratch discards after each sequential iteration bound the memory of
//!   systolic/pipelined schedules to double buffering.
//!
//! Privileges on the output tensor follow the schedule: reductions over
//! *distributed* variables use `Reduce` (Legion reduction instances,
//! Johnson's and 2.5D algorithms); reductions over sequential variables use
//! `ReadWrite` accumulation; pure element-wise statements use `Write`.

use crate::error::CompileError;
use crate::kernels::{is_streaming, peak_fraction};
use crate::machine::DistalMachine;
use crate::mapper::GridMapper;
use crate::nest::{Env, Nest};
use crate::problem::TensorSpec;
use crate::schedule::Schedule;
use distal_format::semantics::hierarchical_pieces;
use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect};
use distal_runtime::kernel::NoopKernel;
use distal_runtime::program::{IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};
use distal_runtime::region::RegionId;
use distal_runtime::replay::TracedProgram;
use distal_runtime::topology::PhysicalMachine;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Compile-time options.
///
/// A leaf's rate is not an option: the lowering prices it at
/// [`peak_fraction`] of the machine's peak, and a system that reaches
/// another fraction is a machine with another peak
/// ([`MachineSpec`](distal_machine::spec::MachineSpec)'s
/// `cpu_socket_gflops`/`gpu_gflops`).
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// End every compute launch, and the reduce-gather, with a barrier:
    /// the bulk-synchronous execution of MPI codes such as ScaLAPACK and
    /// CTF, which cannot overlap one step's communication with another's
    /// computation (§7.1.1). Off by default: the runtime overlaps freely.
    pub bulk_synchronous: bool,
    /// Memory kind compute tasks materialize data in, overriding the
    /// tensors' format memory. COSMA's out-of-core GPU mode keeps tensors in
    /// host memory (`Sys` formats) and stages chunks into `Fb` per task
    /// (§7.1.2).
    pub compute_mem: Option<distal_machine::spec::MemKind>,
}

/// A compiled kernel: placement and compute programs plus metadata.
///
/// Each program keeps the trace of its first run beside it
/// ([`TracedProgram`]): every instance bound from one plan starts from the
/// same coherence state, so the dependence analysis of a program is paid
/// by the plan's first request and replayed by the rest. Nothing is
/// recorded at plan time.
pub struct CompiledKernel {
    /// The scheduled concrete index notation (inspect with `Display`).
    pub cin: ConcreteNotation,
    /// Moves tensors into their formats' distributions.
    pub placement: TracedProgram,
    /// The computation itself.
    pub compute: TracedProgram,
    /// Extents of the distributed launch domain (empty = single task).
    pub launch_domain: Vec<i64>,
    /// Total floating-point work of the compute program.
    pub total_flops: f64,
    /// The output tensor's name.
    pub output: String,
    /// The statement being computed.
    pub assignment: Assignment,
    /// The tensor the chosen leaf reads as CSR
    /// ([`Kernel::sparse_arg`](distal_runtime::kernel::Kernel::sparse_arg)),
    /// if any: `bind` seeds that tensor's region with a compressed image
    /// instead of a dense one. Decided here, once, with the leaf.
    pub csr_operand: Option<String>,
}

impl std::fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CompiledKernel {{")?;
        writeln!(f, "  cin: {}", self.cin)?;
        writeln!(f, "  launch domain: {:?}", self.launch_domain)?;
        writeln!(f, "  placement tasks: {}", self.placement.task_count())?;
        writeln!(f, "  compute tasks: {}", self.compute.task_count())?;
        writeln!(f, "  flops: {:.3e}", self.total_flops)?;
        write!(f, "}}")
    }
}

/// Lowers `nest` — `assignment` under `schedule` — against the bindings.
/// A plan hands it the nest of the notation admission applied.
///
/// # Errors
///
/// Reports unknown tensors and launch domains larger than the machine.
pub(crate) fn lower_nest(
    nest: Nest,
    assignment: &Assignment,
    tensors: &BTreeMap<String, TensorSpec>,
    machine: &DistalMachine,
    phys: &PhysicalMachine,
    schedule: &Schedule,
    options: &CompileOptions,
) -> Result<CompiledKernel, CompileError> {
    let launch_points = nest.launch_points(machine.size())?;
    let mapper = GridMapper::new(machine, phys)?;

    // Output privilege.
    let leaf_reduces = assignment.is_reduction();
    let out_priv = if nest.dist_reduces {
        Privilege::Reduce
    } else if nest.seq_reduces {
        Privilege::ReadWrite
    } else {
        Privilege::Write
    };
    // Zero-fill whenever the leaf accumulates into pre-existing values,
    // unless those are the bound output a `+=` adds to.
    let fill_output = leaf_reduces && out_priv != Privilege::Write && !assignment.increment;

    let efficiency = peak_fraction(assignment);
    let streaming = is_streaming(assignment);

    // Tensors discarded per sequential iteration: those communicated at a
    // sequential program loop. Communicate tags may name tensors the
    // statement never accesses, so resolve them to regions now.
    let mut seq_comm_regions: BTreeMap<String, RegionId> = BTreeMap::new();
    for t in nest.seq_communicated() {
        if *t != assignment.lhs.tensor {
            seq_comm_regions.insert(t.clone(), binding(tensors, t)?.0);
        }
    }

    // ---- Compute program ----
    let mut compute = Program::new();
    let (out_region, out_spec) = binding(tensors, &assignment.lhs.tensor)?;
    if fill_output {
        compute.push(Op::Fill {
            region: out_region,
            value: 0.0,
        });
    }
    // Every access a task requires, destination first, then the inputs.
    let inputs = assignment.input_accesses();
    let mut accessed = vec![(out_region, out_spec, out_priv)];
    for acc in &inputs {
        let (region, spec) = binding(tensors, &acc.tensor)?;
        accessed.push((region, spec, Privilege::Read));
    }
    // Leaf kernel, chosen once at plan time (a cached plan re-binds
    // without re-specializing): the runtime's leaves accumulate only for
    // reductions.
    let compressed_inputs = accessed[1..]
        .iter()
        .map(|(_, spec, _)| spec.format.has_compressed())
        .collect();
    let leaf_kernel =
        crate::kernelgen::leaf_for(assignment, schedule, compressed_inputs, leaf_reduces)?;
    // Kernel arguments are the destination, then the inputs in order.
    let csr_operand = leaf_kernel
        .sparse_arg()
        .map(|arg| inputs[arg - 1].tensor.clone());
    let leaf = compute.register_kernel(leaf_kernel);
    let flops_per_point = assignment.flops_per_point();

    // Discards every stepped tensor's stale scratch but the most recent
    // generation — double buffering, matching systolic forwarding (a no-op
    // when no sequential loop communicates).
    let retire_scratch = |compute: &mut Program| {
        for region in seq_comm_regions.values() {
            compute.push(Op::DiscardScratch {
                region: *region,
                keep_recent: 1,
            });
        }
    };
    let mut total_flops = 0.0;
    let mut env = Env::new();
    for seq_point in nest.seq_rect().points() {
        // Retire stale forwarding buffers *before* the launch: instances
        // fetched this iteration then carry a strictly newer generation
        // than home tiles, which steers systolic schedules to pull from
        // their neighbours' buffers (Figure 12) rather than the owners.
        retire_scratch(&mut compute);
        let mut tasks = Vec::new();
        for point in launch_points.points() {
            nest.bind_env(&mut env, &seq_point, &point);
            let rank = launch_points.linearize(&point) as i64;
            // Leaf bounds per original variable, flattened to `[lo, hi]`
            // scalar pairs.
            let Some((bounds, iter_points)) = nest.leaf_bounds(&env) else {
                continue;
            };
            let scalars = bounds.flat_map(|(lo, hi)| [lo, hi]).collect();
            let mut reqs = Vec::new();
            let mut bytes = 0.0f64;
            for (a, &(region, spec, privilege)) in accessed.iter().enumerate() {
                let rect = nest.access_rect(a, &env, &spec.dims);
                bytes += rect.volume() as f64 * 8.0;
                let mem_kind = options.compute_mem.unwrap_or(spec.format.mem);
                let mem = mapper.mem_for(rank, mem_kind);
                reqs.push(RegionReq::new(region, rect, privilege, mem));
            }
            let flops = flops_per_point * iter_points;
            total_flops += flops;
            let mut task = TaskDesc::new(leaf, mapper.proc_for_rank(rank), point, reqs);
            task.flops = flops;
            task.bytes = if streaming { bytes } else { 0.0 };
            task.efficiency = efficiency;
            task.scalars = scalars;
            tasks.push(task);
        }
        if !tasks.is_empty() {
            compute.push(Op::IndexLaunch(IndexLaunch {
                name: format!("compute{:?}", seq_point),
                tasks,
            }));
            if options.bulk_synchronous {
                compute.push(Op::Barrier);
            }
        }
    }
    // Retire the final iteration's buffers.
    retire_scratch(&mut compute);

    // Final gather: fold distributed reductions into the output's placed
    // tiles (Johnson's "sum reduces A_ijk to P_ij0").
    if out_priv == Privilege::Reduce {
        let gather = compute.register_kernel(Arc::new(NoopKernel));
        let tasks = if out_spec.format.is_distributed() {
            placement_tasks(
                gather,
                (out_region, out_spec),
                machine,
                &mapper,
                Privilege::Read,
            )
        } else {
            // Undistributed (e.g. scalar) output: a single owner on rank 0
            // folds all reduction contributions.
            let mut req = RegionReq::new(
                out_region,
                Rect::sized(&out_spec.dims),
                Privilege::Read,
                mapper.mem_for(0, out_spec.format.mem),
            );
            req.pin = true;
            vec![TaskDesc::new(
                gather,
                mapper.proc_for_rank(0),
                Point::zeros(1),
                vec![req],
            )]
        };
        if !tasks.is_empty() {
            compute.push(Op::IndexLaunch(IndexLaunch {
                name: "reduce-gather".into(),
                tasks,
            }));
            if options.bulk_synchronous {
                compute.push(Op::Barrier);
            }
        }
    }

    // ---- Placement program ----
    // One `place-<tensor>` launch per distributed tensor, each placed
    // once. Output-only tensors are placed with Write (no data to move);
    // inputs (and increment outputs) are pulled with pinned reads.
    let mut placement = Program::new();
    let noop = placement.register_kernel(Arc::new(NoopKernel));
    let mut placed: Vec<&str> = Vec::new();
    for acc in assignment.accesses() {
        let name = acc.tensor.as_str();
        if placed.contains(&name) {
            continue;
        }
        placed.push(name);
        let (region, spec) = binding(tensors, name)?;
        if !spec.format.is_distributed() {
            continue;
        }
        let privilege = if inputs.iter().any(|a| a.tensor == name)
            || (name == assignment.lhs.tensor && assignment.increment)
        {
            Privilege::Read
        } else {
            Privilege::Write
        };
        let tasks = placement_tasks(noop, (region, spec), machine, &mapper, privilege);
        if !tasks.is_empty() {
            placement.push(Op::IndexLaunch(IndexLaunch {
                name: format!("place-{name}"),
                tasks,
            }));
        }
    }

    Ok(CompiledKernel {
        cin: nest.cin,
        placement: placement.into(),
        compute: compute.into(),
        launch_domain: nest.launch_domain,
        total_flops,
        output: assignment.lhs.tensor.clone(),
        assignment: assignment.clone(),
        csr_operand,
    })
}

/// A registered tensor and its region, as a typed error instead of a map
/// indexing panic. A plan lowers before any runtime exists, so the region
/// is the tensor's position in the registry's (name-sorted) order: the id
/// a fresh runtime hands out when the regions are created in that order.
fn binding<'a>(
    tensors: &'a BTreeMap<String, TensorSpec>,
    name: &str,
) -> Result<(RegionId, &'a TensorSpec), CompileError> {
    let (position, (_, spec)) = tensors
        .iter()
        .enumerate()
        .find(|(_, (registered, _))| *registered == name)
        .ok_or_else(|| CompileError::UnknownTensor(name.to_string()))?;
    Ok((RegionId(position as u32), spec))
}

/// One placement/gather task per owning grid point of a tensor's format,
/// with one region requirement per owned piece (blocked formats own a
/// single tile; cyclic and block-cyclic formats own a set of stripes).
fn placement_tasks(
    kernel: distal_runtime::program::KernelId,
    (region, spec): (RegionId, &TensorSpec),
    machine: &DistalMachine,
    mapper: &GridMapper,
    privilege: Privilege,
) -> Vec<TaskDesc> {
    let rect = Rect::sized(&spec.dims);
    let mut tasks = Vec::new();
    let grid = machine.grid();
    for point in grid.points() {
        let pieces = hierarchical_pieces(
            &spec.format.distributions,
            &rect,
            &machine.hierarchy,
            &point,
        );
        if pieces.is_empty() {
            continue;
        }
        // A point's rank is its row-major index.
        let rank = grid.linearize(&point);
        let mem = mapper.mem_for(rank, spec.format.mem);
        let reqs = pieces
            .into_iter()
            .map(|piece| {
                let mut req = RegionReq::new(region, piece, privilege, mem);
                req.pin = true;
                req
            })
            .collect();
        tasks.push(TaskDesc::new(
            kernel,
            mapper.proc_for_rank(rank),
            point,
            reqs,
        ));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendError, RuntimeBackend, RuntimePlan};
    use crate::lint::{Lint, LintConfig};
    use crate::problem::Problem;
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    /// `statement` over tiled `n × n` matrices A, B, C of a `grid` machine
    /// on `nodes` nodes, planned under `schedule` (launch-volume lints
    /// allowed, so the lowering's own check speaks).
    fn plan(
        statement: &str,
        nodes: usize,
        grid: Grid,
        n: i64,
        schedule: &Schedule,
    ) -> Result<RuntimePlan, BackendError> {
        let machine = DistalMachine::flat(grid, ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(nodes), machine);
        p.statement(statement).unwrap();
        let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![n, n], tiles.clone()))
                .unwrap();
        }
        let lints = LintConfig::new().allow(Lint::GridMismatch);
        RuntimeBackend::model()
            .with_lints(lints)
            .plan_typed(&p, schedule)
    }

    const MATMUL: &str = "A(i,j) = B(i,k) * C(k,j)";

    #[test]
    fn summa_compiles_to_expected_structure() {
        let plan = plan(MATMUL, 2, Grid::grid2(2, 2), 16, &Schedule::summa(2, 2, 8)).unwrap();
        let k = plan.kernel();
        assert_eq!(k.launch_domain, vec![2, 2]);
        // k=16 in chunks of 8: two sequential iterations x 4 point tasks,
        // plus the fill.
        assert_eq!(k.compute.task_count(), 8);
        // 2 * 16^3 flops.
        assert!((k.total_flops - 2.0 * 16.0f64.powi(3)).abs() < 1.0);
        // Placement: 3 tensors x 4 tiles.
        assert_eq!(k.placement.task_count(), 12);
        // Discards for B and C before each sequential iteration plus the
        // trailing cleanup: (2 iterations + 1) x 2 tensors.
        let discards = k
            .compute
            .ops
            .iter()
            .filter(|o| matches!(o, Op::DiscardScratch { .. }))
            .count();
        assert_eq!(discards, 6);
    }

    #[test]
    fn unknown_tensor_rejected() {
        let err = plan(
            "Z(i,j) = B(i,k) * C(k,j)",
            2,
            Grid::grid2(2, 2),
            8,
            &Schedule::new(),
        );
        assert!(matches!(err, Err(BackendError::UnknownTensor(t)) if t == "Z"));
    }

    #[test]
    fn launch_domain_larger_than_the_machine_rejected() {
        // SUMMA's 4x4 launch on a 2x2 machine: more points than the
        // abstract machine has, though the physical one has 16 sockets.
        let err = plan(MATMUL, 8, Grid::grid2(2, 2), 8, &Schedule::summa(4, 4, 2));
        assert!(matches!(
            err,
            Err(BackendError::Compile(CompileError::GridTooLarge {
                required: 16,
                available: 4
            }))
        ));
    }

    #[test]
    fn unscheduled_statement_is_single_task() {
        let plan = plan(MATMUL, 1, Grid::grid2(1, 1), 8, &Schedule::new()).unwrap();
        assert!(plan.kernel().launch_domain.is_empty());
        assert_eq!(plan.kernel().compute.task_count(), 1);
    }
}
