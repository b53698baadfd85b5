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
use crate::kernels::{is_matmul, is_streaming};
use crate::machine::DistalMachine;
use crate::mapper::GridMapper;
use crate::nest::{Env, Nest};
use crate::problem::TensorSpec;
use crate::schedule::Schedule;
use distal_format::semantics::hierarchical_pieces;
use distal_format::Format;
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

/// A tensor bound to a region with a format.
#[derive(Clone, Debug)]
pub struct TensorBinding {
    /// Dimension sizes.
    pub dims: Vec<i64>,
    /// Distribution + memory kind.
    pub format: Format,
    /// The backing runtime region.
    pub region: RegionId,
}

/// The bindings a tensor registry compiles against before any runtime
/// exists: every tensor's [`RegionId`] is its position in the registry's
/// (name-sorted) order, which is the id a fresh runtime hands out when
/// the regions are created in that order.
pub(crate) fn registry_bindings(
    tensors: &BTreeMap<String, TensorSpec>,
) -> BTreeMap<String, TensorBinding> {
    tensors
        .iter()
        .enumerate()
        .map(|(position, (name, spec))| {
            let binding = TensorBinding {
                dims: spec.dims.clone(),
                format: spec.format.clone(),
                region: RegionId(position as u32),
            };
            (name.clone(), binding)
        })
        .collect()
}

/// Compile-time options.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// Fraction of peak the leaf kernel achieves (model mode). `None`
    /// selects 0.95 for matmul-shaped leaves and 0.85 otherwise.
    pub leaf_efficiency: Option<f64>,
    /// Zero-fill the output before computing. `None` = automatic (filled
    /// when the leaf accumulates, unless a `+=` adds to the bound output).
    pub fill_output: Option<bool>,
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
#[derive(Clone)]
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

/// Compiles a scheduled statement against tensor bindings and a machine.
///
/// # Errors
///
/// Reports unknown tensors, inconsistent extents, failing schedule
/// commands, and launch domains larger than the machine.
pub fn compile(
    assignment: &Assignment,
    tensors: &BTreeMap<String, TensorBinding>,
    machine: &DistalMachine,
    phys: &PhysicalMachine,
    schedule: &Schedule,
    options: &CompileOptions,
) -> Result<CompiledKernel, CompileError> {
    // The nest analysis resolves and arity-checks every access.
    let dims = tensors
        .iter()
        .map(|(name, b)| (name.clone(), b.dims.clone()))
        .collect();
    let nest = Nest::new(assignment, &dims, schedule)?;
    lower_nest(nest, assignment, tensors, machine, phys, schedule, options)
}

/// [`compile`] past the nest analysis: lowers `nest` — `assignment` under
/// `schedule` — against the bindings. A plan hands it the nest of the
/// notation admission applied.
pub(crate) fn lower_nest(
    nest: Nest,
    assignment: &Assignment,
    tensors: &BTreeMap<String, TensorBinding>,
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
    let fill_output = options
        .fill_output
        .unwrap_or(leaf_reduces && out_priv != Privilege::Write && !assignment.increment);

    let efficiency =
        options
            .leaf_efficiency
            .unwrap_or(if is_matmul(assignment) { 0.95 } else { 0.85 });
    let streaming = is_streaming(assignment);

    // Tensors discarded per sequential iteration: those communicated at a
    // sequential program loop. Communicate tags may name tensors the
    // statement never accesses, so resolve them to regions now.
    let mut seq_comm_regions: BTreeMap<String, RegionId> = BTreeMap::new();
    for t in nest.seq_communicated() {
        if *t != assignment.lhs.tensor {
            seq_comm_regions.insert(t.clone(), binding(tensors, t)?.region);
        }
    }

    // ---- Compute program ----
    let mut compute = Program::new();
    let out_binding = binding(tensors, &assignment.lhs.tensor)?;
    if fill_output {
        compute.push(Op::Fill {
            region: out_binding.region,
            value: 0.0,
        });
    }
    // Leaf kernel, chosen once at plan time (a cached plan re-binds
    // without re-specializing): the runtime's leaves accumulate only for
    // reductions.
    let inputs = assignment.input_accesses();
    let mut compressed_inputs: Vec<bool> = Vec::new();
    for acc in &inputs {
        compressed_inputs.push(binding(tensors, &acc.tensor)?.format.has_compressed());
    }
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
            let scalars = bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
            // Region requirements: destination first, then inputs.
            let mut reqs = Vec::new();
            let mut bytes = 0.0f64;
            let reads = inputs.iter().map(|acc| (*acc, Privilege::Read));
            let accesses = std::iter::once((&assignment.lhs, out_priv)).chain(reads);
            for (a, (acc, privilege)) in accesses.enumerate() {
                let b = binding(tensors, &acc.tensor)?;
                let rect = nest.access_rect(a, &env, &b.dims);
                bytes += rect.volume() as f64 * 8.0;
                let mem_kind = options.compute_mem.unwrap_or(b.format.mem);
                let mem = mapper.mem_for(rank, mem_kind);
                reqs.push(RegionReq::new(b.region, rect, privilege, mem));
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
        }
    }
    // Retire the final iteration's buffers.
    retire_scratch(&mut compute);

    // Final gather: fold distributed reductions into the output's placed
    // tiles (Johnson's "sum reduces A_ijk to P_ij0").
    if out_priv == Privilege::Reduce {
        let gather = compute.register_kernel(Arc::new(NoopKernel));
        let tasks = if out_binding.format.is_distributed() {
            placement_tasks(gather, out_binding, machine, &mapper, Privilege::Read)
        } else {
            // Undistributed (e.g. scalar) output: a single owner on rank 0
            // folds all reduction contributions.
            let mut req = RegionReq::new(
                out_binding.region,
                Rect::sized(&out_binding.dims),
                Privilege::Read,
                mapper.mem_for(0, out_binding.format.mem),
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
        }
    }

    // ---- Placement program ----
    // Each tensor is placed once. Output-only tensors are placed with
    // Write (no data to move); inputs (and increment outputs) are pulled
    // with pinned reads.
    let mut names: Vec<(&str, bool)> = Vec::new();
    for acc in assignment.accesses() {
        let name = acc.tensor.as_str();
        if names.iter().all(|(placed, _)| *placed != name) {
            let is_input = inputs.iter().any(|a| a.tensor == name)
                || (name == assignment.lhs.tensor && assignment.increment);
            names.push((name, is_input));
        }
    }
    let placement = place_tensors(tensors, &names, machine, &mapper)?;

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

/// Looks a tensor binding up by name, as a typed error instead of a map
/// indexing panic.
fn binding<'a>(
    tensors: &'a BTreeMap<String, TensorBinding>,
    name: &str,
) -> Result<&'a TensorBinding, CompileError> {
    tensors
        .get(name)
        .ok_or_else(|| CompileError::UnknownTensor(name.to_string()))
}

/// Builds a standalone placement program for a set of tensors: inputs are
/// pulled into their format's distribution with pinned reads, outputs are
/// established with writes. Used by baselines whose pipelines place user
/// data before their own redistribution phases.
///
/// # Errors
///
/// Unknown tensors and mapper construction failures (oversized grids).
pub fn placement_program(
    tensors: &BTreeMap<String, TensorBinding>,
    names: &[(&str, bool)],
    machine: &DistalMachine,
    phys: &PhysicalMachine,
) -> Result<Program, CompileError> {
    place_tensors(tensors, names, machine, &GridMapper::new(machine, phys)?)
}

/// One `place-<tensor>` launch per distributed tensor of `names`
/// (`(tensor, is_input)` pairs).
fn place_tensors(
    tensors: &BTreeMap<String, TensorBinding>,
    names: &[(&str, bool)],
    machine: &DistalMachine,
    mapper: &GridMapper,
) -> Result<Program, CompileError> {
    let mut program = Program::new();
    let kernel = program.register_kernel(Arc::new(NoopKernel));
    for (name, is_input) in names {
        let b = binding(tensors, name)?;
        if !b.format.is_distributed() {
            continue;
        }
        let privilege = if *is_input {
            Privilege::Read
        } else {
            Privilege::Write
        };
        let tasks = placement_tasks(kernel, b, machine, mapper, privilege);
        if !tasks.is_empty() {
            program.push(Op::IndexLaunch(IndexLaunch {
                name: format!("place-{name}"),
                tasks,
            }));
        }
    }
    Ok(program)
}

/// One placement/gather task per owning grid point of a tensor's format,
/// with one region requirement per owned piece (blocked formats own a
/// single tile; cyclic and block-cyclic formats own a set of stripes).
fn placement_tasks(
    kernel: distal_runtime::program::KernelId,
    binding: &TensorBinding,
    machine: &DistalMachine,
    mapper: &GridMapper,
    privilege: Privilege,
) -> Vec<TaskDesc> {
    let rect = Rect::sized(&binding.dims);
    let mut tasks = Vec::new();
    for point in machine.grid().points() {
        let pieces = hierarchical_pieces(
            &binding.format.distributions,
            &rect,
            &machine.hierarchy,
            &point,
        );
        if pieces.is_empty() {
            continue;
        }
        let rank = mapper.rank(&point);
        let mem = mapper.mem_for(rank, binding.format.mem);
        let reqs = pieces
            .into_iter()
            .map(|piece| {
                let mut req = RegionReq::new(binding.region, piece, privilege, mem);
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
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    fn bindings(n: i64) -> BTreeMap<String, TensorBinding> {
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        ["A", "B", "C"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.to_string(),
                    TensorBinding {
                        dims: vec![n, n],
                        format: f.clone(),
                        region: RegionId(i as u32),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn summa_compiles_to_expected_structure() {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let phys = PhysicalMachine::new(MachineSpec::small(2));
        let a = distal_ir::expr::kernels::matmul();
        let k = compile(
            &a,
            &bindings(16),
            &machine,
            &phys,
            &Schedule::summa(2, 2, 8),
            &CompileOptions::default(),
        )
        .unwrap();
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
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let phys = PhysicalMachine::new(MachineSpec::small(2));
        let a = distal_ir::expr::Assignment::parse("Z(i,j) = B(i,k) * C(k,j)").unwrap();
        assert!(matches!(
            compile(&a, &bindings(8), &machine, &phys, &Schedule::new(), &CompileOptions::default()),
            Err(CompileError::UnknownTensor(t)) if t == "Z"
        ));
    }

    #[test]
    fn launch_domain_larger_than_the_machine_rejected() {
        // SUMMA's 4x4 launch on a 2x2 machine: more points than the
        // abstract machine has, though the physical one has 16 sockets.
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let phys = PhysicalMachine::new(MachineSpec::small(8));
        let a = distal_ir::expr::kernels::matmul();
        let summa = Schedule::summa(4, 4, 2);
        let options = CompileOptions::default();
        let err = compile(&a, &bindings(8), &machine, &phys, &summa, &options);
        assert!(matches!(
            err,
            Err(CompileError::GridTooLarge {
                required: 16,
                available: 4
            })
        ));
    }

    #[test]
    fn unscheduled_statement_is_single_task() {
        let machine = DistalMachine::flat(Grid::grid2(1, 1), ProcKind::Cpu);
        let phys = PhysicalMachine::new(MachineSpec::small(1));
        let a = distal_ir::expr::kernels::matmul();
        let k = compile(
            &a,
            &bindings(8),
            &machine,
            &phys,
            &Schedule::new(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(k.launch_domain.is_empty());
        assert_eq!(k.compute.task_count(), 1);
    }
}
