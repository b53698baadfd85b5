//! Shared baseline machinery: the workspace the baselines hand-build
//! their programs against, phased runs, and barrier insertion.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::RunConfig;
use distal_core::lower::{compile, placement_program, CompileOptions, TensorBinding};
use distal_core::{
    random_data, BackendError, CompileError, CompiledKernel, DistalMachine, Schedule,
};
use distal_format::Format;
use distal_ir::expr::Assignment;
use distal_machine::geom::Rect;
use distal_machine::spec::MachineSpec;
use distal_runtime::program::{Op, Program};
use distal_runtime::stats::RunStats;
use distal_runtime::topology::PhysicalMachine;
use distal_runtime::{Mode, Runtime, RuntimeError};
use std::collections::BTreeMap;

/// The comparison systems of §7.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineSystem {
    /// ScaLAPACK's SUMMA (bulk-synchronous).
    ScaLapack,
    /// Cyclops Tensor Framework (2.5D GEMM; matricized higher-order ops).
    Ctf,
    /// COSMA (communication-optimal grid, full overlap, 40 cores).
    Cosma,
    /// COSMA restricted to DISTAL's 36 worker cores (Figure 15a).
    CosmaRestrictedCpus,
}

impl BaselineSystem {
    /// Figure legend name.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineSystem::ScaLapack => "SCALAPACK",
            BaselineSystem::Ctf => "CTF",
            BaselineSystem::Cosma => "COSMA",
            BaselineSystem::CosmaRestrictedCpus => "COSMA (Restricted CPUs)",
        }
    }
}

/// One phase of a multi-phase baseline run.
#[allow(clippy::large_enum_variant)] // kernels dominate; phases are few
pub enum Phase {
    /// A compiled kernel: placement then compute.
    Kernel(CompiledKernel),
    /// A raw runtime program (redistributions/reshapes).
    Raw(Program),
    /// A raw program whose time is excluded from the measured total (input
    /// staging that the paper's timers also exclude).
    Untimed(Program),
}

impl std::fmt::Debug for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Kernel(_) => f.write_str("Phase::Kernel"),
            Phase::Raw(_) => f.write_str("Phase::Raw"),
            Phase::Untimed(_) => f.write_str("Phase::Untimed"),
        }
    }
}

/// What the baselines build on instead of the compiler's front door: one
/// raw runtime whose regions several hand-built (and hand-mutated)
/// programs share, plus the bindings those programs are compiled against.
/// Tensors may live on different abstract machines over the same
/// physical one (CTF's matricized tensors sit on per-contraction grids).
#[derive(Debug)]
pub(crate) struct Workspace {
    runtime: Runtime,
    tensors: BTreeMap<String, TensorBinding>,
}

impl Workspace {
    pub(crate) fn new(spec: MachineSpec, mode: Mode) -> Self {
        Workspace {
            runtime: Runtime::new(PhysicalMachine::new(spec), mode),
            tensors: BTreeMap::new(),
        }
    }

    pub(crate) fn phys(&self) -> &PhysicalMachine {
        self.runtime.machine()
    }

    /// Registers a tensor over a fresh region.
    pub(crate) fn tensor(&mut self, name: &str, dims: Vec<i64>, format: Format) {
        let region = self.runtime.create_region(name, Rect::sized(&dims));
        let binding = TensorBinding {
            dims,
            format,
            region,
        };
        self.tensors.insert(name.to_string(), binding);
    }

    /// Seeds an input: deterministic pseudo-random data in functional
    /// mode (the values `Problem::fill_random` gives the same seed), a
    /// validity mark in model mode.
    pub(crate) fn seed(&mut self, name: &str, seed: u64) -> Result<(), BackendError> {
        let b = self.binding(name)?;
        let (region, len) = (b.region, Rect::sized(&b.dims).volume() as usize);
        match self.runtime.mode() {
            Mode::Functional => self
                .runtime
                .set_region_data(region, random_data(len, seed))?,
            Mode::Model => self.runtime.fill_region(region, 0.0)?,
        }
        Ok(())
    }

    pub(crate) fn binding(&self, name: &str) -> Result<&TensorBinding, CompileError> {
        self.tensors
            .get(name)
            .ok_or_else(|| CompileError::UnknownTensor(name.into()))
    }

    /// Compiles a statement against the registered tensors on `machine`.
    pub(crate) fn compile(
        &self,
        machine: &DistalMachine,
        expr: &str,
        schedule: &Schedule,
        options: &CompileOptions,
    ) -> Result<CompiledKernel, CompileError> {
        let assignment =
            Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
        compile(
            &assignment,
            &self.tensors,
            machine,
            self.phys(),
            schedule,
            options,
        )
    }

    /// A program moving the named tensors (`true` marks inputs) into
    /// their formats' distributions on `machine`.
    pub(crate) fn placement(
        &self,
        names: &[(&str, bool)],
        machine: &DistalMachine,
    ) -> Result<Program, CompileError> {
        placement_program(&self.tensors, names, machine, self.phys())
    }
}

/// A baseline ready to run: its workspace plus an ordered list of phases.
#[derive(Debug)]
pub struct PhasedRun {
    workspace: Workspace,
    /// Phases, run in order.
    pub phases: Vec<Phase>,
    /// Name of the output tensor (for correctness checks).
    pub output: String,
}

impl PhasedRun {
    pub(crate) fn new(workspace: Workspace, phases: Vec<Phase>, output: &str) -> Self {
        PhasedRun {
            workspace,
            phases,
            output: output.to_string(),
        }
    }

    /// A distributed GEMM baseline: `A(i,j) = B(i,k) * C(k,j)` on `alg`'s
    /// grid and formats, inputs seeded `0xB`/`0xC` like
    /// `distal_algs::setup::matmul_problem`, the schedule lowered under
    /// the system's own `options` and, for the MPI-style systems, made
    /// bulk-synchronous. Placement is input staging the paper's timers
    /// exclude, so [`PhasedRun::run`] reports the compute program alone.
    pub(crate) fn gemm(
        config: &RunConfig,
        alg: MatmulAlgorithm,
        n: i64,
        schedule: &Schedule,
        options: &CompileOptions,
        bulk_synchronous: bool,
    ) -> Result<PhasedRun, BackendError> {
        let machine = DistalMachine::flat(alg.grid(config.processors()), config.proc_kind);
        let mut workspace = Workspace::new(config.spec.clone(), config.mode);
        for (name, format) in ["A", "B", "C"].into_iter().zip(alg.formats(config.mem)) {
            workspace.tensor(name, vec![n, n], format);
        }
        workspace.seed("B", 0xB)?;
        workspace.seed("C", 0xC)?;
        let mut kernel =
            workspace.compile(&machine, "A(i,j) = B(i,k) * C(k,j)", schedule, options)?;
        if bulk_synchronous {
            make_bulk_synchronous(kernel.compute.program_mut());
        }
        let phases = vec![
            Phase::Untimed(kernel.placement.into_program()),
            Phase::Raw(kernel.compute.into_program()),
        ];
        Ok(PhasedRun::new(workspace, phases, "A"))
    }

    /// Runs all phases, summing the measured statistics.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from any phase.
    pub fn run(&mut self) -> Result<RunStats, RuntimeError> {
        let runtime = &mut self.workspace.runtime;
        let mut total = RunStats::default();
        for phase in &self.phases {
            match phase {
                Phase::Kernel(k) => {
                    total.merge(&runtime.run(&k.placement)?);
                    total.merge(&runtime.run(&k.compute)?);
                }
                Phase::Raw(p) => total.merge(&runtime.run(p)?),
                Phase::Untimed(p) => {
                    runtime.run(p)?;
                }
            }
        }
        Ok(total)
    }

    /// Reads a tensor's current contents (functional mode).
    ///
    /// # Errors
    ///
    /// Unknown tensors and runtime read errors (model mode, unwritten
    /// data).
    pub fn read(&self, name: &str) -> Result<Vec<f64>, BackendError> {
        let region = self.workspace.binding(name)?.region;
        Ok(self.workspace.runtime.read_region(region)?)
    }
}

/// Inserts a barrier after every index launch: the bulk-synchronous
/// execution style of ScaLAPACK and CTF (§7.1.1 — they cannot hide
/// communication behind computation).
pub fn make_bulk_synchronous(program: &mut Program) {
    let mut ops = Vec::with_capacity(program.ops.len() * 2);
    for op in program.ops.drain(..) {
        let is_launch = matches!(op, Op::IndexLaunch(_));
        ops.push(op);
        if is_launch {
            ops.push(Op::Barrier);
        }
    }
    program.ops = ops;
}

/// Checks a GEMM baseline's functional output against the oracle.
#[cfg(test)]
pub(crate) fn assert_gemm_matches_oracle(run: &mut PhasedRun, n: i64) {
    run.run().unwrap();
    let assignment = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let dims = ["A", "B", "C"].map(|t| (t.to_string(), vec![n, n])).into();
    let inputs = ["B", "C"]
        .map(|t| (t.to_string(), run.read(t).unwrap()))
        .into();
    let want = distal_core::oracle::evaluate(&assignment, &dims, &inputs).unwrap();
    for (g, w) in run.read("A").unwrap().iter().zip(want.iter()) {
        assert!((g - w).abs() < 1e-9, "{g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_insertion() {
        let mut p = Program::new();
        p.push(Op::IndexLaunch(distal_runtime::program::IndexLaunch {
            name: "l".into(),
            tasks: vec![],
        }));
        p.push(Op::Fill {
            region: distal_runtime::RegionId(0),
            value: 0.0,
        });
        make_bulk_synchronous(&mut p);
        assert_eq!(p.ops.len(), 3);
        assert!(matches!(p.ops[1], Op::Barrier));
    }

    #[test]
    fn names() {
        assert_eq!(BaselineSystem::Ctf.name(), "CTF");
        assert_eq!(
            BaselineSystem::CosmaRestrictedCpus.name(),
            "COSMA (Restricted CPUs)"
        );
    }
}
