//! Sessions: the user-facing façade tying tensors, compilation, and
//! execution together.
//!
//! A [`Session`] is a thin convenience over the target-agnostic pipeline:
//! it keeps its tensor registry *in* a [`Problem`] (shapes, formats,
//! machine — data lives in the runtime regions, not in problem
//! initializers) plus a live [`Runtime`] with one region per registered
//! tensor — i.e. it is the
//! [`RuntimeBackend`](crate::backend::RuntimeBackend) with its artifact
//! state kept mutable and incremental, which baselines and multi-kernel
//! pipelines need. New code targeting a single statement should prefer
//! [`Problem::compile`] with an explicit backend.

use crate::error::CompileError;
use crate::lower::{compile, CompileOptions, CompiledKernel, TensorBinding};
use crate::machine::DistalMachine;
use crate::problem::{Problem, TensorSpec};
use crate::schedule::Schedule;
use distal_format::Format;
use distal_ir::expr::Assignment;
use distal_machine::geom::Rect;
use distal_machine::spec::MachineSpec;
use distal_runtime::exec::{Mode, Runtime, RuntimeError};
use distal_runtime::executor::ExecutorKind;
use distal_runtime::region::RegionId;
use distal_runtime::stats::RunStats;
use distal_runtime::topology::PhysicalMachine;
use std::collections::BTreeMap;

/// A session: a runtime instance plus registered tensors on an abstract
/// machine. See the crate-level example.
pub struct Session {
    runtime: Runtime,
    problem: Problem,
    regions: BTreeMap<String, RegionId>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("regions", &self.regions.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a session on a fresh runtime.
    pub fn new(spec: MachineSpec, machine: DistalMachine, mode: Mode) -> Self {
        Session {
            runtime: Runtime::new(PhysicalMachine::new(spec.clone()), mode),
            problem: Problem::new(spec, machine),
            regions: BTreeMap::new(),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The underlying runtime, mutably.
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// The abstract machine.
    pub fn machine(&self) -> &DistalMachine {
        self.problem.machine()
    }

    /// Selects how [`Session::execute`] (and [`Session::place`]/
    /// [`Session::run`]) execute DAG nodes: serially, in parallel on the
    /// host's cores, or — the default — parallel in functional mode and
    /// serial in model mode.
    pub fn set_executor(&mut self, kind: ExecutorKind) -> &mut Self {
        self.runtime.set_executor(kind);
        self
    }

    /// The configured executor selection.
    pub fn executor(&self) -> ExecutorKind {
        self.runtime.executor()
    }

    /// Registers a tensor, validating its format against the machine.
    ///
    /// # Errors
    ///
    /// Rejects formats whose notation arity doesn't match the tensor order
    /// or the machine's hierarchy levels.
    pub fn tensor(&mut self, spec: TensorSpec) -> Result<(), CompileError> {
        let machine = self.problem.machine().clone();
        self.tensor_for_machine(spec, &machine)
    }

    /// Registers a tensor whose format targets a *different* abstract
    /// machine than the session default (used by the CTF baseline, whose
    /// internal matricized tensors live on per-contraction grids).
    ///
    /// # Errors
    ///
    /// Rejects formats whose notation arity doesn't match the tensor order
    /// or the given machine's hierarchy levels.
    pub fn tensor_for_machine(
        &mut self,
        spec: TensorSpec,
        machine: &DistalMachine,
    ) -> Result<(), CompileError> {
        let name = spec.name.clone();
        let rect = Rect::sized(&spec.dims);
        self.problem.tensor_for_machine(spec, machine)?;
        let region = self.runtime.create_region(name.clone(), rect);
        self.regions.insert(name, region);
        Ok(())
    }

    /// The binding of a registered tensor (shape + format + region).
    pub fn binding(&self, name: &str) -> Option<TensorBinding> {
        let spec = self.problem.tensor_spec(name)?;
        Some(TensorBinding {
            dims: spec.dims.clone(),
            format: spec.format.clone(),
            region: *self.regions.get(name)?,
        })
    }

    /// The backing region of a registered tensor.
    pub fn region(&self, name: &str) -> Option<RegionId> {
        self.regions.get(name).copied()
    }

    /// Seeds a tensor with row-major data (functional mode). For tensors
    /// registered with a compressed level format, the explicit zeros in
    /// `data` are the density knob: the region's wire-payload accounting
    /// is set from the data's nnz so copies charge `pos`/`crd`/`vals`
    /// bytes instead of dense volume.
    ///
    /// # Errors
    ///
    /// Unknown tensors and size mismatches.
    pub fn set_data(&mut self, name: &str, data: Vec<f64>) -> Result<(), CompileError> {
        let region = self.require(name)?;
        self.update_payload_scale(name, region, &data);
        self.runtime
            .set_region_data(region, data)
            .map_err(|e| CompileError::Session(e.to_string()))
    }

    /// Sets a compressed-format tensor's region payload scale from the
    /// actual nnz of `data`; dense formats keep flat accounting.
    fn update_payload_scale(&mut self, name: &str, region: RegionId, data: &[f64]) {
        let Some(spec) = self.problem.tensor_spec(name) else {
            return;
        };
        if !spec.format.has_compressed() {
            return;
        }
        let nnz = data.iter().filter(|v| v.to_bits() != 0).count() as u64;
        let scale = distal_sparse::csr_payload_scale(&spec.dims, nnz);
        self.runtime.set_region_payload_scale(region, scale);
    }

    /// Fills a tensor with a constant (both modes).
    ///
    /// # Errors
    ///
    /// Unknown tensor names.
    pub fn fill(&mut self, name: &str, value: f64) -> Result<(), CompileError> {
        let region = self.require(name)?;
        self.runtime
            .fill_region(region, value)
            .map_err(|e| CompileError::Session(e.to_string()))
    }

    /// Fills a tensor with deterministic pseudo-random values in `[-1, 1)`
    /// (functional mode; see [`crate::problem::random_data`]) or just
    /// marks it valid (model mode).
    ///
    /// # Errors
    ///
    /// Unknown tensor names.
    pub fn fill_random(&mut self, name: &str, seed: u64) -> Result<(), CompileError> {
        let region = self.require(name)?;
        if self.runtime.mode() == Mode::Functional {
            let dims = &self.problem.tensor_spec(name).expect("required above").dims;
            let n = dims.iter().product::<i64>().max(1) as usize;
            let data = crate::problem::random_data(n, seed);
            self.runtime
                .set_region_data(region, data)
                .map_err(|e| CompileError::Session(e.to_string()))
        } else {
            self.runtime
                .fill_region(region, 0.0)
                .map_err(|e| CompileError::Session(e.to_string()))
        }
    }

    /// Fills a tensor with deterministic pseudo-random values thinned to
    /// `density` (the density knob of [`Session::fill_random`]; see
    /// [`crate::problem::sparse_random_data`]). Functional mode seeds the
    /// data (and, for compressed formats, the nnz-derived payload
    /// accounting); model mode marks the region valid.
    ///
    /// # Errors
    ///
    /// Unknown tensor names and densities outside `[0, 1]`.
    pub fn fill_random_sparse(
        &mut self,
        name: &str,
        seed: u64,
        density: f64,
    ) -> Result<(), CompileError> {
        let region = self.require(name)?;
        if !(0.0..=1.0).contains(&density) {
            return Err(CompileError::Session(format!(
                "density must be in [0, 1], got {density}"
            )));
        }
        if self.runtime.mode() == Mode::Functional {
            let dims = &self.problem.tensor_spec(name).expect("required above").dims;
            let n = dims.iter().product::<i64>().max(1) as usize;
            let data = crate::problem::sparse_random_data(n, seed, density);
            self.update_payload_scale(name, region, &data);
            self.runtime
                .set_region_data(region, data)
                .map_err(|e| CompileError::Session(e.to_string()))
        } else {
            // Model mode holds no data, but the *accounting* must still be
            // nnz-aware: derive the payload scale analytically from the
            // expected nnz at this density, so modeled copy bytes/timing
            // see the compression.
            let spec = self.problem.tensor_spec(name).expect("required above");
            if spec.format.has_compressed() {
                let volume = spec.dims.iter().product::<i64>().max(1) as f64;
                let nnz = (volume * density).round() as u64;
                let scale = distal_sparse::csr_payload_scale(&spec.dims, nnz);
                self.runtime.set_region_payload_scale(region, scale);
            }
            self.runtime
                .fill_region(region, 0.0)
                .map_err(|e| CompileError::Session(e.to_string()))
        }
    }

    /// Compiles an expression string with a schedule and default options.
    ///
    /// # Errors
    ///
    /// Parse and compile errors.
    pub fn compile(&self, expr: &str, schedule: &Schedule) -> Result<CompiledKernel, CompileError> {
        let assignment =
            Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
        self.compile_assignment(&assignment, schedule, &CompileOptions::default())
    }

    /// Applies the `precompute` transformation (paper §2) and compiles both
    /// resulting stages: the product of the tensors named in `factors` is
    /// hoisted into a workspace tensor `workspace(ws_vars)` (registered on
    /// this session with `ws_format`, dimensions inferred from the
    /// statement), and the remainder consumes it. Run the returned kernels
    /// in order.
    ///
    /// # Errors
    ///
    /// Parse errors, invalid precompute splits (escaped reductions,
    /// trivial factor sets), and compile errors from either stage.
    ///
    /// # Example
    ///
    /// The matrix triple product drops from `O(n⁴)` fused to `O(n³)`
    /// through a workspace:
    ///
    /// ```
    /// # use distal_core::{DistalMachine, Schedule, Session, TensorSpec};
    /// # use distal_format::Format;
    /// # use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
    /// # use distal_runtime::Mode;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
    /// let mut s = Session::new(MachineSpec::small(1), machine, Mode::Functional);
    /// let rows = Format::parse("xy->x", MemKind::Sys)?;
    /// for t in ["A", "B", "C", "D"] {
    ///     s.tensor(TensorSpec::new(t, vec![8, 8], rows.clone()))?;
    ///     if t != "A" {
    ///         s.fill_random(t, 7)?;
    ///     }
    /// }
    /// let dist = Schedule::new()
    ///     .divide("i", "io", "ii", 2)
    ///     .reorder(&["io", "ii"])
    ///     .distribute(&["io"]);
    /// let (ws, rest) = s.compile_with_precompute(
    ///     "A(i,l) = B(i,j) * C(j,k) * D(k,l)",
    ///     &["B", "C"],
    ///     "T",
    ///     &["i", "k"],
    ///     rows,
    ///     &dist,
    ///     &dist,
    /// )?;
    /// assert!(ws.total_flops + rest.total_flops < 2.0 * 8f64.powi(4));
    /// s.run(&ws)?;
    /// s.run(&rest)?;
    /// # Ok(())
    /// # }
    /// ```
    #[allow(clippy::too_many_arguments)]
    pub fn compile_with_precompute(
        &mut self,
        expr: &str,
        factors: &[&str],
        workspace: &str,
        ws_vars: &[&str],
        ws_format: Format,
        ws_schedule: &Schedule,
        schedule: &Schedule,
    ) -> Result<(CompiledKernel, CompiledKernel), CompileError> {
        let assignment =
            Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
        let (ws_stmt, rest_stmt) =
            distal_ir::precompute::precompute_product(&assignment, factors, workspace, ws_vars)
                .map_err(|e| CompileError::Expression(e.to_string()))?;
        // Workspace dimensions from the statement's inferred extents.
        let mut dims_map = BTreeMap::new();
        for acc in assignment.accesses() {
            let spec = self
                .problem
                .tensor_spec(&acc.tensor)
                .ok_or_else(|| CompileError::UnknownTensor(acc.tensor.clone()))?;
            dims_map.insert(acc.tensor.clone(), spec.dims.clone());
        }
        let extents = assignment
            .infer_extents(&dims_map)
            .ok_or(CompileError::InconsistentExtents)?;
        let ws_dims: Vec<i64> = ws_stmt.lhs.indices.iter().map(|v| extents[v]).collect();
        self.tensor(TensorSpec::new(workspace, ws_dims, ws_format))?;
        let options = CompileOptions::default();
        let ws_kernel = self.compile_assignment(&ws_stmt, ws_schedule, &options)?;
        let rest_kernel = self.compile_assignment(&rest_stmt, schedule, &options)?;
        Ok((ws_kernel, rest_kernel))
    }

    /// Compiles an assignment with explicit options.
    ///
    /// # Errors
    ///
    /// Compile errors (unknown tensors, bad schedules, oversized grids).
    pub fn compile_assignment(
        &self,
        assignment: &Assignment,
        schedule: &Schedule,
        options: &CompileOptions,
    ) -> Result<CompiledKernel, CompileError> {
        self.compile_on(
            &self.problem.machine().clone(),
            assignment,
            schedule,
            options,
        )
    }

    /// Compiles against an explicit abstract machine (baselines compile
    /// phases onto per-contraction grids sharing one runtime).
    ///
    /// # Errors
    ///
    /// Compile errors (unknown tensors, bad schedules, oversized grids).
    pub fn compile_on(
        &self,
        machine: &DistalMachine,
        assignment: &Assignment,
        schedule: &Schedule,
        options: &CompileOptions,
    ) -> Result<CompiledKernel, CompileError> {
        compile(
            assignment,
            &self.bindings(),
            machine,
            self.runtime.machine(),
            schedule,
            options,
        )
    }

    /// Runs a compiled kernel's placement program (moves tensors into their
    /// formats' distributions).
    ///
    /// # Errors
    ///
    /// Runtime errors (OOM, uninitialized data).
    pub fn place(&mut self, kernel: &CompiledKernel) -> Result<RunStats, RuntimeError> {
        self.runtime.run(&kernel.placement)
    }

    /// Runs a compiled kernel's compute program.
    ///
    /// # Errors
    ///
    /// Runtime errors (OOM, uninitialized data).
    pub fn execute(&mut self, kernel: &CompiledKernel) -> Result<RunStats, RuntimeError> {
        self.runtime.run(&kernel.compute)
    }

    /// Places then executes, returning `(placement, compute)` statistics.
    ///
    /// # Errors
    ///
    /// Runtime errors from either phase.
    pub fn run(&mut self, kernel: &CompiledKernel) -> Result<(RunStats, RunStats), RuntimeError> {
        let p = self.place(kernel)?;
        let c = self.execute(kernel)?;
        Ok((p, c))
    }

    /// Reads a tensor's current contents (functional mode).
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownTensor`] for unregistered names, and
    /// [`CompileError::Session`] wrapping runtime read errors.
    pub fn read(&self, name: &str) -> Result<Vec<f64>, CompileError> {
        let region = *self
            .regions
            .get(name)
            .ok_or_else(|| CompileError::UnknownTensor(name.into()))?;
        self.runtime
            .read_region(region)
            .map_err(|e| CompileError::Session(e.to_string()))
    }

    /// All registered tensor bindings (for baselines building raw
    /// programs), materialized from the problem registry.
    pub fn bindings(&self) -> BTreeMap<String, TensorBinding> {
        self.problem
            .tensors()
            .iter()
            .map(|(name, spec)| {
                (
                    name.clone(),
                    TensorBinding {
                        dims: spec.dims.clone(),
                        format: spec.format.clone(),
                        region: self.regions[name],
                    },
                )
            })
            .collect()
    }

    /// Builds a placement program moving the named tensors into their
    /// formats' distributions on `machine` (`true` marks inputs, which are
    /// pulled with pinned reads; outputs are established with writes).
    ///
    /// # Errors
    ///
    /// Unknown tensors or oversized grids.
    pub fn placement_program(
        &self,
        names: &[(&str, bool)],
        machine: &DistalMachine,
    ) -> Result<distal_runtime::Program, CompileError> {
        crate::lower::placement_program(&self.bindings(), names, machine, self.runtime.machine())
    }

    fn require(&self, name: &str) -> Result<RegionId, CompileError> {
        self.regions
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UnknownTensor(name.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MemKind, ProcKind};

    fn matmul_session(n: i64, gx: i64, gy: i64) -> Session {
        let machine = DistalMachine::flat(Grid::grid2(gx, gy), ProcKind::Cpu);
        let mut s = Session::new(MachineSpec::small(4), machine, Mode::Functional);
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for name in ["A", "B", "C"] {
            s.tensor(TensorSpec::new(name, vec![n, n], f.clone()))
                .unwrap();
        }
        s
    }

    #[test]
    fn summa_matches_oracle() {
        let n = 12;
        let mut s = matmul_session(n, 2, 2);
        s.fill_random("B", 7).unwrap();
        s.fill_random("C", 11).unwrap();
        let k = s
            .compile("A(i,j) = B(i,k) * C(k,j)", &Schedule::summa(2, 2, 4))
            .unwrap();
        s.run(&k).unwrap();
        let got = s.read("A").unwrap();

        let mut dims = BTreeMap::new();
        for t in ["A", "B", "C"] {
            dims.insert(t.to_string(), vec![n, n]);
        }
        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), s.read("B").unwrap());
        inputs.insert("C".to_string(), s.read("C").unwrap());
        let want = oracle::evaluate(&k.assignment, &dims, &inputs).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn format_arity_validated() {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut s = Session::new(MachineSpec::small(2), machine, Mode::Functional);
        // 1-D notation for a 2-D machine grid.
        let bad = Format::parse("x->x", MemKind::Sys).unwrap();
        assert!(matches!(
            s.tensor(TensorSpec::new("T", vec![4, 4], bad)),
            Err(CompileError::Format(_))
        ));
    }

    #[test]
    fn scalar_tensor_spec() {
        let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
        let mut s = Session::new(MachineSpec::small(1), machine, Mode::Functional);
        s.tensor(TensorSpec::scalar("a")).unwrap();
        s.set_data("a", vec![3.5]).unwrap();
        assert_eq!(s.read("a").unwrap(), vec![3.5]);
    }

    #[test]
    fn unknown_tensor_errors() {
        let machine = DistalMachine::flat(Grid::line(1), ProcKind::Cpu);
        let mut s = Session::new(MachineSpec::small(1), machine, Mode::Functional);
        assert!(matches!(
            s.set_data("nope", vec![]),
            Err(CompileError::UnknownTensor(_))
        ));
        // `read` of an unknown name is an unknown-tensor error, not a
        // mode error (it used to masquerade as `NotFunctional`).
        assert!(matches!(
            s.read("nope"),
            Err(CompileError::UnknownTensor(t)) if t == "nope"
        ));
        assert!(matches!(
            s.fill_random("nope", 1),
            Err(CompileError::UnknownTensor(_))
        ));
    }
}
