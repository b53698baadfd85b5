//! The target-agnostic problem description: statement + tensors + machine.
//!
//! A [`Problem`] carries everything DISTAL's §3 input bundle needs *except*
//! the schedule and the lowering target: the tensor index notation
//! statement, the registered tensors (shape + distribution format, with
//! optional initial data), the abstract machine grid, and the physical
//! machine model. The same `Problem` then compiles against any
//! [`Backend`](crate::Backend) — the dynamic runtime, the static SPMD
//! lowering, or a pure cost model — via
//! [`Backend::plan`](crate::Backend::plan) or
//! [`Backend::compile`](crate::Backend::compile); schedules stay separate
//! so an autoscheduler can sweep them over one immutable problem.

use crate::error::CompileError;
use crate::machine::DistalMachine;
use crate::plan::Bindings;
use distal_format::Format;
use distal_ir::expr::Assignment;
use distal_machine::spec::MachineSpec;
use distal_sparse::SparseBuffer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic pseudo-random tensor data in `[-1, 1)` (xorshift64*).
///
/// This is *the* seeding function shared by every backend: a tensor
/// registered with [`TensorInit::Random`] materializes to exactly these
/// values whether it is seeded into runtime regions or fed to the SPMD
/// rank VM, which is what makes cross-backend runs bit-comparable.
pub fn random_data(n: usize, seed: u64) -> Vec<f64> {
    random_values(seed).take(n).collect()
}

/// The endless xorshift64* stream behind the generators, uniform in
/// `[0, 1)`.
fn unit_stream(mut state: u64) -> impl Iterator<Item = f64> {
    std::iter::repeat_with(move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    })
}

/// [`random_data`] as an endless stream.
fn random_values(seed: u64) -> impl Iterator<Item = f64> {
    unit_stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1)).map(|u| u * 2.0 - 1.0)
}

/// Deterministic pseudo-random data with explicit `+0.0` entries at the
/// given density: element `i` keeps the value [`random_data`] would assign
/// it with probability `density` (drawn from an independent xorshift64*
/// mask stream) and is an exact `+0.0` otherwise.
///
/// `density >= 1.0` returns exactly `random_data(n, seed)`, so the dense
/// and sparse seeding paths coincide at full density. Like [`random_data`]
/// this is shared by every backend, which is what makes sparse problems
/// cross-backend bit-comparable.
pub fn sparse_random_data(n: usize, seed: u64, density: f64) -> Vec<f64> {
    sparse_random_values(n, seed, density).collect()
}

/// [`sparse_random_data`] as a stream: what generates straight into CSR
/// and counts stored entries without a dense image in between.
pub(crate) fn sparse_random_values(n: usize, seed: u64, density: f64) -> impl Iterator<Item = f64> {
    let mut mask = unit_stream(
        (seed ^ 0x5DEE_CE66_D171_9B4B)
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .max(1),
    );
    let thinned = density < 1.0;
    random_values(seed).take(n).map(move |v| {
        if thinned && mask.next().expect("an endless stream") >= density {
            0.0
        } else {
            v
        }
    })
}

/// Declares a tensor: name, dimension sizes, and format.
#[derive(Clone, Debug)]
pub struct TensorSpec {
    /// Tensor name, as used in expressions.
    pub name: String,
    /// Dimension sizes (empty = scalar).
    pub dims: Vec<i64>,
    /// Distribution + memory kind.
    pub format: Format,
}

impl TensorSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, dims: Vec<i64>, format: Format) -> Self {
        TensorSpec {
            name: name.into(),
            dims,
            format,
        }
    }
}

/// A registered tensor's identity below admission: its position in the
/// problem's name-sorted registry ([`Problem::tensors`]), the index a fresh
/// runtime's `RegionId` carries. The SPMD ops and the verifier's events
/// carry it, and every per-tensor table there is indexed by it; a name is
/// read back from the program's table only to render an op or a
/// diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u32);

impl TensorId {
    /// The registry position, for indexing a per-tensor table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a registered tensor's initial contents are defined.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorInit {
    /// Every element set to a constant.
    Value(f64),
    /// Explicit row-major data, shared with whoever bound it: cloning the
    /// initializer, and binding it on the runtime backend, copy nothing.
    Data(Arc<Vec<f64>>),
    /// Deterministic pseudo-random data from a seed (see [`random_data`]).
    Random(u64),
    /// Deterministic pseudo-random data with explicit zeros: each element
    /// is nonzero with probability `density` (see [`sparse_random_data`]).
    RandomSparse {
        /// The seed shared with [`TensorInit::Random`]'s value stream.
        seed: u64,
        /// Expected fraction of nonzero elements, in `[0, 1]`.
        density: f64,
    },
    /// Data the caller already holds compressed, shaped like the tensor.
    /// Bound to the tensor a plan's leaf reads as CSR
    /// ([`crate::lower::CompiledKernel::csr_operand`]) it is shared as
    /// is — no pass over a dense image; anywhere else it decompresses.
    Sparse(Arc<SparseBuffer>),
}

impl TensorInit {
    /// Materializes the initial contents for a tensor of the given shape.
    pub fn materialize(&self, dims: &[i64]) -> Vec<f64> {
        let n = dims.iter().product::<i64>().max(1) as usize;
        match self {
            TensorInit::Value(v) => vec![*v; n],
            TensorInit::Data(d) => d.to_vec(),
            TensorInit::Random(seed) => random_data(n, *seed),
            TensorInit::RandomSparse { seed, density } => sparse_random_data(n, *seed, *density),
            TensorInit::Sparse(image) => image.to_dense(),
        }
    }

    /// The contents [`TensorInit::materialize`] would produce, compressed
    /// — built in one pass over borrowed `Data`, straight from the value
    /// stream of `RandomSparse`, and shared for `Sparse`.
    pub(crate) fn compress(&self, dims: &[i64]) -> Arc<SparseBuffer> {
        let n = dims.iter().product::<i64>().max(1) as usize;
        Arc::new(match self {
            TensorInit::Sparse(image) => return Arc::clone(image),
            TensorInit::Data(data) => SparseBuffer::from_dense(dims, data),
            TensorInit::RandomSparse { seed, density } => {
                SparseBuffer::from_values(dims, sparse_random_values(n, *seed, *density))
            }
            dense => SparseBuffer::from_dense(dims, &dense.materialize(dims)),
        })
    }

    /// The contents [`TensorInit::materialize`] would produce, shared:
    /// `Data` as the caller's own vector, anything else generated in one
    /// pass into a recycled buffer ([`distal_runtime::pool`]) that goes
    /// back to the pool with the store it is bound into.
    pub(crate) fn share(&self, dims: &[i64]) -> Arc<Vec<f64>> {
        let n = dims.iter().product::<i64>().max(1) as usize;
        let generated = |values: &mut dyn Iterator<Item = f64>| {
            let mut data = distal_runtime::pool::take(n);
            data.iter_mut().zip(values).for_each(|(d, v)| *d = v);
            data
        };
        Arc::new(match self {
            TensorInit::Data(data) => return Arc::clone(data),
            TensorInit::Value(v) => generated(&mut std::iter::repeat(*v)),
            TensorInit::Random(seed) => generated(&mut random_values(*seed)),
            TensorInit::RandomSparse { seed, density } => {
                generated(&mut sparse_random_values(n, *seed, *density))
            }
            TensorInit::Sparse(image) => image.to_dense(),
        })
    }
}

/// A statement + registered tensors + abstract machine, ready to compile
/// onto any backend. See the [module docs](self) and the crate example.
///
/// Its tensors' initial data are held as [`Bindings`], the form a request
/// binds to a plan; [`Backend::compile`](crate::Backend::compile) binds
/// exactly those.
#[derive(Clone, Debug)]
pub struct Problem {
    spec: MachineSpec,
    machine: DistalMachine,
    statement: Option<Assignment>,
    /// Shared with the plans made of this problem, and copied only when a
    /// problem that shares it registers another tensor.
    tensors: Arc<BTreeMap<String, TensorSpec>>,
    data: Bindings,
}

impl Problem {
    /// A problem on an abstract machine backed by a physical model.
    pub fn new(spec: MachineSpec, machine: DistalMachine) -> Self {
        Problem {
            spec,
            machine,
            statement: None,
            tensors: Arc::default(),
            data: Bindings::new(),
        }
    }

    /// Sets the tensor index notation statement.
    ///
    /// # Errors
    ///
    /// Parse errors.
    pub fn statement(&mut self, expr: &str) -> Result<&mut Self, CompileError> {
        let a = Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
        self.statement = Some(a);
        Ok(self)
    }

    /// Sets an already-parsed statement.
    pub fn set_assignment(&mut self, assignment: Assignment) -> &mut Self {
        self.statement = Some(assignment);
        self
    }

    /// The parsed statement, if one was set.
    pub fn assignment(&self) -> Option<&Assignment> {
        self.statement.as_ref()
    }

    /// The physical machine model.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The abstract machine.
    pub fn machine(&self) -> &DistalMachine {
        &self.machine
    }

    /// Registers a tensor, validating its format against the machine.
    ///
    /// # Errors
    ///
    /// Rejects formats whose notation arity doesn't match the tensor order
    /// or the machine's hierarchy levels, and with
    /// [`CompileError::TooManyDims`] a tensor of order above
    /// [`distal_machine::geom::MAX_DIM`] or a machine whose flattened
    /// hierarchy is deeper.
    pub fn tensor(&mut self, spec: TensorSpec) -> Result<&mut Self, CompileError> {
        validate_format(&spec, &self.machine)?;
        Arc::make_mut(&mut self.tensors).insert(spec.name.clone(), spec);
        Ok(self)
    }

    /// The registered tensors, by name.
    pub fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    /// [`Problem::tensors`], shared rather than copied.
    pub(crate) fn shared_tensors(&self) -> Arc<BTreeMap<String, TensorSpec>> {
        Arc::clone(&self.tensors)
    }

    /// The registered spec of one tensor.
    pub(crate) fn tensor_spec(&self, name: &str) -> Option<&TensorSpec> {
        self.tensors.get(name)
    }

    /// Tensor shapes keyed by name (the oracle/extents input format).
    pub fn dims_map(&self) -> BTreeMap<String, Vec<i64>> {
        self.tensors
            .iter()
            .map(|(n, s)| (n.clone(), s.dims.clone()))
            .collect()
    }

    /// Seeds a tensor with explicit row-major data.
    ///
    /// # Errors
    ///
    /// Unknown tensors and size mismatches.
    pub fn set_data(&mut self, name: &str, data: Vec<f64>) -> Result<&mut Self, CompileError> {
        self.bind(name, TensorInit::Data(Arc::new(data)))
    }

    /// Fills a tensor with a constant.
    ///
    /// # Errors
    ///
    /// Unknown tensor names.
    pub fn fill(&mut self, name: &str, value: f64) -> Result<&mut Self, CompileError> {
        self.bind(name, TensorInit::Value(value))
    }

    /// Seeds a tensor with deterministic pseudo-random values in `[-1, 1)`
    /// ([`random_data`]; identical across backends for the same seed).
    ///
    /// # Errors
    ///
    /// Unknown tensor names.
    pub fn fill_random(&mut self, name: &str, seed: u64) -> Result<&mut Self, CompileError> {
        self.bind(name, TensorInit::Random(seed))
    }

    /// Seeds a tensor with deterministic pseudo-random values thinned to
    /// the given density: each element is nonzero with probability
    /// `density`, exactly `+0.0` otherwise ([`sparse_random_data`]) — the
    /// density knob of [`Problem::fill_random`]. At `density = 1.0` the
    /// two coincide. The materialized data is independent of the tensor's
    /// level formats, so a compressed and a dense registration of the same
    /// `(seed, density)` hold bit-identical logical contents (the basis of
    /// the sparse/dense parity suite). For [`Problem::set_data`] no knob is
    /// needed: the explicit zeros in the data itself determine the nnz
    /// ([`Problem::nnz_of`]).
    ///
    /// # Errors
    ///
    /// Unknown tensor names, and densities outside `[0, 1]`.
    pub fn fill_random_sparse(
        &mut self,
        name: &str,
        seed: u64,
        density: f64,
    ) -> Result<&mut Self, CompileError> {
        self.bind(name, TensorInit::RandomSparse { seed, density })
    }

    /// The one door of every setter: `init` is checked against the
    /// tensor's registered shape by [`TensorInit::validate`], the check
    /// [`Plan::bind`](crate::Plan::bind) makes, so a bad initializer is
    /// the same error here as there — never one that surfaces later,
    /// inside a backend.
    fn bind(&mut self, name: &str, init: TensorInit) -> Result<&mut Self, CompileError> {
        let spec = self
            .tensors
            .get(name)
            .ok_or_else(|| CompileError::UnknownTensor(name.into()))?;
        init.validate(name, &spec.dims)?;
        self.data.set_init(name, init);
        Ok(self)
    }

    /// The number of stored (nonzero-bit-pattern) elements of a tensor's
    /// initial contents; `None` when the tensor is unknown or has no
    /// initializer. This is the nnz the registry advertises to nnz-aware
    /// cost accounting on every backend.
    ///
    /// `Value` and `Random` initializers are answered analytically without
    /// materializing the data, and `Data` is scanned in place (`Random`
    /// values are uniform in `[-1, 1)`, so they are treated as fully
    /// dense; a stream value landing on exactly `+0.0` has probability
    /// `2^-53` per element and would only make the accounting
    /// infinitesimally conservative). Only `RandomSparse` generates its
    /// stream to count the surviving entries exactly.
    pub fn nnz_of(&self, name: &str) -> Option<u64> {
        let spec = self.tensors.get(name)?;
        Some(crate::plan::init_nnz(self.data.get(name)?, &spec.dims))
    }

    /// Materializes a tensor's initial contents (`None` when the tensor is
    /// unknown or has no initializer).
    pub fn initial_data(&self, name: &str) -> Option<Vec<f64>> {
        let spec = self.tensors.get(name)?;
        Some(self.data.get(name)?.materialize(&spec.dims))
    }

    fn require(&self, name: &str) -> Result<(), CompileError> {
        if self.tensors.contains_key(name) {
            Ok(())
        } else {
            Err(CompileError::UnknownTensor(name.into()))
        }
    }

    /// The `precompute` transformation (paper §2) as a pure split: the
    /// product of the tensors named in `factors` is hoisted into a
    /// workspace tensor `workspace(ws_vars)` (registered with `ws_format`,
    /// dimensions inferred from the statement). Returns the workspace
    /// stage and the remainder stage consuming it — two problems, each
    /// over the tensors its own statement names, with this problem's
    /// initializers for them. Run them in order on any
    /// backend: read `workspace` from the first stage's instance and seed
    /// it into the second ([`Problem::set_data`] or a binding).
    ///
    /// # Errors
    ///
    /// A missing statement, invalid splits (escaped reductions, trivial
    /// factor sets, a workspace name the statement already uses),
    /// unregistered tensors, and workspace format errors.
    ///
    /// # Example
    ///
    /// The matrix triple product drops from `O(n⁴)` fused to `O(n³)`
    /// through a workspace:
    ///
    /// ```
    /// # use distal_core::{Backend, DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec};
    /// # use distal_format::Format;
    /// # use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
    /// let mut fused = Problem::new(MachineSpec::small(1), machine);
    /// fused.statement("A(i,l) = B(i,j) * C(j,k) * D(k,l)")?;
    /// let rows = Format::parse("xy->x", MemKind::Sys)?;
    /// for t in ["A", "B", "C", "D"] {
    ///     fused.tensor(TensorSpec::new(t, vec![8, 8], rows.clone()))?;
    /// }
    /// fused.fill_random("B", 7)?.fill_random("C", 8)?.fill_random("D", 9)?;
    /// let (ws, mut rest) = fused.precompute(&["B", "C"], "T", &["i", "k"], rows)?;
    /// let dist = Schedule::new()
    ///     .divide("i", "io", "ii", 2)
    ///     .reorder(&["io", "ii"])
    ///     .distribute(&["io"]);
    /// let backend = RuntimeBackend::functional();
    /// let mut first = backend.compile(&ws, &dist)?;
    /// let mut flops = first.run()?.flops;
    /// rest.set_data("T", first.read("T")?)?;
    /// let mut second = backend.compile(&rest, &dist)?;
    /// flops += second.run()?.flops;
    /// assert!(flops < 2.0 * 8f64.powi(4));
    /// assert_eq!(second.read("A")?.len(), 64);
    /// # Ok(())
    /// # }
    /// ```
    pub fn precompute(
        &self,
        factors: &[&str],
        workspace: &str,
        ws_vars: &[&str],
        ws_format: Format,
    ) -> Result<(Problem, Problem), CompileError> {
        let assignment = self
            .statement
            .as_ref()
            .ok_or_else(|| CompileError::Expression("problem has no statement".into()))?;
        let (ws_stmt, rest_stmt) =
            distal_ir::precompute::precompute_product(assignment, factors, workspace, ws_vars)
                .map_err(|e| CompileError::Expression(e.to_string()))?;
        // Workspace dimensions from the statement's inferred extents.
        for acc in assignment.accesses() {
            self.require(&acc.tensor)?;
        }
        let extents = assignment
            .infer_extents(&self.dims_map())
            .ok_or(CompileError::InconsistentExtents)?;
        let ws_dims = ws_stmt.lhs.indices.iter().map(|v| extents[v]).collect();
        let ws_spec = TensorSpec::new(workspace, ws_dims, ws_format);
        // Each stage registers exactly the tensors its statement names.
        let stage = |stmt: Assignment| -> Result<Problem, CompileError> {
            let mut stage = Problem::new(self.spec.clone(), self.machine.clone());
            for acc in stmt.accesses() {
                let spec = self.tensors.get(&acc.tensor).unwrap_or(&ws_spec);
                stage.tensor(spec.clone())?;
                if let Some(init) = self.data.get(&acc.tensor) {
                    stage.data.set_init(acc.tensor.clone(), init.clone());
                }
            }
            stage.statement = Some(stmt);
            Ok(stage)
        };
        Ok((stage(ws_stmt)?, stage(rest_stmt)?))
    }

    /// The bindings this problem holds, its setters' initializers — what
    /// [`Backend::compile`](crate::Backend::compile) binds to the plan it
    /// builds.
    pub fn bindings(&self) -> Bindings {
        self.data.clone()
    }
}

/// Validates a tensor's order and the machine's flattened depth against
/// the coordinate cap, then the format notation against the machine
/// (arity per hierarchy level).
fn validate_format(spec: &TensorSpec, machine: &DistalMachine) -> Result<(), CompileError> {
    CompileError::check_dims(|| format!("tensor '{}'", spec.name), spec.dims.len())?;
    CompileError::check_dims(|| "the machine".into(), machine.hierarchy.flat_dim())?;
    let levels = machine.hierarchy.levels();
    if spec.format.is_distributed() {
        if spec.format.distributions.len() != levels.len() {
            return Err(CompileError::Format(format!(
                "tensor '{}' has {} distribution level(s) but the machine has {}",
                spec.name,
                spec.format.distributions.len(),
                levels.len()
            )));
        }
        for (d, g) in spec.format.distributions.iter().zip(levels.iter()) {
            d.check_arity(spec.dims.len(), g.dim())
                .map_err(|e| CompileError::Format(format!("tensor '{}': {e}", spec.name)))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MemKind, ProcKind};

    fn problem() -> Problem {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        Problem::new(MachineSpec::small(2), machine)
    }

    #[test]
    fn registration_validates_formats() {
        let mut p = problem();
        let bad = Format::parse("x->x", MemKind::Sys).unwrap();
        assert!(matches!(
            p.tensor(TensorSpec::new("T", vec![4, 4], bad)),
            Err(CompileError::Format(_))
        ));
        let good = Format::parse("xy->xy", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("T", vec![4, 4], good)).unwrap();
        assert_eq!(p.dims_map()["T"], vec![4, 4]);
    }

    #[test]
    fn initializers_materialize_deterministically() {
        let mut p = problem();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![2, 2], f)).unwrap();
        p.fill_random("B", 7).unwrap();
        let a = p.initial_data("B").unwrap();
        let b = p.initial_data("B").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, random_data(4, 7));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn unknown_tensors_rejected() {
        let mut p = problem();
        assert!(matches!(
            p.fill_random("nope", 1),
            Err(CompileError::UnknownTensor(_))
        ));
        assert!(matches!(
            p.set_data("nope", vec![]),
            Err(CompileError::UnknownTensor(_))
        ));
        assert!(p.initial_data("nope").is_none());
    }

    #[test]
    fn set_data_checks_size() {
        let mut p = problem();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![2, 2], f)).unwrap();
        assert!(matches!(
            p.set_data("B", vec![1.0]),
            Err(CompileError::DataSize {
                tensor,
                expected: 4,
                got: 1,
            }) if tensor == "B"
        ));
        p.set_data("B", vec![1.0; 4]).unwrap();
        assert_eq!(p.initial_data("B").unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn sparse_initializers_and_nnz() {
        let mut p = problem();
        let f = distal_format::Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![4, 4], f)).unwrap();
        // Full density coincides with the dense random stream.
        p.fill_random_sparse("B", 7, 1.0).unwrap();
        assert_eq!(p.initial_data("B").unwrap(), random_data(16, 7));
        assert_eq!(p.nnz_of("B"), Some(16));
        // Zero density is all explicit zeros.
        p.fill_random_sparse("B", 7, 0.0).unwrap();
        assert_eq!(p.nnz_of("B"), Some(0));
        // Intermediate densities thin the same value stream.
        p.fill_random_sparse("B", 7, 0.5).unwrap();
        let data = p.initial_data("B").unwrap();
        let dense = random_data(16, 7);
        let nnz = p.nnz_of("B").unwrap();
        assert!(nnz < 16);
        for (s, d) in data.iter().zip(dense.iter()) {
            assert!(*s == 0.0 || s.to_bits() == d.to_bits());
        }
        // Bad densities are rejected, naming the tensor.
        assert!(matches!(
            p.fill_random_sparse("B", 7, 1.5),
            Err(CompileError::Density { tensor, density }) if tensor == "B" && density == 1.5
        ));
        assert!(matches!(
            p.fill_random_sparse("nope", 1, 0.5),
            Err(CompileError::UnknownTensor(_))
        ));
    }

    #[test]
    fn statement_parses() {
        let mut p = problem();
        assert!(p.statement("A(i,j) = ").is_err());
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        assert_eq!(p.assignment().unwrap().lhs.tensor, "A");
    }
}
