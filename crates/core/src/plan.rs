//! Compile-once / execute-many: data-independent [`Plan`]s bound to
//! per-request [`Bindings`] yielding executable [`Instance`]s.
//!
//! DISTAL's pipeline (§3–§6) is data-independent by construction: a
//! (statement, formats, machine, schedule) bundle lowers to a distributed
//! program once, and that program runs over *any* operand values of the
//! right shapes. This module is that property as an API, the serving-side
//! counterpart of the compile-side [`Backend`](crate::backend::Backend)
//! abstraction:
//!
//! * [`Plan`] — what [`Backend::plan`](crate::backend::Backend::plan)
//!   produces: the lowered launch domain / programs / cost model, with
//!   **no operand values**. Plans are immutable, shareable (`Send + Sync`,
//!   cacheable behind `Arc` in a [`crate::cache::ShardedPlanCache`]),
//!   and reusable: binding a plan never re-runs scheduling or lowering.
//! * [`Bindings`] — the per-request payload: one
//!   [`TensorInit`] per tensor. Cheap to build, validated against the
//!   plan's registered shapes at bind time.
//! * [`Instance`] — a plan bound to data: the executable surface
//!   (`place`/`execute`/`read`/`run` plus [`Report`]).
//!   Instances are independent of each other; one plan can serve many
//!   concurrent requests.
//!
//! # Invariants under one plan
//!
//! Everything hashed into a [`PlanKey`](crate::cache::PlanKey) is fixed
//! for the plan's lifetime: the statement, every tensor's shape, level
//! formats and distribution, the machine spec and grid, and the schedule.
//! What *may* vary between bindings of one plan is only the operand
//! values — including their sparsity: nnz-derived byte and flop
//! accounting is recomputed per [`Instance`], never inherited from an
//! earlier binding — and the *form* they arrive in: the same values bound
//! dense ([`Bindings::set_data`]) or already compressed
//! ([`Bindings::set_sparse`]) are the same request, read for read and
//! byte for byte. Which tensor the plan's leaf reads as CSR is the
//! plan's; a binding never changes it.
//!
//! ```
//! use distal_core::{Backend, Bindings, DistalMachine, Problem, RuntimeBackend,
//!                   Schedule, TensorSpec};
//! use distal_format::Format;
//! use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiles = Format::parse("xy->xy", MemKind::Sys)?;
//! for t in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(t, vec![8, 8], tiles.clone()))?;
//! }
//!
//! // Compile once...
//! let plan = RuntimeBackend::functional().plan(&problem, &Schedule::summa(2, 2, 4))?;
//! // ...execute many: each request binds fresh data, no re-lowering.
//! for seed in 1..4u64 {
//!     let mut bindings = Bindings::new();
//!     bindings.fill_random("B", seed).fill_random("C", seed + 100);
//!     let mut instance = plan.bind(&bindings)?;
//!     instance.run()?;
//!     assert_eq!(instance.read("A")?.len(), 64);
//! }
//! # Ok(())
//! # }
//! ```

use crate::backend::BackendError;
use crate::error::CompileError;
use crate::problem::TensorSpec;
use crate::problem::{sparse_random_values, Problem, TensorInit};
use crate::report::Report;
use distal_sparse::{stored_entries, SparseBuffer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-request tensor data: one [`TensorInit`] per tensor name, attached
/// to a [`Plan`] via [`Plan::bind`]. Shapes/formats are *not* carried
/// here — they belong to the plan; bind-time validation checks that
/// explicit data matches the plan's registered shapes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings {
    init: BTreeMap<String, TensorInit>,
}

impl Bindings {
    /// Empty bindings (every tensor unseeded).
    pub fn new() -> Self {
        Bindings::default()
    }

    /// The bindings a [`Problem`]'s own initializers describe — what
    /// [`Problem::compile`] binds, making `compile` exactly
    /// `plan(...)` + `bind(problem bindings)`.
    pub fn from_problem(problem: &Problem) -> Self {
        Bindings {
            init: problem.inits().clone(),
        }
    }

    /// Seeds a tensor with explicit row-major data (validated against the
    /// plan's shape at bind time). The vector is held shared from here on:
    /// cloning the bindings does not copy it, and an instance bound on the
    /// runtime backend reads it in place.
    pub fn set_data(&mut self, name: impl Into<String>, data: Vec<f64>) -> &mut Self {
        self.init
            .insert(name.into(), TensorInit::Data(Arc::new(data)));
        self
    }

    /// Seeds a tensor with data the caller already holds compressed
    /// ([`SparseBuffer::from_dense`] of the row-major data
    /// [`Bindings::set_data`] would take; the shape is validated at bind
    /// time). Every read, byte and modelled second of the request is the
    /// same either way; what differs is `bind`, which shares the image —
    /// O(1) — where the plan's leaf reads this tensor as CSR, instead of
    /// compressing a dense one in a pass over it.
    pub fn set_sparse(&mut self, name: impl Into<String>, image: Arc<SparseBuffer>) -> &mut Self {
        self.init.insert(name.into(), TensorInit::Sparse(image));
        self
    }

    /// Fills a tensor with a constant.
    pub fn fill(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.init.insert(name.into(), TensorInit::Value(value));
        self
    }

    /// Seeds a tensor with deterministic pseudo-random values
    /// ([`crate::problem::random_data`]).
    pub fn fill_random(&mut self, name: impl Into<String>, seed: u64) -> &mut Self {
        self.init.insert(name.into(), TensorInit::Random(seed));
        self
    }

    /// Seeds a tensor with pseudo-random values thinned to `density`
    /// ([`crate::problem::sparse_random_data`]; validated to `[0, 1]` at
    /// bind time).
    pub fn fill_random_sparse(
        &mut self,
        name: impl Into<String>,
        seed: u64,
        density: f64,
    ) -> &mut Self {
        self.init
            .insert(name.into(), TensorInit::RandomSparse { seed, density });
        self
    }

    /// Sets an explicit initializer.
    pub fn set_init(&mut self, name: impl Into<String>, init: TensorInit) -> &mut Self {
        self.init.insert(name.into(), init);
        self
    }

    /// The initializer bound for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&TensorInit> {
        self.init.get(name)
    }

    /// All bound initializers, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TensorInit)> {
        self.init.iter()
    }

    /// True when no tensor is bound.
    pub fn is_empty(&self) -> bool {
        self.init.is_empty()
    }

    /// Validates every binding against a plan's registered tensors:
    /// unknown names, mis-sized explicit data, and out-of-range densities
    /// are typed errors. Backends call this at the top of
    /// [`Plan::bind`].
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownTensor`] for names the plan doesn't know;
    /// [`BackendError::Compile`] wrapping
    /// [`CompileError::DataSize`] / density errors otherwise.
    pub fn validate(&self, tensors: &BTreeMap<String, TensorSpec>) -> Result<(), BackendError> {
        for (name, init) in &self.init {
            let spec = tensors
                .get(name)
                .ok_or_else(|| BackendError::UnknownTensor(name.clone()))?;
            init.validate(name, &spec.dims)
                .map_err(BackendError::Compile)?;
        }
        Ok(())
    }
}

/// The number of stored (nonzero-bit-pattern) elements an initializer
/// materializes for a tensor of shape `dims` — the nnz that drives
/// compressed-format byte accounting on every backend.
///
/// `Value` and `Random` are answered analytically (`Random` values are
/// uniform in `[-1, 1)`; an exact `+0.0` has probability `2^-53` per
/// element, so they count as fully dense); `Data` is scanned in place;
/// `RandomSparse` walks its stream to count survivors exactly, without
/// storing it; `Sparse` already knows.
pub fn init_nnz(init: &TensorInit, dims: &[i64]) -> u64 {
    let volume = dims.iter().product::<i64>().max(1) as u64;
    match init {
        TensorInit::Value(v) => {
            if v.to_bits() == 0 {
                0
            } else {
                volume
            }
        }
        TensorInit::Random(_) => volume,
        TensorInit::Data(d) => stored_entries(d),
        TensorInit::RandomSparse { seed, density } => {
            sparse_random_values(volume as usize, *seed, *density)
                .filter(|v| v.to_bits() != 0)
                .count() as u64
        }
        TensorInit::Sparse(image) => image.nnz(),
    }
}

/// A data-independent compiled object: the product of
/// [`Backend::plan`](crate::backend::Backend::plan).
///
/// A plan holds everything the lowering produced — launch domain, runtime
/// programs or SPMD rank programs, static cost model — and **no operand
/// values**. [`Plan::bind`] attaches per-request data cheaply: it never
/// re-applies the schedule or re-lowers (see
/// `distal_core::lower::compile_count` and the SPMD lowering counter for
/// the enforced invariant).
pub trait Plan: Send + Sync {
    /// The producing backend's name (`"runtime"`, `"spmd"`, `"cost"`).
    fn backend(&self) -> &str;

    /// The tensors the plan was compiled against (shapes + formats fixed
    /// for the plan's lifetime).
    fn tensors(&self) -> &BTreeMap<String, TensorSpec>;

    /// Findings from plan-time static verification, when the backend ran
    /// a verifier over the lowered program (warnings only — a plan with
    /// error-severity findings is rejected at
    /// [`Backend::plan`](crate::backend::Backend::plan) and never
    /// constructed). Backends without a verifier report none.
    fn diagnostics(&self) -> &[crate::diagnostic::Diagnostic] {
        &[]
    }

    /// Binds per-request data, producing an independent executable
    /// [`Instance`]. No lowering happens here: binding seeds data
    /// (regions or rank-VM inputs) and recomputes nnz-derived accounting
    /// for this instance only.
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownTensor`] / [`BackendError::Compile`] for
    /// invalid bindings; backend-specific errors otherwise.
    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError>;
}

/// A plan bound to data: the common executable surface every backend
/// exposes.
///
/// Instances are `Send` so a serving worker can bind on one thread and
/// hand the instance elsewhere; they are deliberately *not* required to
/// be `Sync` — each request owns its instance exclusively, and all
/// sharing happens one level up at the `Arc<dyn Plan>`.
pub trait Instance: Send {
    /// The producing backend's name.
    fn backend(&self) -> &str;

    /// Moves tensors into their formats' distributions (a no-op report on
    /// backends whose data starts at rest).
    ///
    /// # Errors
    ///
    /// Backend execution errors (OOM, missing data).
    fn place(&mut self) -> Result<Report, BackendError>;

    /// Runs the computation.
    ///
    /// # Errors
    ///
    /// Backend execution errors (OOM, missing data).
    fn execute(&mut self) -> Result<Report, BackendError>;

    /// Reads a tensor's current contents (row-major).
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownTensor`] for unregistered names;
    /// [`BackendError::NoData`] on backends that hold no numerics (model
    /// mode, cost estimation) or before the instance executed.
    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError>;

    /// Places then executes, returning the merged report.
    ///
    /// # Errors
    ///
    /// Errors from either phase.
    fn run(&mut self) -> Result<Report, BackendError> {
        let mut r = self.place()?;
        r.merge(&self.execute()?);
        Ok(r)
    }
}

impl TensorInit {
    /// Validates this initializer for a tensor of shape `dims`: explicit
    /// data must match the shape's volume exactly, and sparse densities
    /// must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`CompileError::DataSize`] for mis-sized [`TensorInit::Data`];
    /// [`CompileError::Density`] for out-of-range densities;
    /// [`CompileError::Format`] for a [`TensorInit::Sparse`] image of
    /// another shape.
    pub fn validate(&self, name: &str, dims: &[i64]) -> Result<(), CompileError> {
        match self {
            TensorInit::Data(d) => {
                let expected = dims.iter().product::<i64>().max(1) as usize;
                if d.len() != expected {
                    return Err(CompileError::DataSize {
                        tensor: name.to_string(),
                        expected,
                        got: d.len(),
                    });
                }
                Ok(())
            }
            TensorInit::RandomSparse { density, .. } => {
                if !(0.0..=1.0).contains(density) {
                    return Err(CompileError::Density {
                        tensor: name.to_string(),
                        density: *density,
                    });
                }
                Ok(())
            }
            TensorInit::Sparse(image) => {
                if image.dims() != dims {
                    return Err(CompileError::Format(format!(
                        "tensor '{name}' has shape {dims:?}, its CSR binding {:?}",
                        image.dims()
                    )));
                }
                Ok(())
            }
            TensorInit::Value(_) | TensorInit::Random(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_format::Format;
    use distal_machine::spec::MemKind;

    fn specs() -> BTreeMap<String, TensorSpec> {
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        [("B", vec![2, 2]), ("C", vec![2, 3])]
            .into_iter()
            .map(|(n, dims)| (n.to_string(), TensorSpec::new(n, dims, f.clone())))
            .collect()
    }

    #[test]
    fn bindings_validate_names_sizes_densities() {
        let tensors = specs();
        let mut b = Bindings::new();
        b.fill_random("B", 1).set_data("C", vec![0.0; 6]);
        b.validate(&tensors).unwrap();

        let mut unknown = Bindings::new();
        unknown.fill("Z", 1.0);
        assert!(matches!(
            unknown.validate(&tensors),
            Err(BackendError::UnknownTensor(t)) if t == "Z"
        ));

        // The length-mismatch bugfix: Data bindings that don't match the
        // registered shape are a typed error, not a silent clone.
        let mut short = Bindings::new();
        short.set_data("C", vec![1.0; 4]);
        assert!(matches!(
            short.validate(&tensors),
            Err(BackendError::Compile(CompileError::DataSize {
                tensor,
                expected: 6,
                got: 4,
            })) if tensor == "C"
        ));

        let mut dense = Bindings::new();
        dense.fill_random_sparse("B", 1, 1.5);
        assert!(matches!(
            dense.validate(&tensors),
            Err(BackendError::Compile(CompileError::Density { tensor, density }))
                if tensor == "B" && density == 1.5
        ));
    }

    #[test]
    fn init_nnz_counts() {
        assert_eq!(init_nnz(&TensorInit::Value(0.0), &[4, 4]), 0);
        assert_eq!(init_nnz(&TensorInit::Value(2.0), &[4, 4]), 16);
        assert_eq!(init_nnz(&TensorInit::Random(7), &[4, 4]), 16);
        assert_eq!(
            init_nnz(&TensorInit::Data(vec![0.0, 1.0, 0.0, 3.0].into()), &[4]),
            2
        );
        let sparse = TensorInit::RandomSparse {
            seed: 7,
            density: 0.5,
        };
        let nnz = init_nnz(&sparse, &[8, 8]);
        assert!(nnz > 0 && nnz < 64);
        // Matches what the materialized stream actually stores.
        let stored = sparse
            .materialize(&[8, 8])
            .iter()
            .filter(|v| v.to_bits() != 0)
            .count() as u64;
        assert_eq!(nnz, stored);
    }

    #[test]
    fn compressing_an_initializer_is_compressing_what_it_materializes() {
        // 256 seeded (dims, seed, density): the straight-to-CSR path —
        // `RandomSparse` from its value stream, the others from their
        // data — decompresses to `materialize` bit for bit, and
        // `init_nnz` counts it without building either.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..256 {
            let dims: Vec<i64> = (0..next() % 4).map(|_| 1 + (next() % 9) as i64).collect();
            let seed = next();
            let density = [0.0, 0.01, 0.3, 0.5, 1.0][(next() % 5) as usize];
            let sparse = TensorInit::RandomSparse { seed, density };
            let inits = [
                sparse.clone(),
                TensorInit::Data(sparse.materialize(&dims).into()),
                TensorInit::Sparse(sparse.compress(&dims)),
                TensorInit::Random(seed),
                TensorInit::Value([0.0, -0.0, 1.5][case % 3]),
            ];
            for init in inits {
                init.validate("B", &dims).unwrap();
                let image = init.compress(&dims);
                let want = init.materialize(&dims);
                let got = image.to_dense();
                assert_eq!(image.dims(), &dims[..], "{init:?}");
                assert_eq!(got.len(), want.len(), "{init:?} over {dims:?}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{init:?} over {dims:?}");
                }
                // `Random` is counted analytically as fully dense.
                if !matches!(init, TensorInit::Random(_)) {
                    assert_eq!(
                        image.nnz(),
                        init_nnz(&init, &dims),
                        "{init:?} over {dims:?}"
                    );
                }
            }
        }
        // A CSR binding of another shape is a typed error at bind time.
        let image = TensorInit::Random(1).compress(&[2, 3]);
        assert!(matches!(
            TensorInit::Sparse(image).validate("B", &[3, 2]),
            Err(CompileError::Format(m)) if m.contains("'B'")
        ));
    }

    #[test]
    fn plans_share_across_threads_and_instances_move() {
        // The serving engine's whole contract, statically: one
        // `Arc<dyn Plan>` is shared by every worker, and each bound
        // `Instance` moves to (and is owned by) exactly one request.
        fn assert_send<T: Send + ?Sized>() {}
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_send::<std::sync::Arc<dyn Plan>>();
        assert_sync::<std::sync::Arc<dyn Plan>>();
        assert_send::<Box<dyn Instance>>();
    }

    #[test]
    fn from_problem_mirrors_inits() {
        use crate::machine::DistalMachine;
        use distal_machine::grid::Grid;
        use distal_machine::spec::{MachineSpec, ProcKind};
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![2, 2], f)).unwrap();
        p.fill_random("B", 9).unwrap();
        let b = Bindings::from_problem(&p);
        assert_eq!(b.get("B"), Some(&TensorInit::Random(9)));
        assert!(Bindings::new().is_empty());
    }
}
