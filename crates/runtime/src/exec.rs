//! The runtime facade: owns regions and instances, runs programs.

use crate::csr::SparseBuffer;
use crate::executor::{ExecCtx, Executor, ExecutorKind, ParallelExecutor, SerialExecutor};
use crate::pool;
use crate::program::Program;
use crate::region::{
    Coherence, DataCell, Instance, InstanceId, InstanceRole, LogicalRegion, RegionId,
};
use crate::replay::{analyse, Trace, TracedProgram};
use crate::stats::RunStats;
use crate::topology::{MemId, PhysicalMachine};
use distal_machine::geom::{copy_rect, Rect, RectSet};
use distal_machine::spec::MemKind;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Real buffers, real copies, real leaf kernels.
    Functional,
    /// Timing/communication model only — no data is touched.
    Model,
}

/// Errors reported by the runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A memory's capacity was exceeded (e.g. Johnson's algorithm replicating
    /// tiles beyond the 16 GB GPU framebuffer, §7.1.2).
    OutOfMemory {
        /// Kind of the exhausted memory.
        mem_kind: MemKind,
        /// Node holding the memory.
        node: usize,
        /// Bytes the failed allocation requested.
        requested: u64,
        /// Bytes already in use.
        in_use: u64,
        /// The memory's capacity.
        capacity: u64,
    },
    /// A task read a rectangle for which no valid data exists anywhere.
    UninitializedData {
        /// Region name.
        region: String,
        /// The rectangle that could not be sourced.
        rect: Rect,
    },
    /// A requirement referenced coordinates outside its region.
    InvalidRequirement {
        /// Region name.
        region: String,
        /// The offending rectangle.
        rect: Rect,
    },
    /// `set_region_data` was given a buffer of the wrong length.
    DataSizeMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// An operation required functional mode.
    NotFunctional,
    /// A task, fill or reduction would write a region held as a CSR image
    /// ([`Runtime::set_region_sparse`]), which is read-only.
    SparseRegionWrite {
        /// Region name.
        region: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfMemory { mem_kind, node, requested, in_use, capacity } => write!(
                f,
                "out of memory in {mem_kind} on node {node}: requested {requested} B with {in_use}/{capacity} B in use"
            ),
            RuntimeError::UninitializedData { region, rect } => {
                write!(f, "no valid data for region '{region}' rect {rect:?}")
            }
            RuntimeError::InvalidRequirement { region, rect } => {
                write!(f, "requirement rect {rect:?} outside region '{region}'")
            }
            RuntimeError::DataSizeMismatch { expected, got } => {
                write!(f, "data size mismatch: expected {expected} elements, got {got}")
            }
            RuntimeError::NotFunctional => write!(f, "operation requires functional mode"),
            RuntimeError::SparseRegionWrite { region } => {
                write!(f, "region '{region}' is held as a read-only CSR image")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Persistent region/instance state (survives across program runs so that a
/// placement phase can feed a compute phase), in two halves.
///
/// The [`Coherence`] half — regions, instance bounds and valid sets,
/// accounting — is all the dependence analysis reads and writes. The
/// *data* lies beside it: per-instance [`DataCell`] locks, so executors
/// can share `&Store` across worker threads and mutate buffers
/// concurrently where the dependence DAG allows it, and the CSR images of
/// the regions held compressed.
#[derive(Debug)]
pub struct Store {
    pub(crate) coherence: Coherence,
    /// Backing buffers, indexed like `coherence.instances`.
    pub(crate) buffers: Vec<DataCell>,
    /// The image of each CSR-held region ([`LogicalRegion::csr`]), indexed
    /// like `coherence.regions`.
    pub(crate) images: Vec<Option<Arc<SparseBuffer>>>,
}

impl Store {
    fn new(mems: usize) -> Self {
        Store {
            coherence: Coherence::new(mems),
            buffers: Vec::new(),
            images: Vec::new(),
        }
    }

    pub(crate) fn region(&self, id: RegionId) -> &LogicalRegion {
        self.coherence.region(id)
    }

    pub(crate) fn instance(&self, id: InstanceId) -> &Instance {
        self.coherence.instance(id)
    }

    /// The buffer cell of an instance (lock to read/write data).
    pub(crate) fn buffer(&self, id: InstanceId) -> &DataCell {
        &self.buffers[id.0 as usize]
    }

    /// The CSR image behind a region held compressed.
    pub(crate) fn image(&self, id: RegionId) -> Option<&Arc<SparseBuffer>> {
        self.images[id.0 as usize].as_ref()
    }

    /// Step 2 of a run: takes the state `trace` leaves behind and gives
    /// every instance the trace created its buffer — none outside
    /// functional mode and none for a CSR-held region, whose image is its
    /// data. Scratch instances exist to be filled by copies over their
    /// whole rectangle before anything reads them; every other role
    /// starts from zeros (outputs, reduction buffers).
    fn adopt(&mut self, trace: &Trace, functional: bool) {
        self.coherence = trace.exit.clone();
        for inst in &self.coherence.instances[self.buffers.len()..] {
            let buffered = functional && self.images[inst.region.0 as usize].is_none();
            let data = buffered.then(|| {
                Arc::new(match inst.role {
                    InstanceRole::Scratch => pool::take(inst.rect.volume() as usize),
                    _ => pool::take_zeroed(inst.rect.volume() as usize),
                })
            });
            self.buffers.push(RwLock::new(data));
        }
    }
}

impl Drop for Store {
    /// Instance buffers go back to the pool the next store takes them
    /// from — those this store alone owns; one shared with the caller that
    /// bound it is the caller's.
    fn drop(&mut self) {
        pool::give_all(
            self.buffers
                .drain(..)
                .filter_map(|cell| cell.into_inner().ok().flatten())
                .filter_map(|data| Arc::try_unwrap(data).ok()),
        );
    }
}

/// The runtime: a physical machine plus persistent region state.
///
/// See the crate-level docs for an overview and example.
#[derive(Debug)]
pub struct Runtime {
    machine: PhysicalMachine,
    mode: Mode,
    record_copies: bool,
    executor: ExecutorKind,
    executor_threads: usize,
    pub(crate) store: Store,
}

impl Runtime {
    /// Creates a runtime for `machine` in the given mode.
    pub fn new(machine: PhysicalMachine, mode: Mode) -> Self {
        let mems = machine.mems().len();
        Runtime {
            machine,
            mode,
            record_copies: false,
            executor: ExecutorKind::default(),
            executor_threads: 0,
            store: Store::new(mems),
        }
    }

    /// Enables per-copy logging in [`RunStats::copy_log`].
    pub fn record_copies(&mut self, on: bool) -> &mut Self {
        self.record_copies = on;
        self
    }

    /// Selects how [`Runtime::run`] executes DAG nodes. The default,
    /// [`ExecutorKind::Auto`], picks the parallel executor in functional
    /// mode and the serial executor in model mode.
    pub fn set_executor(&mut self, kind: ExecutorKind) -> &mut Self {
        self.executor = kind;
        self
    }

    /// The configured executor selection.
    pub fn executor(&self) -> ExecutorKind {
        self.executor
    }

    /// Caps the parallel executor's worker count (0 = one per host core,
    /// or the `DISTAL_THREADS` environment variable when set).
    pub fn set_executor_threads(&mut self, threads: usize) -> &mut Self {
        self.executor_threads = threads;
        self
    }

    /// The physical machine.
    pub fn machine(&self) -> &PhysicalMachine {
        &self.machine
    }

    /// The execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Creates a logical region over `rect`.
    pub fn create_region(&mut self, name: impl Into<String>, rect: Rect) -> RegionId {
        let coherence = &mut self.store.coherence;
        let id = RegionId(coherence.regions.len() as u32);
        coherence.regions.push(LogicalRegion {
            id,
            name: name.into(),
            rect,
            payload_scale: 1.0,
            flops_scale: 1.0,
            csr: false,
        });
        coherence.by_region.push(Vec::new());
        coherence.reductions_by_region.push(Vec::new());
        coherence.scratch_gen.push(0);
        self.store.images.push(None);
        id
    }

    /// Sets a region's wire-payload scale (compressed-format byte
    /// accounting; see [`LogicalRegion::payload_scale`]). Values are
    /// clamped to be positive; `1.0` restores flat dense accounting.
    pub fn set_region_payload_scale(&mut self, region: RegionId, scale: f64) {
        self.store.coherence.regions[region.0 as usize].payload_scale =
            scale.max(f64::MIN_POSITIVE);
    }

    /// Sets the fraction of their nominal flops tasks reading this region
    /// perform (see [`LogicalRegion::flops_scale`]), clamped to `[0, 1]`.
    pub fn set_region_flops_scale(&mut self, region: RegionId, scale: f64) {
        self.store.coherence.regions[region.0 as usize].flops_scale = scale.clamp(0.0, 1.0);
    }

    /// Seeds a region with a CSR image in global coordinates (functional
    /// mode only): the image *is* the region's data until
    /// [`Runtime::set_region_data`] or [`Runtime::fill_region`] replaces
    /// it. See [`LogicalRegion::csr`] for what changes and what does
    /// not.
    ///
    /// # Errors
    ///
    /// Fails when not in functional mode or when the image's dimensions
    /// are not the region's.
    pub fn set_region_sparse(
        &mut self,
        region: RegionId,
        image: Arc<SparseBuffer>,
    ) -> Result<(), RuntimeError> {
        if self.mode != Mode::Functional {
            return Err(RuntimeError::NotFunctional);
        }
        let rect = &self.store.region(region).rect;
        if image.dims() != rect.extents() {
            return Err(RuntimeError::DataSizeMismatch {
                expected: rect.volume() as usize,
                got: image.volume() as usize,
            });
        }
        self.seed_region(region, None)?;
        self.store.coherence.regions[region.0 as usize].csr = true;
        self.store.images[region.0 as usize] = Some(image);
        Ok(())
    }

    /// Seeds a region with row-major data in the staging memory
    /// (functional mode only).
    ///
    /// # Errors
    ///
    /// Fails when not in functional mode or when `data` has the wrong length.
    pub fn set_region_data(
        &mut self,
        region: RegionId,
        data: Vec<f64>,
    ) -> Result<(), RuntimeError> {
        self.set_region_shared(region, Arc::new(data))
    }

    /// [`Runtime::set_region_data`] without the hand-over: the staging
    /// instance shares `data` with the caller, and whatever writes it
    /// copies it first.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::set_region_data`].
    pub fn set_region_shared(
        &mut self,
        region: RegionId,
        data: Arc<Vec<f64>>,
    ) -> Result<(), RuntimeError> {
        if self.mode != Mode::Functional {
            return Err(RuntimeError::NotFunctional);
        }
        let expected = self.store.region(region).rect.volume() as usize;
        if data.len() != expected {
            return Err(RuntimeError::DataSizeMismatch {
                expected,
                got: data.len(),
            });
        }
        self.seed_region(region, Some(data))
    }

    /// Marks a region as holding `value` everywhere (both modes). In model
    /// mode this only establishes validity for the dependence analysis.
    pub fn fill_region(&mut self, region: RegionId, value: f64) -> Result<(), RuntimeError> {
        let volume = self.store.region(region).rect.volume() as usize;
        let data = (self.mode == Mode::Functional).then(|| Arc::new(vec![value; volume]));
        self.seed_region(region, data)
    }

    fn seed_region(
        &mut self,
        region: RegionId,
        data: Option<Arc<Vec<f64>>>,
    ) -> Result<(), RuntimeError> {
        let coherence = &mut self.store.coherence;
        let rect = coherence.region(region).rect.clone();
        // Whatever image the region held is replaced with the rest.
        coherence.regions[region.0 as usize].csr = false;
        self.store.images[region.0 as usize] = None;
        // Invalidate all existing instances of the region.
        let existing: Vec<InstanceId> = coherence.by_region[region.0 as usize].clone();
        for id in existing {
            coherence.instance_mut(id).valid = RectSet::new();
        }
        let pending: Vec<InstanceId> = coherence.reductions_by_region[region.0 as usize].clone();
        for id in pending {
            coherence.retire_instance(id);
        }
        let global = self.machine.global_mem();
        let id = coherence.create_instance(
            &self.machine,
            region,
            global,
            rect.clone(),
            InstanceRole::Home,
        )?;
        coherence.instance_mut(id).valid = RectSet::from_rect(rect);
        self.store.buffers.push(RwLock::new(data));
        Ok(())
    }

    /// Runs a program under the configured executor and returns its
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::OutOfMemory`] (the Johnson/COSMA GPU
    /// behaviour in Figure 15b), uninitialized reads, and malformed
    /// requirements. A run that fails leaves the runtime as it found it.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, RuntimeError> {
        self.with_executor(|rt, executor| rt.run_with(program, executor))
    }

    /// Runs a program under an explicit [`Executor`] (the two built-in ones
    /// are [`SerialExecutor`] and [`ParallelExecutor`]).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::run`].
    pub fn run_with(
        &mut self,
        program: &Program,
        executor: &dyn Executor,
    ) -> Result<RunStats, RuntimeError> {
        let trace = analyse(&self.machine, &self.store.coherence, program)?;
        Ok(self.adopt_and_apply(&trace, program, executor))
    }

    /// [`Runtime::run`] for a program that keeps the trace of its first
    /// run: the dependence analysis and the timing pass are skipped when
    /// this runtime's coherence state equals the one the trace was
    /// recorded from, and the run returns and leaves behind exactly what
    /// it would have otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::run`]; a failed analysis records nothing.
    pub fn run_traced(&mut self, program: &TracedProgram) -> Result<RunStats, RuntimeError> {
        let mut fresh = None;
        let trace = program.trace(&self.machine, &self.store.coherence, &mut fresh)?;
        Ok(self.with_executor(|rt, executor| rt.adopt_and_apply(trace, program, executor)))
    }

    fn with_executor<R>(&mut self, run: impl FnOnce(&mut Self, &dyn Executor) -> R) -> R {
        match self.executor.resolve(self.mode) {
            ExecutorKind::Parallel => run(self, &ParallelExecutor::new(self.executor_threads)),
            _ => run(self, &SerialExecutor),
        }
    }

    /// Steps 2 and 3 of a run (see [`crate::replay`]).
    fn adopt_and_apply(
        &mut self,
        trace: &Trace,
        program: &Program,
        executor: &dyn Executor,
    ) -> RunStats {
        let functional = self.mode == Mode::Functional;
        self.store.adopt(trace, functional);
        executor.execute(&mut ExecCtx {
            machine: &self.machine,
            store: &self.store,
            trace,
            kernels: &program.kernels,
            functional,
            record_copies: self.record_copies,
        })
    }

    /// Gathers a region's current contents into a row-major buffer,
    /// folding any pending reductions (functional mode only).
    ///
    /// # Errors
    ///
    /// Fails when not in functional mode or when parts of the region have
    /// never been written.
    pub fn read_region(&self, region: RegionId) -> Result<Vec<f64>, RuntimeError> {
        if self.mode != Mode::Functional {
            return Err(RuntimeError::NotFunctional);
        }
        if let Some(image) = self.store.image(region) {
            return Ok(image.to_dense());
        }
        let lr = self.store.region(region);
        let rect = &lr.rect;
        let mut out = vec![0.0; rect.volume() as usize];
        let mut covered = RectSet::new();
        for id in &self.store.coherence.by_region[region.0 as usize] {
            let inst = self.store.instance(*id);
            let cell = self.store.buffer(*id).read().expect("poisoned buffer lock");
            for vr in inst.valid.rects() {
                // The part of this valid piece no earlier instance supplied.
                let mut fresh = RectSet::from_rect(vr.clone());
                for c in covered.rects() {
                    fresh.subtract(c);
                }
                for piece in fresh.rects() {
                    if let Some(data) = cell.as_ref() {
                        copy_rect(&inst.rect, data, rect, &mut out, piece, false);
                    }
                    covered.add(piece.clone());
                }
            }
        }
        if !covered.covers(rect) {
            return Err(RuntimeError::UninitializedData {
                region: lr.name.clone(),
                rect: rect.clone(),
            });
        }
        // Fold pending reductions.
        for id in &self.store.coherence.reductions_by_region[region.0 as usize] {
            let inst = self.store.instance(*id);
            let cell = self.store.buffer(*id).read().expect("poisoned buffer lock");
            if let Some(data) = cell.as_ref() {
                copy_rect(&inst.rect, data, rect, &mut out, &inst.rect, true);
            }
        }
        Ok(out)
    }

    /// Current live bytes in a memory (for tests of the discard machinery).
    pub fn used_bytes(&self, mem: MemId) -> u64 {
        self.store.coherence.used_bytes[mem.0 as usize]
    }

    /// Peak live bytes observed in a memory.
    pub fn peak_bytes(&self, mem: MemId) -> u64 {
        self.store.coherence.peak_bytes[mem.0 as usize]
    }

    /// The coherence state: everything the next run's dependence analysis
    /// depends on (see [`crate::replay`]).
    pub fn coherence(&self) -> &Coherence {
        &self.store.coherence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::spec::MachineSpec;

    fn rt() -> Runtime {
        Runtime::new(
            PhysicalMachine::new(MachineSpec::small(2)),
            Mode::Functional,
        )
    }

    #[test]
    fn seed_and_read_roundtrip() {
        let mut rt = rt();
        let r = rt.create_region("A", Rect::sized(&[4, 4]));
        let data: Vec<f64> = (0..16).map(|x| x as f64).collect();
        rt.set_region_data(r, data.clone()).unwrap();
        assert_eq!(rt.read_region(r).unwrap(), data);
    }

    #[test]
    fn wrong_data_size_rejected() {
        let mut rt = rt();
        let r = rt.create_region("A", Rect::sized(&[4]));
        let err = rt.set_region_data(r, vec![0.0; 3]).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::DataSizeMismatch {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn uninitialized_read_errors() {
        let mut rt = rt();
        let r = rt.create_region("A", Rect::sized(&[4]));
        assert!(matches!(
            rt.read_region(r),
            Err(RuntimeError::UninitializedData { .. })
        ));
    }

    #[test]
    fn model_mode_rejects_data_access() {
        let mut rt = Runtime::new(PhysicalMachine::new(MachineSpec::small(1)), Mode::Model);
        let r = rt.create_region("A", Rect::sized(&[4]));
        assert_eq!(
            rt.set_region_data(r, vec![0.0; 4]),
            Err(RuntimeError::NotFunctional)
        );
        assert_eq!(rt.read_region(r), Err(RuntimeError::NotFunctional));
        // fill_region is allowed: it establishes validity for the analysis.
        rt.fill_region(r, 0.0).unwrap();
    }

    #[test]
    fn fill_overwrites_previous_data() {
        let mut rt = rt();
        let r = rt.create_region("A", Rect::sized(&[2, 2]));
        rt.set_region_data(r, vec![5.0; 4]).unwrap();
        rt.fill_region(r, 1.5).unwrap();
        assert_eq!(rt.read_region(r).unwrap(), vec![1.5; 4]);
    }

    /// Sets every element of its first argument to 7.
    struct SevenKernel;
    impl crate::kernel::Kernel for SevenKernel {
        fn name(&self) -> &str {
            "seven"
        }
        fn execute(&self, ctx: &mut crate::kernel::KernelCtx<'_>) {
            let rect = ctx.args[0].rect.clone();
            for p in rect.points() {
                ctx.args[0].set(p.coords(), 7.0);
            }
        }
    }

    #[test]
    fn writing_a_shared_staging_buffer_copies_it_first() {
        use crate::program::{Op, Privilege, RegionReq, TaskDesc};
        use distal_machine::geom::Point;
        // Large enough for the pool: a buffer this store does not own
        // alone must not be handed to it when the store drops.
        let n = pool::MIN_POOLED + 24;
        let rect = Rect::sized(&[n as i64]);
        let caller = Arc::new(vec![1.0; n]);
        let mut rt = rt();
        let r = rt.create_region("A", rect.clone());
        rt.set_region_shared(r, Arc::clone(&caller)).unwrap();
        assert_eq!(Arc::strong_count(&caller), 2, "bound without a copy");

        // A task that writes the staging instance itself (global memory).
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(SevenKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let global = rt.machine().global_mem();
        let req = RegionReq::new(r, rect, Privilege::ReadWrite, global);
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![req],
        )));
        rt.run(&p).unwrap();
        assert_eq!(rt.read_region(r).unwrap(), vec![7.0; n]);
        assert_eq!(*caller, vec![1.0; n], "the caller's data was written");
        assert_eq!(Arc::strong_count(&caller), 1, "the store kept its copy");

        // A shared buffer is the caller's to keep when the store drops.
        let mut rt = self::rt();
        let r = rt.create_region("A", Rect::sized(&[n as i64]));
        rt.set_region_shared(r, Arc::clone(&caller)).unwrap();
        drop(rt);
        assert_eq!(*caller, vec![1.0; n]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = RuntimeError::OutOfMemory {
            mem_kind: distal_machine::spec::MemKind::Fb,
            node: 3,
            requested: 100,
            in_use: 50,
            capacity: 120,
        };
        let msg = format!("{e}");
        assert!(msg.contains("node 3"));
        assert!(msg.contains("GPU_FB_MEM"));
    }
}
