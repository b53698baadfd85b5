//! The runtime facade: owns regions and instances, runs programs.

use crate::csr::SparseBuffer;
use crate::executor::{ExecCtx, Executor, ExecutorKind, ParallelExecutor, SerialExecutor};
use crate::graph::GraphBuilder;
use crate::pool;
use crate::program::Program;
use crate::region::{
    DataCell, Instance, InstanceId, InstanceRole, LogicalRegion, RegionId, ELEM_BYTES,
};
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
/// placement phase can feed a compute phase).
///
/// Instance *metadata* (bounds, coherence) lives in `Store::instances`;
/// the backing *buffers* live beside it in per-instance [`DataCell`] locks,
/// so executors can share `&Store` across worker threads and mutate buffers
/// concurrently where the dependence DAG allows it.
#[derive(Debug)]
pub struct Store {
    pub(crate) regions: Vec<LogicalRegion>,
    pub(crate) instances: Vec<Instance>,
    /// Backing buffers, indexed like `instances`.
    pub(crate) buffers: Vec<DataCell>,
    /// Data instances per region (home + scratch).
    pub(crate) by_region: Vec<Vec<InstanceId>>,
    /// Pending reduction instances per region.
    pub(crate) reductions_by_region: Vec<Vec<InstanceId>>,
    /// Scratch generation counter per region (see `Op::DiscardScratch`).
    pub(crate) scratch_gen: Vec<u64>,
    /// Live bytes per memory.
    pub(crate) used_bytes: Vec<u64>,
    /// Peak live bytes per memory.
    pub(crate) peak_bytes: Vec<u64>,
}

impl Store {
    fn new(mems: usize) -> Self {
        Store {
            regions: Vec::new(),
            instances: Vec::new(),
            buffers: Vec::new(),
            by_region: Vec::new(),
            reductions_by_region: Vec::new(),
            scratch_gen: Vec::new(),
            used_bytes: vec![0; mems],
            peak_bytes: vec![0; mems],
        }
    }

    pub(crate) fn region(&self, id: RegionId) -> &LogicalRegion {
        &self.regions[id.0 as usize]
    }

    pub(crate) fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    pub(crate) fn instance_mut(&mut self, id: InstanceId) -> &mut Instance {
        &mut self.instances[id.0 as usize]
    }

    /// The buffer cell of an instance (lock to read/write data).
    pub(crate) fn buffer(&self, id: InstanceId) -> &DataCell {
        &self.buffers[id.0 as usize]
    }

    /// Direct access to an instance's buffer (no locking; needs `&mut`).
    pub(crate) fn buffer_mut(&mut self, id: InstanceId) -> &mut Option<Vec<f64>> {
        self.buffers[id.0 as usize]
            .get_mut()
            .expect("poisoned buffer lock")
    }

    /// Allocates an instance, enforcing memory capacity.
    pub(crate) fn create_instance(
        &mut self,
        machine: &PhysicalMachine,
        region: RegionId,
        mem: MemId,
        rect: Rect,
        role: InstanceRole,
        functional: bool,
    ) -> Result<InstanceId, RuntimeError> {
        let bytes = rect.volume() as u64 * ELEM_BYTES;
        let m = machine.mem(mem);
        let used = &mut self.used_bytes[mem.0 as usize];
        if m.capacity != u64::MAX && *used + bytes > m.capacity {
            return Err(RuntimeError::OutOfMemory {
                mem_kind: m.kind,
                node: m.node,
                requested: bytes,
                in_use: *used,
                capacity: m.capacity,
            });
        }
        *used += bytes;
        let peak = &mut self.peak_bytes[mem.0 as usize];
        *peak = (*peak).max(self.used_bytes[mem.0 as usize]);
        let id = InstanceId(self.instances.len() as u32);
        // Scratch instances exist to be filled by copies over their whole
        // rectangle before anything reads them; every other role starts
        // from zeros (outputs, reduction buffers). A region held as CSR
        // has no dense bytes to hold: its instances stay bufferless.
        let functional = functional && self.region(region).sparse.is_none();
        let data = functional.then(|| match role {
            InstanceRole::Scratch => pool::take(rect.volume() as usize),
            _ => pool::take_zeroed(rect.volume() as usize),
        });
        self.instances.push(Instance {
            id,
            region,
            mem,
            rect,
            valid: RectSet::new(),
            role,
            gen: self.scratch_gen[region.0 as usize],
            depth: 0,
        });
        self.buffers.push(RwLock::new(data));
        match role {
            InstanceRole::Reduction => self.reductions_by_region[region.0 as usize].push(id),
            _ => self.by_region[region.0 as usize].push(id),
        }
        Ok(id)
    }

    /// Frees an instance's accounting and hides it from coherence, keeping
    /// its buffer alive for kernels already scheduled against it.
    pub(crate) fn retire_instance(&mut self, id: InstanceId) {
        let inst = &mut self.instances[id.0 as usize];
        let bytes = inst.bytes();
        let mem = inst.mem.0 as usize;
        inst.valid = RectSet::new();
        let region = inst.region.0 as usize;
        self.used_bytes[mem] = self.used_bytes[mem].saturating_sub(bytes);
        self.by_region[region].retain(|i| *i != id);
        self.reductions_by_region[region].retain(|i| *i != id);
    }
}

impl Drop for Store {
    /// Instance buffers go back to the pool the next store takes them from.
    fn drop(&mut self) {
        pool::give_all(
            self.buffers
                .drain(..)
                .filter_map(|cell| cell.into_inner().ok().flatten()),
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
        let id = RegionId(self.store.regions.len() as u32);
        self.store.regions.push(LogicalRegion {
            id,
            name: name.into(),
            rect,
            payload_scale: 1.0,
            flops_scale: 1.0,
            sparse: None,
        });
        self.store.by_region.push(Vec::new());
        self.store.reductions_by_region.push(Vec::new());
        self.store.scratch_gen.push(0);
        id
    }

    /// Sets a region's wire-payload scale (compressed-format byte
    /// accounting; see [`LogicalRegion::payload_scale`]). Values are
    /// clamped to be positive; `1.0` restores flat dense accounting.
    pub fn set_region_payload_scale(&mut self, region: RegionId, scale: f64) {
        self.store.regions[region.0 as usize].payload_scale = scale.max(f64::MIN_POSITIVE);
    }

    /// Sets the fraction of their nominal flops tasks reading this region
    /// perform (see [`LogicalRegion::flops_scale`]), clamped to `[0, 1]`.
    pub fn set_region_flops_scale(&mut self, region: RegionId, scale: f64) {
        self.store.regions[region.0 as usize].flops_scale = scale.clamp(0.0, 1.0);
    }

    /// Seeds a region with a CSR image in global coordinates (functional
    /// mode only): the image *is* the region's data until
    /// [`Runtime::set_region_data`] or [`Runtime::fill_region`] replaces
    /// it. See [`LogicalRegion::sparse`] for what changes and what does
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
        self.store.regions[region.0 as usize].sparse = Some(image);
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
        if self.mode != Mode::Functional {
            return Err(RuntimeError::NotFunctional);
        }
        let rect = self.store.region(region).rect.clone();
        let expected = rect.volume() as usize;
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
        let rect = self.store.region(region).rect.clone();
        let data = if self.mode == Mode::Functional {
            Some(vec![value; rect.volume() as usize])
        } else {
            None
        };
        self.seed_region(region, data)
    }

    fn seed_region(
        &mut self,
        region: RegionId,
        data: Option<Vec<f64>>,
    ) -> Result<(), RuntimeError> {
        let rect = self.store.region(region).rect.clone();
        // Whatever image the region held is replaced with the rest.
        self.store.regions[region.0 as usize].sparse = None;
        // Invalidate all existing instances of the region.
        let existing: Vec<InstanceId> = self.store.by_region[region.0 as usize].clone();
        for id in existing {
            self.store.instance_mut(id).valid = RectSet::new();
        }
        let pending: Vec<InstanceId> = self.store.reductions_by_region[region.0 as usize].clone();
        for id in pending {
            self.store.retire_instance(id);
        }
        let global = self.machine.global_mem();
        let id = self.store.create_instance(
            &self.machine,
            region,
            global,
            rect.clone(),
            InstanceRole::Home,
            false,
        )?;
        *self.store.buffer_mut(id) = data;
        self.store.instance_mut(id).valid = RectSet::from_rect(rect);
        Ok(())
    }

    /// Runs a program under the configured executor and returns its
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::OutOfMemory`] (the Johnson/COSMA GPU
    /// behaviour in Figure 15b), uninitialized reads, and malformed
    /// requirements.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, RuntimeError> {
        match self.executor.resolve(self.mode) {
            ExecutorKind::Parallel => {
                let exec = ParallelExecutor::new(self.executor_threads);
                self.run_with(program, &exec)
            }
            _ => self.run_with(program, &SerialExecutor),
        }
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
        let functional = self.mode == Mode::Functional;
        let graph = GraphBuilder::build(&self.machine, &mut self.store, program, functional)?;
        let mut ctx = ExecCtx {
            machine: &self.machine,
            store: &mut self.store,
            graph: &graph,
            kernels: &program.kernels,
            functional,
            record_copies: self.record_copies,
        };
        let mut stats = executor.execute(&mut ctx);
        // Report peak memory by kind.
        for mem in self.machine.mems() {
            let peak = self.store.peak_bytes[mem.id.0 as usize];
            let entry = stats
                .peak_mem_bytes
                .entry(mem.kind.to_string())
                .or_insert(0);
            *entry = (*entry).max(peak);
        }
        Ok(stats)
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
        let lr = self.store.region(region);
        if let Some(image) = &lr.sparse {
            return Ok(image.to_dense());
        }
        let rect = &lr.rect;
        let mut out = vec![0.0; rect.volume() as usize];
        let mut covered = RectSet::new();
        for id in &self.store.by_region[region.0 as usize] {
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
        for id in &self.store.reductions_by_region[region.0 as usize] {
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
        self.store.used_bytes[mem.0 as usize]
    }

    /// Peak live bytes observed in a memory.
    pub fn peak_bytes(&self, mem: MemId) -> u64 {
        self.store.peak_bytes[mem.0 as usize]
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
