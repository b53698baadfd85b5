//! Logical regions and physical instances.
//!
//! Regions are Legion's abstraction for distributed data structures; we use
//! them to represent dense tensors (paper §6.1). A *logical* region is just
//! an index space; *physical instances* materialize (sub-)rectangles of a
//! region in a concrete memory and track which of their sub-rectangles hold
//! current data.

use crate::exec::RuntimeError;
use crate::topology::{MemId, PhysicalMachine};
use distal_machine::geom::{Rect, RectSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a logical region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of a physical instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// A logical region: a named, dense, `f64`-element index space.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalRegion {
    /// This region's id.
    pub id: RegionId,
    /// Debug name (usually the tensor name).
    pub name: String,
    /// The region's index space.
    pub rect: Rect,
    /// Wire-payload bytes per dense byte moved out of this region
    /// (`1.0` = flat dense data). Tensors stored in a compressed level
    /// format ship `pos`/`crd`/`vals` payloads instead of dense tiles;
    /// the binding plan sets this to `payload / dense` so copy byte
    /// accounting (and model-mode copy timing) charges nnz-sized
    /// transfers. Only the communication accounting is scaled.
    pub payload_scale: f64,
    /// Fraction of a reading task's nominal flops its leaf performs
    /// (`1.0` = every iteration point). A leaf that walks this region's
    /// stored entries does `nnz / volume` of the dense iteration space:
    /// the binding plan sets the tensor's *global* density, so a task's
    /// modelled duration and [`crate::stats::RunStats::total_flops`] depend on
    /// how many entries are stored, never on where they sit.
    pub flops_scale: f64,
    /// True while the region's data is one CSR image in global
    /// coordinates ([`crate::Runtime::set_region_sparse`]; the image
    /// itself lies with the buffers, not here), which makes the region
    /// read-only. Instances of such a region carry no buffer, exactly as
    /// in model mode, so coherence, copy nodes and every byte the
    /// simulator charges are those of a dense region; a reading task
    /// receives the image itself ([`crate::kernel::KernelArg::sparse`])
    /// and a writing one is refused.
    pub csr: bool,
}

pub use distal_machine::ELEM_BYTES;

impl LogicalRegion {
    /// Size of the full region in bytes.
    pub fn bytes(&self) -> u64 {
        self.rect.volume() as u64 * ELEM_BYTES
    }

    /// Wire bytes of moving `volume` elements of this region: dense bytes
    /// scaled by [`LogicalRegion::payload_scale`], rounded up.
    pub fn payload_bytes(&self, volume: i64) -> u64 {
        let dense = volume.max(0) as u64 * ELEM_BYTES;
        if self.payload_scale == 1.0 {
            dense
        } else {
            (dense as f64 * self.payload_scale).ceil() as u64
        }
    }
}

/// How an instance came to exist; home instances are pinned, scratch
/// instances may be discarded by [`crate::program::Op::DiscardScratch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceRole {
    /// Created by a write-privilege task (data placement); never discarded.
    Home,
    /// Created to satisfy a read requirement; discardable.
    Scratch,
    /// A reduction buffer awaiting folding.
    Reduction,
}

/// A physical instance: storage for a sub-rectangle of a region in one
/// memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// This instance's id.
    pub id: InstanceId,
    /// The region this instance caches.
    pub region: RegionId,
    /// The memory holding the instance.
    pub mem: MemId,
    /// Bounds of the allocation (row-major layout over this rect).
    pub rect: Rect,
    /// Which sub-rectangles currently hold up-to-date data.
    pub valid: RectSet,
    /// Home, scratch, or reduction buffer.
    pub role: InstanceRole,
    /// Scratch generation (incremented by `DiscardScratch`); used to retire
    /// old systolic forwarding buffers while keeping the latest.
    pub gen: u64,
    /// Forwarding depth: 0 for data produced here (home writes, fills),
    /// `src.depth + 1` for copied data. Together with the per-instance
    /// served-copy count, it shapes one-to-many transfers into binomial
    /// trees instead of linear chains.
    pub depth: u32,
}

/// The interior-mutable backing buffer of one instance (functional mode;
/// `None` in model mode, and for instances of a CSR-held region).
///
/// Buffers live in [`crate::exec::Store`] *beside* the instance metadata —
/// rather than inside [`Instance`] — so that executors can share the store
/// immutably across worker threads while mutating buffers under per-instance
/// locks. The dependence DAG serializes conflicting accesses; the locks make
/// that guarantee checkable by the type system.
///
/// The buffer sits behind an `Arc` because a staging instance shares the
/// vector its caller bound ([`crate::Runtime::set_region_shared`]): every
/// write goes through [`Arc::make_mut`], which copies a shared vector
/// first and costs a uniquely owned one nothing.
pub type DataCell = std::sync::RwLock<Option<Arc<Vec<f64>>>>;

/// Everything the dependence analysis reads and writes: regions,
/// instances and their valid sets, the per-region indexes, scratch
/// generations and the memory accounting — the whole of
/// [`crate::exec::Store`] except the data (buffers and CSR images).
///
/// A program's task/copy DAG, its schedule and the state it leaves behind
/// are a pure function of the machine, the program and this value on
/// entry, which is what lets a [`crate::replay::Trace`] recorded by one
/// run be replayed by every later run that starts from an equal one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coherence {
    pub(crate) regions: Vec<LogicalRegion>,
    pub(crate) instances: Vec<Instance>,
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

impl Coherence {
    pub(crate) fn new(mems: usize) -> Self {
        Coherence {
            used_bytes: vec![0; mems],
            peak_bytes: vec![0; mems],
            ..Coherence::default()
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

    /// Registers an instance, enforcing memory capacity. Its buffer, if it
    /// is to have one, is the store's to allocate (`exec::Store::adopt`).
    pub(crate) fn create_instance(
        &mut self,
        machine: &PhysicalMachine,
        region: RegionId,
        mem: MemId,
        rect: Rect,
        role: InstanceRole,
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
        match role {
            InstanceRole::Reduction => self.reductions_by_region[region.0 as usize].push(id),
            _ => self.by_region[region.0 as usize].push(id),
        }
        Ok(id)
    }

    /// Frees an instance's accounting and hides it from coherence; its
    /// buffer stays for kernels already scheduled against it.
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

impl Instance {
    /// Allocation size in bytes.
    pub fn bytes(&self) -> u64 {
        self.rect.volume() as u64 * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(id: u32, rect: Rect) -> Instance {
        Instance {
            id: InstanceId(id),
            region: RegionId(0),
            mem: MemId(0),
            valid: RectSet::from_rect(rect.clone()),
            rect,
            role: InstanceRole::Home,
            gen: 0,
            depth: 0,
        }
    }

    #[test]
    fn instance_bytes() {
        let i = inst(0, Rect::sized(&[2, 3]));
        assert_eq!(i.bytes(), 48);
    }
}
