//! Logical regions and physical instances.
//!
//! Regions are Legion's abstraction for distributed data structures; we use
//! them to represent dense tensors (paper §6.1). A *logical* region is just
//! an index space; *physical instances* materialize (sub-)rectangles of a
//! region in a concrete memory and track which of their sub-rectangles hold
//! current data.

use crate::csr::SparseBuffer;
use crate::topology::MemId;
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
#[derive(Clone, Debug)]
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
    /// The region's data as one CSR image in global coordinates
    /// ([`crate::Runtime::set_region_sparse`]), read-only for as long as
    /// it is set. Instances of such a region are created without a buffer,
    /// exactly as in model mode, so coherence, copy nodes and every byte
    /// the simulator charges are those of a dense region; a reading task
    /// receives the image itself ([`crate::kernel::KernelArg::sparse`])
    /// and a writing one is refused.
    pub sparse: Option<Arc<SparseBuffer>>,
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
#[derive(Clone, Debug)]
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
/// `None` in model mode or before seeding).
///
/// Buffers live in [`crate::exec::Store`] *beside* the instance metadata —
/// rather than inside [`Instance`] — so that executors can share the store
/// immutably across worker threads while mutating buffers under per-instance
/// locks. The dependence DAG serializes conflicting accesses; the locks make
/// that guarantee checkable by the type system.
pub type DataCell = std::sync::RwLock<Option<Vec<f64>>>;

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
