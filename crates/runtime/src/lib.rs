//! A Legion-like distributed task-based runtime, as a deterministic
//! discrete-event simulator.
//!
//! Pipeline layers 5–6 (kernel generation, dynamic-runtime execution) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! DISTAL (PLDI 2022) targets the Legion runtime system, which supplies
//! (§6): overlap of communication and computation, data movement through deep
//! memory hierarchies, native accelerator support, and control over the
//! placement of data and computation. No Legion equivalent exists in Rust, so
//! this crate implements the same *programming model* as a simulator:
//!
//! * **Logical regions** ([`region::LogicalRegion`]) are multi-dimensional
//!   arrays of `f64` identified by [`region::RegionId`].
//! * **Physical instances** hold (sub-)region data in a specific memory and
//!   track which sub-rectangles are currently valid (coherence).
//! * **Tasks** ([`program::TaskDesc`]) declare *region requirements* — which
//!   rectangle of which region they touch with which privilege (read, write,
//!   read-write, or reduce). Multiple point tasks form an **index launch**.
//! * The runtime performs **dynamic dependence analysis** over program order,
//!   inserting copies between memories exactly where data is not already
//!   resident — communication in Legion is implicit, and so it is here.
//! * A **mapper** (the compiler layer above) chooses target processors and
//!   memories; the runtime obeys.
//!
//! Execution has two modes ([`exec::Mode`]):
//!
//! * `Functional` — instances carry real buffers, copies move real bytes, and
//!   leaf kernels compute real numerics (used by tests and examples);
//! * `Model` — the identical task/copy DAG is built and scheduled, but no
//!   data is touched, so 256-node weak-scaling sweeps run in milliseconds.
//!
//! Both modes traverse the same DAG, so communication statistics
//! ([`stats::RunStats`]) are identical between them.
//!
//! # Example
//!
//! ```
//! use distal_machine::{Rect, spec::MachineSpec};
//! use distal_runtime::{Runtime, exec::Mode, topology::PhysicalMachine};
//!
//! let machine = PhysicalMachine::new(MachineSpec::small(2));
//! let mut rt = Runtime::new(machine, Mode::Functional);
//! let region = rt.create_region("A", Rect::sized(&[8, 8]));
//! rt.set_region_data(region, vec![1.0; 64]).unwrap();
//! assert_eq!(rt.read_region(region).unwrap()[0], 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod csr;
pub mod exec;
pub mod executor;
pub mod graph;
pub mod kernel;
pub mod kernelgen;
pub mod pool;
pub mod program;
pub mod region;
pub mod replay;
pub(crate) mod sim;
pub mod stats;
pub mod topology;
pub mod trace;

pub use exec::{Mode, Runtime, RuntimeError};
pub use executor::{ExecCtx, Executor, ExecutorKind, ParallelExecutor, SerialExecutor};
pub use kernel::{ArgData, Kernel, KernelArg, KernelCtx};
pub use kernelgen::LeafRequest;
pub use program::{IndexLaunch, KernelId, Op, Privilege, Program, RegionReq, TaskDesc};
pub use region::{Coherence, RegionId};
pub use replay::{TraceCounters, TracedProgram};
pub use stats::{ChannelClass, CopyKind, CopyLogEntry, RunStats};
pub use topology::{MemId, PhysicalMachine, ProcId};
