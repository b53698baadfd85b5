//! Record once, replay afterwards: a program's dependence analysis as a
//! value.
//!
//! Legion discovers a program's task/copy DAG at run time and, for a
//! program it is shown again, memoizes what the analysis produced under a
//! precondition on the coherence state (Lee et al., *Dynamic Tracing*,
//! SC'18). This module is that idea for our analysis. Everything
//! `graph::GraphBuilder` and the timing pass produce — the DAG, the schedule
//! and its statistics, and the coherence state the program leaves behind —
//! is a pure function of the machine, the program and the
//! [`Coherence`] state on entry. A [`Trace`] holds exactly those, and
//! every run is three steps in this order:
//!
//! 1. **analyse** (`replay::analyse`) — the only way to a `GraphBuilder` and
//!    the only caller of the timing pass. It reads and writes coherence
//!    state alone and allocates no buffer.
//! 2. **adopt** (`exec::Store::adopt`) — the store takes the
//!    trace's exit state and an empty buffer cell for every instance the
//!    trace created; effects give the instances their buffers.
//! 3. **apply** (`executor::apply`) — node effects run over the trace's
//!    graph on the run's workers (functional mode; see [`crate::executor`]).
//!
//! A [`TracedProgram`] keeps the trace of a program's first run beside it;
//! a later run whose entry state equals the recorded one skips step 1.
//! Whether a run recorded, replayed or analysed for itself changes nothing
//! it returns or leaves behind.

use crate::exec::RuntimeError;
use crate::graph::{Graph, GraphBuilder};
use crate::program::Program;
use crate::region::Coherence;
use crate::sim::schedule_graph;
use crate::stats::RunStats;
use crate::topology::PhysicalMachine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// What one dependence analysis of a program produced.
#[derive(Debug)]
pub struct Trace {
    /// The state the analysis started from: the replay precondition.
    pub(crate) entry: Coherence,
    /// The state the program leaves behind.
    pub(crate) exit: Coherence,
    pub(crate) graph: Graph,
    /// Node indices in the order the timing pass scheduled them (a
    /// topological order of the DAG).
    pub(crate) order: Vec<u32>,
    /// The run's statistics, peak memory included, without the logs.
    stats: RunStats,
}

/// Step 1 of a run: the dependence analysis and the timing pass of
/// `program` from the coherence state `entry`.
///
/// # Errors
///
/// Whatever the analysis rejects ([`RuntimeError::OutOfMemory`],
/// uninitialized reads, malformed requirements).
pub(crate) fn analyse(
    machine: &PhysicalMachine,
    entry: &Coherence,
    program: &Program,
) -> Result<Trace, RuntimeError> {
    let mut exit = entry.clone();
    let graph = GraphBuilder::build(machine, &mut exit, program)?;
    let schedule = schedule_graph(machine, &graph, false);
    let mut stats = schedule.stats;
    for mem in machine.mems() {
        let peak = stats
            .peak_mem_bytes
            .entry(mem.kind.to_string())
            .or_insert(0);
        *peak = (*peak).max(exit.peak_bytes[mem.id.0 as usize]);
    }
    Ok(Trace {
        entry: entry.clone(),
        exit,
        graph,
        order: schedule.order,
        stats,
    })
}

impl Trace {
    /// The statistics of a run of this trace. The copy and task logs are
    /// not part of a trace — one trace serves runs with logging on and
    /// off — so a run that wants them repeats the (pure) timing pass over
    /// the recorded graph.
    pub(crate) fn stats(&self, machine: &PhysicalMachine, record_copies: bool) -> RunStats {
        let mut stats = self.stats.clone();
        if record_copies {
            let logged = schedule_graph(machine, &self.graph, true).stats;
            stats.copy_log = logged.copy_log;
            stats.task_log = logged.task_log;
        }
        stats
    }
}

/// How the runs of one [`TracedProgram`] went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Runs that analysed the program and kept the trace: one for as long
    /// as the program is not changed.
    pub recorded: u64,
    /// Runs that started from the recorded entry state and skipped the
    /// analysis.
    pub replayed: u64,
    /// Runs that started from another state (a second `execute` on one
    /// instance, a binding with another nnz, a store modified by hand)
    /// and analysed for themselves, leaving the trace alone.
    pub declined: u64,
}

/// A program and the [`Trace`] of its first run.
///
/// The two are paired behind private fields because the trace is only
/// valid for the program it was recorded from: the program can be read
/// freely (through `Deref`) and never changed — a different program is a
/// new `TracedProgram` with an empty slot.
#[derive(Debug, Default)]
pub struct TracedProgram {
    program: Program,
    slot: OnceLock<Trace>,
    recorded: AtomicU64,
    replayed: AtomicU64,
    declined: AtomicU64,
}

impl TracedProgram {
    /// How this program's runs went so far.
    pub fn counters(&self) -> TraceCounters {
        TraceCounters {
            recorded: self.recorded.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            declined: self.declined.load(Ordering::Relaxed),
        }
    }

    /// Step 1 of a run through the slot: the recorded trace when `entry`
    /// is the state it was recorded from, a fresh analysis otherwise —
    /// kept when it is the first, handed to `fresh` for this run alone
    /// when the slot already holds another.
    ///
    /// # Errors
    ///
    /// Those of [`analyse`]; a failed analysis records nothing.
    pub(crate) fn trace<'a>(
        &'a self,
        machine: &PhysicalMachine,
        entry: &Coherence,
        fresh: &'a mut Option<Trace>,
    ) -> Result<&'a Trace, RuntimeError> {
        if let Some(recorded) = self.slot.get() {
            if recorded.entry == *entry {
                self.replayed.fetch_add(1, Ordering::Relaxed);
                return Ok(recorded);
            }
        }
        let trace = analyse(machine, entry, &self.program)?;
        match self.slot.set(trace) {
            Ok(()) => {
                self.recorded.fetch_add(1, Ordering::Relaxed);
                Ok(self.slot.get().expect("the slot was just filled"))
            }
            Err(trace) => {
                self.declined.fetch_add(1, Ordering::Relaxed);
                Ok(fresh.insert(trace))
            }
        }
    }
}

impl From<Program> for TracedProgram {
    /// Pairs `program` with an empty trace slot.
    fn from(program: Program) -> Self {
        TracedProgram {
            program,
            ..TracedProgram::default()
        }
    }
}

impl std::ops::Deref for TracedProgram {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Mode, Runtime};
    use crate::kernel::NoopKernel;
    use crate::program::{one_task, Privilege, RegionReq, TaskDesc};
    use crate::region::RegionId;
    use distal_machine::geom::{Point, Rect};
    use distal_machine::spec::MachineSpec;
    use std::sync::Arc;

    /// A two-node runtime holding one seeded 8-element region.
    fn seeded(mode: Mode, payload_scale: f64) -> (Runtime, RegionId) {
        let mut rt = Runtime::new(PhysicalMachine::new(MachineSpec::small(2)), mode);
        let r = rt.create_region("A", Rect::sized(&[8]));
        rt.fill_region(r, 1.5).unwrap();
        rt.set_region_payload_scale(r, payload_scale);
        (rt, r)
    }

    /// Reads the region on node 0, then rewrites it on node 1.
    fn fan(rt: &Runtime, r: RegionId, extent: i64) -> TracedProgram {
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(NoopKernel));
        for (node, privilege) in [(0, Privilege::Read), (1, Privilege::ReadWrite)] {
            let proc = rt.machine().cpu_proc(node, 0);
            let mem = rt.machine().proc(proc).local_mem;
            let req = RegionReq::new(r, Rect::sized(&[extent]), privilege, mem);
            p.push(one_task(TaskDesc::new(k, proc, Point::zeros(1), vec![req])));
        }
        p.into()
    }

    fn counters(p: &TracedProgram) -> (u64, u64, u64) {
        let c = p.counters();
        (c.recorded, c.replayed, c.declined)
    }

    #[test]
    fn an_equal_entry_state_replays_and_any_other_analyses_for_itself() {
        for mode in [Mode::Functional, Mode::Model] {
            let (mut first, r) = seeded(mode, 1.0);
            let program = fan(&first, r, 8);
            first.record_copies(true);
            let recorded = first.run_traced(&program).unwrap();
            assert_eq!(counters(&program), (1, 0, 0));
            assert!(recorded.copy_log.is_some() && recorded.copies > 0);

            // The same state on entry: nothing is analysed, and nothing
            // tells the two runs apart — with the logs on or off.
            let (mut second, _) = seeded(mode, 1.0);
            let replayed = second.run_traced(&program).unwrap();
            assert_eq!(counters(&program), (1, 1, 0));
            assert_eq!(replayed.copy_log, None);
            let unlogged = RunStats {
                copy_log: None,
                task_log: None,
                ..recorded.clone()
            };
            assert_eq!(replayed, unlogged);
            assert_eq!(second.coherence(), first.coherence());
            if mode == Mode::Functional {
                assert_eq!(second.read_region(r), first.read_region(r));
            }

            // Another payload scale is another state: bytes differ, and
            // the run is the one a runtime that never saw a trace makes.
            let (mut scaled, _) = seeded(mode, 0.25);
            let (mut untraced, _) = seeded(mode, 0.25);
            let declined = scaled.run_traced(&program).unwrap();
            assert_eq!(counters(&program), (1, 1, 1));
            assert_eq!(declined, untraced.run(&program).unwrap());
            assert_eq!(scaled.coherence(), untraced.coherence());
            assert!(declined.total_bytes() < replayed.total_bytes());

            // So is the state the program itself left behind.
            first.record_copies(false);
            let again = first.run_traced(&program).unwrap();
            assert_eq!(counters(&program), (1, 1, 2));
            assert_eq!(again, second.run(&program).unwrap());
            assert_eq!(first.coherence(), second.coherence());
        }
    }

    #[test]
    fn a_failed_analysis_holds_no_trace() {
        let (mut rt, r) = seeded(Mode::Model, 1.0);
        let before = rt.coherence().clone();
        let mut program = fan(&rt, r, 9);
        for _ in 0..2 {
            assert!(matches!(
                rt.run_traced(&program),
                Err(RuntimeError::InvalidRequirement { .. })
            ));
            assert_eq!(counters(&program), (0, 0, 0));
            assert_eq!(rt.coherence(), &before, "a failed run left a mark");
        }
        program = fan(&rt, r, 8);
        rt.run_traced(&program).unwrap();
        assert_eq!(counters(&program), (1, 0, 0));
    }
}
