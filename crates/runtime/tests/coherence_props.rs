//! Property tests for the runtime's coherence machinery: arbitrary
//! sequences of tiled reads/writes across memories always read back what a
//! sequential interpretation would.

use distal_machine::geom::{Point, Rect};
use distal_machine::spec::MachineSpec;
use distal_runtime::kernel::{Kernel, KernelCtx};
use distal_runtime::program::{IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};
use distal_runtime::topology::PhysicalMachine;
use distal_runtime::{Mode, Runtime};
use proptest::prelude::*;
use std::sync::Arc;

/// A launch of the one task `task`.
fn one_task(task: TaskDesc) -> Op {
    Op::IndexLaunch(IndexLaunch {
        name: "task".into(),
        tasks: vec![task],
    })
}

/// Adds a constant over the requirement rect (ReadWrite) — order matters,
/// so hazards must be exact.
struct AddKernel(f64);
impl Kernel for AddKernel {
    fn name(&self) -> &str {
        "add"
    }
    fn execute(&self, ctx: &mut KernelCtx) {
        let rect = ctx.args[0].rect;
        for p in rect.points() {
            let v = ctx.args[0].at(p.coords());
            ctx.args[0].set(p.coords(), v + self.0);
        }
    }
}

#[derive(Clone, Debug)]
struct Step {
    lo: i64,
    hi: i64,
    proc_idx: usize,
    delta: f64,
}

fn step_strategy(n: i64, procs: usize) -> impl Strategy<Value = Step> {
    ((0..n), (0..n), 0..procs, 1u32..5u32).prop_map(move |(a, b, proc_idx, d)| Step {
        lo: a.min(b),
        hi: a.max(b),
        proc_idx,
        delta: d as f64,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random read-modify-write sequences across 4 memories on 2 nodes
    /// match a sequential model exactly.
    #[test]
    fn random_rmw_sequences_are_sequentially_consistent(
        steps in prop::collection::vec(step_strategy(16, 4), 1..12)
    ) {
        let machine = PhysicalMachine::new(MachineSpec::small(2));
        let procs: Vec<_> = (0..2)
            .flat_map(|node| (0..2).map(move |s| (node, s)))
            .map(|(node, s)| machine.cpu_proc(node, s))
            .collect();
        let mut rt = Runtime::new(machine, Mode::Functional);
        let region = rt.create_region("T", Rect::sized(&[16]));
        rt.set_region_data(region, vec![0.0; 16]).unwrap();

        let mut program = Program::new();
        let mut reference = vec![0.0f64; 16];
        for step in &steps {
            let k = program.register_kernel(Arc::new(AddKernel(step.delta)));
            let proc = procs[step.proc_idx];
            let mem = rt.machine().proc(proc).local_mem;
            let rect = Rect::new(Point::new(vec![step.lo]), Point::new(vec![step.hi]));
            program.push(one_task(TaskDesc::new(
                k,
                proc,
                Point::new(vec![step.proc_idx as i64]),
                vec![RegionReq::new(region, rect, Privilege::ReadWrite, mem)],
            )));
            for i in step.lo..=step.hi {
                reference[i as usize] += step.delta;
            }
        }
        rt.run(&program).unwrap();
        prop_assert_eq!(rt.read_region(region).unwrap(), reference);
    }

    /// Reductions commute: any assignment of reducers to processors folds
    /// to the same totals.
    #[test]
    fn reductions_fold_exactly(
        steps in prop::collection::vec(step_strategy(8, 4), 1..10)
    ) {
        let machine = PhysicalMachine::new(MachineSpec::small(2));
        let procs: Vec<_> = (0..2)
            .flat_map(|node| (0..2).map(move |s| (node, s)))
            .map(|(node, s)| machine.cpu_proc(node, s))
            .collect();
        let mut rt = Runtime::new(machine, Mode::Functional);
        let region = rt.create_region("T", Rect::sized(&[8]));
        rt.set_region_data(region, vec![0.0; 8]).unwrap();

        let mut program = Program::new();
        let mut reference = vec![0.0f64; 8];
        for step in &steps {
            let k = program.register_kernel(Arc::new(AddKernel(step.delta)));
            let proc = procs[step.proc_idx];
            let mem = rt.machine().proc(proc).local_mem;
            let rect = Rect::new(Point::new(vec![step.lo]), Point::new(vec![step.hi]));
            program.push(one_task(TaskDesc::new(
                k,
                proc,
                Point::new(vec![step.proc_idx as i64]),
                vec![RegionReq::new(region, rect, Privilege::Reduce, mem)],
            )));
            for i in step.lo..=step.hi {
                reference[i as usize] += step.delta;
            }
        }
        rt.run(&program).unwrap();
        // read_region folds all pending reduction instances.
        prop_assert_eq!(rt.read_region(region).unwrap(), reference);
    }
}
