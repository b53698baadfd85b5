//! Failure injection for the runtime substrate: out-of-memory, reads of
//! uninitialized data, malformed requirements, and the barrier semantics
//! the baselines depend on. A Legion-like runtime must fail loudly and
//! precisely — the Figure 15b OOM points are *results*, so the error paths
//! are part of the reproduction.

use distal_machine::geom::{Point, Rect};
use distal_machine::spec::{MachineSpec, MemKind};
use distal_runtime::exec::{Mode, Runtime, RuntimeError};
use distal_runtime::kernel::NoopKernel;
use distal_runtime::program::{IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};
use distal_runtime::topology::PhysicalMachine;
use std::sync::Arc;

/// A launch of the one task `task`.
fn one_task(task: TaskDesc) -> Op {
    Op::IndexLaunch(IndexLaunch {
        name: "task".into(),
        tasks: vec![task],
    })
}

/// A machine with one node and framebuffers shrunk to `fb_bytes`.
fn tiny_machine(fb_bytes: u64) -> PhysicalMachine {
    let mut spec = MachineSpec::small(1);
    spec.node.fb_bytes = fb_bytes;
    PhysicalMachine::new(spec)
}

/// The memory local to the node's first GPU.
fn fb_mem(machine: &PhysicalMachine) -> distal_runtime::topology::MemId {
    let gpu = machine.gpu_proc(0, 0);
    machine.proc(gpu).local_mem
}

#[test]
fn oversized_instance_reports_oom_with_accounting() {
    // 1 MiB framebuffer; a 512x512 f64 tile is 2 MiB.
    let machine = tiny_machine(1 << 20);
    let fb = fb_mem(&machine);
    let gpu = machine.gpu_proc(0, 0);
    let mut rt = Runtime::new(machine, Mode::Model);
    let region = rt.create_region("T", Rect::sized(&[512, 512]));
    rt.fill_region(region, 0.0).unwrap();

    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    program.push(one_task(TaskDesc::new(
        k,
        gpu,
        Point::zeros(1),
        vec![RegionReq::new(
            region,
            Rect::sized(&[512, 512]),
            Privilege::Read,
            fb,
        )],
    )));
    match rt.run(&program) {
        Err(RuntimeError::OutOfMemory {
            mem_kind,
            requested,
            capacity,
            ..
        }) => {
            assert_eq!(mem_kind, MemKind::Fb);
            assert_eq!(requested, 512 * 512 * 8);
            assert_eq!(capacity, 1 << 20);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn oom_is_cumulative_not_per_instance() {
    // Two tiles that fit individually but not together.
    let machine = tiny_machine(3 << 20); // 3 MiB; each tile 2 MiB
    let fb = fb_mem(&machine);
    let gpu = machine.gpu_proc(0, 0);
    let mut rt = Runtime::new(machine, Mode::Model);
    let r1 = rt.create_region("T1", Rect::sized(&[512, 512]));
    let r2 = rt.create_region("T2", Rect::sized(&[512, 512]));
    rt.fill_region(r1, 0.0).unwrap();
    rt.fill_region(r2, 0.0).unwrap();

    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    for r in [r1, r2] {
        program.push(one_task(TaskDesc::new(
            k,
            gpu,
            Point::zeros(1),
            vec![RegionReq::new(
                r,
                Rect::sized(&[512, 512]),
                Privilege::Read,
                fb,
            )],
        )));
    }
    match rt.run(&program) {
        Err(RuntimeError::OutOfMemory { in_use, .. }) => {
            assert_eq!(in_use, 512 * 512 * 8, "first tile was resident");
        }
        other => panic!("expected OOM on the second tile, got {other:?}"),
    }
}

#[test]
fn scratch_discard_frees_memory_for_systolic_reuse() {
    // With discards between launches, a buffer the size of the memory can
    // be streamed through it repeatedly (the systolic double-buffer bound).
    let machine = tiny_machine(5 << 20); // fits two 2 MiB tiles + slack
    let fb = fb_mem(&machine);
    let gpu = machine.gpu_proc(0, 0);
    let mut rt = Runtime::new(machine, Mode::Model);
    let region = rt.create_region("B", Rect::sized(&[4, 512, 512]));
    rt.fill_region(region, 0.0).unwrap();

    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    for step in 0..4i64 {
        program.push(Op::DiscardScratch {
            region,
            keep_recent: 1,
        });
        let rect = Rect::new(
            Point::new(vec![step, 0, 0]),
            Point::new(vec![step, 511, 511]),
        );
        program.push(one_task(TaskDesc::new(
            k,
            gpu,
            Point::new(vec![step]),
            vec![RegionReq::new(region, rect, Privilege::Read, fb)],
        )));
    }
    // Without discards this would need 8 MiB; with them it must fit.
    rt.run(&program).expect("discards bound the working set");

    // The same program without discards exhausts the memory.
    let mut rt2 = Runtime::new(tiny_machine(5 << 20), Mode::Model);
    let region2 = rt2.create_region("B", Rect::sized(&[4, 512, 512]));
    rt2.fill_region(region2, 0.0).unwrap();
    let mut program2 = Program::new();
    let k2 = program2.register_kernel(Arc::new(NoopKernel));
    let fb2 = {
        let m = rt2.machine();
        m.proc(m.gpu_proc(0, 0)).local_mem
    };
    let gpu2 = rt2.machine().gpu_proc(0, 0);
    for step in 0..4i64 {
        let rect = Rect::new(
            Point::new(vec![step, 0, 0]),
            Point::new(vec![step, 511, 511]),
        );
        program2.push(one_task(TaskDesc::new(
            k2,
            gpu2,
            Point::new(vec![step]),
            vec![RegionReq::new(region2, rect, Privilege::Read, fb2)],
        )));
    }
    assert!(matches!(
        rt2.run(&program2),
        Err(RuntimeError::OutOfMemory { .. })
    ));
}

#[test]
fn reading_uninitialized_region_fails() {
    let machine = tiny_machine(1 << 30);
    let fb = fb_mem(&machine);
    let gpu = machine.gpu_proc(0, 0);
    let mut rt = Runtime::new(machine, Mode::Functional);
    let region = rt.create_region("X", Rect::sized(&[8]));
    // No fill / set_region_data: a read must fail.
    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    program.push(one_task(TaskDesc::new(
        k,
        gpu,
        Point::zeros(1),
        vec![RegionReq::new(
            region,
            Rect::sized(&[8]),
            Privilege::Read,
            fb,
        )],
    )));
    match rt.run(&program) {
        Err(RuntimeError::UninitializedData { region, .. }) => assert_eq!(region, "X"),
        other => panic!("expected uninitialized-data error, got {other:?}"),
    }
}

#[test]
fn requirement_outside_region_rejected() {
    let machine = tiny_machine(1 << 30);
    let fb = fb_mem(&machine);
    let gpu = machine.gpu_proc(0, 0);
    let mut rt = Runtime::new(machine, Mode::Model);
    let region = rt.create_region("X", Rect::sized(&[8]));
    rt.fill_region(region, 0.0).unwrap();
    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    program.push(one_task(TaskDesc::new(
        k,
        gpu,
        Point::zeros(1),
        vec![RegionReq::new(
            region,
            Rect::new(Point::new(vec![4]), Point::new(vec![12])),
            Privilege::Read,
            fb,
        )],
    )));
    assert!(matches!(
        rt.run(&program),
        Err(RuntimeError::InvalidRequirement { .. })
    ));
}

#[test]
fn data_size_mismatch_rejected() {
    let machine = tiny_machine(1 << 30);
    let mut rt = Runtime::new(machine, Mode::Functional);
    let region = rt.create_region("X", Rect::sized(&[8]));
    assert!(matches!(
        rt.set_region_data(region, vec![0.0; 7]),
        Err(RuntimeError::DataSizeMismatch {
            expected: 8,
            got: 7
        })
    ));
}

#[test]
fn model_mode_reads_are_rejected() {
    let machine = tiny_machine(1 << 30);
    let mut rt = Runtime::new(machine, Mode::Model);
    let region = rt.create_region("X", Rect::sized(&[8]));
    rt.fill_region(region, 0.0).unwrap();
    assert!(matches!(
        rt.read_region(region),
        Err(RuntimeError::NotFunctional)
    ));
}

#[test]
fn barrier_serializes_phases() {
    // Two independent tasks on different sockets overlap without a
    // barrier and serialize with one — the §7.1.1 ScaLAPACK/CTF handicap.
    let build = |with_barrier: bool| -> f64 {
        let machine = PhysicalMachine::new(MachineSpec::small(1));
        let p0 = machine.cpu_proc(0, 0);
        let p1 = machine.cpu_proc(0, 1);
        let mut rt = Runtime::new(machine, Mode::Model);
        let region = rt.create_region("X", Rect::sized(&[2, 64]));
        rt.fill_region(region, 0.0).unwrap();
        let mut program = Program::new();
        let k = program.register_kernel(Arc::new(NoopKernel));
        let mems: Vec<_> = {
            let m = rt.machine();
            vec![m.proc(p0).local_mem, m.proc(p1).local_mem]
        };
        for (i, (proc, mem)) in [(p0, mems[0]), (p1, mems[1])].into_iter().enumerate() {
            if with_barrier && i == 1 {
                program.push(Op::Barrier);
            }
            let rect = Rect::new(
                Point::new(vec![i as i64, 0]),
                Point::new(vec![i as i64, 63]),
            );
            let mut task = TaskDesc::new(
                k,
                proc,
                Point::new(vec![i as i64]),
                vec![RegionReq::new(region, rect, Privilege::Read, mem)],
            );
            task.flops = 1e9; // ~3 ms of work per task
            task.efficiency = 1.0;
            program.push(one_task(task));
        }
        rt.run(&program).unwrap().makespan_s
    };
    let overlapped = build(false);
    let serialized = build(true);
    assert!(
        serialized > overlapped * 1.8,
        "barrier should roughly double the makespan: {overlapped} vs {serialized}"
    );
}

#[test]
fn index_launch_tasks_run_in_parallel() {
    let machine = PhysicalMachine::new(MachineSpec::small(1));
    let procs: Vec<_> = (0..2).map(|s| machine.cpu_proc(0, s)).collect();
    let mut rt = Runtime::new(machine, Mode::Model);
    let mut program = Program::new();
    let k = program.register_kernel(Arc::new(NoopKernel));
    let tasks: Vec<TaskDesc> = procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut t = TaskDesc::new(k, *p, Point::new(vec![i as i64]), vec![]);
            t.flops = 1e9;
            t.efficiency = 1.0;
            t
        })
        .collect();
    let one_task_flops = tasks[0].flops;
    program.push(Op::IndexLaunch(IndexLaunch {
        name: "par".into(),
        tasks,
    }));
    let stats = rt.run(&program).unwrap();
    // Two tasks, one task's wall-clock (plus overhead slack).
    let serial_estimate = 2.0 * one_task_flops
        / (rt
            .machine()
            .spec
            .proc_gflops(distal_machine::spec::ProcKind::Cpu)
            * 1e9);
    assert!(
        stats.makespan_s < serial_estimate * 0.75,
        "{}",
        stats.makespan_s
    );
    assert_eq!(stats.tasks, 2);
}
