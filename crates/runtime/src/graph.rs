//! Dynamic dependence analysis: lowering a program to a task/copy DAG.
//!
//! This module is the analogue of Legion's dynamic analysis (paper §6):
//! walking the program in issue order, it tracks which physical instances
//! hold valid data for which sub-rectangles of each region, inserts copy
//! nodes exactly where a task's requirement is not already resident in its
//! target memory, maintains read/write hazards (RAW, WAR, WAW), and manages
//! reduction instances that are folded into data instances on the next read.
//!
//! Copy *source selection* prefers, in order: an instance in the destination
//! memory, an instance on the destination node, and otherwise the valid
//! instance whose memory has the least outbound traffic planned. The last
//! rule makes broadcasts form trees automatically (receivers pull from other
//! receivers), and makes systolic schedules pull from their neighbours'
//! forwarding buffers rather than hammering the owner.

use crate::exec::RuntimeError;
use crate::program::{IndexLaunch, Op, Privilege, Program, TaskDesc};
use crate::region::{Coherence, InstanceId, InstanceRole, RegionId, ELEM_BYTES};
use crate::stats::ChannelClass;
use crate::topology::{MemId, PhysicalMachine, ProcId};
use distal_machine::geom::{Point, Rect};

/// A node of the execution DAG.
#[derive(Debug)]
pub struct GNode {
    /// What the node does.
    pub kind: GNodeKind,
    /// Duration in simulated seconds.
    pub duration: f64,
    /// Up to two resources the node occupies for its duration
    /// (processor for tasks; source/destination memory ports for copies).
    pub resources: [Option<ResourceId>; 2],
    /// Predecessor count (filled by the builder).
    pub deps: u32,
    /// Successor edges.
    pub succs: Vec<u32>,
}

/// What a DAG node does.
#[derive(Debug)]
pub enum GNodeKind {
    /// Run a kernel on a processor.
    Task(TaskNode),
    /// Move (or fold) a rectangle between instances.
    Copy(CopyNode),
    /// Initialize an instance to a constant.
    Fill { inst: InstanceId, value: f64 },
    /// A barrier (no work).
    Barrier,
}

/// Payload of a task node.
#[derive(Debug)]
pub struct TaskNode {
    /// Kernel to run.
    pub kernel: crate::program::KernelId,
    /// Resolved kernel variant name (`tape`, `gemm.gen`, `interpreter`, …)
    /// for per-variant statistics.
    pub kernel_name: std::sync::Arc<str>,
    /// Processor.
    pub proc: ProcId,
    /// Launch point.
    pub point: Point,
    /// Scalars forwarded to the kernel.
    pub scalars: Vec<i64>,
    /// `(instance, privilege, rect)` per requirement, in requirement order.
    pub args: Vec<(InstanceId, Privilege, Rect)>,
    /// Flop count (stats).
    pub flops: f64,
}

/// Payload of a copy node.
#[derive(Debug)]
pub struct CopyNode {
    /// Region being moved.
    pub region: RegionId,
    /// Source instance.
    pub src: InstanceId,
    /// Destination instance.
    pub dst: InstanceId,
    /// Rectangle moved.
    pub rect: Rect,
    /// Bytes moved.
    pub bytes: u64,
    /// True when folding a reduction buffer (`+=`) instead of copying.
    pub reduce: bool,
    /// Channel classification for statistics.
    pub class: ChannelClass,
    /// Source memory.
    pub src_mem: MemId,
    /// Destination memory.
    pub dst_mem: MemId,
}

/// A schedulable resource: processors and per-memory in/out ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceId(pub u32);

/// Resource-id layout helper.
#[derive(Debug)]
pub struct ResourceMap {
    procs: u32,
    mems: u32,
    nodes: u32,
}

impl ResourceMap {
    /// Builds the layout for a machine.
    pub fn new(machine: &PhysicalMachine) -> Self {
        ResourceMap {
            procs: machine.procs().len() as u32,
            mems: machine.mems().len() as u32,
            nodes: machine.nodes() as u32,
        }
    }

    /// Total number of resources.
    pub fn len(&self) -> usize {
        (self.procs + 2 * self.mems + 2 * self.nodes) as usize
    }

    /// True when there are no resources (never in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resource of a processor.
    pub fn proc(&self, p: ProcId) -> ResourceId {
        ResourceId(p.0)
    }

    /// The inbound port of a memory.
    pub fn mem_in(&self, m: MemId) -> ResourceId {
        ResourceId(self.procs + m.0)
    }

    /// The outbound port of a memory.
    pub fn mem_out(&self, m: MemId) -> ResourceId {
        ResourceId(self.procs + self.mems + m.0)
    }

    /// The inbound NIC port of a node: all inter-node traffic into a node
    /// shares it, so a node's processors contend for network bandwidth.
    pub fn node_in(&self, node: usize) -> ResourceId {
        ResourceId(self.procs + 2 * self.mems + node as u32)
    }

    /// The outbound NIC port of a node.
    pub fn node_out(&self, node: usize) -> ResourceId {
        ResourceId(self.procs + 2 * self.mems + self.nodes + node as u32)
    }
}

/// The built DAG.
#[derive(Debug, Default)]
pub struct Graph {
    /// Nodes in creation (program) order.
    pub nodes: Vec<GNode>,
}

/// Per-instance bookkeeping for hazard tracking (reset every run).
#[derive(Debug, Default, Clone)]
struct InstMeta {
    /// `(rect, node)` pairs: which node produced each valid piece this run.
    producers: Vec<(Rect, u32)>,
    /// Readers since the last write, with the rects they read.
    readers: Vec<(Rect, u32)>,
    /// For reduction instances: the chain of reducer tasks.
    last_reducer: Option<u32>,
    /// Copies already planned with this instance as their source.
    served: u32,
}

fn clip(entries: &mut Vec<(Rect, u32)>, rect: &Rect) {
    let mut out = Vec::with_capacity(entries.len());
    for (r, n) in entries.drain(..) {
        for piece in r.difference(rect) {
            out.push((piece, n));
        }
    }
    *entries = out;
}

/// Builds the execution DAG for a program. It works on coherence state
/// alone — instances are registered, never given a buffer — so what it
/// produces can be kept and replayed (see [`crate::replay`]).
pub(crate) struct GraphBuilder<'a> {
    machine: &'a PhysicalMachine,
    coherence: &'a mut Coherence,
    nodes: Vec<GNode>,
    meta: Vec<InstMeta>,
    /// Nodes created since the last barrier.
    epoch: Vec<u32>,
    /// The active barrier, if any.
    barrier: Option<u32>,
    /// Planned outbound bytes per memory (source-selection heuristic).
    planned_out: Vec<u64>,
    /// Variant name per kernel id (for task-class statistics).
    kernel_names: Vec<std::sync::Arc<str>>,
    rmap: ResourceMap,
}

impl<'a> GraphBuilder<'a> {
    /// Runs the dependence analysis for `program`, advancing `coherence`
    /// to the state the program leaves behind, and returns the DAG.
    pub fn build(
        machine: &'a PhysicalMachine,
        coherence: &'a mut Coherence,
        program: &Program,
    ) -> Result<Graph, RuntimeError> {
        let mut b = GraphBuilder {
            rmap: ResourceMap::new(machine),
            meta: vec![InstMeta::default(); coherence.instances.len()],
            planned_out: vec![0; machine.mems().len()],
            kernel_names: program
                .kernels
                .iter()
                .map(|k| std::sync::Arc::from(k.name()))
                .collect(),
            machine,
            coherence,
            nodes: Vec::new(),
            epoch: Vec::new(),
            barrier: None,
        };
        for op in &program.ops {
            match op {
                Op::Fill { region, value } => b.process_fill(*region, *value)?,
                Op::SingleTask(t) => {
                    b.process_task(t)?;
                }
                Op::IndexLaunch(IndexLaunch { tasks, .. }) => {
                    for t in tasks {
                        b.process_task(t)?;
                    }
                }
                Op::Barrier => b.process_barrier(),
                Op::DiscardScratch {
                    region,
                    keep_recent,
                } => b.process_discard(*region, *keep_recent),
            }
        }
        Ok(Graph { nodes: b.nodes })
    }

    fn meta(&mut self, id: InstanceId) -> &mut InstMeta {
        let idx = id.0 as usize;
        if idx >= self.meta.len() {
            self.meta.resize(idx + 1, InstMeta::default());
        }
        &mut self.meta[idx]
    }

    fn meta_ref(&self, id: InstanceId) -> Option<&InstMeta> {
        self.meta.get(id.0 as usize)
    }

    fn add_node(
        &mut self,
        kind: GNodeKind,
        duration: f64,
        resources: [Option<ResourceId>; 2],
        deps: Vec<u32>,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        let mut deps = deps;
        if let Some(b) = self.barrier {
            deps.push(b);
        }
        deps.sort_unstable();
        deps.dedup();
        let count = deps.len() as u32;
        for d in &deps {
            self.nodes[*d as usize].succs.push(id);
        }
        self.nodes.push(GNode {
            kind,
            duration,
            resources,
            deps: count,
            succs: Vec::new(),
        });
        self.epoch.push(id);
        id
    }

    fn process_barrier(&mut self) {
        // Depend on everything since (and including, via `self.barrier`) the
        // previous barrier; `add_node` adds the old barrier edge itself.
        let deps = std::mem::take(&mut self.epoch);
        let id = self.add_node(GNodeKind::Barrier, 0.0, [None, None], deps);
        self.barrier = Some(id);
        self.epoch.clear();
    }

    fn process_discard(&mut self, region: RegionId, keep_recent: u64) {
        let ridx = region.0 as usize;
        self.coherence.scratch_gen[ridx] += 1;
        let current = self.coherence.scratch_gen[ridx];
        let ids: Vec<InstanceId> = self.coherence.by_region[ridx].clone();
        for id in ids {
            let inst = self.coherence.instance(id);
            if inst.role == InstanceRole::Scratch && inst.gen + keep_recent < current {
                self.coherence.retire_instance(id);
            }
        }
    }

    /// A region held as a CSR image is read-only.
    fn refuse_sparse_write(&self, region: RegionId) -> Result<(), RuntimeError> {
        let lr = self.coherence.region(region);
        if lr.csr {
            return Err(RuntimeError::SparseRegionWrite {
                region: lr.name.clone(),
            });
        }
        Ok(())
    }

    fn process_fill(&mut self, region: RegionId, value: f64) -> Result<(), RuntimeError> {
        self.refuse_sparse_write(region)?;
        let rect = self.coherence.region(region).rect.clone();
        // Order after everything touching the region so far.
        let mut deps = Vec::new();
        let insts: Vec<InstanceId> = self.coherence.by_region[region.0 as usize]
            .iter()
            .chain(self.coherence.reductions_by_region[region.0 as usize].iter())
            .copied()
            .collect();
        for id in &insts {
            let m = self.meta(*id);
            deps.extend(m.producers.iter().map(|(_, n)| *n));
            deps.extend(m.readers.iter().map(|(_, n)| *n));
            deps.extend(m.last_reducer.iter().copied());
        }
        // Invalidate all data instances; drop pending reductions.
        for id in &insts {
            let inst = self.coherence.instance(*id);
            if inst.role == InstanceRole::Reduction {
                self.coherence.retire_instance(*id);
            } else {
                self.coherence.instance_mut(*id).valid = distal_machine::geom::RectSet::new();
                let m = self.meta(*id);
                m.producers.clear();
                m.readers.clear();
            }
        }
        // Fresh staging instance holds the fill value.
        let global = self.machine.global_mem();
        let id = self.coherence.create_instance(
            self.machine,
            region,
            global,
            rect.clone(),
            InstanceRole::Home,
        )?;
        let node = self.add_node(GNodeKind::Fill { inst: id, value }, 0.0, [None, None], deps);
        self.coherence.instance_mut(id).valid =
            distal_machine::geom::RectSet::from_rect(rect.clone());
        self.meta(id).producers = vec![(rect, node)];
        Ok(())
    }

    fn process_task(&mut self, t: &TaskDesc) -> Result<(), RuntimeError> {
        let mut deps: Vec<u32> = Vec::new();
        let mut args: Vec<(InstanceId, Privilege, Rect)> = Vec::new();
        // Post-processing actions to apply once the task node id exists.
        enum Post {
            Read {
                inst: InstanceId,
                rect: Rect,
            },
            Write {
                inst: InstanceId,
                rect: Rect,
                region: RegionId,
            },
            Reduce {
                inst: InstanceId,
            },
        }
        let mut posts: Vec<Post> = Vec::new();

        for req in &t.reqs {
            let region_rect = self.coherence.region(req.region).rect.clone();
            if !region_rect.contains_rect(&req.rect) {
                return Err(RuntimeError::InvalidRequirement {
                    region: self.coherence.region(req.region).name.clone(),
                    rect: req.rect.clone(),
                });
            }
            if req.rect.is_empty() {
                // Over-decomposed launch point: nothing to touch.
                args.push((InstanceId(u32::MAX), req.privilege, req.rect.clone()));
                continue;
            }
            if req.privilege != Privilege::Read {
                self.refuse_sparse_write(req.region)?;
            }
            match req.privilege {
                Privilege::Read => {
                    let role = if req.pin {
                        InstanceRole::Home
                    } else {
                        InstanceRole::Scratch
                    };
                    let inst = self.materialize(req.region, &req.rect, req.mem, &mut deps, role)?;
                    args.push((inst, req.privilege, req.rect.clone()));
                    posts.push(Post::Read {
                        inst,
                        rect: req.rect.clone(),
                    });
                }
                Privilege::Write | Privilege::ReadWrite => {
                    let inst = if req.privilege == Privilege::ReadWrite {
                        self.materialize(
                            req.region,
                            &req.rect,
                            req.mem,
                            &mut deps,
                            InstanceRole::Home,
                        )?
                    } else {
                        self.dest_instance(req.region, &req.rect, req.mem, InstanceRole::Home)?
                    };
                    // WAW/WAR against every instance of the region. Reader
                    // hazards are tracked per physical instance and persist
                    // across invalidation, so buffer reuse stays safe.
                    let others: Vec<InstanceId> =
                        self.coherence.by_region[req.region.0 as usize].clone();
                    for other in others {
                        let m = self.meta(other);
                        for (r, n) in &m.producers {
                            if r.overlaps(&req.rect) {
                                deps.push(*n);
                            }
                        }
                        for (r, n) in &m.readers {
                            if r.overlaps(&req.rect) {
                                deps.push(*n);
                            }
                        }
                    }
                    // Reductions pending on the rect must complete first.
                    let red: Vec<InstanceId> =
                        self.coherence.reductions_by_region[req.region.0 as usize].clone();
                    for rid in red {
                        if self.coherence.instance(rid).rect.overlaps(&req.rect) {
                            let m = self.meta(rid);
                            deps.extend(m.last_reducer.iter().copied());
                        }
                    }
                    args.push((inst, req.privilege, req.rect.clone()));
                    posts.push(Post::Write {
                        inst,
                        rect: req.rect.clone(),
                        region: req.region,
                    });
                }
                Privilege::Reduce => {
                    let inst = self.reduction_instance(req.region, &req.rect, req.mem)?;
                    let m = self.meta(inst);
                    deps.extend(m.last_reducer.iter().copied());
                    args.push((inst, req.privilege, req.rect.clone()));
                    posts.push(Post::Reduce { inst });
                }
            }
        }

        // A leaf walking a compressed operand's stored entries does that
        // operand's share of the nominal iteration space.
        let flops = t
            .reqs
            .iter()
            .filter(|req| req.privilege == Privilege::Read)
            .fold(t.flops, |f, req| {
                f * self.coherence.region(req.region).flops_scale
            });
        let duration = self
            .machine
            .task_time_s(t.proc, flops, t.bytes, t.efficiency.max(1e-6));
        let node = self.add_node(
            GNodeKind::Task(TaskNode {
                kernel: t.kernel,
                kernel_name: self.kernel_names[t.kernel.0 as usize].clone(),
                proc: t.proc,
                point: t.point.clone(),
                scalars: t.scalars.clone(),
                args,
                flops,
            }),
            duration,
            [Some(self.rmap.proc(t.proc)), None],
            deps,
        );

        for post in posts {
            match post {
                Post::Read { inst, rect } => {
                    self.meta(inst).readers.push((rect, node));
                }
                Post::Write { inst, rect, region } => {
                    // Invalidate all other instances over the rect. Producers
                    // are clipped with validity; readers persist (physical
                    // WAR hazards) until the instance itself is rewritten.
                    let others: Vec<InstanceId> =
                        self.coherence.by_region[region.0 as usize].clone();
                    for other in others {
                        if other == inst {
                            continue;
                        }
                        self.coherence.instance_mut(other).valid.subtract(&rect);
                        clip(&mut self.meta(other).producers, &rect);
                    }
                    let i = self.coherence.instance_mut(inst);
                    i.valid.add(rect.clone());
                    i.depth = 0; // produced here
                                 // Output data must never be retired by scratch discards.
                    if i.role == InstanceRole::Scratch {
                        i.role = InstanceRole::Home;
                    }
                    let m = self.meta(inst);
                    clip(&mut m.producers, &rect);
                    clip(&mut m.readers, &rect);
                    m.producers.push((rect, node));
                }
                Post::Reduce { inst } => {
                    self.meta(inst).last_reducer = Some(node);
                }
            }
        }
        Ok(())
    }

    /// Finds or creates the instance a requirement will use in `mem`.
    fn dest_instance(
        &mut self,
        region: RegionId,
        rect: &Rect,
        mem: MemId,
        role: InstanceRole,
    ) -> Result<InstanceId, RuntimeError> {
        let mut best: Option<InstanceId> = None;
        for id in &self.coherence.by_region[region.0 as usize] {
            let inst = self.coherence.instance(*id);
            if inst.mem == mem && inst.rect.contains_rect(rect) {
                let better = match best {
                    None => true,
                    Some(b) => inst.rect.volume() < self.coherence.instance(b).rect.volume(),
                };
                if better {
                    best = Some(*id);
                }
            }
        }
        match best {
            Some(id) => Ok(id),
            None => self
                .coherence
                .create_instance(self.machine, region, mem, rect.clone(), role),
        }
    }

    /// Ensures `rect` of `region` is valid in `mem`, inserting copies and
    /// reduction folds as needed; returns the instance and pushes the
    /// producer nodes the caller must depend on into `deps`.
    fn materialize(
        &mut self,
        region: RegionId,
        rect: &Rect,
        mem: MemId,
        deps: &mut Vec<u32>,
        role: InstanceRole,
    ) -> Result<InstanceId, RuntimeError> {
        let dest = self.dest_instance(region, rect, mem, role)?;
        // Copy in the missing pieces.
        let mut missing = vec![rect.clone()];
        {
            let valid = self.coherence.instance(dest).valid.clone();
            let mut next = Vec::new();
            for piece in missing {
                let mut rem = vec![piece];
                for v in valid.rects() {
                    let mut n2 = Vec::new();
                    for r in rem {
                        n2.extend(r.difference(v));
                    }
                    rem = n2;
                }
                next.extend(rem);
            }
            missing = next;
        }
        // Pieces may span several source instances (e.g. a gather crossing
        // tile boundaries): carve each piece until every fragment has a
        // single covering source. The staging memory is a last resort —
        // whenever real (placed) instances overlap a piece, the piece is
        // carved along them so that the gather pays real network traffic,
        // even though the staging instance trivially covers everything.
        let mut work: Vec<Rect> = missing;
        let mut resolved: Vec<Rect> = Vec::new();
        while let Some(piece) = work.pop() {
            if piece.is_empty() {
                continue;
            }
            let real_cover = self.select_source(region, &piece, dest).ok().map(|src| {
                self.machine.mem(self.coherence.instance(src).mem).kind
                    != distal_machine::spec::MemKind::Global
            });
            // Split off the part covered by some real instance.
            let mut carved = None;
            if real_cover != Some(true) {
                'outer: for id in &self.coherence.by_region[region.0 as usize] {
                    if *id == dest {
                        continue;
                    }
                    let inst = self.coherence.instance(*id);
                    if self.machine.mem(inst.mem).kind == distal_machine::spec::MemKind::Global {
                        continue;
                    }
                    for vr in inst.valid.rects() {
                        let inter = vr.intersection(&piece);
                        if !inter.is_empty() {
                            carved = Some(inter);
                            break 'outer;
                        }
                    }
                }
            }
            match (real_cover, carved) {
                // A real instance covers the whole piece.
                (Some(true), _) => resolved.push(piece),
                // Real data covers part of it: carve and recurse.
                (_, Some(inter)) => {
                    work.extend(piece.difference(&inter));
                    work.push(inter);
                }
                // Only staging covers it (input seeding).
                (Some(false), None) => resolved.push(piece),
                (None, None) => {
                    return Err(RuntimeError::UninitializedData {
                        region: self.coherence.region(region).name.clone(),
                        rect: piece,
                    })
                }
            }
        }
        for piece in resolved {
            let src = self.select_source(region, &piece, dest)?;
            let bytes = self.coherence.region(region).payload_bytes(piece.volume());
            let (src_mem, dst_mem) = (self.coherence.instance(src).mem, mem);
            let class = self.machine.channel_class(src_mem, dst_mem);
            let duration = self.machine.copy_time_s(src_mem, dst_mem, bytes);
            let mut cdeps: Vec<u32> = Vec::new();
            {
                let m = self.meta(src);
                for (r, n) in &m.producers {
                    if r.overlaps(&piece) {
                        cdeps.push(*n);
                    }
                }
            }
            {
                // WAW/WAR on the destination piece.
                let m = self.meta(dest);
                for (r, n) in &m.producers {
                    if r.overlaps(&piece) {
                        cdeps.push(*n);
                    }
                }
                for (r, n) in &m.readers {
                    if r.overlaps(&piece) {
                        cdeps.push(*n);
                    }
                }
            }
            let staging = class == ChannelClass::Staging;
            let resources = if staging {
                [None, None]
            } else if class == ChannelClass::InterNode {
                // Inter-node copies contend for the node NIC ports, not the
                // endpoint memories: a node's processors share its network
                // bandwidth.
                [
                    Some(self.rmap.node_out(self.machine.mem(src_mem).node)),
                    Some(self.rmap.node_in(self.machine.mem(dst_mem).node)),
                ]
            } else {
                [
                    Some(self.rmap.mem_out(src_mem)),
                    Some(self.rmap.mem_in(dst_mem)),
                ]
            };
            let node = self.add_node(
                GNodeKind::Copy(CopyNode {
                    region,
                    src,
                    dst: dest,
                    rect: piece.clone(),
                    bytes,
                    reduce: false,
                    class,
                    src_mem,
                    dst_mem,
                }),
                duration,
                resources,
                cdeps,
            );
            if !staging {
                self.planned_out[src_mem.0 as usize] += bytes;
            }
            self.meta(src).served += 1;
            let src_depth = self.coherence.instance(src).depth;
            {
                let d = self.coherence.instance_mut(dest);
                d.depth = d.depth.max(src_depth + 1);
            }
            self.coherence.instance_mut(dest).valid.add(piece.clone());
            let m = self.meta(dest);
            clip(&mut m.producers, &piece);
            m.producers.push((piece, node));
            deps.push(node);
        }
        // The task also depends on whoever produced the already-valid pieces.
        {
            let m = self.meta(dest);
            for (r, n) in &m.producers {
                if r.overlaps(rect) {
                    deps.push(*n);
                }
            }
        }
        // Fold any pending reductions overlapping the rect.
        self.flush_reductions(region, rect, dest, deps)?;
        Ok(dest)
    }

    /// Applies pending reduction instances overlapping `rect` into `dest`.
    fn flush_reductions(
        &mut self,
        region: RegionId,
        rect: &Rect,
        dest: InstanceId,
        deps: &mut Vec<u32>,
    ) -> Result<(), RuntimeError> {
        let pending: Vec<InstanceId> =
            self.coherence.reductions_by_region[region.0 as usize].clone();
        for rid in pending {
            let rrect = self.coherence.instance(rid).rect.clone();
            let inter = rrect.intersection(rect);
            if inter.is_empty() {
                continue;
            }
            // Reduction payloads are partial sums — generally dense even
            // when the tensor's at-rest format is compressed — so they
            // keep flat dense accounting.
            let bytes = inter.volume() as u64 * ELEM_BYTES;
            let src_mem = self.coherence.instance(rid).mem;
            let dst_mem = self.coherence.instance(dest).mem;
            let class = self.machine.channel_class(src_mem, dst_mem);
            let duration = self.machine.copy_time_s(src_mem, dst_mem, bytes)
                + self.machine.spec.reduction_fold_overhead_s;
            let mut cdeps: Vec<u32> = Vec::new();
            cdeps.extend(self.meta(rid).last_reducer.iter().copied());
            {
                let m = self.meta(dest);
                for (r, n) in &m.producers {
                    if r.overlaps(&inter) {
                        cdeps.push(*n);
                    }
                }
                for (r, n) in &m.readers {
                    if r.overlaps(&inter) {
                        cdeps.push(*n);
                    }
                }
            }
            let resources = if class == ChannelClass::InterNode {
                [
                    Some(self.rmap.node_out(self.machine.mem(src_mem).node)),
                    Some(self.rmap.node_in(self.machine.mem(dst_mem).node)),
                ]
            } else {
                [
                    Some(self.rmap.mem_out(src_mem)),
                    Some(self.rmap.mem_in(dst_mem)),
                ]
            };
            let node = self.add_node(
                GNodeKind::Copy(CopyNode {
                    region,
                    src: rid,
                    dst: dest,
                    rect: inter.clone(),
                    bytes,
                    reduce: true,
                    class,
                    src_mem,
                    dst_mem,
                }),
                duration,
                resources,
                cdeps,
            );
            // Other data instances holding the folded rect are now stale.
            let others: Vec<InstanceId> = self.coherence.by_region[region.0 as usize].clone();
            for other in others {
                if other == dest {
                    continue;
                }
                self.coherence.instance_mut(other).valid.subtract(&inter);
                clip(&mut self.meta(other).producers, &inter);
            }
            {
                let m = self.meta(dest);
                clip(&mut m.producers, &inter);
                m.producers.push((inter.clone(), node));
            }
            deps.push(node);
            // Whole folds retire the buffer; partial folds keep the
            // remainder pending (the simulator zeroes the folded part so it
            // cannot be double-counted).
            if rrect == inter {
                self.coherence.retire_instance(rid);
            }
        }
        Ok(())
    }

    /// Picks the cheapest valid source instance for a copy.
    fn select_source(
        &mut self,
        region: RegionId,
        piece: &Rect,
        dest: InstanceId,
    ) -> Result<InstanceId, RuntimeError> {
        let dest_mem = self.coherence.instance(dest).mem;
        let dest_node = self.machine.mem(dest_mem).node;
        type Score = (u64, u64, u64, u64, u64);
        let mut best: Option<(Score, InstanceId)> = None;
        for id in &self.coherence.by_region[region.0 as usize] {
            if *id == dest {
                continue;
            }
            let inst = self.coherence.instance(*id);
            if !inst.valid.covers(piece) {
                continue;
            }
            let mem = self.machine.mem(inst.mem);
            // Distance class: same node beats remote beats staging.
            let dist: u64 = if mem.kind == distal_machine::spec::MemKind::Global {
                2
            } else if mem.node == dest_node {
                0
            } else {
                1
            };
            // Lexicographic score: distance class; then *freshness* — a
            // scratch instance from a newer discard generation is data in
            // flight, and pulling from it yields the systolic
            // neighbour-forwarding of `rotate`d schedules (Figure 12);
            // then forwarding depth plus copies already served, which
            // shapes one-to-many transfers within a generation into
            // binomial trees (each holder serves O(log) peers) rather than
            // linear chains; then planned outbound memory load; then the
            // newest instance.
            let freshness = u64::MAX - inst.gen;
            let served = self.meta_ref(*id).map(|m| m.served).unwrap_or(0) as u64;
            let tree = inst.depth as u64 + served;
            let load = self.planned_out[inst.mem.0 as usize];
            let recency = (u32::MAX - id.0) as u64;
            let score = (dist, freshness, tree, load, recency);
            let better = match best {
                None => true,
                Some((s, _)) => score < s,
            };
            if better {
                best = Some((score, *id));
            }
        }
        match best {
            Some((_, id)) => Ok(id),
            None => Err(RuntimeError::UninitializedData {
                region: self.coherence.region(region).name.clone(),
                rect: piece.clone(),
            }),
        }
    }

    /// Finds or creates a reduction buffer for exactly `rect` in `mem`.
    fn reduction_instance(
        &mut self,
        region: RegionId,
        rect: &Rect,
        mem: MemId,
    ) -> Result<InstanceId, RuntimeError> {
        for id in &self.coherence.reductions_by_region[region.0 as usize] {
            let inst = self.coherence.instance(*id);
            if inst.mem == mem && inst.rect == *rect {
                return Ok(*id);
            }
        }
        self.coherence.create_instance(
            self.machine,
            region,
            mem,
            rect.clone(),
            InstanceRole::Reduction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Mode, Runtime};
    use crate::program::{Op, Program, RegionReq, TaskDesc};
    use crate::topology::PhysicalMachine;
    use distal_machine::spec::MachineSpec;
    use std::sync::Arc;

    fn machine() -> PhysicalMachine {
        PhysicalMachine::new(MachineSpec::small(2))
    }

    #[test]
    fn read_req_inserts_one_copy_then_reuses() {
        let m = machine();
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[8]));
        rt.set_region_data(r, vec![1.0; 8]).unwrap();

        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        let req = RegionReq::new(r, Rect::sized(&[8]), Privilege::Read, mem);
        // Two identical tasks: the second must not copy again.
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![req.clone()],
        )));
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![req],
        )));
        let stats = rt.run(&p).unwrap();
        assert_eq!(stats.tasks, 2);
        // One staging copy; staging copies are not counted in `copies`.
        assert_eq!(stats.copies, 0);
        assert_eq!(stats.inter_node_bytes(), 0);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let m = machine();
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[4]));
        rt.set_region_data(r, vec![1.0; 4]).unwrap();

        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let p0 = rt.machine().cpu_proc(0, 0);
        let p1 = rt.machine().cpu_proc(1, 0);
        let m0 = rt.machine().proc(p0).local_mem;
        let m1 = rt.machine().proc(p1).local_mem;
        // Reader on node 0 pulls a copy; writer on node 1 invalidates it;
        // a second reader on node 0 must re-fetch across the network.
        let rect = Rect::sized(&[4]);
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            p0,
            Point::zeros(1),
            vec![RegionReq::new(r, rect.clone(), Privilege::Read, m0)],
        )));
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            p1,
            Point::zeros(1),
            vec![RegionReq::new(r, rect.clone(), Privilege::ReadWrite, m1)],
        )));
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            p0,
            Point::zeros(1),
            vec![RegionReq::new(r, rect, Privilege::Read, m0)],
        )));
        let stats = rt.run(&p).unwrap();
        // Two inter-node transfers: the writer pulls the reader's copy
        // (nearer than staging), and the second reader re-fetches after the
        // invalidating write. 2 x 4 elements x 8 bytes.
        assert_eq!(stats.inter_node_bytes(), 64);
    }

    #[test]
    fn out_of_range_requirement_rejected() {
        let m = machine();
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[4]));
        rt.set_region_data(r, vec![0.0; 4]).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(r, Rect::sized(&[5]), Privilege::Read, mem)],
        )));
        assert!(matches!(
            rt.run(&p),
            Err(RuntimeError::InvalidRequirement { .. })
        ));
    }

    #[test]
    fn uninitialized_read_is_error() {
        let m = machine();
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[4]));
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(r, Rect::sized(&[4]), Privilege::Read, mem)],
        )));
        assert!(matches!(
            rt.run(&p),
            Err(RuntimeError::UninitializedData { .. })
        ));
    }

    #[test]
    fn oom_detected() {
        let mut spec = MachineSpec::small(1);
        spec.node.fb_bytes = 1024; // tiny framebuffer
        let m = PhysicalMachine::new(spec);
        let mut rt = Runtime::new(m, Mode::Model);
        let r = rt.create_region("A", Rect::sized(&[1024]));
        rt.fill_region(r, 0.0).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let proc = rt.machine().gpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(
                r,
                Rect::sized(&[1024]),
                Privilege::Read,
                mem,
            )],
        )));
        assert!(matches!(rt.run(&p), Err(RuntimeError::OutOfMemory { .. })));
    }

    #[test]
    fn discard_scratch_frees_memory() {
        let m = machine();
        let mut rt = Runtime::new(m, Mode::Model);
        let r = rt.create_region("A", Rect::sized(&[64]));
        rt.fill_region(r, 0.0).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(crate::kernel::NoopKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(r, Rect::sized(&[64]), Privilege::Read, mem)],
        )));
        p.push(Op::DiscardScratch {
            region: r,
            keep_recent: 0,
        });
        rt.run(&p).unwrap();
        assert_eq!(rt.used_bytes(mem), 0);
        assert_eq!(rt.peak_bytes(mem), 64 * 8);
    }
}
