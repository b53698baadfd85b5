//! The compiled SPMD program and its deterministic execution.
//!
//! Its ops and per-tensor tables carry a [`TensorId`], an index into the
//! one name table, [`SpmdProgram::tensors`]; a name is looked up only
//! where it arrives (binding, reading).

use crate::collective::Collective;
use crate::cost::{AlphaBeta, CostReport};
use crate::lower::{Ownership, SpmdError};
use crate::ops::{Message, Named, SpmdOp};
use crate::resolve::Resolved;
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::vm::{Homes, Run};
use distal_core::{TensorId, TensorSpec};
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use distal_runtime::kernel::Kernel;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The rank VM's leaf kernel, shared (via `Arc`) across every clone and
/// binding of the lowered program — chosen once at plan time, never
/// re-done at bind or execute time. The wrapper exists to give the
/// trait object `Clone`/`Debug` so [`SpmdProgram`] keeps deriving both.
#[derive(Clone)]
pub struct LeafKernel(pub Arc<dyn Kernel>);

impl fmt::Debug for LeafKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LeafKernel({})", self.0.name())
    }
}

/// Extent of a rectangle's innermost dimension (1 for order-0 rects).
pub(crate) fn rect_inner_extent(rect: &Rect) -> u64 {
    if rect.dim() == 0 {
        1
    } else {
        rect.extent(rect.dim() - 1).max(1) as u64
    }
}

/// A fully lowered SPMD program: per-rank operation lists, the global
/// execution order over them, and the metadata needed to run and analyze
/// it. Every op is stored once, in its rank's list; the global order is an
/// index over the lists ([`SpmdProgram::in_order`]).
#[derive(Clone, Debug)]
pub struct SpmdProgram {
    /// The statement being computed.
    pub assignment: Assignment,
    /// The machine grid (ranks are its linearized points).
    pub grid: Grid,
    /// The problem registry's tensors in registry order: `tensors[id]` is
    /// tensor `id`'s name, shape and format.
    pub tensors: Vec<TensorSpec>,
    /// Per tensor id, its stored-entry count when known (the problem's or
    /// a binding's); `None` prices it dense.
    pub(crate) nnz: Vec<Option<u64>>,
    /// The tensor of each of the statement's [`Assignment::accesses`]: the
    /// destination first, then the right-hand side in order.
    pub(crate) accessed: Vec<TensorId>,
    /// Per-rank operation lists (the "MPI program" of each rank).
    pub(crate) programs: Vec<Vec<SpmdOp>>,
    /// The global execution order as a rank sequence: its `k`-th occurrence
    /// of rank `r` stands for `programs[r][k]`. Compile-time determinism
    /// makes deadlock impossible.
    pub(crate) order: Vec<usize>,
    /// Per tensor id, its home pieces; `None` for a tensor the statement
    /// does not touch.
    pub(crate) owners: Vec<Option<Ownership>>,
    /// Per access, in `accessed` order, the position in a `Compute`'s
    /// bounds of each of its indices ([`Assignment::access_positions`]).
    pub(crate) access_positions: Vec<Vec<usize>>,
    /// Total floating-point work.
    pub total_flops: f64,
    /// True when distributed loops reduce (the final gather folds).
    pub dist_reduces: bool,
    /// Collectives the lowering recorded and expanded into the message
    /// schedule (empty for point-to-point programs).
    pub collectives: Vec<Collective>,
    /// The fans a point-to-point lowering recorded and left as sourced,
    /// described naively; [`crate::collective::recognize`] reads both.
    pub(crate) unexpanded: Vec<Collective>,
    /// The leaf kernel every `Compute` op runs (chosen once, at lowering
    /// time, by `distal_core::kernelgen::leaf_for`).
    pub leaf: LeafKernel,
}

/// The result of executing an SPMD program.
#[derive(Clone, Debug)]
pub struct SpmdResult {
    /// The output tensor, row-major.
    pub output: Vec<f64>,
    /// Communication statistics of the run.
    pub stats: CommStats,
    /// Peak bytes of live scratch across ranks (double-buffering bound).
    pub peak_scratch_bytes: u64,
    /// Wall-clock timings when the program ran on the threaded transport;
    /// `None` for the sequential simulation, whose only timeline is the
    /// α-β model's (see [`SpmdProgram::cost`]).
    pub measured: Option<MeasuredRun>,
}

/// Wall-clock timings of one threaded execution.
#[derive(Clone, Debug)]
pub struct MeasuredRun {
    /// Measured makespan: the latest rank finish time, seconds.
    pub wall_s: f64,
    /// Per-rank finish times (seconds since the ranks were released).
    pub per_rank_s: Vec<f64>,
    /// Worker threads the rank pool actually used.
    pub threads: usize,
}

impl SpmdProgram {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// One rank's operations.
    pub fn rank_ops(&self, rank: usize) -> &[SpmdOp] {
        &self.programs[rank]
    }

    /// Every `(rank, op)` in global execution order — a linearization in
    /// which each send precedes its matching receive and every rank's ops
    /// appear in that rank's program order.
    pub fn in_order(&self) -> impl Iterator<Item = (usize, &SpmdOp)> {
        let mut next = vec![0usize; self.ranks()];
        self.order.iter().map(move |&rank| {
            let op = &self.programs[rank][next[rank]];
            next[rank] += 1;
            (rank, op)
        })
    }

    /// Files a global `(rank, op)` stream into the still empty per-rank
    /// lists (each op moved, none copied) and records its order.
    pub(crate) fn install(&mut self, stream: Vec<(usize, SpmdOp)>) {
        debug_assert!(self.programs.iter().all(Vec::is_empty));
        self.order = stream.iter().map(|(rank, _)| *rank).collect();
        // Each list is sized once: one counting pass, then no regrowth.
        let mut lengths = vec![0usize; self.programs.len()];
        for &rank in &self.order {
            lengths[rank] += 1;
        }
        for (list, length) in self.programs.iter_mut().zip(lengths) {
            list.reserve_exact(length);
        }
        for (rank, op) in stream {
            self.programs[rank].push(op);
        }
    }

    /// Rewrites the program through its global `(rank, op)` stream: the ops
    /// move out in global order, `edit` changes the stream, and the result
    /// is filed back — so the rank lists and the global order cannot
    /// disagree, whatever was dropped, added, moved or edited in place.
    /// (How the mutation suites corrupt programs.)
    ///
    /// # Panics
    ///
    /// Panics when `edit` names a rank outside the program.
    pub fn rewrite(&mut self, edit: impl FnOnce(&mut Vec<(usize, SpmdOp)>)) {
        let mut lists: Vec<_> = std::mem::take(&mut self.programs)
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        self.programs = vec![Vec::new(); lists.len()];
        let mut stream = std::mem::take(&mut self.order)
            .into_iter()
            .map(|rank| (rank, lists[rank].next().expect("order covers every op")))
            .collect();
        edit(&mut stream);
        self.install(stream);
    }

    /// `item` rendered with its tensor's name: `format!("{}",
    /// program.named(op))` prints an op, a message or a collective.
    pub fn named<'p, T>(&'p self, item: &'p T) -> Named<'p, T> {
        Named {
            program: self,
            item,
        }
    }

    /// The name of tensor `id`; an id past [`SpmdProgram::tensors`] (which
    /// only a corrupted program carries) renders as the id.
    pub fn tensor_name(&self, id: TensorId) -> Cow<'_, str> {
        match self.tensors.get(id.index()) {
            Some(spec) => Cow::Borrowed(&spec.name),
            None => Cow::Owned(format!("{id:?}")),
        }
    }

    /// The statement's destination tensor.
    pub fn output(&self) -> TensorId {
        self.accessed[0]
    }

    /// The home pieces of tensor `id`, `None` for a tensor the statement
    /// does not touch.
    pub(crate) fn owners(&self, id: TensorId) -> Option<&Ownership> {
        self.owners.get(id.index())?.as_ref()
    }

    /// All messages, in global execution order (each transfer counted
    /// once). Tags are monotonic in naive programs but not after
    /// collective lowering, which splices fresh-tagged tree/ring
    /// messages in at their dependency positions.
    pub fn messages(&self) -> Vec<&Message> {
        self.in_order()
            .filter(|(_, op)| op.is_send())
            .filter_map(|(_, op)| op.message())
            .collect()
    }

    /// Wire bytes of one message. Tiles of compressed *operand* tensors
    /// ship CSR `pos`/`crd`/`vals` payloads sized by the tensor's global
    /// density, 1 while its nnz is unknown (the static estimate;
    /// [`SpmdProgram::execute`] refines it to the exact per-tile nnz).
    /// Output-tensor messages are partial sums — dense regardless of the
    /// output's at-rest format — and dense tensors ship flat tiles.
    pub fn message_bytes(&self, m: &Message) -> u64 {
        if m.tensor == self.output() {
            return m.bytes();
        }
        match self.tensors.get(m.tensor.index()) {
            Some(t) if t.format.has_compressed() => {
                let volume = m.rect.volume().max(0) as u64;
                let rows = volume / rect_inner_extent(&m.rect);
                let dense = t.dims.iter().product::<i64>().max(1) as u64;
                let nnz = self.nnz[m.tensor.index()].unwrap_or(dense).min(dense);
                let density = nnz as f64 / dense as f64;
                distal_sparse::estimated_payload_bytes(volume, rows, density)
            }
            _ => m.bytes(),
        }
    }

    /// Communication statistics of the static program (nnz-sized bytes
    /// for compressed operand tiles; see [`SpmdProgram::message_bytes`]).
    pub fn stats(&self) -> CommStats {
        let weighted: Vec<(&Message, u64)> = self
            .messages()
            .into_iter()
            .map(|m| (m, self.message_bytes(m)))
            .collect();
        CommStats::from_weighted(self, &weighted)
    }

    /// Prices the program under an α-β model (per-rank timeline and
    /// makespan) — see [`crate::cost`].
    pub fn cost(&self, model: &AlphaBeta) -> CostReport {
        crate::cost::evaluate(self, model)
    }

    /// The worst critical-path message depth over all lowered
    /// collectives (0 when none were expanded): `⌈log₂ g⌉` per
    /// `g`-member binomial tree versus the `g - 1` serialized sends of
    /// the naive fan it replaced.
    pub fn collective_depth(&self) -> usize {
        self.collectives.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Messages grouped by sequential step as [`Collective::step`] numbers
    /// them: each step ends with one `RetireScratch` per rank, so after
    /// `S ≥ 1` sequential steps the final gather is step `S`; without
    /// sequential loops there are none, and the gather shares step 0.
    pub fn messages_by_step(&self) -> Vec<Vec<Message>> {
        let (mut steps, mut retires) = (vec![Vec::new()], 0);
        for (_, op) in self.in_order() {
            if retires == self.ranks() {
                steps.push(Vec::new());
                retires = 0;
            }
            match op {
                SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => steps.last_mut().unwrap().push(*m),
                SpmdOp::RetireScratch { .. } => retires += 1,
                _ => {}
            }
        }
        steps
    }

    /// Executes the program on the rank VM over the sequential transport
    /// (see [`SpmdProgram::execute_with`] for the threaded alternative).
    ///
    /// `inputs` supplies row-major data for every right-hand-side tensor.
    /// Returns the output tensor assembled from its home owners.
    ///
    /// # Errors
    ///
    /// [`SpmdError::Data`] for missing or mis-sized inputs, and internal
    /// consistency failures (an op that reads data its rank does not hold,
    /// a payload nobody receives).
    pub fn execute(&self, inputs: &BTreeMap<String, Vec<f64>>) -> Result<SpmdResult, SpmdError> {
        self.execute_with(inputs, &Transport::Sequential)
    }

    /// Executes the program over the chosen [`Transport`]: the sequential
    /// single-loop simulation, or real rank threads exchanging messages
    /// over channels. Both produce bit-identical outputs and statistics;
    /// only the threaded path reports wall-clock timings in
    /// [`SpmdResult::measured`]. Every call resolves the program for the
    /// rank VM afresh and keeps nothing (a bound `SpmdPlan` resolves once
    /// and replays).
    pub fn execute_with(
        &self,
        inputs: &BTreeMap<String, Vec<f64>>,
        transport: &Transport,
    ) -> Result<SpmdResult, SpmdError> {
        let mut homes = Homes::new(self.tensors.len());
        let out = self.output().index();
        for (t, spec) in self.tensors.iter().enumerate().filter(|&(t, _)| t != out) {
            let data = inputs
                .get(&spec.name)
                .ok_or_else(|| SpmdError::Data(format!("missing input '{}'", spec.name)))?;
            self.seed(&mut homes, TensorId(t as u32), data)?;
        }
        let resolved = Resolved::new(self);
        let run = self.run(&resolved, &homes, transport)?;
        Ok(SpmdResult {
            stats: run.stats(self, &resolved),
            peak_scratch_bytes: resolved.peak_scratch_bytes,
            output: run.output,
            measured: run.measured,
        })
    }

    /// Seeds `homes` with tensor `id`'s home pieces on every rank, tiled
    /// out of `data` (row-major over the whole tensor): data starts "at
    /// rest" in its distribution — placement is free in the SPMD model.
    pub(crate) fn seed(
        &self,
        homes: &mut Homes,
        id: TensorId,
        data: &[f64],
    ) -> Result<(), SpmdError> {
        let spec = &self.tensors[id.index()];
        let rect = Rect::sized(&spec.dims);
        if data.len() as i64 != rect.volume() {
            return Err(SpmdError::Data(format!(
                "input '{}' has {} values, expected {}",
                spec.name,
                data.len(),
                rect.volume()
            )));
        }
        if let Some(owners) = self.owners(id) {
            homes.seed(id.index(), &rect, data, owners.pieces());
        }
        Ok(())
    }

    /// Executes the resolved program against seeded input homes, which it
    /// only reads: the same `homes` can run again.
    pub(crate) fn run(
        &self,
        resolved: &Resolved,
        homes: &Homes,
        transport: &Transport,
    ) -> Result<Run, SpmdError> {
        match transport {
            Transport::Sequential => crate::vm::run_sequential(self, resolved, homes),
            Transport::Threaded(cfg) => {
                crate::transport::execute_threaded(self, resolved, homes, cfg)
            }
        }
    }

    /// The tensor rectangle each of the statement's accesses (in
    /// `accessed` order: the destination first, then the right-hand side)
    /// touches in a leaf over `bounds`: the bounds projected through the
    /// access's index variables. `None` for clamped-away leaves (some
    /// `hi < lo`), which touch nothing.
    pub(crate) fn leaf_rects<'s>(
        &'s self,
        bounds: &'s [(i64, i64)],
    ) -> Option<impl Iterator<Item = Rect> + 's> {
        if bounds.iter().any(|(lo, hi)| hi < lo) {
            return None;
        }
        Some(self.access_positions.iter().map(move |positions| {
            let order = positions.len();
            let (mut lo, mut hi) = (Point::zeros(order), Point::zeros(order));
            for (d, &v) in positions.iter().enumerate() {
                (lo[d], hi[d]) = bounds[v];
            }
            Rect::new(lo, hi)
        }))
    }
}
