//! The compiled SPMD program and its deterministic execution.

use crate::collective::{Collective, Segments};
use crate::cost::{AlphaBeta, CostReport};
use crate::lower::{Ownership, SpmdError, SpmdTensor};
use crate::ops::{Message, SpmdOp};
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::vm::{Buf, Homes, RankStore};
use distal_ir::expr::{Access, Assignment, IndexVar};
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use distal_runtime::kernel::{ArgData, Kernel, KernelArg, KernelCtx};
use distal_runtime::pool;
use distal_runtime::program::Privilege;
use distal_sparse::{csr_payload_bytes, stored_entries, SparseBuffer};
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
fn rect_inner_extent(rect: &Rect) -> u64 {
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
    /// Tensor descriptions.
    pub tensors: Vec<SpmdTensor>,
    /// Per-rank operation lists (the "MPI program" of each rank).
    pub(crate) programs: Vec<Vec<SpmdOp>>,
    /// The global execution order as a rank sequence: its `k`-th occurrence
    /// of rank `r` stands for `programs[r][k]`. Compile-time determinism
    /// makes deadlock impossible.
    pub(crate) order: Vec<usize>,
    pub(crate) owners: BTreeMap<String, Ownership>,
    /// Original statement variables, in leaf-bounds order.
    pub all_vars: Vec<IndexVar>,
    /// Total floating-point work.
    pub total_flops: f64,
    /// True when distributed loops reduce (the final gather folds).
    pub dist_reduces: bool,
    /// Collectives recognized and lowered into the message schedule
    /// (empty for point-to-point programs).
    pub collectives: Vec<Collective>,
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
    /// density (the static estimate; [`SpmdProgram::execute`] refines it
    /// to the exact per-tile nnz). Output-tensor messages are partial
    /// sums — dense regardless of the output's at-rest format — and
    /// dense tensors ship flat tiles.
    pub fn message_bytes(&self, m: &Message) -> u64 {
        if m.tensor == self.assignment.lhs.tensor {
            return m.bytes();
        }
        match self.tensor(&m.tensor) {
            Ok(t) if t.format.has_compressed() => {
                let volume = m.rect.volume().max(0) as u64;
                let rows = volume / rect_inner_extent(&m.rect);
                distal_sparse::estimated_payload_bytes(volume, rows, t.density())
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
        CommStats::from_weighted(&self.grid, self.ranks(), &weighted)
    }

    /// Prices the program under an α-β model (per-rank timeline and
    /// makespan) — see [`crate::cost`].
    pub fn cost(&self, model: &AlphaBeta) -> CostReport {
        crate::cost::evaluate(self, model)
    }

    /// The worst critical-path message depth over all lowered
    /// collectives (0 when none were recognized): `⌈log₂ g⌉` per
    /// `g`-member binomial tree versus the `g - 1` serialized sends of
    /// the naive fan it replaced.
    pub fn collective_depth(&self) -> usize {
        self.collectives.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Messages grouped by sequential step, using the same segmentation
    /// as the collective recognizer (each step ends with one
    /// `RetireScratch` per rank; the final gather shares the last
    /// segment).
    pub fn messages_by_step(&self) -> Vec<Vec<Message>> {
        let mut segments = Segments::new(self.ranks());
        let mut steps = vec![Vec::new()];
        for (_, op) in self.in_order() {
            let step = segments.of(op);
            if steps.len() <= step {
                steps.resize_with(step + 1, Vec::new);
            }
            if op.is_send() {
                steps[step].push(op.message().expect("send carries a message").clone());
            }
        }
        steps
    }

    /// Overrides one tensor's stored-entry count (`None` restores the
    /// dense assumption). This is how plan binding attaches *per-instance*
    /// nnz-derived byte accounting to a shared, data-independent lowered
    /// program: the message schedule is untouched (nnz never shapes the
    /// lowering, only the pricing), so no re-lowering happens.
    pub fn set_tensor_nnz(&mut self, name: &str, nnz: Option<u64>) {
        if let Some(t) = self.tensors.iter_mut().find(|t| t.name == name) {
            t.nnz = nnz;
        }
    }

    /// The tensor description of `name`.
    fn tensor(&self, name: &str) -> Result<&SpmdTensor, SpmdError> {
        self.tensors
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| SpmdError::UnknownTensor(name.to_string()))
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
    /// consistency failures (a send whose payload is not locally valid).
    pub fn execute(&self, inputs: &BTreeMap<String, Vec<f64>>) -> Result<SpmdResult, SpmdError> {
        self.execute_with(inputs, &Transport::Sequential)
    }

    /// Executes the program over the chosen [`Transport`]: the sequential
    /// single-loop simulation, or real rank threads exchanging tagged
    /// messages over channels. Both produce bit-identical outputs and
    /// statistics; only the threaded path reports wall-clock timings in
    /// [`SpmdResult::measured`].
    pub fn execute_with(
        &self,
        inputs: &BTreeMap<String, Vec<f64>>,
        transport: &Transport,
    ) -> Result<SpmdResult, SpmdError> {
        let mut homes = Homes::new(self.ranks());
        let out_name = &self.assignment.lhs.tensor;
        for t in self.tensors.iter().filter(|t| &t.name != out_name) {
            let data = inputs
                .get(&t.name)
                .ok_or_else(|| SpmdError::Data(format!("missing input '{}'", t.name)))?;
            self.seed(&mut homes, &t.name, data)?;
        }
        self.run(&homes, transport)
    }

    /// Seeds `homes` with `tensor`'s home pieces on every rank, tiled out
    /// of `data` (row-major over the whole tensor): data starts "at rest"
    /// in its distribution — placement is free in the SPMD model.
    pub(crate) fn seed(
        &self,
        homes: &mut Homes,
        tensor: &str,
        data: &[f64],
    ) -> Result<(), SpmdError> {
        let rect = Rect::sized(&self.tensor(tensor)?.dims);
        if data.len() as i64 != rect.volume() {
            return Err(SpmdError::Data(format!(
                "input '{tensor}' has {} values, expected {}",
                data.len(),
                rect.volume()
            )));
        }
        if let Some(owners) = self.owners.get(tensor) {
            homes.seed(tensor, &rect, data, owners.pieces());
        }
        Ok(())
    }

    /// Executes the program against seeded input homes, which it only
    /// reads: the same `homes` can run again.
    pub(crate) fn run(
        &self,
        homes: &Homes,
        transport: &Transport,
    ) -> Result<SpmdResult, SpmdError> {
        match transport {
            Transport::Sequential => self.execute_sequential(homes),
            Transport::Threaded(cfg) => crate::transport::execute_threaded(self, homes, cfg),
        }
    }

    /// Every rank's store at the start of a run: the borrowed input homes,
    /// no scratch, nothing accumulated.
    pub(crate) fn rank_stores<'a>(&'a self, homes: &'a Homes) -> Vec<RankStore<'a>> {
        let out_name = &self.assignment.lhs.tensor;
        let reads_output = self
            .assignment
            .input_accesses()
            .iter()
            .any(|acc| &acc.tensor == out_name);
        let out_pieces = self.owners[out_name].pieces();
        (0..self.ranks())
            .map(|rank| RankStore::new(homes.rank(rank), out_name, &out_pieces[rank], reads_output))
            .collect()
    }

    /// The sequential transport: one loop over the global op order, with
    /// a tag-keyed map standing in for the network. Payloads are
    /// snapshotted at send time; `pending` carries them to the matching
    /// receive. For compressed operand tensors the executed statistics
    /// charge each message its *actual* CSR payload (pos +
    /// per-stored-entry crd/vals), refining the static density estimate.
    fn execute_sequential(&self, homes: &Homes) -> Result<SpmdResult, SpmdError> {
        let ranks = self.ranks();
        let out_name = &self.assignment.lhs.tensor;
        let mut stores = self.rank_stores(homes);

        let mut pending: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut peak_scratch = 0u64;
        let mut sent: Vec<(&Message, u64)> = Vec::new();
        for (rank, op) in self.in_order() {
            match op {
                SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => {
                    let payload = self.read_payload(&stores[rank], m, out_name)?;
                    sent.push((m, self.exact_message_bytes(m, &payload)));
                    pending.insert(m.tag, payload);
                }
                SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => {
                    let payload = pending
                        .remove(&m.tag)
                        .ok_or_else(|| SpmdError::Data(format!("recv before send: {m}")))?;
                    self.apply_recv(&mut stores[rank], m, payload);
                }
                SpmdOp::Compute { bounds, .. } => {
                    self.run_leaf(&mut stores[rank], bounds)?;
                    peak_scratch = peak_scratch.max(stores[rank].scratch_bytes());
                }
                SpmdOp::RetireScratch { keep } => {
                    stores[rank].retire_scratch(*keep);
                }
            }
        }

        Ok(SpmdResult {
            output: self.finalize_output(&stores)?,
            stats: CommStats::from_weighted(&self.grid, ranks, &sent),
            peak_scratch_bytes: peak_scratch,
            measured: None,
        })
    }

    /// Applies a received payload to a rank store. Output-tensor (gather)
    /// messages fold into home output pieces — reduce-tree relays with no
    /// home piece here fold into the accumulator and forward — while
    /// an input-tensor payload becomes a scratch buffer as is (no copy).
    pub(crate) fn apply_recv(&self, store: &mut RankStore<'_>, m: &Message, payload: Vec<f64>) {
        if m.tensor == self.assignment.lhs.tensor {
            store.fold_output(&m.rect, &payload);
            pool::give(payload);
        } else {
            let buf = Buf {
                rect: m.rect.clone(),
                data: payload,
            };
            store.receive(&m.tensor, buf);
        }
    }

    /// Assembles the global output tensor: every rank writes its home
    /// pieces — what messages folded into them plus its own accumulator
    /// contributions ([`RankStore::write_output`]) — straight into the
    /// one buffer, in rank order. The pieces cover the tensor (every
    /// distribution does), so the buffer starts with whatever its last
    /// owner left in it.
    pub(crate) fn finalize_output(&self, stores: &[RankStore<'_>]) -> Result<Vec<f64>, SpmdError> {
        let out_rect = Rect::sized(&self.tensor(&self.assignment.lhs.tensor)?.dims);
        let mut output = pool::take(out_rect.volume().max(1) as usize);
        for store in stores {
            store.write_output(&out_rect, &mut output);
        }
        Ok(output)
    }

    /// Exact wire bytes of a message given its snapshotted payload:
    /// compressed operand tiles ship `pos` plus `(crd, val)` per stored
    /// entry; everything else (dense tensors, output partial sums) ships
    /// flat.
    pub(crate) fn exact_message_bytes(&self, m: &Message, payload: &[f64]) -> u64 {
        if m.tensor == self.assignment.lhs.tensor {
            return m.bytes();
        }
        match self.tensor(&m.tensor) {
            Ok(t) if t.format.has_compressed() => {
                let rows = payload.len() as u64 / rect_inner_extent(&m.rect).max(1);
                csr_payload_bytes(rows, stored_entries(payload))
            }
            _ => m.bytes(),
        }
    }

    /// Gathers a message payload out of the sender's store: output-tensor
    /// payloads come from the local accumulator, input payloads from
    /// scratch/home.
    pub(crate) fn read_payload(
        &self,
        store: &RankStore<'_>,
        m: &Message,
        out_name: &str,
    ) -> Result<Vec<f64>, SpmdError> {
        let mut payload = pool::take(m.rect.volume().max(0) as usize);
        let gathered = if m.tensor == out_name {
            store.gather_acc(&m.rect, &mut payload)
        } else {
            store.held().gather(&m.tensor, &m.rect, &mut payload)
        };
        match gathered {
            Ok(()) => Ok(payload),
            Err(missing) => Err(SpmdError::Data(format!(
                "send of {m}: no valid local copy of {missing}"
            ))),
        }
    }

    /// The tensor rectangle each access (destination first, then the
    /// right-hand side in order) touches in a leaf over `bounds`: the
    /// bounds projected through the access's index variables. `None` for
    /// clamped-away leaves (some `hi < lo`), which touch nothing.
    pub(crate) fn leaf_rects(&self, bounds: &[(i64, i64)]) -> Option<Vec<Rect>> {
        if bounds.iter().any(|(lo, hi)| hi < lo) {
            return None;
        }
        let bound_of = |v: &IndexVar| {
            let pos = self.all_vars.iter().position(|x| x == v);
            bounds[pos.expect("a statement variable")]
        };
        let rect_of = |acc: &&Access| {
            let (lo, hi) = acc.indices.iter().map(bound_of).unzip();
            Rect::new(Point::new(lo), Point::new(hi))
        };
        Some(self.assignment.accesses().iter().map(rect_of).collect())
    }

    /// Runs the leaf kernel over the iteration sub-box `bounds` (inclusive
    /// per-variable) on operands that stay where they lie: each operand's
    /// *face* of the sub-box (for a reduction far smaller than the box
    /// itself — SUMMA's leaves read `n²` values per operand instead of
    /// `n³`) is lent out of the one home or scratch buffer that contains
    /// it ([`Held::view`](crate::vm::Held::view): `alloc` is that buffer's
    /// rectangle, and the kernel strides through it), beside the rank
    /// accumulator lent mutably as the output argument. Only a face no
    /// single buffer contains is gathered into a buffer of its own first.
    /// Zero-skipping for compressed operands is baked into the generated
    /// kernels (`skip_zero` in their request); a leaf that reads an
    /// operand as CSR ([`Kernel::sparse_arg`]) gets the face compressed —
    /// rank stores are dense, so this is the one scan of the face, with
    /// `alloc` the face rectangle — straight out of the view when the face
    /// is one contiguous run of it, out of a gathered copy otherwise.
    pub(crate) fn run_leaf(
        &self,
        store: &mut RankStore<'_>,
        bounds: &[(i64, i64)],
    ) -> Result<(), SpmdError> {
        let Some(rects) = self.leaf_rects(bounds) else {
            return Ok(());
        };
        let mut rects = rects.into_iter();
        let out_rect = rects.next().expect("the destination access");
        let (acc, held) = store.leaf_parts(&out_rect);
        let csr_arg = self.leaf.0.sparse_arg();
        let operands = self.assignment.input_accesses().into_iter().zip(rects);
        let faces = operands
            .enumerate()
            .map(|(i, (access, rect))| {
                let compress = csr_arg == Some(i + 1);
                let lent = held.view(&access.tensor, &rect).filter(|(alloc, _)| {
                    !compress || (1..rect.dim()).all(|d| rect.extent(d) == alloc.extent(d))
                });
                let face = match lent {
                    Some((alloc, data)) => Face::Lent(alloc, data),
                    None => {
                        let mut copy = pool::take(rect.volume().max(0) as usize);
                        held.gather(&access.tensor, &rect, &mut copy)
                            .map_err(|missing| {
                                SpmdError::Data(format!(
                                    "compute reads {}{missing} with no valid local copy",
                                    access.tensor
                                ))
                            })?;
                        Face::Copied(copy)
                    }
                };
                Ok((rect, face, compress))
            })
            .collect::<Result<Vec<_>, SpmdError>>()?;

        let mut args = vec![KernelArg {
            privilege: Privilege::ReadWrite,
            rect: out_rect,
            alloc: acc.rect.clone(),
            data: ArgData::Write(&mut acc.data),
            sparse: None,
        }];
        args.extend(faces.iter().map(|(rect, face, compress)| {
            let (alloc, data) = match face {
                Face::Lent(alloc, data) => (*alloc, *data),
                Face::Copied(copy) => (rect, &copy[..]),
            };
            let (alloc, data, sparse) = if *compress {
                let start = alloc.linearize(rect.lo());
                let run = &data[start..start + rect.volume().max(0) as usize];
                let image = SparseBuffer::from_dense(&rect.extents(), run);
                (rect, &[][..], Some(Arc::new(image)))
            } else {
                (alloc, data, None)
            };
            KernelArg {
                privilege: Privilege::Read,
                rect: rect.clone(),
                alloc: alloc.clone(),
                data: ArgData::Read(data),
                sparse,
            }
        }));
        let mut kctx = KernelCtx {
            args,
            point: Point::zeros(1),
            scalars: bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect(),
        };
        self.leaf.0.execute(&mut kctx);
        drop(kctx);
        pool::give_all(faces.into_iter().filter_map(|(_, face, _)| match face {
            Face::Lent(..) => None,
            Face::Copied(copy) => Some(copy),
        }));
        Ok(())
    }
}

/// Where a leaf reads one operand's face from.
enum Face<'a> {
    /// The buffer that contains it: its rectangle and data, in place.
    Lent(&'a Rect, &'a [f64]),
    /// A gathered copy, row-major over the face.
    Copied(Vec<f64>),
}
