//! How SPMD ranks actually run: sequential simulation or real threads.
//!
//! A lowered [`SpmdProgram`] is a set of per-rank op lists plus a global
//! order over them ([`SpmdProgram::in_order`]). Two transports execute it:
//!
//! * [`Transport::Sequential`] — the original single-threaded simulation:
//!   one loop walks the global order with a tag-keyed map standing in for
//!   the network. Deterministic by construction; this is the discipline
//!   the α-β cost model (see [`crate::cost`]) prices with its serialized
//!   per-rank injection assumption, and the reference the parity suites
//!   compare everything else against.
//! * [`Transport::Threaded`] — real concurrency: each rank becomes a
//!   state machine advanced by a worker thread of a bounded *rank pool*
//!   ([`ThreadedConfig::threads`] workers multiplex the ranks, so `p = 16`
//!   runs fine on a 2-core host). Every *worker* owns one inbound
//!   [`std::sync::mpsc`] channel; sends are nonblocking channel pushes of
//!   `(destination rank, tag, payload)` packets to the worker owning the
//!   destination, receives match on the tag — the worker files arrivals
//!   into per-rank stashes until their `Recv` retires. A rank keeps
//!   computing and sending while messages it has not yet asked for are in
//!   flight, which is exactly the comm/compute overlap the paper's
//!   generated programs get from Legion's deferred execution. A worker
//!   whose ranks are all blocked parks on that one inbox, so a packet for
//!   *any* rank it owns wakes it.
//!
//! Payloads are whole rectangles: a send gathers its tile out of the
//! sender's store with strided row copies and the packet's vector becomes
//! the receiver's scratch buffer as is.
//!
//! # Why the threaded path is bit-identical to the sequential one
//!
//! Each rank's op list is a subsequence of the global order, every
//! transfer is a 1:1 tag-matched message, and payloads are pure functions
//! of the sender's local state — so any interleaving that respects
//! per-rank order and send-before-receive produces the same values. The
//! backend-parity suite asserts this bitwise over the Figure 9 algorithms
//! and the sparse kernels.
//!
//! # Why no deadlock
//!
//! Sends never block (channels are unbounded), so a rank can only wait on
//! a receive. The global order itself is a linearization in which every
//! send precedes its matching receive and per-rank order is respected;
//! its existence means the dependency graph is acyclic, so some rank can
//! always make progress — and a parked worker cannot sleep through the
//! packet that unblocks it, because every packet for its ranks arrives on
//! the channel it parks on. The watchdog ([`ThreadedConfig::watchdog`],
//! surfacing as [`SpmdError::Timeout`]) is a backstop against lowering
//! bugs, not a scheduling necessity.

use crate::lower::SpmdError;
use crate::ops::{Message, SpmdOp};
use crate::program::{MeasuredRun, SpmdProgram, SpmdResult};
use crate::stats::CommStats;
use crate::vm::{Homes, RankStore};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The shared abort signal of one threaded execution. The first failing
/// worker *trips* the cell with the root-cause error; workers that merely
/// observe the abort afterwards re-surface that cause instead of a
/// generic "aborted by another rank" — so callers see *why* the run died
/// no matter which worker's error reaches them first at join time.
struct AbortCell {
    tripped: AtomicBool,
    cause: Mutex<Option<SpmdError>>,
}

impl AbortCell {
    fn new() -> Self {
        AbortCell {
            tripped: AtomicBool::new(false),
            cause: Mutex::new(None),
        }
    }

    /// Records `err` as the root cause (first writer wins) and raises the
    /// abort flag.
    fn trip(&self, err: &SpmdError) {
        if let Ok(mut cause) = self.cause.lock() {
            cause.get_or_insert_with(|| err.clone());
        }
        self.tripped.store(true, Ordering::Release);
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The root cause another worker tripped the cell with. The fallback
    /// covers a poisoned mutex (the tripping worker panicked mid-store).
    fn cause(&self) -> SpmdError {
        self.cause
            .lock()
            .ok()
            .and_then(|c| c.clone())
            .unwrap_or_else(|| SpmdError::Timeout("aborted by another rank".into()))
    }
}

/// How [`SpmdProgram::execute_with`] runs the lowered rank programs.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Transport {
    /// Single-threaded simulation in global op order — the deterministic
    /// reference, and the discipline `SpmdProgram::cost` models.
    #[default]
    Sequential,
    /// One rank per thread (bounded by a pool) over mpsc channels, with
    /// measured wall-clock timings.
    Threaded(ThreadedConfig),
}

impl Transport {
    /// The threaded transport with default settings (pool sized to the
    /// host, 60 s watchdog).
    pub fn threaded() -> Self {
        Transport::Threaded(ThreadedConfig::default())
    }

    /// The threaded transport with an explicit worker count
    /// (`0` = auto: `DISTAL_THREADS` or one per host core).
    pub fn threaded_with(threads: usize) -> Self {
        Transport::Threaded(ThreadedConfig {
            threads,
            ..ThreadedConfig::default()
        })
    }
}

/// Settings for [`Transport::Threaded`].
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadedConfig {
    /// Worker threads in the rank pool. `0` resolves like the runtime's
    /// effect pool (`host_worker_count`): `DISTAL_THREADS` if set, else
    /// one per host core. The pool never exceeds the rank count.
    pub threads: usize,
    /// Abort threshold for ranks blocked on a receive — a well-formed
    /// program always completes, so firing means a lowering bug (surfaced
    /// as [`SpmdError::Timeout`]).
    pub watchdog: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            threads: 0,
            watchdog: Duration::from_secs(60),
        }
    }
}

/// A tagged message in flight between two rank threads.
struct Packet {
    /// Destination rank (selects the stash on the receiving worker).
    to: usize,
    tag: u64,
    data: Vec<f64>,
}

/// How long a worker with every owned rank blocked sleeps on its inbox
/// before re-checking the abort flag and the watchdog. Packets cut the
/// sleep short; the slice only bounds how late an abort is noticed.
const PARK_SLICE: Duration = Duration::from_micros(500);

/// One worker's receive side: the single channel every packet for its
/// ranks arrives on, and the early arrivals filed per owned rank.
struct Inbox {
    rx: Receiver<Packet>,
    /// Pool width: worker `w` owns ranks `w, w + workers, …`, so rank `r`
    /// is its `r / workers`-th.
    workers: usize,
    /// Per owned rank: payloads keyed by tag until their `Recv` retires
    /// them.
    stashes: Vec<BTreeMap<u64, Vec<f64>>>,
}

impl Inbox {
    fn new(rx: Receiver<Packet>, workers: usize, owned: usize) -> Self {
        Inbox {
            rx,
            workers,
            stashes: vec![BTreeMap::new(); owned],
        }
    }

    fn file(&mut self, p: Packet) {
        self.stashes[p.to / self.workers].insert(p.tag, p.data);
    }

    /// The payload `rank` is waiting for under `tag`, if it has arrived.
    /// The channel is only drained when the stash misses.
    fn take(&mut self, rank: usize, tag: u64) -> Option<Vec<f64>> {
        let slot = rank / self.workers;
        if let Some(data) = self.stashes[slot].remove(&tag) {
            return Some(data);
        }
        while let Ok(p) = self.rx.try_recv() {
            self.file(p);
        }
        self.stashes[slot].remove(&tag)
    }

    /// Sleeps until a packet for any owned rank arrives or `slice`
    /// elapses, filing the packet.
    fn park(&mut self, slice: Duration) -> Result<(), SpmdError> {
        match self.rx.recv_timeout(slice) {
            Ok(p) => self.file(p),
            Err(RecvTimeoutError::Timeout) => {}
            // All sender clones dropped: impossible while the spawning
            // scope holds the originals; treat as an abort signal.
            Err(RecvTimeoutError::Disconnected) => {
                return Err(SpmdError::Timeout("channel disconnected".into()));
            }
        }
        Ok(())
    }
}

/// What the workers of one execution share.
struct Shared<'p> {
    program: &'p SpmdProgram,
    /// When the ranks were released; finish times count from here.
    start: Instant,
    /// The watchdog's deadline.
    deadline: Instant,
    abort: AbortCell,
}

/// What one rank hands back after running to completion. The send log
/// borrows its messages from the program.
struct RankOutcome<'p> {
    rank: usize,
    store: RankStore<'p>,
    sent: Vec<(&'p Message, u64)>,
    peak_scratch: u64,
    finish_s: f64,
}

/// One rank's execution state: a resumable cursor over its op list.
struct RankTask<'p> {
    rank: usize,
    ops: &'p [SpmdOp],
    pc: usize,
    store: RankStore<'p>,
    sent: Vec<(&'p Message, u64)>,
    peak_scratch: u64,
    finish_s: Option<f64>,
}

impl<'p> RankTask<'p> {
    fn done(&self) -> bool {
        self.finish_s.is_some()
    }

    /// Runs ops until the rank finishes or blocks on a receive whose
    /// packet has not arrived. Returns whether any op retired.
    /// `senders[w]` feeds worker `w`'s inbox.
    fn advance(
        &mut self,
        shared: &Shared<'p>,
        senders: &[Sender<Packet>],
        inbox: &mut Inbox,
    ) -> Result<bool, SpmdError> {
        let program = shared.program;
        let out_name = &program.assignment.lhs.tensor;
        let mut progressed = false;
        while self.pc < self.ops.len() {
            match &self.ops[self.pc] {
                SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => {
                    let payload = program.read_payload(&self.store, m, out_name)?;
                    self.sent
                        .push((m, program.exact_message_bytes(m, &payload)));
                    // Nonblocking injection. A send can only fail if the
                    // receiving worker already returned, i.e. it hit an
                    // error — that error wins.
                    let _ = senders[m.to % senders.len()].send(Packet {
                        to: m.to,
                        tag: m.tag,
                        data: payload,
                    });
                }
                SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => match inbox.take(self.rank, m.tag) {
                    Some(payload) => program.apply_recv(&mut self.store, m, payload),
                    None => return Ok(progressed),
                },
                SpmdOp::Compute { bounds, .. } => {
                    program.run_leaf(&mut self.store, bounds)?;
                    self.peak_scratch = self.peak_scratch.max(self.store.scratch_bytes());
                }
                SpmdOp::RetireScratch { keep } => {
                    self.store.retire_scratch(*keep);
                }
            }
            self.pc += 1;
            progressed = true;
        }
        self.finish_s = Some(shared.start.elapsed().as_secs_f64());
        Ok(true)
    }

    fn into_outcome(self) -> RankOutcome<'p> {
        RankOutcome {
            rank: self.rank,
            store: self.store,
            sent: self.sent,
            peak_scratch: self.peak_scratch,
            finish_s: self.finish_s.unwrap_or(0.0),
        }
    }
}

/// One pool worker: round-robins its owned ranks, parking on its inbox
/// only when none of them can progress.
fn run_worker<'p>(
    shared: &Shared<'p>,
    senders: &[Sender<Packet>],
    mut tasks: Vec<RankTask<'p>>,
    mut inbox: Inbox,
) -> Result<Vec<RankOutcome<'p>>, SpmdError> {
    let abort = &shared.abort;
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for t in tasks.iter_mut() {
            if t.done() {
                continue;
            }
            // A panicking leaf is the rank's failure like any other: caught
            // here it names its rank and its message and stops the peers,
            // instead of leaving them to the watchdog. What the leaf was
            // lent — views into the rank's store — dies with the task.
            let advanced =
                catch_unwind(AssertUnwindSafe(|| t.advance(shared, senders, &mut inbox)))
                    .unwrap_or_else(|panic| {
                        let message = panic
                            .downcast_ref::<&str>()
                            .map(|m| m.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "a non-string payload".into());
                        Err(SpmdError::Data(format!("panicked: {message}")))
                    });
            match advanced {
                Ok(p) => progressed |= p,
                Err(e) => {
                    // Annotate with the failing rank before publishing:
                    // peers and the caller all see who actually died.
                    let e = match e {
                        SpmdError::Data(m) => SpmdError::Data(format!("rank {}: {m}", t.rank)),
                        other => other,
                    };
                    abort.trip(&e);
                    return Err(e);
                }
            }
            all_done &= t.done();
        }
        if all_done {
            return Ok(tasks.into_iter().map(RankTask::into_outcome).collect());
        }
        if progressed {
            continue;
        }
        // Every owned rank is blocked on a tag that hasn't arrived: park
        // until the next packet for any of them, at most a slice.
        if abort.tripped() {
            return Err(abort.cause());
        }
        if Instant::now() >= shared.deadline {
            let t = tasks.iter().find(|t| !t.done()).expect("a rank is blocked");
            let tag = match &t.ops[t.pc] {
                SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => m.tag,
                _ => unreachable!("only receives block"),
            };
            let e = SpmdError::Timeout(format!(
                "rank {} blocked on tag {} at op {}/{}",
                t.rank,
                tag,
                t.pc,
                t.ops.len()
            ));
            abort.trip(&e);
            return Err(e);
        }
        inbox.park(PARK_SLICE)?;
    }
}

/// Executes `program` with rank threads over mpsc channels (the
/// [`Transport::Threaded`] path of [`SpmdProgram::execute_with`]).
///
/// Output and statistics are bit-identical to the sequential transport;
/// additionally [`SpmdResult::measured`] carries per-rank wall-clock
/// finish times and the measured makespan.
pub(crate) fn execute_threaded(
    program: &SpmdProgram,
    homes: &Homes,
    cfg: &ThreadedConfig,
) -> Result<SpmdResult, SpmdError> {
    let ranks = program.ranks();
    let stores = program.rank_stores(homes);
    let workers = distal_runtime::executor::host_worker_count(cfg.threads)
        .min(ranks)
        .max(1);

    // One inbound channel per worker; every worker holds clones of all
    // the send sides. The originals stay alive in this scope, so a worker
    // never observes a disconnect while peers are still running.
    let (senders, receivers): (Vec<Sender<Packet>>, Vec<Receiver<Packet>>) =
        (0..workers).map(|_| channel()).unzip();

    // Deterministic round-robin partition: worker w owns ranks
    // w, w + workers, w + 2·workers, …
    let mut partitions: Vec<Vec<RankTask<'_>>> = (0..workers).map(|_| Vec::new()).collect();
    for (rank, store) in stores.into_iter().enumerate() {
        partitions[rank % workers].push(RankTask {
            rank,
            ops: program.rank_ops(rank),
            pc: 0,
            store,
            sent: Vec::new(),
            peak_scratch: 0,
            finish_s: None,
        });
    }

    let start = Instant::now();
    let shared = Shared {
        program,
        start,
        deadline: start + cfg.watchdog,
        abort: AbortCell::new(),
    };
    let results: Vec<Result<Vec<RankOutcome<'_>>, SpmdError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .into_iter()
            .zip(receivers)
            .map(|(tasks, rx)| {
                let senders = senders.clone();
                let inbox = Inbox::new(rx, workers, tasks.len());
                let shared = &shared;
                scope.spawn(move || run_worker(shared, &senders, tasks, inbox))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(SpmdError::Data("rank worker panicked".into())),
            })
            .collect()
    });

    // Surface the root-cause error: a worker that merely observed the
    // abort flag reports a generic message, so a specific failure from
    // any other worker takes precedence over it.
    let mut first_err: Option<SpmdError> = None;
    let mut outcomes: Vec<RankOutcome<'_>> = Vec::with_capacity(ranks);
    for r in results {
        match r {
            Ok(o) => outcomes.extend(o),
            Err(e) => {
                let generic = matches!(&e, SpmdError::Timeout(m) if m == "aborted by another rank");
                match &first_err {
                    None => first_err = Some(e),
                    Some(SpmdError::Timeout(m)) if m == "aborted by another rank" && !generic => {
                        first_err = Some(e)
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    outcomes.sort_by_key(|o| o.rank);

    let per_rank_s: Vec<f64> = outcomes.iter().map(|o| o.finish_s).collect();
    let wall_s = per_rank_s.iter().copied().fold(0.0, f64::max);
    let peak_scratch = outcomes.iter().map(|o| o.peak_scratch).max().unwrap_or(0);
    // Aggregate statistics are order-independent sums, so concatenating
    // per-rank send logs in rank order reproduces the sequential
    // transport's CommStats exactly.
    let sent: Vec<(&Message, u64)> = outcomes
        .iter()
        .flat_map(|o| o.sent.iter().copied())
        .collect();
    let stats = CommStats::from_weighted(&program.grid, ranks, &sent);

    let stores: Vec<RankStore<'_>> = outcomes.into_iter().map(|o| o.store).collect();
    let output = program.finalize_output(&stores)?;
    Ok(SpmdResult {
        output,
        stats,
        peak_scratch_bytes: peak_scratch,
        measured: Some(MeasuredRun {
            wall_s,
            per_rank_s,
            threads: workers,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_packet_for_any_owned_rank_wakes_a_parked_worker() {
        // Worker 0 of a 2-wide pool owns ranks 0 and 2, both blocked; the
        // only packet in flight is for rank 2. Parking must end with that
        // packet, not wait out the slice — which is set far beyond what
        // the test would tolerate, so sleeping through it fails.
        let (tx, rx) = channel();
        let mut inbox = Inbox::new(rx, 2, 2);
        assert_eq!(inbox.take(0, 7), None);
        assert_eq!(inbox.take(2, 7), None);
        tx.send(Packet {
            to: 2,
            tag: 7,
            data: vec![1.5],
        })
        .unwrap();
        let parked = Instant::now();
        inbox.park(Duration::from_secs(600)).unwrap();
        assert!(parked.elapsed() < Duration::from_secs(60));
        // Filed under its destination rank only.
        assert_eq!(inbox.take(0, 7), None);
        assert_eq!(inbox.take(2, 7), Some(vec![1.5]));
        assert_eq!(inbox.take(2, 7), None);
    }

    #[test]
    fn take_drains_the_channel_when_the_stash_misses() {
        let (tx, rx) = channel();
        let mut inbox = Inbox::new(rx, 3, 2);
        // Ranks 1 and 4 live on worker 1 of 3; arrivals come out of order.
        for (to, tag) in [(4, 11), (1, 10), (4, 12)] {
            let data = vec![tag as f64];
            tx.send(Packet { to, tag, data }).unwrap();
        }
        assert_eq!(inbox.take(1, 10), Some(vec![10.0]));
        assert_eq!(inbox.take(4, 12), Some(vec![12.0]));
        assert_eq!(inbox.take(4, 11), Some(vec![11.0]));
        drop(tx);
        assert!(matches!(
            inbox.park(Duration::from_millis(1)),
            Err(SpmdError::Timeout(_))
        ));
    }
}
