//! How SPMD ranks actually run: sequential simulation or real threads.
//!
//! A lowered [`SpmdProgram`] is a set of per-rank op lists plus a global
//! order over them ([`SpmdProgram::in_order`]), resolved into per-rank
//! steps before it runs. Two transports walk those steps with the one
//! walker, `RankRun::step` of the rank VM:
//!
//! * [`Transport::Sequential`] — the single-threaded simulation: one loop
//!   takes the next step of each rank in the global order, and a payload
//!   is filed straight into its receiver's mailbox. Deterministic by
//!   construction; this is the discipline the α-β cost model (see
//!   [`crate::cost`]) prices with its serialized per-rank injection
//!   assumption, and the reference the parity suites compare everything
//!   else against.
//! * [`Transport::Threaded`] — real concurrency: each rank becomes a
//!   state machine advanced by a worker of a bounded *rank pool*
//!   ([`ThreadedConfig::threads`] workers multiplex the ranks, so `p = 16`
//!   runs fine on a 2-core host). The pool is forked by
//!   [`distal_runtime::executor::fork`]: the calling thread is worker 0,
//!   and every worker runs under its share of the host. Every *worker*
//!   owns one inbound
//!   [`std::sync::mpsc`] channel; a send is a nonblocking push of a packet
//!   onto the channel of the worker owning the destination, addressed by
//!   the receive it feeds — the receiver's mailbox slot, fixed at
//!   resolution — and the worker files arrivals into its ranks' mailboxes
//!   until their receives take them. A rank keeps computing and sending
//!   while messages it has not yet asked for are in flight, which is
//!   exactly the comm/compute overlap the paper's generated programs get
//!   from Legion's deferred execution. A worker whose ranks are all blocked
//!   parks on that one inbox, so a packet for *any* rank it owns wakes it.
//!
//! A packet carries a view, not a copy: input payloads are lent out of the
//! buffer that holds them (home pieces and received views are never
//! written during a run), and only output partial sums and faces several
//! buffers hold are copied, once, into the sender's arena.
//!
//! # Why the threaded path is bit-identical to the sequential one
//!
//! Each rank's op list is a subsequence of the global order, every
//! transfer is a 1:1 message feeding one receive, and payloads are pure
//! functions of the sender's local state — so any interleaving that
//! respects per-rank order and send-before-receive produces the same
//! values. The backend-parity suite asserts this bitwise over the Figure 9
//! algorithms and the sparse kernels.
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
use crate::program::{MeasuredRun, SpmdProgram};
use crate::resolve::Resolved;
use crate::vm::Tables;
use crate::vm::{check_delivered, with_arenas, Homes, Mailboxes, Packet, Post, RankRun, Run};
use distal_runtime::executor::{fork, host_worker_count};
use distal_runtime::kernel::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The shared abort signal of one threaded execution. The first failing
/// worker *trips* the cell with the root-cause error; every other worker
/// that stops because of it, and the caller, report that cause — so a
/// caller sees *why* the run died, whichever worker's join it reads first.
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
    fn trip(&self, err: SpmdError) {
        if let Ok(mut cause) = self.cause.lock() {
            cause.get_or_insert(err);
        }
        self.tripped.store(true, Ordering::Release);
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The root cause the cell was tripped with. The fallback covers a
    /// poisoned mutex (the tripping worker panicked mid-store).
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

/// How long a worker with every owned rank blocked sleeps on its inbox
/// before re-checking the abort flag and the watchdog. Packets cut the
/// sleep short; the slice only bounds how late an abort is noticed.
const PARK_SLICE: Duration = Duration::from_micros(500);

/// One worker's receive side: the single channel every packet for its
/// ranks arrives on, and its ranks' mailboxes.
struct Inbox<'a> {
    rx: Receiver<Packet<'a>>,
    /// Pool width: worker `w` owns ranks `w, w + workers, …`, so rank `r`
    /// has its `r / workers`-th mailbox.
    workers: usize,
    boxes: Mailboxes<'a>,
}

impl<'a> Inbox<'a> {
    /// An inbox over `rx` for ranks with `slots` mailbox slots each.
    fn new(
        rx: Receiver<Packet<'a>>,
        workers: usize,
        slots: impl IntoIterator<Item = usize>,
    ) -> Self {
        Inbox {
            rx,
            workers,
            boxes: Mailboxes::new(slots),
        }
    }

    fn file(&mut self, p: Packet<'a>) {
        self.boxes.file(p.to / self.workers, p);
    }

    /// The payload `rank` is waiting for in slot `ordinal`, if it has
    /// arrived. The channel is only drained when the mailbox misses.
    fn take(&mut self, rank: usize, ordinal: usize) -> Option<Packet<'a>> {
        let b = rank / self.workers;
        if let Some(p) = self.boxes.take(b, ordinal) {
            return Some(p);
        }
        while let Ok(p) = self.rx.try_recv() {
            self.file(p);
        }
        self.boxes.take(b, ordinal)
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

    /// Every payload no receive took, including what is still on the
    /// channel.
    fn into_left(mut self) -> impl Iterator<Item = Packet<'a>> {
        while let Ok(p) = self.rx.try_recv() {
            self.file(p);
        }
        self.boxes.into_left()
    }
}

/// The threaded transport's [`Post`]: a send goes onto the channel of the
/// worker that owns its receiver, a receive comes out of this worker's
/// inbox.
struct Wire<'w, 'a> {
    senders: &'w [Sender<Packet<'a>>],
    inbox: &'w mut Inbox<'a>,
}

impl<'a> Post<'a> for Wire<'_, 'a> {
    fn send(&mut self, packet: Packet<'a>) {
        // A send can only fail if the receiving worker already returned,
        // i.e. the run aborted — that abort's cause wins.
        let _ = self.senders[packet.to % self.senders.len()].send(packet);
    }

    fn take(&mut self, rank: usize, ordinal: usize) -> Option<Packet<'a>> {
        self.inbox.take(rank, ordinal)
    }
}

/// What the workers of one execution share.
struct Shared<'p> {
    leaf: &'p dyn Kernel,
    /// When the ranks were released; finish times count from here.
    start: Instant,
    /// The watchdog's deadline.
    deadline: Instant,
    abort: AbortCell,
}

/// One rank's run and when it finished.
struct RankTask<'r, 'a> {
    run: RankRun<'r, 'a>,
    finish_s: Option<f64>,
}

impl<'a> RankTask<'_, 'a> {
    /// Runs steps until the rank finishes or blocks on a receive whose
    /// packet has not arrived. Returns whether any step ran.
    fn advance(&mut self, shared: &Shared<'_>, wire: &mut Wire<'_, 'a>) -> Result<bool, SpmdError> {
        let mut progressed = false;
        while !self.run.done() {
            if !self.run.step(shared.leaf, wire)? {
                return Ok(progressed);
            }
            progressed = true;
        }
        self.finish_s = Some(shared.start.elapsed().as_secs_f64());
        Ok(true)
    }
}

/// One pool worker: round-robins its owned ranks, parking on its inbox
/// only when none of them can progress. Hands back its ranks and inbox
/// when they all finish; `None` when the run aborted, with the cause in
/// the abort cell.
fn run_worker<'r, 'a>(
    shared: &Shared<'_>,
    senders: &[Sender<Packet<'a>>],
    mut tasks: Vec<RankTask<'r, 'a>>,
    mut inbox: Inbox<'a>,
) -> Option<(Vec<RankTask<'r, 'a>>, Inbox<'a>)> {
    let abort = &shared.abort;
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for t in tasks.iter_mut() {
            if t.finish_s.is_some() {
                continue;
            }
            // A panicking leaf is the rank's failure like any other: caught
            // here it names its rank and its message and stops the peers,
            // instead of leaving them to the watchdog. What the leaf was
            // lent — views into the rank's slots — dies with the task.
            let mut wire = Wire {
                senders,
                inbox: &mut inbox,
            };
            let advanced = catch_unwind(AssertUnwindSafe(|| t.advance(shared, &mut wire)))
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
                    abort.trip(match e {
                        SpmdError::Data(m) => SpmdError::Data(format!("rank {}: {m}", t.run.rank)),
                        other => other,
                    });
                    return None;
                }
            }
            all_done &= t.finish_s.is_some();
        }
        if all_done {
            return Some((tasks, inbox));
        }
        if progressed {
            continue;
        }
        // Every owned rank is blocked on a receive that hasn't arrived:
        // park until the next packet for any of them, at most a slice.
        if abort.tripped() {
            return None;
        }
        if Instant::now() >= shared.deadline {
            let t = tasks
                .iter()
                .find(|t| t.finish_s.is_none())
                .expect("a rank is blocked");
            let (op, at, of) = t.run.at();
            let tag = op.message().expect("only receives wait").tag;
            let rank = t.run.rank;
            abort.trip(SpmdError::Timeout(format!(
                "rank {rank} blocked on tag {tag} at op {at}/{of}"
            )));
            return None;
        }
        if let Err(e) = inbox.park(PARK_SLICE) {
            abort.trip(e);
            return None;
        }
    }
}

/// Executes `program` with rank threads over mpsc channels (the
/// [`Transport::Threaded`] path of [`SpmdProgram::execute_with`]).
///
/// Output and statistics are bit-identical to the sequential transport;
/// additionally the run carries per-rank wall-clock finish times and the
/// measured makespan.
pub(crate) fn execute_threaded(
    program: &SpmdProgram,
    resolved: &Resolved,
    homes: &Homes,
    cfg: &ThreadedConfig,
) -> Result<Run, SpmdError> {
    let ranks = program.ranks();
    let workers = host_worker_count(cfg.threads).min(ranks).max(1);
    with_arenas(resolved, |arenas| {
        let mut tables = Tables::new(resolved, homes, arenas);

        // One inbound channel per worker; every worker sends on all of
        // them. The send sides live in this scope, so a worker never
        // observes a disconnect while peers are still running.
        let (senders, receivers): (Vec<Sender<Packet<'_>>>, Vec<Receiver<Packet<'_>>>) =
            (0..workers).map(|_| channel()).unzip();

        // Deterministic round-robin partition: worker w owns ranks
        // w, w + workers, w + 2·workers, …
        let mut partitions: Vec<Vec<RankTask<'_, '_>>> = (0..workers).map(|_| Vec::new()).collect();
        for run in tables.runs(program, resolved) {
            partitions[run.rank % workers].push(RankTask {
                run,
                finish_s: None,
            });
        }

        let start = Instant::now();
        let shared = Shared {
            leaf: &*program.leaf.0,
            start,
            deadline: start + cfg.watchdog,
            abort: AbortCell::new(),
        };
        // Worker 0 is the calling thread. Each worker owns its share of
        // the host (`fork`'s rule), so what a rank fans out itself — a
        // CSR face's conversion — stays inside that share.
        let pool = partitions.into_iter().zip(receivers).collect();
        let finished = fork(pool, |(tasks, rx)| {
            let inbox = Inbox::new(rx, workers, tasks.iter().map(|t| t.run.plan.mailbox));
            run_worker(&shared, &senders, tasks, inbox)
        });
        // A worker that stopped early stopped because the run aborted; the
        // cell holds the first failure's own error.
        let Some(finished) = finished.into_iter().collect::<Option<Vec<_>>>() else {
            return Err(shared.abort.cause());
        };
        let (tasks, inboxes): (Vec<_>, Vec<_>) = finished.into_iter().unzip();
        check_delivered(inboxes.into_iter().flat_map(Inbox::into_left))?;
        let mut tasks: Vec<RankTask<'_, '_>> = tasks.into_iter().flatten().collect();
        tasks.sort_by_key(|t| t.run.rank);

        let per_rank_s: Vec<f64> = tasks.iter().map(|t| t.finish_s.unwrap_or(0.0)).collect();
        let wall_s = per_rank_s.iter().copied().fold(0.0, f64::max);
        let measured = MeasuredRun {
            wall_s,
            per_rank_s,
            threads: workers,
        };
        let runs = tasks.into_iter().map(|t| t.run).collect();
        Ok(Run::new(resolved, runs, Some(measured)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Rect;

    #[test]
    fn a_packet_for_any_owned_rank_wakes_a_parked_worker() {
        // Worker 0 of a 2-wide pool owns ranks 0 and 2, both blocked; the
        // only packet in flight is for rank 2. Parking must end with that
        // packet, not wait out the slice — which is set far beyond what
        // the test would tolerate, so sleeping through it fails.
        let rect = Rect::sized(&[1]);
        let (tx, rx) = channel();
        let mut inbox = Inbox::new(rx, 2, [1, 1]);
        assert!(inbox.take(0, 0).is_none());
        assert!(inbox.take(2, 0).is_none());
        tx.send(Packet {
            to: 2,
            ordinal: 0,
            from: 1,
            tag: 7,
            alloc: &rect,
            data: &[1.5],
        })
        .unwrap();
        let parked = Instant::now();
        inbox.park(Duration::from_secs(600)).unwrap();
        assert!(parked.elapsed() < Duration::from_secs(60));
        // Filed under its destination rank only.
        assert!(inbox.take(0, 0).is_none());
        assert_eq!(
            inbox.take(2, 0).map(|p| (p.tag, p.data)),
            Some((7, &[1.5][..]))
        );
        assert!(inbox.take(2, 0).is_none());
        assert_eq!(inbox.into_left().count(), 0);
    }

    #[test]
    fn take_drains_the_channel_when_the_mailbox_misses() {
        let rect = Rect::sized(&[1]);
        let (tx, rx) = channel();
        // Ranks 1 and 4 live on worker 1 of 3; arrivals come out of order,
        // and one is for a slot no receive takes.
        let mut inbox = Inbox::new(rx, 3, [1, 3]);
        for (to, ordinal, tag) in [(4, 1, 11), (1, 0, 10), (4, 2, 12), (4, 0, 13)] {
            let p = Packet {
                to,
                ordinal,
                from: 0,
                tag,
                alloc: &rect,
                data: &[],
            };
            tx.send(p).unwrap();
        }
        assert_eq!(inbox.take(1, 0).map(|p| p.tag), Some(10));
        assert_eq!(inbox.take(4, 2).map(|p| p.tag), Some(12));
        assert_eq!(inbox.take(4, 1).map(|p| p.tag), Some(11));
        drop(tx);
        assert!(matches!(
            inbox.park(Duration::from_millis(1)),
            Err(SpmdError::Timeout(_))
        ));
        let left: Vec<u64> = inbox.into_left().map(|p| p.tag).collect();
        assert_eq!(left, [13]);
    }
}
