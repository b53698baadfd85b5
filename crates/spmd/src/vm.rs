//! The rank virtual machine: executes SPMD programs with real numerics.
//!
//! Each rank works on a store of rectangular buffers:
//!
//! * *home* buffers — the input-tensor pieces the rank's data distribution
//!   assigns it, seeded from the caller's data once per binding ("data at
//!   rest": placement is free in the SPMD model) and only ever *read*
//!   afterwards: a [`RankStore`] borrows them from the [`Homes`] its
//!   binding holds, which is what lets one binding execute again and
//!   again without being seeded again;
//! * *scratch* generations — received payloads, valid until retired by
//!   [`SpmdOp::RetireScratch`](crate::ops::SpmdOp::RetireScratch) (newest
//!   generation searched first, which is what makes systolic forwarding
//!   read the freshly shifted tile rather than a stale one);
//! * an *accumulator* for locally computed output contributions;
//! * the output's own home pieces, each allocated by the first reduce or
//!   gather message folded into it — a piece only the rank itself
//!   contributes to never gets a buffer: its accumulator is written
//!   straight into the assembled output ([`RankStore::write_output`]).
//!
//! Data moves in and out of the store a rectangle at a time, as in the
//! paper's runtime (§6), never a point at a time — seeding, message
//! payloads, reduction folds and the final output assembly are all strided
//! row copies through [`distal_machine::geom::copy_rect`] — and a leaf's
//! operands do not move at all: [`Held::view`] lends the one buffer that
//! contains an operand's face where it lies, the kernel strides through
//! its allocation, and only a face spread over several buffers (cyclic
//! layouts, a scratch piece over part of a home piece) is gathered.
//! [`Held::gather`] resolves *which* buffer supplies each part of a
//! rectangle — newest scratch generation first, then home — once per
//! buffer instead of once per element.
//!
//! The store is transport-agnostic: the sequential VM mutates one
//! `RankStore` per rank inside a single loop, while the threaded
//! transport ([`crate::transport`]) gives each rank thread exclusive
//! ownership of its store — either way the same op vocabulary drives the
//! same buffer semantics, which is the root of the transports'
//! bit-parity guarantee.

use distal_machine::geom::{copy_rect, fill_rect, Rect};
use distal_machine::ELEM_BYTES;
use distal_runtime::pool;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;

/// A rectangular buffer: `rect` in tensor space, row-major `data`.
#[derive(Debug)]
pub(crate) struct Buf {
    /// The tensor-space rectangle this buffer covers.
    pub(crate) rect: Rect,
    /// Row-major values within `rect`.
    pub(crate) data: Vec<f64>,
}

impl Buf {
    /// A zero-filled buffer covering `rect`.
    pub(crate) fn zeros(rect: Rect) -> Self {
        let n = rect.volume().max(0) as usize;
        Buf {
            rect,
            data: pool::take_zeroed(n),
        }
    }

    /// A buffer covering `rect` with unspecified contents, for a caller
    /// about to overwrite all of it.
    pub(crate) fn stale(rect: Rect) -> Self {
        let n = rect.volume().max(0) as usize;
        Buf {
            rect,
            data: pool::take(n),
        }
    }
}

/// One rank's buffers of each tensor.
type Pieces = BTreeMap<String, Vec<Buf>>;

/// Every rank's home pieces of the input tensors: what a binding seeds
/// once and its executions borrow.
#[derive(Debug, Default)]
pub(crate) struct Homes(Vec<Pieces>);

impl Homes {
    /// No pieces yet, on `ranks` ranks.
    pub(crate) fn new(ranks: usize) -> Self {
        Homes((0..ranks).map(|_| Pieces::new()).collect())
    }

    /// Tiles `data` (row-major over `rect`) into `pieces[rank]` for every
    /// rank — the one copy of an input element between its caller and a
    /// leaf.
    pub(crate) fn seed(&mut self, tensor: &str, rect: &Rect, data: &[f64], pieces: &[Vec<Rect>]) {
        for (home, pieces) in self.0.iter_mut().zip(pieces) {
            let tiles = pieces.iter().map(|piece| {
                let mut buf = Buf::stale(piece.clone());
                copy_rect(rect, data, piece, &mut buf.data, piece, false);
                buf
            });
            home.entry(tensor.to_string()).or_default().extend(tiles);
        }
    }

    /// The tensors seeded so far.
    pub(crate) fn tensors(&self) -> impl Iterator<Item = &String> {
        self.0.first().into_iter().flat_map(Pieces::keys)
    }

    /// Whether `tensor` was seeded.
    pub(crate) fn holds(&self, tensor: &str) -> bool {
        self.tensors().any(|t| t == tensor)
    }

    /// `tensor` (shaped `rect`) put back together from its pieces; `None`
    /// when it was never seeded.
    pub(crate) fn assemble(&self, tensor: &str, rect: &Rect) -> Option<Vec<f64>> {
        self.holds(tensor).then(|| {
            let mut data = vec![0.0; rect.volume().max(1) as usize];
            for buf in self.0.iter().filter_map(|home| home.get(tensor)).flatten() {
                copy_rect(&buf.rect, &buf.data, rect, &mut data, &buf.rect, false);
            }
            data
        })
    }

    /// One rank's pieces.
    pub(crate) fn rank(&self, rank: usize) -> &Pieces {
        &self.0[rank]
    }
}

impl Drop for Homes {
    /// Every tile goes back to the pool the next binding takes them from.
    fn drop(&mut self) {
        let homes = std::mem::take(&mut self.0).into_iter();
        pool::give_all(
            homes
                .flat_map(Pieces::into_values)
                .flatten()
                .map(|b| b.data),
        );
    }
}

/// Walks `bufs` in priority order, handing `visit` each buffer together
/// with every part of `unclaimed` it covers that no earlier buffer
/// claimed — the rectangle-level form of "the first buffer containing the
/// point wins". Returns what no buffer claimed.
fn claim<B: Deref<Target = Buf>>(
    bufs: impl IntoIterator<Item = B>,
    mut unclaimed: Vec<Rect>,
    mut visit: impl FnMut(&mut B, &Rect),
) -> Vec<Rect> {
    unclaimed.retain(|r| !r.is_empty());
    for mut buf in bufs {
        if unclaimed.is_empty() {
            break;
        }
        let mut rest = Vec::new();
        for piece in unclaimed {
            let part = piece.intersection(&buf.rect);
            if part.is_empty() {
                rest.push(piece);
            } else {
                visit(&mut buf, &part);
                rest.extend(piece.difference(&buf.rect));
            }
        }
        unclaimed = rest;
    }
    unclaimed
}

/// Copies `rect` out of `bufs` (priority order) into `dst`, row-major over
/// `dst_alloc`; `Err` names the first part of `rect` no buffer holds.
fn gather_from<'a>(
    bufs: impl IntoIterator<Item = &'a Buf>,
    rect: &Rect,
    dst_alloc: &Rect,
    dst: &mut [f64],
) -> Result<(), Rect> {
    let missing = claim(bufs, vec![rect.clone()], |buf, part| {
        copy_rect(&buf.rect, &buf.data, dst_alloc, dst, part, false)
    });
    missing.into_iter().next().map_or(Ok(()), Err)
}

/// Everything a rank may read operands from — the part of a
/// [`RankStore`] a leaf borrows shared, beside the mutably borrowed
/// accumulator ([`RankStore::leaf_parts`]).
#[derive(Debug)]
pub(crate) struct Held<'h> {
    /// The rank's input home pieces, borrowed from its binding.
    home: &'h Pieces,
    scratch: BTreeMap<String, VecDeque<Vec<Buf>>>,
    out_tensor: &'h str,
    /// The buffers of the output's home pieces here that have one: each
    /// covers its piece exactly and starts from zero.
    out_home: Vec<Buf>,
}

impl Held<'_> {
    /// The buffers holding `tensor`, in read priority order: newest
    /// scratch generation first, then home pieces.
    fn bufs<'a>(&'a self, tensor: &str) -> impl Iterator<Item = &'a Buf> {
        let scratch = self.scratch.get(tensor).into_iter().flatten().flatten();
        let reads_output = tensor == self.out_tensor;
        let out_home = self.out_home.iter().filter(move |_| reads_output);
        scratch
            .chain(self.home.get(tensor).into_iter().flatten())
            .chain(out_home)
    }

    /// Copies `rect` of `tensor` into `out` (row-major over `rect`), every
    /// point from the first buffer in priority order that holds it: each
    /// buffer supplies its intersection with the part of `rect` still
    /// uncovered.
    ///
    /// # Errors
    ///
    /// The first uncovered rectangle, when the rank holds no valid copy of
    /// part of `rect`.
    pub(crate) fn gather(&self, tensor: &str, rect: &Rect, out: &mut [f64]) -> Result<(), Rect> {
        gather_from(self.bufs(tensor), rect, rect, out)
    }

    /// `rect` of `tensor` where it lies: `(alloc, data)` of the one buffer
    /// [`Held::gather`] would copy all of it from — the first buffer in
    /// priority order that overlaps `rect` contains it — for a reader that
    /// addresses `rect` through the row-major layout over `alloc`. `None`
    /// when that buffer holds only part of `rect` (or none holds any): the
    /// caller gathers.
    pub(crate) fn view(&self, tensor: &str, rect: &Rect) -> Option<(&Rect, &[f64])> {
        let buf = self.bufs(tensor).find(|b| b.rect.overlaps(rect))?;
        buf.rect
            .contains_rect(rect)
            .then_some((&buf.rect, &buf.data[..]))
    }
}

/// One rank's buffers.
#[derive(Debug)]
pub(crate) struct RankStore<'h> {
    held: Held<'h>,
    /// The rectangles of the output's home pieces here.
    out_pieces: &'h [Rect],
    acc: Vec<Buf>,
}

impl<'h> RankStore<'h> {
    /// The store of a rank holding `home` and owning `out_pieces` of
    /// `out_tensor`. `reads_output` is for a statement with its output on
    /// the right-hand side: every output piece then has its (zero) buffer
    /// from the start, for leaves to read.
    pub(crate) fn new(
        home: &'h Pieces,
        out_tensor: &'h str,
        out_pieces: &'h [Rect],
        reads_output: bool,
    ) -> Self {
        let eager = out_pieces.iter().filter(|_| reads_output);
        RankStore {
            held: Held {
                home,
                scratch: BTreeMap::new(),
                out_tensor,
                out_home: eager.map(|piece| Buf::zeros(piece.clone())).collect(),
            },
            out_pieces,
            acc: Vec::new(),
        }
    }

    /// Pushes a received buffer into the current scratch generation.
    pub(crate) fn receive(&mut self, tensor: &str, buf: Buf) {
        match self.held.scratch.get_mut(tensor) {
            Some(gens) => match gens.front_mut() {
                Some(newest) => newest.push(buf),
                None => gens.push_front(vec![buf]),
            },
            None => {
                let gens = VecDeque::from([vec![buf]]);
                self.held.scratch.insert(tensor.to_string(), gens);
            }
        }
    }

    /// Retires scratch: keeps the newest `keep` generations of every tensor
    /// and opens a fresh accumulating generation.
    pub(crate) fn retire_scratch(&mut self, keep: usize) {
        for gens in self.held.scratch.values_mut() {
            let retired = gens.drain(keep.min(gens.len())..);
            pool::give_all(retired.flatten().map(|b| b.data));
            gens.push_front(Vec::new());
        }
    }

    /// Total bytes of live scratch (for the memory-bound assertions).
    pub(crate) fn scratch_bytes(&self) -> u64 {
        self.held
            .scratch
            .values()
            .flat_map(|gens| gens.iter().flatten())
            .map(|b| b.data.len() as u64 * ELEM_BYTES)
            .sum()
    }

    /// What the rank may read operands from.
    pub(crate) fn held(&self) -> &Held<'h> {
        &self.held
    }

    /// What a leaf writing `out_rect` works on: the accumulator buffer
    /// covering it (created on first use), borrowed mutably, beside
    /// everything the rank may read.
    pub(crate) fn leaf_parts(&mut self, out_rect: &Rect) -> (&mut Buf, &Held<'h>) {
        let covering = self.acc.iter().position(|b| b.rect.contains_rect(out_rect));
        let i = covering.unwrap_or_else(|| {
            self.acc.push(Buf::zeros(out_rect.clone()));
            self.acc.len() - 1
        });
        (&mut self.acc[i], &self.held)
    }

    /// Copies `rect` of the output accumulator into `out` (row-major over
    /// `rect`); the first accumulator buffer holding a point supplies it.
    ///
    /// # Errors
    ///
    /// The first rectangle of `rect` nothing was accumulated for.
    pub(crate) fn gather_acc(&self, rect: &Rect, out: &mut [f64]) -> Result<(), Rect> {
        gather_from(&self.acc, rect, rect, out)
    }

    /// Folds an incoming output payload: points covered by a home piece
    /// fold there (the rank is a gather/reduce root for them), into the
    /// piece's buffer, which the first fold creates; the rest fold into
    /// the accumulator, so a relay of a reduce tree carries the partial
    /// onward in its own next `ReduceSend`.
    pub(crate) fn fold_output(&mut self, rect: &Rect, values: &[f64]) {
        let mut relayed = vec![rect.clone()];
        let out_home = &mut self.held.out_home;
        for piece in self.out_pieces.iter().filter(|piece| piece.overlaps(rect)) {
            let existing = out_home.iter().position(|b| b.rect == *piece);
            let i = existing.unwrap_or_else(|| {
                out_home.push(Buf::zeros(piece.clone()));
                out_home.len() - 1
            });
            let part = rect.intersection(piece);
            copy_rect(rect, values, piece, &mut out_home[i].data, &part, true);
            relayed = relayed.iter().flat_map(|r| r.difference(piece)).collect();
        }
        // Accumulator folds must hit the buffer `gather_acc` reads (the
        // first holding the point); what none holds gets a fresh buffer
        // over `rect`, appended last so existing entries keep priority.
        let fresh = claim(self.acc.iter_mut(), relayed, |buf, part| {
            copy_rect(rect, values, &buf.rect, &mut buf.data, part, true)
        });
        if !fresh.is_empty() {
            let mut buf = Buf::zeros(rect.clone());
            for part in &fresh {
                copy_rect(rect, values, rect, &mut buf.data, part, true);
            }
            self.acc.push(buf);
        }
    }

    /// Writes the rank's home pieces of the output into `output`
    /// (row-major over `out_alloc`), each the sum of what messages folded
    /// into it and of every local accumulator over it, in that order. A
    /// piece nothing was folded into that one accumulator covers — the
    /// rank computed all of it itself — is that accumulator, moved once.
    pub(crate) fn write_output(&self, out_alloc: &Rect, output: &mut [f64]) {
        for piece in self.out_pieces {
            let folded = self.held.out_home.iter().find(|b| b.rect == *piece);
            let mut local = self.acc.iter().filter(|acc| acc.rect.overlaps(piece));
            match (folded, local.next(), local.next()) {
                (None, Some(acc), None) if acc.rect.contains_rect(piece) => {
                    copy_rect(&acc.rect, &acc.data, out_alloc, output, piece, false);
                    continue;
                }
                (Some(home), ..) => {
                    copy_rect(&home.rect, &home.data, out_alloc, output, piece, false)
                }
                (None, ..) => fill_rect(out_alloc, output, piece, 0.0),
            }
            for acc in &self.acc {
                let part = acc.rect.intersection(piece);
                copy_rect(&acc.rect, &acc.data, out_alloc, output, &part, true);
            }
        }
    }
}

impl Drop for RankStore<'_> {
    /// Every buffer the run made goes back to the pool the next run takes
    /// them from.
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.held.scratch).into_values();
        let out_home = std::mem::take(&mut self.held.out_home);
        let acc = std::mem::take(&mut self.acc);
        pool::give_all(
            scratch
                .flatten()
                .flatten()
                .chain(out_home)
                .chain(acc)
                .map(|b| b.data),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Point;

    fn pt(c: &[i64]) -> Point {
        Point::new(c.to_vec())
    }

    fn span(lo: &[i64], hi: &[i64]) -> Rect {
        Rect::new(pt(lo), pt(hi))
    }

    fn buf(lo: &[i64], hi: &[i64], fill: f64) -> Buf {
        let mut b = Buf::zeros(span(lo, hi));
        b.data.fill(fill);
        b
    }

    /// One rank's input homes: `bufs` as the pieces of tensor "B".
    fn home_of(bufs: Vec<Buf>) -> Pieces {
        Pieces::from([("B".to_string(), bufs)])
    }

    /// A store over `home` that owns `out_pieces` of the output "A".
    fn store<'h>(home: &'h Pieces, out_pieces: &'h [Rect]) -> RankStore<'h> {
        RankStore::new(home, "A", out_pieces, false)
    }

    /// One point of `tensor`, read from the first buffer in priority order
    /// that holds it — the per-point oracle of [`Held::gather`].
    fn lookup(s: &RankStore<'_>, tensor: &str, p: &Point) -> Option<f64> {
        s.held()
            .bufs(tensor)
            .find(|b| b.rect.contains_point(p))
            .map(|b| b.data[b.rect.linearize(p)])
    }

    #[test]
    fn scratch_generations_newest_first() {
        let home = Pieces::new();
        let mut s = store(&home, &[]);
        s.receive("B", buf(&[0], &[1], 1.0));
        s.retire_scratch(1);
        s.receive("B", buf(&[0], &[1], 2.0));
        // Both generations alive; newest wins.
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(2.0));
        // After another retire with keep=1, the old generation is gone and
        // the newer one remains.
        s.retire_scratch(1);
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(2.0));
        s.retire_scratch(0);
        assert_eq!(lookup(&s, "B", &pt(&[0])), None);
    }

    /// xorshift64*, the generator the sibling suites use.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        /// A rectangle inside `0..extent` per dimension; one in eight is
        /// empty in some dimension, one in four 1-wide in some dimension.
        fn rect(&mut self, extents: &[i64]) -> Rect {
            let shape = self.below(8);
            let odd = self.below(extents.len() as u64) as usize;
            let (lo, hi) = extents
                .iter()
                .enumerate()
                .map(|(d, &n)| {
                    let lo = self.below(n as u64);
                    match (d == odd, shape) {
                        (true, 0) => (lo, lo - 1),
                        (true, 1 | 2) => (lo, lo),
                        _ => (lo, lo + self.below((n - lo) as u64)),
                    }
                })
                .unzip();
            Rect::new(Point::new(lo), Point::new(hi))
        }

        /// A buffer over [`Rng::rect`] holding values no other buffer of
        /// the case holds.
        fn buf(&mut self, extents: &[i64], serial: &mut f64) -> Buf {
            let mut buf = Buf::zeros(self.rect(extents));
            for v in &mut buf.data {
                *serial += 1.0;
                *v = *serial;
            }
            buf
        }
    }

    #[test]
    fn a_view_is_exactly_what_gather_would_copy() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut lent, mut refused_partial) = (0, 0);
        for case in 0..1024 {
            let dims = 1 + rng.below(3) as usize;
            let extents: Vec<i64> = (0..dims).map(|_| 1 + rng.below(7)).collect();
            let mut serial = 0.0;
            // Home pieces, then up to three scratch generations over them,
            // overlapping each other at random.
            let pieces = (0..1 + rng.below(3)).map(|_| rng.buf(&extents, &mut serial));
            let home = home_of(pieces.collect());
            let mut s = store(&home, &[]);
            for _ in 0..rng.below(4) {
                for _ in 0..rng.below(3) {
                    let received = rng.buf(&extents, &mut serial);
                    s.receive("B", received);
                }
                s.retire_scratch(3);
            }
            let held = s.held();
            for _ in 0..4 {
                // A face: random, or — so that containment is common —
                // inside one of the buffers.
                let bufs: Vec<&Buf> = held.bufs("B").collect();
                let face = match rng.below(2) {
                    0 => rng.rect(&extents),
                    _ => {
                        let inside = &bufs[rng.below(bufs.len() as u64) as usize].rect;
                        rng.rect(&extents).intersection(inside)
                    }
                };
                let first = bufs.iter().find(|b| b.rect.overlaps(&face));
                let Some((alloc, data)) = held.view("B", &face) else {
                    // Refused: no buffer overlaps the face, or the first
                    // that does holds only part of it.
                    assert!(
                        first.is_none_or(|b| !b.rect.contains_rect(&face)),
                        "case {case}: {face:?} lies inside {first:?}"
                    );
                    refused_partial += usize::from(first.is_some());
                    continue;
                };
                assert!(alloc.contains_rect(&face), "case {case}");
                assert!(std::ptr::eq(data, &first.expect("a lender").data[..]));
                let mut copied = vec![f64::NAN; face.volume() as usize];
                held.gather("B", &face, &mut copied)
                    .unwrap_or_else(|missing| panic!("case {case}: {missing:?} uncovered"));
                for (p, want) in face.points().zip(&copied) {
                    let got = data[alloc.linearize(&p)];
                    assert_eq!(got.to_bits(), want.to_bits(), "case {case}: {p}");
                }
                lent += 1;
            }
        }
        // The generator reaches both outcomes.
        assert!(
            lent >= 64 && refused_partial >= 64,
            "{lent} {refused_partial}"
        );
    }

    #[test]
    fn lookup_prefers_scratch_over_home() {
        let home = home_of(vec![buf(&[0], &[3], 5.0)]);
        let mut s = store(&home, &[]);
        s.receive("B", buf(&[1], &[2], 9.0));
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(5.0));
        assert_eq!(lookup(&s, "B", &pt(&[1])), Some(9.0));
        assert_eq!(lookup(&s, "Z", &pt(&[0])), None);
    }

    #[test]
    fn gather_reads_newer_scratch_over_older_scratch_over_home() {
        // Three overlapping layers of a 4x4 tensor: home everywhere (1),
        // an old scratch tile over rows 0..=2 (2), a newer one over
        // columns 2..=3 of rows 1..=3 (3).
        let home = home_of(vec![buf(&[0, 0], &[3, 3], 1.0)]);
        let mut s = store(&home, &[]);
        s.receive("B", buf(&[0, 0], &[2, 3], 2.0));
        s.retire_scratch(1);
        s.receive("B", buf(&[1, 2], &[3, 3], 3.0));
        let rect = Rect::sized(&[4, 4]);
        let mut got = vec![0.0; 16];
        assert_eq!(s.held().gather("B", &rect, &mut got), Ok(()));
        #[rustfmt::skip]
        assert_eq!(got, [
            2.0, 2.0, 2.0, 2.0,
            2.0, 2.0, 3.0, 3.0,
            2.0, 2.0, 3.0, 3.0,
            1.0, 1.0, 3.0, 3.0,
        ]);
        // Point for point what the oracle's lookup reads.
        for (i, p) in rect.points().enumerate() {
            assert_eq!(lookup(&s, "B", &p), Some(got[i]), "{p}");
        }
        // A sub-rectangle lands row-major over itself.
        let sub = span(&[2, 1], &[3, 2]);
        let mut got = vec![0.0; 4];
        assert_eq!(s.held().gather("B", &sub, &mut got), Ok(()));
        assert_eq!(got, [2.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn gather_names_the_uncovered_part() {
        let home = home_of(vec![buf(&[0, 0], &[1, 3], 1.0)]);
        let s = store(&home, &[]);
        let mut out = vec![0.0; 16];
        // Rows 2..=3 have no local copy; the covered rows still land.
        assert_eq!(
            s.held().gather("B", &Rect::sized(&[4, 4]), &mut out),
            Err(span(&[2, 0], &[3, 3]))
        );
        assert_eq!(out[..8], [1.0; 8]);
        // Unknown tensors are uncovered everywhere; empty rects never are.
        let all = Rect::sized(&[4, 4]);
        assert_eq!(s.held().gather("Z", &all, &mut out), Err(all));
        assert_eq!(s.held().gather("Z", &Rect::empty(2), &mut []), Ok(()));
    }

    #[test]
    fn gather_acc_reads_the_first_accumulator_holding_a_point() {
        let home = Pieces::new();
        let mut s = store(&home, &[]);
        s.leaf_parts(&span(&[0], &[1])).0.data.fill(4.0);
        s.leaf_parts(&span(&[1], &[3])).0.data.fill(5.0);
        let mut out = vec![0.0; 4];
        assert_eq!(s.gather_acc(&Rect::sized(&[4]), &mut out), Ok(()));
        assert_eq!(out, [4.0, 4.0, 5.0, 5.0]);
        assert_eq!(
            s.gather_acc(&Rect::sized(&[6]), &mut [0.0; 6]),
            Err(span(&[4], &[5]))
        );
    }

    #[test]
    fn fold_output_splits_between_home_and_accumulator() {
        // Home owns columns 0..=1; an accumulator already holds column 2.
        let (home, owned) = (Pieces::new(), [span(&[0], &[1])]);
        let mut s = store(&home, &owned);
        s.leaf_parts(&span(&[2], &[2]));
        s.fold_output(&Rect::sized(&[4]), &[1.0, 2.0, 3.0, 4.0]);
        s.fold_output(&Rect::sized(&[4]), &[1.0, 2.0, 3.0, 4.0]);
        // Column 2 folds into the existing accumulator, column 3 into a
        // fresh one over the payload's rectangle, appended behind it.
        let mut relayed = vec![0.0; 2];
        assert_eq!(s.gather_acc(&span(&[2], &[3]), &mut relayed), Ok(()));
        assert_eq!(relayed, [6.0, 8.0]);
        assert_eq!(s.acc.len(), 2);
        assert_eq!(s.acc[1].rect, Rect::sized(&[4]));
        assert_eq!(s.acc[1].data, [0.0, 0.0, 0.0, 8.0]);
        // The home piece holds what was folded into it, and only it
        // reaches the output: points outside every home piece do not.
        let mut output = vec![f64::NAN; 4];
        s.write_output(&Rect::sized(&[4]), &mut output);
        assert_eq!(output[..2], [2.0, 4.0]);
        assert!(output[2..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn write_output_moves_a_covering_accumulator_and_sums_everything_else() {
        let whole = Rect::sized(&[6]);
        let (home, owned) = (
            Pieces::new(),
            [span(&[0], &[1]), span(&[2], &[3]), span(&[4], &[5])],
        );
        let mut s = store(&home, &owned);
        // Piece 0: one accumulator wider than the piece, nothing folded.
        s.leaf_parts(&span(&[0], &[2]))
            .0
            .data
            .copy_from_slice(&[1.0, -0.0, 7.0]);
        // Piece 1: that accumulator, a second one and a folded message.
        s.leaf_parts(&span(&[3], &[3])).0.data.fill(10.0);
        s.fold_output(&span(&[2], &[3]), &[100.0, 200.0]);
        // Piece 2: nothing at all.
        let mut output = vec![f64::NAN; 6];
        s.write_output(&whole, &mut output);
        assert_eq!(output, [1.0, -0.0, 107.0, 210.0, 0.0, 0.0]);
        // Moved, not added to zero: the sign of a zero survives.
        assert_eq!(output[1].to_bits(), (-0.0f64).to_bits());
        // No buffer was made for the pieces no message reached.
        assert_eq!(s.held().out_home.len(), 1);
    }

    #[test]
    fn a_statement_reading_its_output_sees_zero_home_pieces() {
        let (home, owned) = (Pieces::new(), [span(&[0], &[1])]);
        let s = RankStore::new(&home, "A", &owned, true);
        let (alloc, data) = s
            .held()
            .view("A", &span(&[1], &[1]))
            .expect("the zero piece");
        assert_eq!((alloc, data), (&owned[0], &[0.0, 0.0][..]));
        assert!(store(&home, &owned).held().view("A", &owned[0]).is_none());
    }

    #[test]
    fn homes_tile_a_tensor_and_put_it_back_together() {
        let whole = Rect::sized(&[2, 4]);
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let left = span(&[0, 0], &[1, 1]);
        let pieces = [vec![left.clone()], vec![span(&[0, 2], &[1, 3])]];
        let mut homes = Homes::new(2);
        assert!(!homes.holds("B"));
        homes.seed("B", &whole, &data, &pieces);
        assert!(homes.holds("B") && !homes.holds("C"));
        assert_eq!(homes.rank(0)["B"][0].rect, left);
        assert_eq!(homes.rank(0)["B"][0].data, [0.0, 1.0, 4.0, 5.0]);
        assert_eq!(homes.rank(1)["B"][0].data, [2.0, 3.0, 6.0, 7.0]);
        assert_eq!(homes.assemble("B", &whole), Some(data));
        assert_eq!(homes.assemble("C", &whole), None);
    }

    #[test]
    fn scalar_rect_buffer() {
        // Order-0 tensors (innerprod's output) use dim-0 rects.
        let b = Buf::zeros(Rect::sized(&[]));
        assert_eq!(b.data.len(), 1);
    }
}
