//! The rank virtual machine: executes SPMD programs with real numerics.
//!
//! Each rank owns a store of rectangular buffers:
//!
//! * *home* buffers — the tensor pieces the rank's data distribution
//!   assigns it, filled from the global inputs before execution ("data at
//!   rest": placement is free in the SPMD model);
//! * *scratch* generations — received payloads, valid until retired by
//!   [`SpmdOp::RetireScratch`](crate::ops::SpmdOp::RetireScratch) (newest
//!   generation searched first, which is what makes systolic forwarding
//!   read the freshly shifted tile rather than a stale one);
//! * an *accumulator* for locally computed output contributions, folded
//!   into home pieces (locally or through reduce messages) at the end.
//!
//! Data moves in and out of the store a rectangle at a time, as in the
//! paper's runtime (§6), never a point at a time: seeding, message
//! payloads, the operand tiles of a leaf, reduction folds and the final
//! output assembly are all strided row copies through
//! [`distal_machine::geom::copy_rect`]. [`RankStore::gather`] resolves
//! *which* buffer supplies each part of a rectangle — newest scratch
//! generation first, then home — once per buffer instead of once per
//! element.
//!
//! The store is transport-agnostic: the sequential VM mutates one
//! `RankStore` per rank inside a single loop, while the threaded
//! transport ([`crate::transport`]) gives each rank thread exclusive
//! ownership of its store — either way the same op vocabulary drives the
//! same buffer semantics, which is the root of the transports'
//! bit-parity guarantee.

use distal_machine::geom::{copy_rect, Rect};
use distal_machine::ELEM_BYTES;
use distal_runtime::pool;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;

/// A rectangular buffer: `rect` in tensor space, row-major `data`.
#[derive(Clone, Debug)]
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

/// Adds `values` (row-major over `rect`) into every buffer of `bufs`
/// where it overlaps `rect`.
fn fold_into(bufs: &mut [Buf], rect: &Rect, values: &[f64]) {
    for buf in bufs {
        let part = rect.intersection(&buf.rect);
        copy_rect(rect, values, &buf.rect, &mut buf.data, &part, true);
    }
}

/// One rank's buffers.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankStore {
    home: BTreeMap<String, Vec<Buf>>,
    scratch: BTreeMap<String, VecDeque<Vec<Buf>>>,
    acc: Vec<Buf>,
}

impl RankStore {
    /// Installs a home buffer for `tensor`.
    pub(crate) fn add_home(&mut self, tensor: &str, buf: Buf) {
        self.home.entry(tensor.to_string()).or_default().push(buf);
    }

    /// The home buffers of `tensor`.
    pub(crate) fn home(&self, tensor: &str) -> &[Buf] {
        self.home.get(tensor).map_or(&[], Vec::as_slice)
    }

    /// Pushes a received buffer into the current scratch generation.
    pub(crate) fn receive(&mut self, tensor: &str, buf: Buf) {
        match self.scratch.get_mut(tensor) {
            Some(gens) => match gens.front_mut() {
                Some(newest) => newest.push(buf),
                None => gens.push_front(vec![buf]),
            },
            None => {
                let gens = VecDeque::from([vec![buf]]);
                self.scratch.insert(tensor.to_string(), gens);
            }
        }
    }

    /// Retires scratch: keeps the newest `keep` generations of every tensor
    /// and opens a fresh accumulating generation.
    pub(crate) fn retire_scratch(&mut self, keep: usize) {
        for gens in self.scratch.values_mut() {
            let retired = gens.drain(keep.min(gens.len())..);
            pool::give_all(retired.flatten().map(|b| b.data));
            gens.push_front(Vec::new());
        }
    }

    /// Total bytes of live scratch (for the memory-bound assertions).
    pub(crate) fn scratch_bytes(&self) -> u64 {
        self.scratch
            .values()
            .flat_map(|gens| gens.iter().flatten())
            .map(|b| b.data.len() as u64 * ELEM_BYTES)
            .sum()
    }

    /// The buffers holding `tensor`, in read priority order: newest
    /// scratch generation first, then home pieces.
    fn bufs<'a>(&'a self, tensor: &str) -> impl Iterator<Item = &'a Buf> {
        let scratch = self.scratch.get(tensor).into_iter().flatten().flatten();
        scratch.chain(self.home(tensor))
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
        self.gather_into(tensor, rect, rect, out)
    }

    /// [`RankStore::gather`] into a buffer laid out over the larger
    /// `dst_alloc` — assembling a tensor from its pieces in place.
    ///
    /// # Errors
    ///
    /// As [`RankStore::gather`].
    pub(crate) fn gather_into(
        &self,
        tensor: &str,
        rect: &Rect,
        dst_alloc: &Rect,
        dst: &mut [f64],
    ) -> Result<(), Rect> {
        gather_from(self.bufs(tensor), rect, dst_alloc, dst)
    }

    /// `rect` of `tensor` as a borrowed row-major slice, when
    /// [`RankStore::gather`] would copy all of it out of one contiguous
    /// run of one buffer: the first buffer in priority order that overlaps
    /// `rect` contains it, and `rect` spans that buffer in every dimension
    /// but the outermost. `None` otherwise — the caller gathers.
    pub(crate) fn slab(&self, tensor: &str, rect: &Rect) -> Option<&[f64]> {
        let buf = self.bufs(tensor).find(|b| b.rect.overlaps(rect))?;
        let spans_inner = (1..rect.dim())
            .all(|d| rect.lo()[d] == buf.rect.lo()[d] && rect.hi()[d] == buf.rect.hi()[d]);
        if rect.dim() == 0 || !buf.rect.contains_rect(rect) || !spans_inner {
            return None;
        }
        let start = buf.rect.linearize(rect.lo());
        Some(&buf.data[start..start + rect.volume() as usize])
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

    /// The accumulator buffer covering `rect`, created on first use.
    pub(crate) fn acc_buf(&mut self, rect: &Rect) -> &mut Buf {
        if let Some(i) = self.acc.iter().position(|b| b.rect.contains_rect(rect)) {
            return &mut self.acc[i];
        }
        self.acc.push(Buf::zeros(rect.clone()));
        self.acc.last_mut().expect("just pushed")
    }

    /// Moves the accumulator buffers out (the final local fold consumes
    /// them).
    pub(crate) fn take_acc(&mut self) -> Vec<Buf> {
        std::mem::take(&mut self.acc)
    }

    /// Folds `values` over `rect` into the home buffers of `tensor`
    /// (elementwise add); points outside every home piece are ignored.
    pub(crate) fn fold_into_home(&mut self, tensor: &str, rect: &Rect, values: &[f64]) {
        if let Some(home) = self.home.get_mut(tensor) {
            fold_into(home, rect, values);
        }
    }

    /// Folds an incoming output payload: points covered by a home piece
    /// fold there (the rank is a gather/reduce root for them); the rest
    /// fold into the accumulator, so a relay of a reduce tree carries the
    /// partial onward in its own next `ReduceSend`.
    pub(crate) fn fold_output(&mut self, tensor: &str, rect: &Rect, values: &[f64]) {
        let home = self
            .home
            .get_mut(tensor)
            .map_or(&mut [][..], Vec::as_mut_slice);
        fold_into(home, rect, values);
        let relayed = claim(home.iter(), vec![rect.clone()], |_, _| {});
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
}

impl Drop for RankStore {
    /// Every buffer goes back to the pool the next run takes them from.
    fn drop(&mut self) {
        let home = std::mem::take(&mut self.home).into_values().flatten();
        let scratch = std::mem::take(&mut self.scratch).into_values();
        let acc = std::mem::take(&mut self.acc);
        pool::give_all(
            home.chain(scratch.flatten().flatten())
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

    /// One point of `tensor`, read from the first buffer in priority order
    /// that holds it — the per-point oracle of [`RankStore::gather`].
    fn lookup(s: &RankStore, tensor: &str, p: &Point) -> Option<f64> {
        s.bufs(tensor)
            .find(|b| b.rect.contains_point(p))
            .map(|b| b.data[b.rect.linearize(p)])
    }

    #[test]
    fn scratch_generations_newest_first() {
        let mut s = RankStore::default();
        let mut old = Buf::zeros(Rect::sized(&[2]));
        old.data = vec![1.0, 1.0];
        s.receive("B", old);
        s.retire_scratch(1);
        let mut new = Buf::zeros(Rect::sized(&[2]));
        new.data = vec![2.0, 2.0];
        s.receive("B", new);
        // Both generations alive; newest wins.
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(2.0));
        // After another retire with keep=1, the old generation is gone and
        // the newer one remains.
        s.retire_scratch(1);
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(2.0));
        s.retire_scratch(0);
        assert_eq!(lookup(&s, "B", &pt(&[0])), None);
    }

    #[test]
    fn slab_borrows_exactly_what_gather_would_copy() {
        let mut s = RankStore::default();
        let mut home = Buf::zeros(Rect::sized(&[4, 3]));
        home.data = (0..12).map(f64::from).collect();
        s.add_home("B", home);
        let rows = |lo: i64, hi: i64| Rect::new(pt(&[lo, 0]), pt(&[hi, 2]));
        // Whole rows of the home piece are one contiguous run of it.
        for rect in [rows(1, 2), rows(0, 3), rows(3, 3)] {
            let mut want = vec![0.0; rect.volume() as usize];
            s.gather("B", &rect, &mut want).unwrap();
            assert_eq!(s.slab("B", &rect), Some(&want[..]), "{rect:?}");
        }
        // Part of a row, a rectangle reaching outside, an unknown tensor.
        assert_eq!(s.slab("B", &Rect::new(pt(&[1, 1]), pt(&[2, 2]))), None);
        assert_eq!(s.slab("B", &Rect::new(pt(&[3, 0]), pt(&[4, 2]))), None);
        assert_eq!(s.slab("Z", &rows(0, 0)), None);
        // A newer scratch piece over some of the rows takes priority in
        // `gather`, so no single buffer supplies the rectangle any more...
        let mut recv = Buf::zeros(rows(2, 2));
        recv.data = vec![9.0; 3];
        s.receive("B", recv);
        assert_eq!(s.slab("B", &rows(1, 2)), None);
        // ...unless the scratch piece holds all of it.
        assert_eq!(s.slab("B", &rows(2, 2)), Some(&[9.0; 3][..]));
    }

    #[test]
    fn lookup_prefers_scratch_over_home() {
        let mut s = RankStore::default();
        let mut home = Buf::zeros(Rect::sized(&[4]));
        home.data = vec![5.0; 4];
        s.add_home("B", home);
        let mut recv = Buf::zeros(Rect::new(pt(&[1]), pt(&[2])));
        recv.data = vec![9.0, 9.0];
        s.receive("B", recv);
        assert_eq!(lookup(&s, "B", &pt(&[0])), Some(5.0));
        assert_eq!(lookup(&s, "B", &pt(&[1])), Some(9.0));
        assert_eq!(lookup(&s, "Z", &pt(&[0])), None);
    }

    fn buf(lo: &[i64], hi: &[i64], fill: f64) -> Buf {
        let mut b = Buf::zeros(Rect::new(pt(lo), pt(hi)));
        b.data.fill(fill);
        b
    }

    #[test]
    fn gather_reads_newer_scratch_over_older_scratch_over_home() {
        // Three overlapping layers of a 4x4 tensor: home everywhere (1),
        // an old scratch tile over rows 0..=2 (2), a newer one over
        // columns 2..=3 of rows 1..=3 (3).
        let mut s = RankStore::default();
        s.add_home("B", buf(&[0, 0], &[3, 3], 1.0));
        s.receive("B", buf(&[0, 0], &[2, 3], 2.0));
        s.retire_scratch(1);
        s.receive("B", buf(&[1, 2], &[3, 3], 3.0));
        let rect = Rect::sized(&[4, 4]);
        let mut got = vec![0.0; 16];
        assert_eq!(s.gather("B", &rect, &mut got), Ok(()));
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
        let sub = Rect::new(pt(&[2, 1]), pt(&[3, 2]));
        let mut got = vec![0.0; 4];
        assert_eq!(s.gather("B", &sub, &mut got), Ok(()));
        assert_eq!(got, [2.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn gather_names_the_uncovered_part() {
        let mut s = RankStore::default();
        s.add_home("B", buf(&[0, 0], &[1, 3], 1.0));
        let mut out = vec![0.0; 16];
        // Rows 2..=3 have no local copy; the covered rows still land.
        assert_eq!(
            s.gather("B", &Rect::sized(&[4, 4]), &mut out),
            Err(Rect::new(pt(&[2, 0]), pt(&[3, 3])))
        );
        assert_eq!(out[..8], [1.0; 8]);
        // Unknown tensors are uncovered everywhere; empty rects never are.
        let all = Rect::sized(&[4, 4]);
        assert_eq!(s.gather("Z", &all, &mut out), Err(all));
        assert_eq!(s.gather("Z", &Rect::empty(2), &mut []), Ok(()));
    }

    #[test]
    fn gather_acc_reads_the_first_accumulator_holding_a_point() {
        let mut s = RankStore::default();
        s.acc_buf(&Rect::new(pt(&[0]), pt(&[1]))).data.fill(4.0);
        s.acc_buf(&Rect::new(pt(&[1]), pt(&[3]))).data.fill(5.0);
        let mut out = vec![0.0; 4];
        assert_eq!(s.gather_acc(&Rect::sized(&[4]), &mut out), Ok(()));
        assert_eq!(out, [4.0, 4.0, 5.0, 5.0]);
        assert_eq!(
            s.gather_acc(&Rect::sized(&[6]), &mut [0.0; 6]),
            Err(Rect::new(pt(&[4]), pt(&[5])))
        );
    }

    #[test]
    fn fold_output_splits_between_home_and_accumulator() {
        // Home owns columns 0..=1; an accumulator already holds column 2.
        let mut s = RankStore::default();
        s.add_home("A", Buf::zeros(Rect::new(pt(&[0]), pt(&[1]))));
        s.acc_buf(&Rect::new(pt(&[2]), pt(&[2])));
        s.fold_output("A", &Rect::sized(&[4]), &[1.0, 2.0, 3.0, 4.0]);
        s.fold_output("A", &Rect::sized(&[4]), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.home("A")[0].data, [2.0, 4.0]);
        // Column 2 folds into the existing accumulator, column 3 into a
        // fresh one over the payload's rectangle, appended behind it.
        let mut relayed = vec![0.0; 2];
        let tail = Rect::new(pt(&[2]), pt(&[3]));
        assert_eq!(s.gather_acc(&tail, &mut relayed), Ok(()));
        assert_eq!(relayed, [6.0, 8.0]);
        let accs = s.take_acc();
        assert_eq!(accs.len(), 2);
        assert_eq!(accs[1].rect, Rect::sized(&[4]));
        assert_eq!(accs[1].data, [0.0, 0.0, 0.0, 8.0]);
    }

    #[test]
    fn fold_into_home_ignores_foreign_points() {
        let mut s = RankStore::default();
        s.add_home("A", Buf::zeros(Rect::new(pt(&[0]), pt(&[1]))));
        s.fold_into_home("A", &Rect::sized(&[4]), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(lookup(&s, "A", &pt(&[1])), Some(2.0));
        assert_eq!(lookup(&s, "A", &pt(&[3])), None);
    }

    #[test]
    fn scalar_rect_buffer() {
        // Order-0 tensors (innerprod's output) use dim-0 rects.
        let b = Buf::zeros(Rect::sized(&[]));
        assert_eq!(b.data.len(), 1);
    }
}
