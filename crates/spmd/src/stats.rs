//! Communication statistics of a static SPMD program.
//!
//! Because every transfer is explicit, the statistics here are exact
//! properties of the compiled program (no execution needed): who talks to
//! whom, how much, and over what grid distance. The distance histogram is
//! what distinguishes systolic schedules (all traffic at torus distance 1)
//! from broadcast schedules.
//!
//! Volume statistics are invariant under collective lowering
//! ([`crate::collective`]) — a tree or ring moves exactly the bytes of
//! the naive fan it replaces — so they deliberately cannot tell the
//! schedules apart. The *shape* differences (critical-path depth,
//! per-rank timeline, makespan) are reported alongside by the α-β model
//! in [`crate::cost`].

use crate::ops::Message;
use crate::program::SpmdProgram;
use distal_core::TensorId;
use std::collections::BTreeMap;

/// Aggregate communication statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Total messages.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// `matrix[from][to]` bytes.
    pub matrix: Vec<Vec<u64>>,
    /// Bytes by torus hop distance between source and destination.
    pub bytes_by_distance: BTreeMap<i64, u64>,
    /// Bytes by tensor.
    pub bytes_by_tensor: BTreeMap<String, u64>,
}

impl CommStats {
    /// Builds statistics from a message list of `program` (its grid, rank
    /// count, rectangles and tensor names), each message charged its flat
    /// dense payload ([`SpmdProgram::dense_bytes`]).
    pub fn from_messages(program: &SpmdProgram, messages: &[&Message]) -> Self {
        let dense = messages.iter().map(|&m| (m, program.dense_bytes(m)));
        CommStats::from_weighted(program, &dense.collect::<Vec<_>>())
    }

    /// Builds statistics from messages with explicit per-message wire
    /// bytes — how compressed (CSR-payload) tensors are accounted, where
    /// the rectangle's dense volume overstates the wire size. Bytes are
    /// summed per tensor id; each tensor is named once, at the end.
    pub(crate) fn from_weighted(program: &SpmdProgram, messages: &[(&Message, u64)]) -> Self {
        let (grid, ranks) = (&program.grid, program.ranks());
        let mut s = CommStats {
            matrix: vec![vec![0; ranks]; ranks],
            ..CommStats::default()
        };
        let mut by_tensor: BTreeMap<TensorId, u64> = BTreeMap::new();
        for (m, bytes) in messages {
            let bytes = *bytes;
            s.messages += 1;
            s.bytes += bytes;
            s.matrix[m.from as usize][m.to as usize] += bytes;
            let (from, to) = (m.from as i64, m.to as i64);
            let d = grid.torus_distance(&grid.delinearize(from), &grid.delinearize(to));
            *s.bytes_by_distance.entry(d).or_insert(0) += bytes;
            *by_tensor.entry(m.tensor).or_insert(0) += bytes;
        }
        let name = |(t, bytes): (TensorId, u64)| (program.tensor_name(t).into_owned(), bytes);
        s.bytes_by_tensor = by_tensor.into_iter().map(name).collect();
        s
    }

    /// The largest torus distance any byte travels (0 when silent).
    pub fn max_distance(&self) -> i64 {
        self.bytes_by_distance.keys().copied().max().unwrap_or(0)
    }

    /// Fraction of bytes travelling exactly one hop (1.0 when silent —
    /// vacuously systolic).
    pub fn neighbor_fraction(&self) -> f64 {
        if self.bytes == 0 {
            return 1.0;
        }
        let near = self.bytes_by_distance.get(&1).copied().unwrap_or(0);
        near as f64 / self.bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::tests::matmul_2x2;
    use distal_machine::geom::Rect;

    fn msg(program: &mut SpmdProgram, tag: u64, from: u32, to: u32, vol: i64) -> Message {
        Message {
            tag,
            from,
            to,
            tensor: TensorId(1),
            rect: program.intern(Rect::sized(&[vol])),
        }
    }

    #[test]
    fn aggregates() {
        let mut p = matmul_2x2();
        let m0 = msg(&mut p, 0, 0, 1, 4); // distance 1
        let m1 = msg(&mut p, 1, 0, 3, 2); // distance 2
        let s = CommStats::from_messages(&p, &[&m0, &m1]);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 48);
        assert_eq!(s.matrix[0][1], 32);
        assert_eq!(s.bytes_by_distance[&1], 32);
        assert_eq!(s.bytes_by_distance[&2], 16);
        assert_eq!(s.max_distance(), 2);
        assert!((s.neighbor_fraction() - 32.0 / 48.0).abs() < 1e-12);
        assert_eq!(s.bytes_by_tensor["B"], 48);
    }

    #[test]
    fn silent_program_is_vacuously_systolic() {
        let s = CommStats::from_messages(&matmul_2x2(), &[]);
        assert_eq!(s.neighbor_fraction(), 1.0);
        assert_eq!(s.max_distance(), 0);
    }
}
