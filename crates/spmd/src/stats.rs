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

use crate::lower::torus_distance;
use crate::ops::Message;
use distal_machine::grid::Grid;
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
    /// Builds statistics from a message list, each message charged its
    /// flat dense payload ([`Message::bytes`]).
    pub fn from_messages(grid: &Grid, ranks: usize, messages: &[&Message]) -> Self {
        let weighted: Vec<(&Message, u64)> = messages.iter().map(|m| (*m, m.bytes())).collect();
        CommStats::from_weighted(grid, ranks, &weighted)
    }

    /// Builds statistics from messages with explicit per-message wire
    /// bytes — how compressed (CSR-payload) tensors are accounted, where
    /// the rectangle's dense volume overstates the wire size.
    pub fn from_weighted(grid: &Grid, ranks: usize, messages: &[(&Message, u64)]) -> Self {
        let mut s = CommStats {
            matrix: vec![vec![0; ranks]; ranks],
            ..CommStats::default()
        };
        for (m, bytes) in messages {
            let bytes = *bytes;
            s.messages += 1;
            s.bytes += bytes;
            s.matrix[m.from][m.to] += bytes;
            let d = torus_distance(
                grid,
                &grid.delinearize(m.from as i64),
                &grid.delinearize(m.to as i64),
            );
            *s.bytes_by_distance.entry(d).or_insert(0) += bytes;
            *s.bytes_by_tensor.entry(m.tensor.clone()).or_insert(0) += bytes;
        }
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

    /// Per-rank sent bytes (row sums of the matrix).
    pub fn sent_by_rank(&self) -> Vec<u64> {
        self.matrix.iter().map(|row| row.iter().sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Rect;

    fn msg(tag: u64, from: usize, to: usize, vol: i64) -> Message {
        Message {
            tag,
            from,
            to,
            tensor: "B".into(),
            rect: Rect::sized(&[vol]),
        }
    }

    #[test]
    fn aggregates() {
        let grid = Grid::grid2(2, 2);
        let m0 = msg(0, 0, 1, 4); // distance 1
        let m1 = msg(1, 0, 3, 2); // distance 2
        let s = CommStats::from_messages(&grid, 4, &[&m0, &m1]);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 48);
        assert_eq!(s.matrix[0][1], 32);
        assert_eq!(s.bytes_by_distance[&1], 32);
        assert_eq!(s.bytes_by_distance[&2], 16);
        assert_eq!(s.max_distance(), 2);
        assert!((s.neighbor_fraction() - 32.0 / 48.0).abs() < 1e-12);
        assert_eq!(s.sent_by_rank(), vec![48, 0, 0, 0]);
        assert_eq!(s.bytes_by_tensor["B"], 48);
    }

    #[test]
    fn silent_program_is_vacuously_systolic() {
        let s = CommStats::from_messages(&Grid::line(2), 2, &[]);
        assert_eq!(s.neighbor_fraction(), 1.0);
        assert_eq!(s.max_distance(), 0);
    }
}
