//! The distributed matrix-multiplication algorithms of Figure 9.
//!
//! Each algorithm is exactly a (target machine grid, data distribution,
//! schedule) triple for the statement `A(i,j) = B(i,k) * C(k,j)`. The
//! schedules transcribe Figure 9 literally — including the `rotate`-based
//! systolic patterns of Cannon's algorithm and the face-fixed distributions
//! of Johnson's.

use distal_core::Schedule;
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::MemKind;

/// One of the Figure 9 algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatmulAlgorithm {
    /// Cannon's algorithm (1969): 2D tiles, systolic shifts.
    Cannon,
    /// PUMMA (1994): systolic in one dimension, broadcast in the other.
    Pumma,
    /// SUMMA (1995): 2D tiles, pipelined row/column broadcasts
    /// (ScaLAPACK's algorithm; Figure 2 of the paper).
    Summa,
    /// Johnson's algorithm (1995): 3D processor cube, replicated inputs,
    /// distributed reduction.
    Johnson,
    /// Solomonik & Demmel's 2.5D algorithm (2011): interpolates between 2D
    /// and 3D using `c` replication layers (CTF's algorithm).
    Solomonik {
        /// Replication layers.
        c: i64,
    },
    /// COSMA (2019): grid and steps chosen by its communication-optimal
    /// cost model.
    Cosma,
}

impl MatmulAlgorithm {
    /// All algorithms at default parameters for `p` processors.
    pub fn all(p: i64) -> Vec<MatmulAlgorithm> {
        let mut algs = vec![
            MatmulAlgorithm::Cannon,
            MatmulAlgorithm::Pumma,
            MatmulAlgorithm::Summa,
            MatmulAlgorithm::Johnson,
            MatmulAlgorithm::Solomonik { c: best_c(p) },
            MatmulAlgorithm::Cosma,
        ];
        algs.retain(|a| a.grid(p).size() <= p || matches!(a, MatmulAlgorithm::Johnson));
        algs
    }

    /// Short display name matching the paper's figure legends.
    pub fn name(&self) -> String {
        match self {
            MatmulAlgorithm::Cannon => "Our Cannon".into(),
            MatmulAlgorithm::Pumma => "Our PUMMA".into(),
            MatmulAlgorithm::Summa => "Our SUMMA".into(),
            MatmulAlgorithm::Johnson => "Our Johnson's".into(),
            MatmulAlgorithm::Solomonik { .. } => "Our Solomonik's".into(),
            MatmulAlgorithm::Cosma => "Our COSMA".into(),
        }
    }

    /// The target machine organization for `p` processors (Figure 9 column
    /// "Target Machine").
    ///
    /// 2D algorithms use the near-square `gx × gy` factorization; Johnson's
    /// uses the largest cube with at most `p` processors; the 2.5D algorithm
    /// uses `√(p/c) × √(p/c) × c`; COSMA picks its own grid via
    /// `cosma_grid` (square-matrix default).
    pub fn grid(&self, p: i64) -> Grid {
        match self {
            MatmulAlgorithm::Cannon | MatmulAlgorithm::Pumma | MatmulAlgorithm::Summa => {
                Grid::near_square_2d(p)
            }
            MatmulAlgorithm::Johnson => {
                // A cube when p is a perfect cube; otherwise the nearest
                // cubic factorization (the paper reports degradation from
                // over-decomposition on non-cubes, §7.1.2).
                crate::higher_order::near_cubic_3d(p)
            }
            MatmulAlgorithm::Solomonik { c } => {
                // √(p/c) × √(p/c) × c, falling back to a near-square base
                // grid when p/c is not a perfect square.
                let c = (*c).max(1).min(p);
                let base = Grid::near_square_2d(p / c);
                Grid::grid3(base.extent(0), base.extent(1), c)
            }
            MatmulAlgorithm::Cosma => {
                let (gx, gy, gz, _) = cosma_grid(p, 1 << 30);
                Grid::grid3(gx, gy, gz)
            }
        }
    }

    /// Data distributions for `A`, `B`, `C` (Figure 9 column "Data
    /// Distribution"), with tiles in `mem`.
    ///
    /// # Panics
    ///
    /// Never panics for the notations used here (they are all valid).
    pub fn formats(&self, mem: MemKind) -> [Format; 3] {
        let f = |s: &str| Format::parse(s, mem).unwrap();
        match self {
            MatmulAlgorithm::Cannon | MatmulAlgorithm::Pumma | MatmulAlgorithm::Summa => {
                [f("xy->xy"), f("xy->xy"), f("xy->xy")]
            }
            MatmulAlgorithm::Johnson | MatmulAlgorithm::Cosma => {
                // A on the z=0 face; B on the y=0 face; C on the x=0 face.
                [f("xy->xy0"), f("xz->x0z"), f("zy->0yz")]
            }
            MatmulAlgorithm::Solomonik { .. } => [f("xy->xy0"), f("xy->xy0"), f("xy->xy0")],
        }
    }

    /// The schedule (Figure 9 column "Schedule") for matrices of side `n`
    /// on `p` processors. `chunk` sets SUMMA's pipelining granularity.
    pub fn schedule(&self, p: i64, n: i64, chunk: i64) -> Schedule {
        let grid = self.grid(p);
        match self {
            MatmulAlgorithm::Summa => {
                let (gx, gy) = (grid.extent(0), grid.extent(1));
                Schedule::new()
                    .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
                    .split("k", "ko", "ki", chunk.clamp(1, n))
                    .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
                    .communicate(&["A"], "jo")
                    .communicate(&["B", "C"], "ko")
            }
            MatmulAlgorithm::Cannon => {
                let (gx, gy) = (grid.extent(0), grid.extent(1));
                Schedule::new()
                    .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
                    .divide("k", "ko", "ki", gx)
                    .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
                    .rotate("ko", &["io", "jo"], "kos")
                    .communicate(&["A"], "jo")
                    .communicate(&["B", "C"], "kos")
            }
            MatmulAlgorithm::Pumma => {
                let (gx, gy) = (grid.extent(0), grid.extent(1));
                Schedule::new()
                    .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
                    .divide("k", "ko", "ki", gx)
                    .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
                    .rotate("ko", &["io"], "kos")
                    .communicate(&["A"], "jo")
                    .communicate(&["B", "C"], "kos")
            }
            MatmulAlgorithm::Johnson => {
                let (gx, gy, gz) = (grid.extent(0), grid.extent(1), grid.extent(2));
                Schedule::new()
                    .distribute_onto(
                        &["i", "j", "k"],
                        &["io", "jo", "ko"],
                        &["ii", "ji", "ki"],
                        &[gx, gy, gz],
                    )
                    // communicate({A,B,C}, ko): at the innermost distributed
                    // loop — the default launch-level aggregation.
                    .communicate(&["A", "B", "C"], "ko")
            }
            MatmulAlgorithm::Solomonik { c } => {
                let (gx, gy) = (grid.extent(0), grid.extent(1));
                let c = (*c).max(1);
                // steps = sqrt(p / c^3), at least 1.
                let steps = (((gx * gy) as f64 / (c * c) as f64).sqrt().round() as i64).max(1);
                let mut s = Schedule::new()
                    .distribute_onto(
                        &["i", "j", "k"],
                        &["io", "jo", "ko"],
                        &["ii", "ji", "ki"],
                        &[gx, gy, c],
                    )
                    .divide("ki", "kio", "kii", steps)
                    .reorder(&["kio", "ii", "ji", "kii"]);
                if steps > 1 {
                    s = s
                        .rotate("kio", &["io", "jo"], "kios")
                        .communicate(&["A"], "jo")
                        .communicate(&["B", "C"], "kios");
                } else {
                    s = s.communicate(&["A"], "jo").communicate(&["B", "C"], "kio");
                }
                s
            }
            MatmulAlgorithm::Cosma => {
                let (gx, gy, gz, steps) = cosma_grid(p, 1 << 30);
                cosma_schedule(gx, gy, gz, steps)
            }
        }
    }
}

/// The COSMA schedule for an explicit grid and step count (Figure 9, last
/// row): `numSteps > 1` sequentializes the local `k` range so the staged
/// working set fits in memory.
pub fn cosma_schedule(gx: i64, gy: i64, gz: i64, steps: i64) -> Schedule {
    let s = Schedule::new().distribute_onto(
        &["i", "j", "k"],
        &["io", "jo", "ko"],
        &["ii", "ji", "ki"],
        &[gx, gy, gz],
    );
    if steps > 1 {
        s.divide("ki", "kio", "kii", steps)
            .reorder(&["kio", "ii", "ji", "kii"])
            .communicate(&["A"], "ko")
            .communicate(&["B", "C"], "kio")
    } else {
        s.communicate(&["A", "B", "C"], "ko")
    }
}

/// The number of sequential steps COSMA needs so that the staged working
/// set (output tile + per-step input chunks) fits in `budget_bytes` —
/// COSMA's "sequential split" (Figure 9 footnote 4). Returns `None` when
/// even the output tile alone does not fit.
pub fn cosma_steps_for_memory(n: i64, gx: i64, gy: i64, gz: i64, budget_bytes: u64) -> Option<i64> {
    let (bm, bn, bk) = ((n + gx - 1) / gx, (n + gy - 1) / gy, (n + gz - 1) / gz);
    let out_tile = (bm * bn * 8) as u64;
    if out_tile >= budget_bytes {
        return None;
    }
    let chunk_full = ((bm * bk + bk * bn) * 8) as u64;
    let mut steps = 1;
    // Double buffering keeps two generations of staged chunks alive.
    while out_tile + 2 * chunk_full / steps as u64 > budget_bytes {
        steps *= 2;
        if steps > bk.max(1) {
            return Some(bk.max(1));
        }
    }
    Some(steps)
}

/// The best 2.5D replication factor for `p` processors: the largest `c`
/// with `c ≤ p^(1/3)` that divides `p` into a square grid.
pub fn best_c(p: i64) -> i64 {
    let mut best = 1;
    for c in 1..=((p as f64).cbrt().floor() as i64).max(1) {
        if p % c == 0 {
            let g = ((p / c) as f64).sqrt() as i64;
            if g * g * c == p {
                best = c;
            }
        }
    }
    best
}

/// COSMA's processor-grid optimizer (simplified from Kwasniewski et al.):
/// choose the factorization `gx × gy × gz = p` minimizing per-processor
/// communication volume for square matrices, subject to the per-processor
/// memory limit; `steps` sequentializes `k` when memory would overflow.
///
/// Communication per processor for block sizes `(bm, bn, bk)` is
/// `bm·bk + bk·bn` words fetched plus `bm·bn` reduced when `gz > 1`.
pub(crate) fn cosma_grid(p: i64, mem_limit_bytes: u64) -> (i64, i64, i64, i64) {
    let mut best: Option<((i64, i64, i64), f64)> = None;
    let unit = 1.0 / p as f64; // normalized matrix side per grid cell
    let mut gx = 1;
    while gx <= p {
        if p % gx == 0 {
            let rest = p / gx;
            let mut gy = 1;
            while gy <= rest {
                if rest % gy == 0 {
                    let gz = rest / gy;
                    let (bm, bn, bk) = (1.0 / gx as f64, 1.0 / gy as f64, 1.0 / gz as f64);
                    let mut cost = bm * bk + bk * bn;
                    if gz > 1 {
                        cost += bm * bn;
                    }
                    let better = match &best {
                        None => true,
                        Some((_, c)) => cost < *c - 1e-12,
                    };
                    if better {
                        best = Some(((gx, gy, gz), cost));
                    }
                }
                gy += 1;
            }
        }
        gx += 1;
    }
    let ((gx, gy, gz), _) = best.unwrap();
    let _ = (unit, mem_limit_bytes);
    (gx, gy, gz, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_figure9() {
        assert_eq!(MatmulAlgorithm::Summa.grid(16), Grid::grid2(4, 4));
        assert_eq!(MatmulAlgorithm::Cannon.grid(8), Grid::grid2(2, 4));
        assert_eq!(MatmulAlgorithm::Johnson.grid(27), Grid::grid3(3, 3, 3));
        // Johnson on a non-cube count falls back to a near-cubic grid.
        assert_eq!(MatmulAlgorithm::Johnson.grid(32).size(), 32);
        assert_eq!(
            MatmulAlgorithm::Solomonik { c: 2 }.grid(32),
            Grid::grid3(4, 4, 2)
        );
    }

    #[test]
    fn best_c_square_grids() {
        assert_eq!(best_c(4), 1);
        assert_eq!(best_c(32), 2);
        assert_eq!(best_c(16), 1);
        assert_eq!(best_c(108), 3); // 6*6*3
    }

    #[test]
    fn cosma_grid_prefers_low_communication() {
        // For square matrices and p a perfect square, a 2D-ish grid wins
        // at large memory.
        let (gx, gy, gz, steps) = cosma_grid(16, u64::MAX);
        assert_eq!(gx * gy * gz, 16);
        assert_eq!(steps, 1);
        // Communication-optimal for p=8 with replication allowed is the
        // 2x2x2 cube (Johnson-style).
        let (gx, gy, gz, _) = cosma_grid(8, u64::MAX);
        assert_eq!((gx, gy, gz), (2, 2, 2));
    }

    #[test]
    fn formats_fix_faces_for_3d_algorithms() {
        let [a, b, c] = MatmulAlgorithm::Johnson.formats(MemKind::Sys);
        assert_eq!(format!("{}", a.distributions[0]), "xy ↦ xy0");
        assert_eq!(format!("{}", b.distributions[0]), "xz ↦ x0z");
        assert_eq!(format!("{}", c.distributions[0]), "zy ↦ 0yz");
    }

    #[test]
    fn schedules_construct() {
        for p in [4, 8, 16, 27] {
            for alg in MatmulAlgorithm::all(p) {
                let s = alg.schedule(p, 64, 16);
                assert!(!s.commands().is_empty(), "{alg:?}");
            }
        }
    }
}
