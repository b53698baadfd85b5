//! Semantics of tensor distribution notation (paper §3.2).
//!
//! A statement `T X ↦ Y M` maps each coordinate of `T` to a non-empty set
//! of machine coordinates, as the composition of:
//!
//! * `P : T → color` — the abstract blocked partitioning function: a color
//!   is a point in the partitioned (`p = X ∩ Y`) dimensions of `M`, and
//!   contiguous, equal-sized ranges of tensor coordinates share a color;
//! * `F : color → M set` — expands a color to full machine coordinates by
//!   setting fixed dimensions to their constant and enumerating broadcast
//!   dimensions.

use crate::notation::{DimName, TensorDistribution};
use distal_machine::geom::{Point, Rect, MAX_DIM};
use distal_machine::grid::{Grid, MachineHierarchy};

impl TensorDistribution {
    /// `P`: the color of a tensor coordinate — a point in the partitioned
    /// machine dimensions, in machine-dimension order.
    ///
    /// All partitioning kinds share one formula: with block width `b`
    /// ([`crate::notation::PartitionKind::block_width`]), coordinate `x`
    /// lies in block `⌊(x - lo) / b⌋` and colors to `block mod parts`. For
    /// the blocked kind the quotient is already below `parts`, so the
    /// modulus is the identity and this reduces to the paper's contiguous
    /// coloring.
    ///
    /// # Panics
    ///
    /// Panics when the point or machine dimensionality disagrees with the
    /// notation.
    pub fn color_of(&self, tensor_rect: &Rect, machine: &Grid, coord: &Point) -> Point {
        assert_eq!(coord.dim(), self.tensor_dim());
        assert_eq!(machine.dim(), self.machine_dim());
        let mut color = Vec::new();
        for (ti, mi) in self.partitioned_pairs() {
            let extent = tensor_rect.extent(ti);
            let parts = machine.extent(mi);
            let block = self.partition.block_width(extent, parts);
            color.push(((coord[ti] - tensor_rect.lo()[ti]) / block).rem_euclid(parts));
        }
        Point::new(color)
    }

    /// `F`: expands a color to the set of machine coordinates holding it.
    ///
    /// # Panics
    ///
    /// Panics when the color's dimensionality doesn't match the number of
    /// partitioned dimensions.
    pub(crate) fn expand_color(&self, machine: &Grid, color: &Point) -> Vec<Point> {
        let pairs = self.partitioned_pairs();
        assert_eq!(color.dim(), pairs.len());
        let mut dims: Vec<Vec<i64>> = Vec::with_capacity(machine.dim());
        for (mi, name) in self.machine_dims.iter().enumerate() {
            match name {
                DimName::Var(_) => {
                    let idx = pairs.iter().position(|(_, m)| *m == mi).unwrap();
                    dims.push(vec![color[idx]]);
                }
                DimName::Const(c) => dims.push(vec![*c]),
                DimName::Broadcast => dims.push((0..machine.extent(mi)).collect()),
            }
        }
        // Cartesian product.
        let mut out = vec![Vec::new()];
        for choices in dims {
            let mut next = Vec::with_capacity(out.len() * choices.len());
            for prefix in &out {
                for &c in &choices {
                    let mut p = prefix.clone();
                    p.push(c);
                    next.push(p);
                }
            }
            out = next;
        }
        out.into_iter().map(Point::new).collect()
    }

    /// The machine coordinates owning a tensor coordinate: `F(P(coord))`.
    pub fn owners_of(&self, tensor_rect: &Rect, machine: &Grid, coord: &Point) -> Vec<Point> {
        let color = self.color_of(tensor_rect, machine, coord);
        self.expand_color(machine, &color)
    }

    /// The per-dimension index segments `proc` owns in tensor dimension
    /// `ti`, partitioned `parts` ways: blocks `j ≡ q (mod parts)` of width
    /// `b`, clipped to the dimension's extent.
    fn segments(
        &self,
        tensor_rect: &Rect,
        ti: usize,
        parts: i64,
        q: i64,
    ) -> impl Iterator<Item = (i64, i64)> + Clone {
        let lo = tensor_rect.lo()[ti];
        let extent = tensor_rect.extent(ti);
        let b = self.partition.block_width(extent, parts);
        let blocks = distal_machine::geom::div_ceil(extent, b);
        let segment = move |j: i64| (lo + j * b, (lo + (j + 1) * b - 1).min(lo + extent - 1));
        let blocks = (q..blocks).step_by(parts as usize).map(segment);
        blocks.filter(|(s_lo, s_hi)| s_lo <= s_hi)
    }

    /// The set of sub-rectangles of the tensor held by machine coordinate
    /// `proc`; empty when the processor holds nothing (e.g. off a fixed
    /// face).
    ///
    /// Partitioned tensor dimensions take their blocks; unpartitioned
    /// tensor dimensions span their full extent (Figure 5b/5f). For blocked
    /// partitions this is at most one rectangle (the tile); for cyclic and
    /// block-cyclic partitions it is the Cartesian product of the stripes
    /// owned in each partitioned dimension.
    ///
    /// # Panics
    ///
    /// Panics when dimensionalities disagree with the notation.
    pub fn pieces_of(&self, tensor_rect: &Rect, machine: &Grid, proc: &Point) -> Vec<Rect> {
        let mut out = Vec::new();
        self.pieces_into(tensor_rect, machine, proc, &mut out);
        out
    }

    /// [`TensorDistribution::pieces_of`], appended to `out`.
    fn pieces_into(&self, tensor_rect: &Rect, machine: &Grid, proc: &Point, out: &mut Vec<Rect>) {
        assert_eq!(proc.dim(), self.machine_dim());
        assert_eq!(tensor_rect.dim(), self.tensor_dim());
        if tensor_rect.is_empty() {
            return;
        }
        for (mi, name) in self.machine_dims.iter().enumerate() {
            if let DimName::Const(c) = name {
                if proc[mi] != *c {
                    return;
                }
            }
        }
        // Per tensor dimension, the machine dimension partitioning it, if
        // any (the last one naming it); an unpartitioned dimension keeps
        // its full extent.
        let mut partitioned = [None; MAX_DIM];
        for (ti, mi) in self.pairs() {
            partitioned[ti] = Some(mi);
        }
        // Cartesian product of the owned segments into rectangles, the
        // first dimension outermost: every segment lies inside the tensor,
        // so restricting the tensor to it is exact.
        let start = out.len();
        out.push(*tensor_rect);
        for (ti, mi) in partitioned.iter().enumerate() {
            let Some(mi) = *mi else { continue };
            let segs = self.segments(tensor_rect, ti, machine.extent(mi), proc[mi]);
            let prefixes = start..out.len();
            for k in prefixes.clone() {
                let rect = out[k];
                out.extend(segs.clone().map(|(lo, hi)| rect.restrict(ti, lo, hi)));
            }
            out.drain(prefixes);
        }
        // Keep the non-empty pieces, in order.
        let mut kept = start;
        for i in start..out.len() {
            if !out[i].is_empty() {
                out.swap(kept, i);
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// All `(processor, piece)` pairs with non-empty pieces — the placement
    /// map a compiler materializes (broadcast dimensions replicate pieces;
    /// cyclic partitions yield several pieces per processor).
    pub fn placement(&self, tensor_rect: &Rect, machine: &Grid) -> Vec<(Point, Rect)> {
        let mut out = Vec::new();
        for proc in machine.points() {
            for piece in self.pieces_of(tensor_rect, machine, &proc) {
                out.push((proc, piece));
            }
        }
        out
    }
}

/// The pieces of a *hierarchical* distribution (paper §3.2 "Hierarchy"):
/// one distribution per machine level, and level `l+1` redistributes each
/// piece that level `l` assigned, so cyclic levels fan each piece out into
/// stripes.
///
/// `proc` is the flattened machine coordinate (all levels concatenated).
///
/// # Panics
///
/// Panics when the number of distributions differs from the number of
/// machine levels, or dimensionalities disagree.
pub fn hierarchical_pieces(
    distributions: &[TensorDistribution],
    tensor_rect: &Rect,
    machine: &MachineHierarchy,
    proc: &Point,
) -> Vec<Rect> {
    assert_eq!(distributions.len(), machine.levels().len());
    assert_eq!(proc.dim(), machine.flat_dim());
    let (mut pieces, mut next) = (Vec::new(), Vec::new());
    let mut at = 0;
    for (l, (dist, level)) in distributions.iter().zip(machine.levels()).enumerate() {
        // This level's part of the flattened coordinate.
        let coord = Point::from_slice(&proc.coords()[at..at + level.dim()]);
        // The first level distributes the whole tensor.
        let parents = match l {
            0 => std::slice::from_ref(tensor_rect),
            _ => &pieces[..],
        };
        at += level.dim();
        next.clear();
        for piece in parents {
            dist.pieces_into(piece, level, &coord, &mut next);
        }
        if next.is_empty() {
            return next;
        }
        std::mem::swap(&mut pieces, &mut next);
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[i64]) -> Point {
        Point::from_slice(coords)
    }

    /// The one piece a blocked distribution gives `proc` (empty when it
    /// holds nothing).
    fn held(d: &TensorDistribution, t: &Rect, m: &Grid, proc: &Point) -> Rect {
        let pieces = d.pieces_of(t, m, proc);
        assert!(pieces.len() <= 1, "{pieces:?}");
        pieces
            .first()
            .copied()
            .unwrap_or_else(|| Rect::empty(t.dim()))
    }

    #[test]
    fn blocked_vector_figure5a() {
        // 100 elements over 10 processors: 10 components each.
        let d = TensorDistribution::parse("x->x").unwrap();
        let t = Rect::sized(&[100]);
        let m = Grid::line(10);
        for p in 0..10 {
            let tile = held(&d, &t, &m, &pt(&[p]));
            assert_eq!(tile.volume(), 10);
            assert_eq!(tile.lo()[0], p * 10);
        }
        assert_eq!(d.owners_of(&t, &m, &pt(&[37])), vec![pt(&[3])]);
    }

    #[test]
    fn row_and_column_distributions_figure5b() {
        let t = Rect::sized(&[8, 6]);
        let m = Grid::line(4);
        let rows = TensorDistribution::parse("xy->x").unwrap();
        let tile = held(&rows, &t, &m, &pt(&[2]));
        // Rows 4-5, all columns.
        assert_eq!(tile.lo().coords(), &[4, 0]);
        assert_eq!(tile.hi().coords(), &[5, 5]);
        let cols = TensorDistribution::parse("xy->y").unwrap();
        let tile = held(&cols, &t, &m, &pt(&[2]));
        // All rows, columns 3-4 (ceil(6/4) = 2).
        assert_eq!(tile.lo().coords(), &[0, 4]);
        assert_eq!(tile.hi().coords(), &[7, 5]);
    }

    #[test]
    fn tiled_distribution_figure5c() {
        let t = Rect::sized(&[4, 4]);
        let m = Grid::grid2(2, 2);
        let d = TensorDistribution::parse("xy->xy").unwrap();
        let tile = held(&d, &t, &m, &pt(&[1, 0]));
        assert_eq!(tile.lo().coords(), &[2, 0]);
        assert_eq!(tile.hi().coords(), &[3, 1]);
        // Every coordinate has exactly one owner.
        for c in t.points() {
            assert_eq!(d.owners_of(&t, &m, &c).len(), 1);
        }
    }

    #[test]
    fn fixed_face_figure5d() {
        let t = Rect::sized(&[4, 4]);
        let m = Grid::grid3(2, 2, 2);
        let d = TensorDistribution::parse("xy->xy0").unwrap();
        // Processors on face z=0 hold tiles; z=1 hold nothing.
        assert!(!held(&d, &t, &m, &pt(&[0, 1, 0])).is_empty());
        assert!(held(&d, &t, &m, &pt(&[0, 1, 1])).is_empty());
        assert_eq!(d.placement(&t, &m).len(), 4);
    }

    #[test]
    fn broadcast_figure5e_matches_paper_running_example() {
        // T is 2x2, M is 2x2x2: the paper spells out P and F exactly.
        let t = Rect::sized(&[2, 2]);
        let m = Grid::grid3(2, 2, 2);
        let d = TensorDistribution::parse("xy->xy*").unwrap();
        // P maps each coordinate to its own color.
        for c in t.points() {
            let color = d.color_of(&t, &m, &c);
            assert_eq!(color, c);
        }
        // F expands each color across the third dimension.
        let owners = d.owners_of(&t, &m, &pt(&[1, 0]));
        assert_eq!(owners, vec![pt(&[1, 0, 0]), pt(&[1, 0, 1])]);
        // Every processor holds a tile (replication).
        assert_eq!(d.placement(&t, &m).len(), 8);
    }

    #[test]
    fn three_tensor_onto_2d_grid_figure5f() {
        let t = Rect::sized(&[4, 4, 4]);
        let m = Grid::grid2(2, 2);
        let d = TensorDistribution::parse("xyz->xy").unwrap();
        let tile = held(&d, &t, &m, &pt(&[1, 1]));
        // z spans its full extent.
        assert_eq!(tile.lo().coords(), &[2, 2, 0]);
        assert_eq!(tile.hi().coords(), &[3, 3, 3]);
    }

    #[test]
    fn hierarchical_two_level_tiling() {
        // Nodes in 2x2 grid, 4 GPUs per node: tile at node level, then
        // row-partition each node tile across GPUs (§3.2 "Hierarchy").
        let t = Rect::sized(&[8, 8]);
        let m = MachineHierarchy::new(vec![Grid::grid2(2, 2), Grid::line(4)]);
        let dists = vec![
            TensorDistribution::parse("xy->xy").unwrap(),
            TensorDistribution::parse("xy->x").unwrap(),
        ];
        // Node (1,0), GPU 2: node tile rows 4-7 cols 0-3; GPU 2 gets row 6.
        let tile = hierarchical_pieces(&dists, &t, &m, &pt(&[1, 0, 2]));
        assert_eq!(tile, vec![Rect::new(pt(&[6, 0]), pt(&[6, 3]))]);
        // Tiles across all leaf processors partition the tensor.
        let total: i64 = m
            .flat_grid()
            .points()
            .map(|p| hierarchical_pieces(&dists, &t, &m, &p)[0].volume())
            .sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn uneven_extents_cover_everything() {
        let t = Rect::sized(&[7, 5]);
        let m = Grid::grid2(2, 3);
        let d = TensorDistribution::parse("xy->xy").unwrap();
        let total: i64 = m.points().map(|p| held(&d, &t, &m, &p).volume()).sum();
        assert_eq!(total, 35);
        for c in t.points() {
            assert_eq!(d.owners_of(&t, &m, &c).len(), 1);
        }
    }

    #[test]
    fn cyclic_vector_round_robin() {
        // 10 elements dealt cyclically to 2 processors: proc 0 owns the
        // evens, proc 1 the odds.
        let d = TensorDistribution::parse("x->x @cyclic").unwrap();
        let t = Rect::sized(&[10]);
        let m = Grid::line(2);
        for x in 0..10 {
            let owners = d.owners_of(&t, &m, &pt(&[x]));
            assert_eq!(owners, vec![pt(&[x % 2])]);
        }
        let pieces = d.pieces_of(&t, &m, &pt(&[0]));
        assert_eq!(pieces.len(), 5);
        assert!(pieces.iter().all(|p| p.volume() == 1));
        assert_eq!(pieces[2].lo().coords(), &[4]);
    }

    #[test]
    fn block_cyclic_matches_scalapack_layout() {
        // ScaLAPACK's canonical example: N=9, NB=2, P=2 processes.
        // Blocks: [0,1] [2,3] [4,5] [6,7] [8] dealt 0,1,0,1,0.
        let d = TensorDistribution::parse("x->x @bc2").unwrap();
        let t = Rect::sized(&[9]);
        let m = Grid::line(2);
        let p0: Vec<(i64, i64)> = d
            .pieces_of(&t, &m, &pt(&[0]))
            .iter()
            .map(|r| (r.lo()[0], r.hi()[0]))
            .collect();
        assert_eq!(p0, vec![(0, 1), (4, 5), (8, 8)]);
        let p1: Vec<(i64, i64)> = d
            .pieces_of(&t, &m, &pt(&[1]))
            .iter()
            .map(|r| (r.lo()[0], r.hi()[0]))
            .collect();
        assert_eq!(p1, vec![(2, 3), (6, 7)]);
    }

    #[test]
    fn cyclic_pieces_partition_exactly() {
        // 2-D block-cyclic over a 2x3 grid: every coordinate owned exactly
        // once, pieces disjoint, total volume preserved.
        for kind in ["@cyclic", "@bc2", "@bc3"] {
            let d = TensorDistribution::parse(&format!("xy->xy {kind}")).unwrap();
            let t = Rect::sized(&[7, 8]);
            let m = Grid::grid2(2, 3);
            let mut total = 0;
            for p in m.points() {
                for piece in d.pieces_of(&t, &m, &p) {
                    total += piece.volume();
                    for c in piece.points() {
                        assert_eq!(d.owners_of(&t, &m, &c), vec![p], "{kind}");
                    }
                }
            }
            assert_eq!(total, 56, "{kind}");
        }
    }

    #[test]
    fn cyclic_balances_triangular_load() {
        // The motivating use: for a lower-triangular access pattern the
        // blocked row partition gives the last processor ~3x the work of
        // the first; the cyclic partition is near-balanced.
        let t = Rect::sized(&[64, 64]);
        let m = Grid::line(4);
        let tri_work = |pieces: &[Rect]| -> i64 {
            pieces
                .iter()
                .flat_map(|r| r.points())
                .filter(|c| c[1] <= c[0])
                .count() as i64
        };
        let blocked = TensorDistribution::parse("xy->x").unwrap();
        let cyclic = TensorDistribution::parse("xy->x @cyclic").unwrap();
        let b: Vec<i64> = m
            .points()
            .map(|p| tri_work(&blocked.pieces_of(&t, &m, &p)))
            .collect();
        let c: Vec<i64> = m
            .points()
            .map(|p| tri_work(&cyclic.pieces_of(&t, &m, &p)))
            .collect();
        let imbalance =
            |v: &[i64]| *v.iter().max().unwrap() as f64 / *v.iter().min().unwrap() as f64;
        assert!(imbalance(&b) > 5.0, "blocked {b:?}");
        assert!(imbalance(&c) < 1.1, "cyclic {c:?}");
    }

    #[test]
    fn cyclic_with_broadcast_and_fixed() {
        // Cyclic partitioning composes with fixing/broadcasting unchanged:
        // F is untouched; only P changes.
        let d = TensorDistribution::parse("xy->xy* @cyclic").unwrap();
        let t = Rect::sized(&[4, 4]);
        let m = Grid::grid3(2, 2, 2);
        let owners = d.owners_of(&t, &m, &pt(&[1, 2]));
        assert_eq!(owners, vec![pt(&[1, 0, 0]), pt(&[1, 0, 1])]);
        let fixed = TensorDistribution::parse("xy->xy0 @cyclic").unwrap();
        assert!(fixed.pieces_of(&t, &m, &pt(&[0, 0, 1])).is_empty());
        assert!(!fixed.pieces_of(&t, &m, &pt(&[0, 0, 0])).is_empty());
    }

    #[test]
    fn hierarchical_pieces_mixed_kinds() {
        // Blocked tiles at the node level; cyclic rows inside each node.
        let t = Rect::sized(&[8, 8]);
        let m = MachineHierarchy::new(vec![Grid::grid2(2, 2), Grid::line(2)]);
        let dists = vec![
            TensorDistribution::parse("xy->xy").unwrap(),
            TensorDistribution::parse("xy->x @cyclic").unwrap(),
        ];
        // Node (0,0) holds rows 0-3, cols 0-3; GPU 1 gets rows 1 and 3.
        let pieces = hierarchical_pieces(&dists, &t, &m, &pt(&[0, 0, 1]));
        let rows: Vec<i64> = pieces.iter().map(|r| r.lo()[0]).collect();
        assert_eq!(rows, vec![1, 3]);
        assert!(pieces.iter().all(|r| r.lo()[1] == 0 && r.hi()[1] == 3));
        // All leaf pieces tile the tensor exactly.
        let total: i64 = m
            .flat_grid()
            .points()
            .map(|p| {
                hierarchical_pieces(&dists, &t, &m, &p)
                    .iter()
                    .map(Rect::volume)
                    .sum::<i64>()
            })
            .sum();
        assert_eq!(total, 64);
    }
}
