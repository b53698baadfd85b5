//! Abstract machine grids (paper §3.1).
//!
//! DISTAL models a machine as a multidimensional grid of abstract processors.
//! The grid exposes locality and matches the grid-like structure of tensor
//! algebra computations. Grids may be *hierarchical* to model heterogeneous
//! nodes: a grid of nodes where each node is itself a grid of GPUs.

use crate::geom::{Point, Rect};
use std::fmt;

/// A multidimensional grid of abstract processors.
///
/// # Example
///
/// ```
/// use distal_machine::grid::Grid;
/// let g = Grid::new(vec![2, 3]);
/// assert_eq!(g.size(), 6);
/// assert_eq!(g.dim(), 2);
/// assert_eq!(g.linearize(&[1, 2].to_vec().into()), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Grid {
    dims: Vec<i64>,
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Grid {
    /// Creates a grid with the given per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is not positive or the grid is 0-dimensional.
    pub fn new(dims: Vec<i64>) -> Self {
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "grid dimensions must be positive"
        );
        Grid { dims }
    }

    /// A 1-D grid.
    pub fn line(n: i64) -> Self {
        Grid::new(vec![n])
    }

    /// A 2-D grid.
    pub fn grid2(x: i64, y: i64) -> Self {
        Grid::new(vec![x, y])
    }

    /// A 3-D grid.
    pub fn grid3(x: i64, y: i64, z: i64) -> Self {
        Grid::new(vec![x, y, z])
    }

    /// Number of grid dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Size of dimension `d`.
    pub fn extent(&self, d: usize) -> i64 {
        self.dims[d]
    }

    /// All dimension sizes.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Hop distance between two points with every dimension wrapping
    /// around, as on a torus (a systolic shift from the last column back
    /// to the first is one hop).
    pub fn torus_distance(&self, a: &Point, b: &Point) -> i64 {
        let hops = |d| (a[d] - b[d]).abs().min(self.dims[d] - (a[d] - b[d]).abs());
        (0..self.dim()).map(hops).sum()
    }

    /// Total number of abstract processors.
    pub fn size(&self) -> i64 {
        self.dims.iter().product()
    }

    /// The grid as a rectangle `[0, dims[d]-1]`.
    pub(crate) fn rect(&self) -> Rect {
        Rect::sized(&self.dims)
    }

    /// Iterates over all processor coordinates in lexicographic order.
    pub fn points(&self) -> impl Iterator<Item = Point> {
        self.rect().points()
    }

    /// Row-major rank of a processor coordinate.
    pub fn linearize(&self, p: &Point) -> i64 {
        self.rect().linearize(p) as i64
    }

    /// Inverse of [`Grid::linearize`].
    pub fn delinearize(&self, rank: i64) -> Point {
        self.rect().delinearize(rank)
    }

    /// Chooses a near-square 2-D factorization of `p` processors, mimicking
    /// how ScaLAPACK and the paper's experiments pick `gx × gy` grids: the
    /// factor pair closest to `sqrt(p)` with `gx ≤ gy`.
    pub fn near_square_2d(p: i64) -> Grid {
        assert!(p > 0);
        let mut best = (1, p);
        let mut f = 1;
        while f * f <= p {
            if p % f == 0 {
                best = (f, p / f);
            }
            f += 1;
        }
        Grid::grid2(best.0, best.1)
    }
}

/// A hierarchical machine: a stack of grids where each processor of level
/// `l` is refined into a full copy of the grid at level `l + 1`.
///
/// The paper (§3.1) uses a two-level hierarchy to model Lassen: nodes in a
/// multidimensional grid, each node a grid of four GPUs.
///
/// # Example
///
/// ```
/// use distal_machine::grid::{Grid, MachineHierarchy};
/// let h = MachineHierarchy::new(vec![Grid::new(vec![2, 2]), Grid::new(vec![4])]);
/// assert_eq!(h.total_processors(), 16);
/// assert_eq!(h.levels().len(), 2);
/// // Flattened coordinate (node-x, node-y, gpu) -> global rank.
/// let rank = h.flat_grid().linearize(&vec![1, 0, 3].into());
/// assert_eq!(rank, 1 * 2 * 4 + 0 * 4 + 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineHierarchy {
    levels: Vec<Grid>,
}

impl MachineHierarchy {
    /// Creates a hierarchy from outermost to innermost grid.
    ///
    /// # Panics
    ///
    /// Panics when `levels` is empty.
    pub fn new(levels: Vec<Grid>) -> Self {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        MachineHierarchy { levels }
    }

    /// A single-level (flat) machine.
    pub fn flat(grid: Grid) -> Self {
        MachineHierarchy::new(vec![grid])
    }

    /// The grids, outermost first.
    pub fn levels(&self) -> &[Grid] {
        &self.levels
    }

    /// Total number of leaf processors.
    pub fn total_processors(&self) -> i64 {
        self.levels.iter().map(Grid::size).product()
    }

    /// Dimensionality of a fully-flattened coordinate (sum of level dims).
    pub fn flat_dim(&self) -> usize {
        self.levels.iter().map(Grid::dim).sum()
    }

    /// The flattened machine as one grid whose dims are the concatenation of
    /// all level dims.
    pub fn flat_grid(&self) -> Grid {
        let dims = self
            .levels
            .iter()
            .flat_map(|g| g.dims().iter().copied())
            .collect();
        Grid::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_distance_wraps() {
        let g = Grid::grid2(4, 4);
        let a = Point::new(vec![0, 0]);
        let b = Point::new(vec![0, 3]);
        assert_eq!(g.torus_distance(&a, &b), 1); // wraps around
        let c = Point::new(vec![2, 2]);
        assert_eq!(g.torus_distance(&a, &c), 4);
        assert_eq!(g.torus_distance(&a, &a), 0);
    }

    #[test]
    fn grid_basics() {
        let g = Grid::grid2(2, 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.dim(), 2);
        assert_eq!(g.extent(1), 3);
        assert_eq!(g.points().count(), 6);
        assert_eq!(format!("{g}"), "Grid(2x3)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn grid_rejects_zero_dim() {
        Grid::new(vec![2, 0]);
    }

    #[test]
    fn grid_linearize_roundtrip() {
        let g = Grid::grid3(2, 3, 4);
        for (rank, p) in g.points().enumerate() {
            assert_eq!(g.linearize(&p), rank as i64);
            assert_eq!(g.delinearize(rank as i64), p);
        }
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(Grid::near_square_2d(16), Grid::grid2(4, 4));
        assert_eq!(Grid::near_square_2d(8), Grid::grid2(2, 4));
        assert_eq!(Grid::near_square_2d(7), Grid::grid2(1, 7));
        assert_eq!(Grid::near_square_2d(1), Grid::grid2(1, 1));
        assert_eq!(Grid::near_square_2d(12), Grid::grid2(3, 4));
    }

    #[test]
    fn hierarchy_flatten() {
        let h = MachineHierarchy::new(vec![Grid::grid2(2, 2), Grid::line(4)]);
        assert_eq!(h.total_processors(), 16);
        assert_eq!(h.flat_dim(), 3);
        let p = Point::new(vec![1, 1, 2]);
        assert_eq!(h.flat_grid().linearize(&p), (2 + 1) * 4 + 2);
    }
}
