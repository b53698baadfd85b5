//! Sweep infrastructure: data series, figures, and table rendering.

use std::fmt::Write as _;

/// One measured point of a weak-scaling series.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SamplePoint {
    /// A successful measurement.
    Value(f64),
    /// The configuration ran out of memory (reported like the paper's
    /// truncated Johnson/COSMA GPU lines).
    Oom,
    /// The configuration was skipped (e.g. CTF has no GPU backend).
    Skipped,
}

impl SamplePoint {
    /// The value, if measured.
    pub(crate) fn value(&self) -> Option<f64> {
        match self {
            SamplePoint::Value(v) => Some(*v),
            _ => None,
        }
    }
}

/// A named series over node counts.
#[derive(Clone, Debug)]
pub(crate) struct Series {
    /// Legend name.
    pub name: String,
    /// `(nodes, sample)` pairs.
    pub points: Vec<(usize, SamplePoint)>,
}

impl Series {
    /// Creates an empty series.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measurement.
    pub(crate) fn push(&mut self, nodes: usize, sample: SamplePoint) {
        self.points.push((nodes, sample));
    }

    /// Value at a node count.
    pub(crate) fn at(&self, nodes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(n, _)| *n == nodes)
            .and_then(|(_, s)| s.value())
    }
}

/// A figure: titled collection of series over shared node counts.
#[derive(Clone, Debug)]
pub(crate) struct FigureData {
    /// Figure title (e.g. "Figure 15a: CPU weak-scaling GEMM").
    pub title: String,
    /// Y-axis label (e.g. "GFLOP/s per node").
    pub ylabel: String,
    /// Node counts swept.
    pub nodes: Vec<usize>,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub(crate) fn new(
        title: impl Into<String>,
        ylabel: impl Into<String>,
        nodes: Vec<usize>,
    ) -> Self {
        FigureData {
            title: title.into(),
            ylabel: ylabel.into(),
            nodes,
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub(crate) fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// A series by name.
    pub(crate) fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the figure as an aligned text table (the "same rows/series
    /// the paper reports").
    pub(crate) fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# {} per node vs nodes", self.ylabel);
        let name_w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(8)
            .max("series".len());
        let _ = write!(out, "{:<name_w$}", "series");
        for n in &self.nodes {
            let _ = write!(out, " {:>9}", n);
        }
        let _ = writeln!(out);
        for s in &self.series {
            let _ = write!(out, "{:<name_w$}", s.name);
            for n in &self.nodes {
                let cell = match s.points.iter().find(|(pn, _)| pn == n) {
                    Some((_, SamplePoint::Value(v))) => format!("{v:>9.1}"),
                    Some((_, SamplePoint::Oom)) => format!("{:>9}", "OOM"),
                    Some((_, SamplePoint::Skipped)) | None => format!("{:>9}", "-"),
                };
                let _ = write!(out, " {cell}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Weak-scaling problem side for 2-D data (matrices): memory per node
/// constant ⇒ `n ∝ √nodes`.
pub(crate) fn weak_scale_2d(base_n: i64, nodes: usize) -> i64 {
    ((base_n as f64) * (nodes as f64).sqrt()).round() as i64
}

/// Weak-scaling problem side for 3-D data (3-tensors): `n ∝ ∛nodes`.
pub(crate) fn weak_scale_3d(base_n: i64, nodes: usize) -> i64 {
    ((base_n as f64) * (nodes as f64).cbrt()).round() as i64
}

/// The node counts of the paper's scaling studies.
pub(crate) fn paper_node_counts(max: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|n| *n <= max)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut f = FigureData::new("t", "GFLOP/s", vec![1, 2]);
        let mut s = Series::new("Ours");
        s.push(1, SamplePoint::Value(100.0));
        s.push(2, SamplePoint::Oom);
        f.push(s);
        let t = f.to_table();
        assert!(t.contains("Ours"));
        assert!(t.contains("100.0"));
        assert!(t.contains("OOM"));
    }

    #[test]
    fn weak_scaling_sizes() {
        assert_eq!(weak_scale_2d(8192, 1), 8192);
        assert_eq!(weak_scale_2d(8192, 4), 16384);
        assert_eq!(weak_scale_3d(1000, 8), 2000);
        assert_eq!(paper_node_counts(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("x");
        s.push(4, SamplePoint::Value(2.0));
        assert_eq!(s.at(4), Some(2.0));
        assert_eq!(s.at(8), None);
    }
}
