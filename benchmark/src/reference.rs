//! The independent reference: naive dense and CSR evaluators written
//! against the benchmark's own input vectors. Nothing here touches the
//! product (`distal_core::oracle`, `SparseBuffer`, …), so a bug shared by
//! the compiler and its own oracle still fails verification.

/// Request outputs are checked at this many seeded positions.
pub const SAMPLE_POSITIONS: usize = 4096;

/// `A(i,j) = Σₖ B(i,k)·C(k,j)` at one output position, for row-major
/// `B: m×k` and `C: k×n`.
pub fn matmul_at(b: &[f64], c: &[f64], k: usize, n: usize, at: usize) -> f64 {
    let (i, j) = (at / n, at % n);
    (0..k).map(|kk| b[i * k + kk] * c[kk * n + j]).sum()
}

/// The whole naive product (O(m·k·n): hand-computed cases only).
#[cfg(test)]
pub fn matmul(b: &[f64], c: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    (0..m * n).map(|at| matmul_at(b, c, k, n, at)).collect()
}

/// Compressed sparse rows built from a dense row-major vector; an entry
/// is stored when its bit pattern is not `+0.0`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    pub pos: Vec<usize>,
    pub crd: Vec<usize>,
    pub vals: Vec<f64>,
}

impl Csr {
    pub fn from_dense(rows: usize, cols: usize, data: &[f64]) -> Csr {
        assert_eq!(data.len(), rows * cols);
        let mut csr = Csr {
            pos: Vec::with_capacity(rows + 1),
            crd: Vec::new(),
            vals: Vec::new(),
        };
        csr.pos.push(0);
        for row in data.chunks_exact(cols) {
            for (j, v) in row.iter().enumerate() {
                if v.to_bits() != 0 {
                    csr.crd.push(j);
                    csr.vals.push(*v);
                }
            }
            csr.pos.push(csr.vals.len());
        }
        csr
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `a(i) = Σⱼ B(i,j)·c(j)` for one row.
    pub fn spmv_at(&self, c: &[f64], row: usize) -> f64 {
        (self.pos[row]..self.pos[row + 1])
            .map(|p| self.vals[p] * c[self.crd[p]])
            .sum()
    }
}

/// Expected values at sampled output positions of one (key, input set).
#[derive(Clone, Debug)]
pub struct Samples {
    at: Vec<usize>,
    want: Vec<f64>,
}

impl Samples {
    pub fn new(at: Vec<usize>, want: impl Fn(usize) -> f64) -> Samples {
        let want = at.iter().map(|&p| want(p)).collect();
        Samples { at, want }
    }

    /// True when every sampled position of `got` is within
    /// `1e-9·(1+|want|)` of the reference.
    pub fn check(&self, got: &[f64]) -> bool {
        self.at.iter().zip(&self.want).all(|(&p, &w)| {
            got.get(p)
                .is_some_and(|g| (g - w).abs() <= 1e-9 * (1.0 + w.abs()))
        })
    }

    #[cfg(test)]
    pub fn positions(&self) -> &[usize] {
        &self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // B = [1 2 3; 4 5 6; 7 8 9], C = [9 8 7; 6 5 4; 3 2 1].
    const B: [f64; 9] = [1., 2., 3., 4., 5., 6., 7., 8., 9.];
    const C: [f64; 9] = [9., 8., 7., 6., 5., 4., 3., 2., 1.];

    #[test]
    fn dense_matmul_matches_hand_computed_3x3() {
        let want = [30., 24., 18., 84., 69., 54., 138., 114., 90.];
        assert_eq!(matmul(&B, &C, 3, 3, 3), want);
        assert_eq!(matmul_at(&B, &C, 3, 3, 5), 54.0);
    }

    #[test]
    fn csr_spmv_matches_hand_computed_3x3() {
        // [0 2 0; 0 0 0; 5 0 7] · [1 10 100] = [20 0 705]
        let dense = [0., 2., 0., 0., 0., 0., 5., 0., 7.];
        let csr = Csr::from_dense(3, 3, &dense);
        assert_eq!(csr.pos, [0, 1, 1, 3]);
        assert_eq!(csr.crd, [1, 0, 2]);
        assert_eq!(csr.nnz(), 3);
        let c = [1., 10., 100.];
        let got: Vec<f64> = (0..3).map(|r| csr.spmv_at(&c, r)).collect();
        assert_eq!(got, [20., 0., 705.]);
    }

    #[test]
    fn corrupting_one_sampled_element_fails_verification() {
        let out = matmul(&B, &C, 3, 3, 3);
        let samples = Samples::new(vec![0, 4, 8, 4], |at| matmul_at(&B, &C, 3, 3, at));
        assert!(samples.check(&out));
        let mut bad = out.clone();
        bad[samples.positions()[1]] += 1e-6;
        assert!(!samples.check(&bad));
        // A short output is a failure, not a panic.
        assert!(!samples.check(&out[..4]));
    }
}
