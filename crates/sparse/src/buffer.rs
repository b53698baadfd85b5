//! CSR-style compressed buffers with lossless dense↔sparse conversion.
//!
//! A [`SparseBuffer`] compresses the *innermost* dimension of a row-major
//! tensor: all outer dimensions are linearized into "rows", and per row
//! only the nonzero entries are stored — `pos[r]..pos[r+1]` indexes the
//! `crd` (innermost coordinate) and `vals` (value) arrays. A matrix with
//! levels `ds` (dense rows, compressed columns) is exactly CSR; a vector
//! with level `s` is a sparse vector (one row); higher-order tensors
//! compress their last dimension under dense-linearized prefixes.
//!
//! Conversion is lossless in both directions: *every* value whose bit
//! pattern differs from `+0.0` is stored (including `-0.0` and NaN
//! payloads), so `to_dense(from_dense(x)) == x` bit-for-bit at any
//! density.

use crate::{CRD_BYTES, POS_BYTES};
use distal_machine::ELEM_BYTES;

/// A compressed rectangular buffer: dense-linearized outer dimensions
/// ("rows") over a compressed innermost dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseBuffer {
    dims: Vec<i64>,
    /// Row offsets into `crd`/`vals` (`rows + 1` entries).
    pub pos: Vec<u64>,
    /// Innermost coordinate of each stored entry.
    pub crd: Vec<i64>,
    /// Stored values.
    pub vals: Vec<f64>,
}

impl SparseBuffer {
    /// Compresses row-major dense data of the given dimensions. Entries
    /// whose bit pattern is exactly `+0.0` are dropped; everything else
    /// (including `-0.0`) is stored, which is what makes the round-trip
    /// lossless.
    ///
    /// # Panics
    ///
    /// Panics when `data` does not have `dims.iter().product()` elements.
    pub fn from_dense(dims: &[i64], data: &[f64]) -> Self {
        let inner = dims.last().copied().unwrap_or(1).max(1);
        let volume: i64 = dims.iter().product::<i64>().max(1);
        assert_eq!(
            data.len() as i64,
            volume,
            "dense data does not match dims {dims:?}"
        );
        let rows = (volume / inner) as usize;
        let mut pos = Vec::with_capacity(rows + 1);
        let mut crd = Vec::new();
        let mut vals = Vec::new();
        pos.push(0u64);
        for r in 0..rows {
            let base = r * inner as usize;
            for j in 0..inner as usize {
                let v = data[base + j];
                if v.to_bits() != 0 {
                    crd.push(j as i64);
                    vals.push(v);
                }
            }
            pos.push(crd.len() as u64);
        }
        SparseBuffer {
            dims: dims.to_vec(),
            pos,
            crd,
            vals,
        }
    }

    /// Decompresses back to row-major dense data (bit-identical to the
    /// input of [`SparseBuffer::from_dense`]).
    pub fn to_dense(&self) -> Vec<f64> {
        let inner = self.inner_extent() as usize;
        let mut out = vec![0.0f64; self.volume() as usize];
        for r in 0..self.rows() {
            let (lo, hi) = self.row_range(r);
            for e in lo..hi {
                out[r * inner + self.crd[e] as usize] = self.vals[e];
            }
        }
        out
    }

    /// The logical dimension sizes.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Number of dense-linearized rows (`1` for vectors and scalars).
    pub fn rows(&self) -> usize {
        self.pos.len() - 1
    }

    /// Extent of the compressed innermost dimension.
    pub fn inner_extent(&self) -> i64 {
        self.dims.last().copied().unwrap_or(1).max(1)
    }

    /// The `crd`/`vals` index range of row `r`.
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        (self.pos[r] as usize, self.pos[r + 1] as usize)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> u64 {
        self.vals.len() as u64
    }

    /// Dense element count.
    pub fn volume(&self) -> i64 {
        self.dims.iter().product::<i64>().max(1)
    }

    /// Fraction of stored entries (`1.0` for an empty-volume buffer).
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.volume() as f64
    }

    /// Exact wire/storage size of the compressed representation:
    /// `pos` + `crd` + `vals`.
    pub fn payload_bytes(&self) -> u64 {
        csr_payload_bytes(self.rows() as u64, self.nnz())
    }

    /// Size of the equivalent flat dense buffer.
    pub fn dense_bytes(&self) -> u64 {
        self.volume() as u64 * ELEM_BYTES
    }
}

/// Stored entries of dense-materialized data: the values a compressed
/// level keeps, i.e. those whose bit pattern is nonzero (`-0.0` is stored;
/// see [`SparseBuffer::from_dense`]).
pub fn stored_entries(data: &[f64]) -> u64 {
    data.iter().filter(|v| v.to_bits() != 0).count() as u64
}

/// Exact CSR payload size for `rows` dense-linearized rows holding `nnz`
/// stored entries: `(rows + 1)` pos entries plus `(crd, val)` per entry.
pub fn csr_payload_bytes(rows: u64, nnz: u64) -> u64 {
    (rows + 1) * POS_BYTES + nnz * (CRD_BYTES + ELEM_BYTES)
}

/// Estimated CSR payload size of a `volume`-element tile with `rows`
/// dense-linearized rows at a given global density (nnz rounded up). Used
/// where per-tile nnz is not known statically (cost models, copy
/// accounting of the dynamic runtime).
pub fn estimated_payload_bytes(volume: u64, rows: u64, density: f64) -> u64 {
    let nnz = (volume as f64 * density.clamp(0.0, 1.0)).ceil() as u64;
    csr_payload_bytes(rows, nnz.min(volume))
}

/// Wire-payload bytes per dense byte of a `dims`-shaped tensor holding
/// `nnz` stored entries under innermost-CSR compression — the
/// `payload_scale` every layer (problem registry, runtime regions, copy
/// accounting) derives from one place so the formula cannot drift.
pub fn csr_payload_scale(dims: &[i64], nnz: u64) -> f64 {
    let volume = dims.iter().product::<i64>().max(1) as u64;
    let inner = dims.last().copied().unwrap_or(1).max(1) as u64;
    let payload = csr_payload_bytes(volume / inner, nnz.min(volume));
    payload as f64 / (volume * ELEM_BYTES) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matrix_round_trip() {
        // 3x4, nnz pattern with an empty middle row.
        let dims = [3, 4];
        #[rustfmt::skip]
        let data = vec![
            1.0, 0.0, 0.0, 2.0,
            0.0, 0.0, 0.0, 0.0,
            0.0, 3.5, -4.0, 0.0,
        ];
        let s = SparseBuffer::from_dense(&dims, &data);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.pos, vec![0, 2, 2, 4]);
        assert_eq!(s.crd, vec![0, 3, 1, 2]);
        assert_eq!(s.vals, vec![1.0, 2.0, 3.5, -4.0]);
        assert_eq!(s.to_dense(), data);
        assert!((s.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_and_vectors_are_lossless() {
        let data = vec![0.0, -0.0, 5.0, 0.0];
        let s = SparseBuffer::from_dense(&[4], &data);
        // -0.0 has a nonzero bit pattern and must be stored.
        assert_eq!(s.nnz(), 2);
        let back = s.to_dense();
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scalar_and_empty() {
        let s = SparseBuffer::from_dense(&[], &[7.0]);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense(), vec![7.0]);
        let z = SparseBuffer::from_dense(&[2, 2], &[0.0; 4]);
        assert_eq!(z.nnz(), 0);
        // The free-standing counter agrees with the buffer's, -0.0 included.
        let data = [0.0, -0.0, 3.0, 0.0];
        assert_eq!(stored_entries(&data), 2);
        assert_eq!(SparseBuffer::from_dense(&[4], &data).nnz(), 2);
        assert_eq!(z.to_dense(), vec![0.0; 4]);
    }

    #[test]
    fn payload_accounting() {
        let s = SparseBuffer::from_dense(&[2, 4], &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
        // pos: 3 entries, 2 stored (crd + val).
        assert_eq!(s.payload_bytes(), 3 * POS_BYTES + 2 * (CRD_BYTES + 8));
        assert_eq!(s.dense_bytes(), 8 * 8);
        assert_eq!(estimated_payload_bytes(8, 2, 0.25), csr_payload_bytes(2, 2));
        // Density estimates never exceed the dense volume.
        assert_eq!(estimated_payload_bytes(8, 2, 5.0), csr_payload_bytes(2, 8));
    }

    #[test]
    fn higher_order_compresses_last_dim() {
        // 2x2x2: rows = 4 (dense-linearized i,j), inner = k.
        let mut data = vec![0.0; 8];
        data[1] = 1.0; // (0,0,1)
        data[6] = 2.0; // (1,1,0)
        let s = SparseBuffer::from_dense(&[2, 2, 2], &data);
        assert_eq!(s.rows(), 4);
        assert_eq!(s.pos, vec![0, 1, 1, 1, 2]);
        assert_eq!(s.crd, vec![1, 0]);
        assert_eq!(s.to_dense(), data);
    }
}
