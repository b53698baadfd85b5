//! CSR-style compressed buffers with lossless dense↔sparse conversion.
//!
//! The one compressed storage type of the workspace. It lives in this
//! crate because a [`crate::region::LogicalRegion`] can hold one as its
//! data image; `distal-sparse` re-exports it under its historical paths
//! beside the reference kernels.
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

use distal_machine::ELEM_BYTES;

/// Bytes of one `pos` array entry (row offsets, `u64`-sized on the wire).
pub const POS_BYTES: u64 = 8;

/// Bytes of one `crd` array entry (stored coordinates, `i64`-sized).
pub const CRD_BYTES: u64 = 8;

/// Width of the groups [`SparseBuffer::from_dense`] tests with one OR.
const SKIP_GROUP: usize = 16;

/// Rows [`SparseBuffer::from_dense`] scans side by side. One sequential
/// pass keeps a single hardware prefetch stream busy, which a core
/// out-runs as soon as the image comes from memory rather than the
/// last-level cache (2048², density 0.01: 2.4 ms cached, 4.4 ms not);
/// eight rows are eight streams in eight pages (2.3 ms and 3.1 ms), so
/// what a bind costs depends less on where the caller's image happens to
/// sit. Four lanes gain less; sixteen gain nothing more.
const SCAN_LANES: usize = 8;

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
        let (rows, inner) = rows_and_inner(dims);
        assert_eq!(
            data.len() as i64,
            volume_of(dims),
            "dense data does not match dims {dims:?}"
        );
        // Room for ≈ 1.5 % density without regrowing; denser data doubles
        // its way up from there.
        let mut buf = SparseBuffer::with_rows(dims, rows, data.len() / 64);
        // `SCAN_LANES` rows are walked side by side, each into its own
        // staging pair, and filed in row order once the block is done.
        let mut lanes: [(Vec<i64>, Vec<f64>); SCAN_LANES] = Default::default();
        let whole = inner - inner % SKIP_GROUP;
        for block in data[..rows * inner].chunks(inner * SCAN_LANES) {
            for base in (0..whole).step_by(SKIP_GROUP) {
                for (row, (crd, vals)) in block.chunks_exact(inner).zip(&mut lanes) {
                    // Most groups of a sparse row are all `+0.0`: one OR over
                    // the bit patterns rules a whole group out without a
                    // branch per element.
                    let group = &row[base..base + SKIP_GROUP];
                    if group.iter().fold(0u64, |bits, v| bits | v.to_bits()) != 0 {
                        push_stored(crd, vals, base, group);
                    }
                }
            }
            for (row, (crd, vals)) in block.chunks_exact(inner).zip(&mut lanes) {
                push_stored(crd, vals, whole, &row[whole..]);
                buf.crd.append(crd);
                buf.vals.append(vals);
                buf.pos.push(buf.crd.len() as u64);
            }
        }
        buf
    }

    /// [`SparseBuffer::from_dense`] over a row-major value *stream*: the
    /// buffer a generator's output compresses to, without the dense image
    /// in between.
    ///
    /// # Panics
    ///
    /// Panics when `values` does not yield exactly `dims.iter().product()`
    /// elements.
    pub fn from_values(dims: &[i64], values: impl IntoIterator<Item = f64>) -> Self {
        let (rows, inner) = rows_and_inner(dims);
        let mut values = values.into_iter();
        let mut buf = SparseBuffer::with_rows(dims, rows, 0);
        for _ in 0..rows {
            for j in 0..inner {
                let v = values
                    .next()
                    .unwrap_or_else(|| panic!("value stream shorter than dims {dims:?}"));
                push_stored(&mut buf.crd, &mut buf.vals, j, &[v]);
            }
            buf.pos.push(buf.crd.len() as u64);
        }
        assert!(
            values.next().is_none(),
            "value stream longer than dims {dims:?}"
        );
        buf
    }

    /// An empty buffer about to receive `rows` rows.
    fn with_rows(dims: &[i64], rows: usize, stored_hint: usize) -> Self {
        let mut pos = Vec::with_capacity(rows + 1);
        pos.push(0u64);
        SparseBuffer {
            dims: dims.to_vec(),
            pos,
            crd: Vec::with_capacity(stored_hint),
            vals: Vec::with_capacity(stored_hint),
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
        volume_of(&self.dims)
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

/// Appends the stored entries of `values`, which sit at innermost
/// coordinates `base..` of the row `crd`/`vals` are building.
#[inline]
fn push_stored(crd: &mut Vec<i64>, vals: &mut Vec<f64>, base: usize, values: &[f64]) {
    for (j, &v) in values.iter().enumerate() {
        if v.to_bits() != 0 {
            crd.push((base + j) as i64);
            vals.push(v);
        }
    }
}

/// `(rows, inner extent)` of a `dims`-shaped tensor under innermost
/// compression: every outer dimension linearizes into the rows.
fn rows_and_inner(dims: &[i64]) -> (usize, usize) {
    let inner = dims.last().copied().unwrap_or(1).max(1);
    ((volume_of(dims) / inner) as usize, inner as usize)
}

/// Dense element count of a `dims`-shaped tensor (a scalar has one).
fn volume_of(dims: &[i64]) -> i64 {
    dims.iter().product::<i64>().max(1)
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
    let volume = volume_of(dims) as u64;
    let (rows, _) = rows_and_inner(dims);
    let payload = csr_payload_bytes(rows as u64, nnz.min(volume));
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

    #[test]
    fn the_side_by_side_scan_files_entries_in_row_order() {
        // `from_values` pushes element by element: an oracle for row counts
        // on either side of a lane block and rows on either side of a group.
        for rows in [1usize, 7, 8, 9, 16, 21] {
            for inner in [1usize, 15, 16, 17, 40, 64] {
                for every in [1usize, 3, 29, usize::MAX] {
                    let data: Vec<f64> = (0..rows * inner)
                        .map(|at| match at % every.min(rows * inner + 1) {
                            0 => -(at as f64),
                            _ => 0.0,
                        })
                        .collect();
                    let dims = [rows as i64, inner as i64];
                    let scanned = SparseBuffer::from_dense(&dims, &data);
                    assert_eq!(scanned, SparseBuffer::from_values(&dims, data.clone()));
                    assert_eq!(scanned.to_dense(), data, "{rows}x{inner} every {every}");
                }
            }
        }
    }
}
