//! CSR-style compressed buffers with lossless dense↔sparse conversion.
//!
//! The one compressed storage type of the workspace. It lives in this
//! crate because a logical region can hold one as its
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
//! density. A large image is compressed in row slabs side by side,
//! through [`fork`](crate::executor::fork): the calling thread scans the
//! first slab, and its part becomes the result.

use distal_machine::ELEM_BYTES;

/// Bytes of one `pos` array entry (row offsets, `u64`-sized on the wire).
pub const POS_BYTES: u64 = 8;

/// Bytes of one `crd` array entry (stored coordinates, `i64`-sized).
pub const CRD_BYTES: u64 = 8;

/// Width of the groups [`SparseBuffer::from_dense`] tests with one OR.
const SKIP_GROUP: usize = 16;

/// Rows [`SparseBuffer::from_dense`] scans side by side in each slab:
/// eight rows are eight prefetch streams in eight pages where one
/// sequential pass keeps a single stream busy. On a 2-vCPU Xeon (2048²,
/// density 0.01, p50 of 150 interleaved calls, two runs) one slab took
/// 4.31–4.66 ms at four lanes, 3.90–4.32 at eight and 3.82–4.42 at
/// sixteen; two slabs took 2.47–3.22, 2.23–2.99 and 2.30–3.16 ms.
const SCAN_LANES: usize = 8;

/// Dense elements below which [`SparseBuffer::from_dense`] scans on the
/// calling thread alone. On a 2-vCPU Xeon a scoped spawn and join costs
/// 35–44 µs at the median and the scan 0.6–0.96 ns an element, so handing
/// half an image to the second core would pay from ≈ 100 k elements; the
/// idle core's wake-up and cold caches move the measured break-even to
/// 330–410 k. From 2¹⁹ (a 4 MiB image) two slabs won by 10–15 %, and by
/// 17–20 % at 2²⁰.
const SPLIT_FLOOR: usize = 1 << 19;

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
    /// An image of at least `SPLIT_FLOOR` elements is scanned in one row
    /// slab per worker [`host_worker_count`](crate::executor::host_worker_count)
    /// grants the calling thread, so `DISTAL_THREADS` and
    /// [`with_thread_budget`](crate::executor::with_thread_budget) cap the
    /// conversion as they cap the executor's pool. The result does not
    /// depend on the slab count.
    ///
    /// # Panics
    ///
    /// Panics when `data` does not have `dims.iter().product()` elements.
    pub fn from_dense(dims: &[i64], data: &[f64]) -> Self {
        let slabs = match data.len() {
            n if n < SPLIT_FLOOR => 1,
            _ => crate::executor::host_worker_count(0),
        };
        SparseBuffer::from_dense_in(dims, data, slabs)
    }

    /// [`SparseBuffer::from_dense`] over `slabs` row slabs, each a whole
    /// number of `SCAN_LANES` row blocks, scanned through
    /// [`fork`](crate::executor::fork) (the first on the calling thread)
    /// and filed in order, so the result is the same for any `slabs`.
    pub(crate) fn from_dense_in(dims: &[i64], data: &[f64], slabs: usize) -> Self {
        let (rows, inner) = rows_and_inner(dims);
        assert_eq!(
            data.len() as i64,
            volume_of(dims),
            "dense data does not match dims {dims:?}"
        );
        let slab_rows = rows.div_ceil(SCAN_LANES).div_ceil(slabs.max(1)).max(1) * SCAN_LANES;
        let mut images: Vec<&[f64]> = data[..rows * inner].chunks(slab_rows * inner).collect();
        if images.is_empty() {
            images.push(&[]);
        }
        let parts = crate::executor::fork(images.into_iter().enumerate().collect(), |(k, slab)| {
            // Part 0 is the result, with room for ≈ 1.5 % density without
            // regrowing; every other part holds a slab's own rows, its
            // `pos` counted from zero.
            let mut part = match k {
                0 => SparseBuffer::with_rows(dims, rows, data.len() / 64),
                _ => SparseBuffer::with_rows(&[], slab.len() / inner, slab.len() / 64),
            };
            part.scan(slab, inner);
            part
        });
        let mut parts = parts.into_iter();
        let mut buf = parts.next().expect("at least one slab");
        for part in parts {
            let filed = buf.crd.len() as u64;
            buf.pos.extend(part.pos[1..].iter().map(|end| filed + end));
            buf.crd.extend_from_slice(&part.crd);
            buf.vals.extend_from_slice(&part.vals);
        }
        buf
    }

    /// Appends the rows of `data`, `inner` elements each, to this buffer.
    fn scan(&mut self, data: &[f64], inner: usize) {
        // `SCAN_LANES` rows are walked side by side, each into its own
        // staging pair, and filed in row order once the block is done.
        let mut lanes: [(Vec<i64>, Vec<f64>); SCAN_LANES] = Default::default();
        let whole = inner - inner % SKIP_GROUP;
        for block in data.chunks(inner * SCAN_LANES) {
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
                self.crd.append(crd);
                self.vals.append(vals);
                self.pos.push(self.crd.len() as u64);
            }
        }
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
    pub(crate) fn volume(&self) -> i64 {
        volume_of(&self.dims)
    }

    /// Exact wire/storage size of the compressed representation:
    /// `pos` + `crd` + `vals`.
    pub fn payload_bytes(&self) -> u64 {
        csr_payload_bytes(self.rows() as u64, self.nnz())
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

    /// Whether two buffers hold the same bits: `PartialEq` calls a stored
    /// NaN unequal to itself.
    fn same_bits(a: &SparseBuffer, b: &SparseBuffer) -> bool {
        a.dims == b.dims
            && a.pos == b.pos
            && a.crd == b.crd
            && a.vals
                .iter()
                .map(|v| v.to_bits())
                .eq(b.vals.iter().map(|v| v.to_bits()))
    }

    /// `rows × inner` elements, about one in `every` stored, the stored
    /// ones cycling through `-0.0`, NaNs with distinct payloads and plain
    /// values.
    fn payloads(rows: usize, inner: usize, every: u64, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..rows * inner)
            .map(|at| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match (state % every, at % 3) {
                    (0, 0) => -0.0,
                    (0, 1) => f64::from_bits(0x7FF8_0000_0000_0000 | at as u64),
                    (0, _) => at as f64 - 0.5,
                    _ => 0.0,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Every slab count files what the element-by-element oracle does,
        /// at row counts on either side of a lane block and of a slab
        /// boundary, a single row, and with one slab left all `+0.0`.
        #[test]
        fn every_slab_count_files_what_the_value_stream_does(
            slabs in 1usize..5,
            shape in 0usize..5,
            inner in 1usize..40,
            every in 1u64..6,
            blank in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let rows = match shape {
                0 => 1 + seed as usize % (SCAN_LANES - 1),
                1 => SCAN_LANES * slabs - 1,
                2 => SCAN_LANES * slabs + 1,
                3 => 1,
                _ => 3 * SCAN_LANES * slabs + 5,
            };
            let mut data = payloads(rows, inner, every, seed);
            // The slab `from_dense_in` will cut as number `blank`, if any.
            let slab = rows.div_ceil(SCAN_LANES).div_ceil(slabs) * SCAN_LANES * inner;
            if let Some(zeros) = data.chunks_mut(slab).nth(blank) {
                zeros.fill(0.0);
            }
            let dims = [rows as i64, inner as i64];
            let scanned = SparseBuffer::from_dense_in(&dims, &data, slabs);
            let oracle = SparseBuffer::from_values(&dims, data.iter().copied());
            proptest::prop_assert!(
                same_bits(&scanned, &oracle),
                "{rows}x{inner} in {slabs} slabs, slab {blank} blank"
            );
        }
    }

    #[test]
    fn the_thread_budget_does_not_change_the_bits() {
        let (rows, inner) = (1030, 520);
        assert!(rows * inner >= SPLIT_FLOOR, "the split path is reached");
        let data = payloads(rows, inner, 4, 7);
        let dims = [rows as i64, inner as i64];
        let oracle = SparseBuffer::from_values(&dims, data.iter().copied());
        for budget in [1, 3] {
            let scanned = crate::executor::with_thread_budget(budget, || {
                SparseBuffer::from_dense(&dims, &data)
            });
            assert!(same_bits(&scanned, &oracle), "budget {budget}");
        }
    }
}
