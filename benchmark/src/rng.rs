//! The benchmark's own seeded generator. The product never sees a seed:
//! it receives the vectors made here as explicit `Bindings::set_data`.

/// xorshift64* — small, fast, and independent of the product's own
/// `random_data`, so generated inputs cannot accidentally agree with it.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble: nearby seeds give unrelated, non-zero states.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)`; the modulo bias is below 2⁻⁴⁰ for every
    /// bound the benchmark uses.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[-0.5, 0.5)`, never the `+0.0` bit pattern (which the
    /// product counts as "not stored" in compressed levels).
    pub fn value(&mut self) -> f64 {
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        if v == 0.0 {
            0.25
        } else {
            v
        }
    }
}

pub fn dense(rng: &mut XorShift, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.value()).collect()
}

/// A row-major `rows × cols` matrix holding exactly `nnz` values at
/// seeded distinct positions and `+0.0` elsewhere. The count is exact
/// (not a per-element coin flip) so that nnz-sized byte accounting does
/// not move with the seed.
pub fn sparse(rng: &mut XorShift, rows: usize, cols: usize, nnz: usize) -> Vec<f64> {
    let volume = rows * cols;
    assert!(
        nnz <= volume / 2,
        "rejection sampling needs a sparse target"
    );
    let mut data = vec![0.0f64; volume];
    let mut placed = 0;
    while placed < nnz {
        let at = rng.below(volume);
        if data[at].to_bits() == 0 {
            data[at] = rng.value();
            placed += 1;
        }
    }
    data
}

/// `count` seeded positions in `[0, len)` (repeats allowed).
pub fn positions(rng: &mut XorShift, len: usize, count: usize) -> Vec<usize> {
    (0..count).map(|_| rng.below(len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = XorShift::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = XorShift::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = XorShift::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_holds_exactly_nnz_values() {
        let m = sparse(&mut XorShift::new(3), 64, 64, 41);
        assert_eq!(m.iter().filter(|v| v.to_bits() != 0).count(), 41);
        assert!(m.iter().all(|v| v.abs() <= 0.5));
    }
}
