//! The blocked driver behind `gemm.gen` and its micro-kernel descriptors
//! (layer 2 of [`super`]'s module docs, where the parity rule is stated).
//!
//! One generic function, [`drive`], is the whole kernel; a [`MicroKernel`]
//! names one instantiation of it — the register tile `MR × NR` and the
//! instruction set it is compiled for. There is no hand-written SIMD: the
//! accumulator tile is a fixed-size `[[f64; NR]; MR]`, every loop over it
//! has a compile-time trip count, and LLVM keeps it in vector registers
//! of whatever width the enclosing function's target features allow. This
//! module holds the workspace's only `unsafe` block: the call from the
//! checked entry [`avx2`] into the `#[target_feature]` function.

use distal_runtime::kernel::KernelCtx;

/// Depth of one `k` block: a packed `KC × NR` panel of `C` (16 KiB at
/// `NR = 8`) plus the `MR` rows of `B` it meets stay in L1.
const KC: usize = 256;

/// Independent accumulators of the peak probe — the shape of the pipeline
/// benchmark's host probe: enough chains to cover the latency of a
/// dependent multiply and add on every vector unit.
const LANES: usize = 32;

/// One instantiation of the GEMM driver: the shape of its register tile
/// and the instruction set its code was compiled for.
#[doc(hidden)]
#[derive(Debug)]
pub struct MicroKernel {
    /// Instruction set and tile, e.g. `avx2 4x8`.
    pub name: &'static str,
    /// Rows of `A` held in registers across a `k` block.
    pub mr: usize,
    /// Columns of `A` held in registers: the width of a packed `C` panel.
    pub nr: usize,
    /// Rows of a packed `C` panel.
    pub kc: usize,
    run: fn(Job<'_>),
}

/// What a variant can be asked to do. The peak probe goes through the
/// same entry as the kernel so that both are compiled for the same
/// instruction set.
#[derive(Debug)]
enum Job<'a> {
    Gemm(Operands<'a>),
    Peak {
        steps: usize,
        lanes: &'a mut [f64; LANES],
    },
}

/// `A += B · C` over slices that start at each operand's corner of the
/// leaf rectangle; a stride is the row length of the allocation behind it.
#[derive(Debug)]
struct Operands<'a> {
    a: &'a mut [f64],
    a_stride: usize,
    b: &'a [f64],
    b_stride: usize,
    c: &'a [f64],
    c_stride: usize,
    ni: usize,
    nj: usize,
    nk: usize,
}

impl MicroKernel {
    /// Runs `A(i,j) += B(i,k) * C(k,j)` over the bounds in `ctx.scalars`
    /// (`ilo, ihi, jlo, jhi, klo, khi`, inclusive).
    pub fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 6, "gemm bounds mismatch");
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        if ihi < ilo || jhi < jlo || khi < klo {
            return;
        }
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b, c) = (&mut a_arg[0], &rest[0], &rest[1]);
        let a_base = a.offset(&[ilo, jlo]);
        (self.run)(Job::Gemm(Operands {
            a_stride: a.alloc.extent(1) as usize,
            a: &mut a.data[a_base..],
            b: &b.data[b.offset(&[ilo, klo])..],
            b_stride: b.alloc.extent(1) as usize,
            c: &c.data[c.offset(&[klo, jlo])..],
            c_stride: c.alloc.extent(1) as usize,
            ni: (ihi - ilo + 1) as usize,
            nj: (jhi - jlo + 1) as usize,
            nk: (khi - klo + 1) as usize,
        }));
    }

    /// The roofline probe: `steps` rounds of a separately rounded multiply
    /// then add on 32 independent accumulators (64 flops a round),
    /// compiled for this variant's instruction set. Returns the
    /// accumulators' sum so the work cannot be discarded.
    pub fn peak_chain(&self, steps: usize) -> f64 {
        let mut lanes = [1.0f64; LANES];
        (self.run)(Job::Peak {
            steps,
            lanes: &mut lanes,
        });
        lanes.iter().sum()
    }
}

/// The instantiations the current host can run, the preferred one last;
/// `gemm.gen` executes through that one. Feature detection is the
/// standard library's, cached after the first call.
#[doc(hidden)]
pub fn gemm_variants() -> &'static [MicroKernel] {
    #[cfg(target_arch = "x86_64")]
    {
        static X86_64: [MicroKernel; 2] = [BASELINE, AVX2];
        if std::arch::is_x86_feature_detected!("avx2") {
            &X86_64
        } else {
            &X86_64[..1]
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static PORTABLE: [MicroKernel; 1] = [BASELINE];
        &PORTABLE
    }
}

/// The variant `gemm.gen` runs on this host.
pub(super) fn dispatched() -> &'static MicroKernel {
    gemm_variants().last().expect("the baseline always runs")
}

/// Compiled for the build's own target: two 128-bit halves of SSE2 hold
/// eight accumulator registers on x86-64.
const BASELINE: MicroKernel = MicroKernel {
    name: "baseline 2x8",
    mr: 2,
    nr: 8,
    kc: KC,
    run: work::<2, 8>,
};

/// Eight 256-bit accumulators, two loads of `C` and one broadcast of `B`
/// live at a time: 12 of the 16 `ymm` registers.
#[cfg(target_arch = "x86_64")]
const AVX2: MicroKernel = MicroKernel {
    name: "avx2 4x8",
    mr: 4,
    nr: 8,
    kc: KC,
    run: avx2,
};

/// The checked entry into the AVX2 instantiation, and the only `unsafe`
/// in the workspace.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn avx2(job: Job<'_>) {
    assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "the avx2 micro-kernel was entered on a host without AVX2"
    );
    // SAFETY: `avx2_body` is an ordinary safe function but for its
    // `#[target_feature(enable = "avx2")]`; executing it requires a CPU
    // with AVX2, which the assertion above has just established.
    unsafe { avx2_body(job) }
}

/// `avx2` only, never `fma`: a fused multiply–add rounds once and would
/// break the parity rule.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_body(job: Job<'_>) {
    work::<4, 8>(job);
}

/// Inlined into each entry, so it is compiled once per instruction set.
#[inline(always)]
fn work<const MR: usize, const NR: usize>(job: Job<'_>) {
    match job {
        Job::Gemm(operands) => drive::<MR, NR>(operands),
        Job::Peak { steps, lanes } => {
            let (a, b) = (
                std::hint::black_box(0.999_999_9f64),
                std::hint::black_box(1e-9f64),
            );
            for _ in 0..steps {
                for v in lanes.iter_mut() {
                    *v = *v * a + b;
                }
            }
        }
    }
}

/// The driver: `k` in ascending blocks of [`KC`]; per block, each
/// `NR`-wide column panel of `C` is packed contiguous (so the inner loop
/// reads one 16 KiB stream rather than `KC` rows a whole row stride
/// apart) and every `MR`-row strip of `A` is loaded once, accumulated
/// over the block and stored once. A ragged tile runs through the same
/// micro-kernel on a zero-padded copy; its padded lanes are computed and
/// thrown away.
#[inline(always)]
fn drive<const MR: usize, const NR: usize>(operands: Operands<'_>) {
    let Operands {
        a,
        a_stride,
        b,
        b_stride,
        c,
        c_stride,
        ni,
        nj,
        nk,
    } = operands;
    let mut packed = [[0.0f64; NR]; KC];
    for k0 in (0..nk).step_by(KC) {
        let kc = KC.min(nk - k0);
        let panel = &mut packed[..kc];
        for j0 in (0..nj).step_by(NR) {
            let w = NR.min(nj - j0);
            for (k, row) in panel.iter_mut().enumerate() {
                let src = &c[(k0 + k) * c_stride + j0..];
                if w == NR {
                    *row = src[..NR].try_into().expect("an NR-wide slice");
                } else {
                    row[..w].copy_from_slice(&src[..w]);
                    row[w..].fill(0.0);
                }
            }
            for i0 in (0..ni).step_by(MR) {
                let h = MR.min(ni - i0);
                // Rows past the edge re-read the last real row; their
                // results are never stored.
                let b_rows: [&[f64]; MR] =
                    std::array::from_fn(|r| &b[(i0 + r.min(h - 1)) * b_stride + k0..][..kc]);
                let mut tile = [[0.0f64; NR]; MR];
                if h == MR && w == NR {
                    // Compile-time lengths: plain vector loads and
                    // stores, where the ragged path calls `memcpy`.
                    for (r, t) in tile.iter_mut().enumerate() {
                        *t = a[(i0 + r) * a_stride + j0..][..NR]
                            .try_into()
                            .expect("an NR-wide slice");
                    }
                    let tile = micro(tile, b_rows, panel);
                    for (r, t) in tile.iter().enumerate() {
                        a[(i0 + r) * a_stride + j0..][..NR].copy_from_slice(t);
                    }
                } else {
                    for (r, t) in tile.iter_mut().enumerate().take(h) {
                        t[..w].copy_from_slice(&a[(i0 + r) * a_stride + j0..][..w]);
                    }
                    let tile = micro(tile, b_rows, panel);
                    for (r, t) in tile.iter().enumerate().take(h) {
                        a[(i0 + r) * a_stride + j0..][..w].copy_from_slice(&t[..w]);
                    }
                }
            }
        }
    }
}

/// The micro-kernel: `acc[r][x] += b[r][k] * panel[k][x]` for ascending
/// `k`, the product rounded before the sum.
#[inline(always)]
fn micro<const MR: usize, const NR: usize>(
    mut acc: [[f64; NR]; MR],
    b: [&[f64]; MR],
    panel: &[[f64; NR]],
) -> [[f64; NR]; MR] {
    for (k, c) in panel.iter().enumerate() {
        for r in 0..MR {
            let bv = b[r][k];
            for x in 0..NR {
                acc[r][x] += bv * c[x];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::testing::{run_on, OwnedArg};
    use crate::kernels::InterpreterKernel;
    use distal_machine::geom::{Point, Rect};
    use distal_runtime::kernel::Kernel;

    /// The row-at-a-time `(i, k, j)` loop `gemm.gen` ran before the
    /// blocked driver, kept as the second parity oracle.
    fn row_at_a_time(ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        let (nj, nk) = ((jhi - jlo + 1) as usize, (khi - klo + 1) as usize);
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b, c) = (&mut a_arg[0], &rest[0], &rest[1]);
        let a_cols = a.alloc.extent(1) as usize;
        let b_cols = b.alloc.extent(1) as usize;
        let c_cols = c.alloc.extent(1) as usize;
        let a_base = a.offset(&[ilo, jlo]);
        let b_base = b.offset(&[ilo, klo]);
        let c_base = c.offset(&[klo, jlo]);
        for i in 0..=(ihi - ilo) as usize {
            let b_row = &b.data[b_base + i * b_cols..b_base + i * b_cols + nk];
            let a_row = &mut a.data[a_base + i * a_cols..a_base + i * a_cols + nj];
            for (k, &bv) in b_row.iter().enumerate() {
                let c_row = &c.data[c_base + k * c_cols..c_base + k * c_cols + nj];
                for (av, &cv) in a_row.iter_mut().zip(c_row) {
                    *av += bv * cv;
                }
            }
        }
    }

    /// xorshift64*, the generator the sibling tests use.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        /// Mostly values in ±0.5; now and then a signed zero, a
        /// subnormal, or ±1e300 (whose products overflow to ±inf, and
        /// whose sums of opposite infinities are NaN on every path alike).
        fn value(&mut self) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            match self.next() % 16 {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(1 + self.next() % 1000),
                2 => sign * 1e300,
                _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
            }
        }
    }

    /// An argument whose allocation is wider than `rect` by a random
    /// margin on every side, so the row stride exceeds the extent.
    fn wide_arg(rng: &mut Rng, rect: Rect, fill: impl Fn(&mut Rng) -> f64) -> OwnedArg {
        let lo: Vec<i64> = rect
            .lo()
            .coords()
            .iter()
            .map(|&l| l - rng.below(4))
            .collect();
        let hi: Vec<i64> = rect
            .hi()
            .coords()
            .iter()
            .map(|&h| h + rng.below(4))
            .collect();
        let alloc = Rect::new(Point::new(lo), Point::new(hi));
        let data = (0..alloc.volume()).map(|_| fill(rng)).collect();
        OwnedArg {
            rect,
            ..OwnedArg::dense(alloc, data)
        }
    }

    fn span(lo: [i64; 2], extent: [i64; 2]) -> Rect {
        Rect::new(
            Point::new(lo.to_vec()),
            Point::new(vec![lo[0] + extent[0] - 1, lo[1] + extent[1] - 1]),
        )
    }

    #[test]
    fn every_variant_matches_both_oracles_bit_for_bit() {
        let interpreter = InterpreterKernel::new(distal_ir::expr::kernels::matmul(), true);
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..512 {
            let (ni, nj) = (1 + rng.below(70), 1 + rng.below(70));
            // One case in eight sits on a seam of the `k` blocking.
            let nk = match rng.below(8) {
                0 => [255, 256, 257, 513][rng.below(4) as usize],
                _ => 1 + rng.below(70),
            };
            let (ilo, jlo, klo) = (rng.below(9), rng.below(9), rng.below(9));
            let c = wide_arg(&mut rng, span([klo, jlo], [nk, nj]), Rng::value);
            let b = wide_arg(&mut rng, span([ilo, klo], [ni, nk]), Rng::value);
            // `A` starts from stored values inside the leaf rectangle and
            // from NaN outside it.
            let mut a = wide_arg(&mut rng, span([ilo, jlo], [ni, nj]), |_| f64::NAN);
            for i in ilo..ilo + ni {
                for j in jlo..jlo + nj {
                    a.set(&[i, j], rng.value());
                }
            }
            let scalars = vec![ilo, ilo + ni - 1, jlo, jlo + nj - 1, klo, klo + nk - 1];
            let run = |kernel: &dyn Fn(&mut KernelCtx)| {
                let mut args = [a.clone(), b.clone(), c.clone()];
                run_on(&mut args, &scalars, kernel);
                let bits: Vec<u64> = args[0].data.iter().map(|v| v.to_bits()).collect();
                bits
            };
            let want = run(&|ctx| interpreter.execute(ctx));
            assert!(
                run(&row_at_a_time) == want,
                "case {case}: the oracles disagree"
            );
            for variant in gemm_variants() {
                assert!(
                    run(&|ctx| variant.execute(ctx)) == want,
                    "case {case}: {} on {ni}x{nj}x{nk} at ({ilo},{jlo},{klo})",
                    variant.name
                );
            }
        }
    }

    #[test]
    fn variants_are_the_documented_shapes() {
        let variants = gemm_variants();
        assert_eq!(variants[0].name, "baseline 2x8");
        assert!(variants.len() <= 2, "at most two instantiations");
        for v in variants {
            assert_eq!(v.kc, KC);
            assert_eq!(
                v.name.split(' ').nth(1),
                Some(&*format!("{}x{}", v.mr, v.nr))
            );
            assert!(v.peak_chain(10).is_finite());
        }
        assert_eq!(dispatched().name, variants.last().unwrap().name);
    }
}
