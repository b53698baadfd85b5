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
//! checked entry [`x86`] into a `#[target_feature]` function.

use distal_runtime::kernel::KernelCtx;

/// Depth of one `k` block: a packed `KC × NR` panel of `C` (32 KiB at
/// `NR = 16`, 16 KiB at `NR = 8`) stays in a 48 KiB L1d while the `MR`
/// rows of `B` it meets stream past it.
const KC: usize = 256;

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
    /// `steps` rounds of the probe; the flops it executed land in `flops`.
    Peak {
        steps: usize,
        flops: &'a mut f64,
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
    /// then add on a register file's worth of independent accumulators
    /// at this variant's width, compiled for its instruction set. Returns
    /// the flops it executed.
    pub fn peak_chain(&self, steps: usize) -> f64 {
        let mut flops = 0.0;
        (self.run)(Job::Peak {
            steps,
            flops: &mut flops,
        });
        flops
    }
}

/// The instantiations the current host can run, the preferred one last;
/// `gemm.gen` executes through that one. Feature detection is the
/// standard library's, cached after the first call.
#[doc(hidden)]
pub fn gemm_variants() -> &'static [MicroKernel] {
    #[cfg(target_arch = "x86_64")]
    {
        static X86_64: [MicroKernel; 3] = [BASELINE, AVX2, AVX512];
        let wider = [Isa::Avx2, Isa::Avx512];
        &X86_64[..1 + wider.iter().take_while(|isa| isa.detected()).count()]
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
    run: work::<2, 8, 28>,
};

/// Eight 256-bit accumulators, two loads of `C` and one broadcast of `B`
/// live at a time: 12 of the 16 `ymm` registers.
#[cfg(target_arch = "x86_64")]
const AVX2: MicroKernel = MicroKernel {
    name: "avx2 4x8",
    mr: 4,
    nr: 8,
    kc: KC,
    run: |job| x86(Isa::Avx2, job),
};

/// Sixteen 512-bit accumulators, two loads of `C` and one broadcast of
/// `B` live at a time: 19 of the 32 `zmm` registers.
#[cfg(target_arch = "x86_64")]
const AVX512: MicroKernel = MicroKernel {
    name: "avx512 8x16",
    mr: 8,
    nr: 16,
    kc: KC,
    run: |job| x86(Isa::Avx512, job),
};

/// The instruction sets an x86-64 instantiation is compiled for beyond
/// the build's own.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
enum Isa {
    Avx2,
    Avx512,
}

#[cfg(target_arch = "x86_64")]
impl Isa {
    /// Whether this CPU has every feature the body compiled for `self`
    /// enables, those rustc implies by it included.
    fn detected(self) -> bool {
        use std::arch::is_x86_feature_detected as has;
        match self {
            Isa::Avx2 => has!("avx2"),
            // rustc's `avx512f` implies `avx2`, `fma` and `f16c`.
            Isa::Avx512 => has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c"),
        }
    }
}

/// The checked entry into the x86-64 instantiations, and the only
/// `unsafe` in the workspace.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn x86(isa: Isa, job: Job<'_>) {
    assert!(
        isa.detected(),
        "the {isa:?} micro-kernel was entered on a host without that instruction set"
    );
    // SAFETY: each body is an ordinary safe function but for its
    // `#[target_feature]`; executing it requires a CPU with the features
    // that enables, which the assertion above has just established for
    // `isa`.
    unsafe {
        match isa {
            Isa::Avx2 => avx2_body(job),
            Isa::Avx512 => avx512_body(job),
        }
    }
}

/// `avx2` only, never `fma`: a fused multiply–add rounds once and would
/// break the parity rule.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_body(job: Job<'_>) {
    work::<4, 8, 56>(job);
}

/// `avx512f` implies the `fma` target feature, so here parity rests on
/// the source never asking for a fused multiply–add (no `mul_add`) and
/// rustc never letting LLVM contract a multiply and an add on its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512_body(job: Job<'_>) {
    work::<8, 16, 240>(job);
}

/// Inlined into each entry, so it is compiled once per instruction set.
/// `LANES` is the peak probe's chain count: every vector register at the
/// entry's width but the two that hold the probe's constants (14 of 16
/// for SSE2 and AVX2, 30 of 32 for AVX-512). Fewer chains leave the
/// vector units waiting on a dependent multiply and add; more spill to
/// the stack. Either way the probe reads below the peak.
#[inline(always)]
fn work<const MR: usize, const NR: usize, const LANES: usize>(job: Job<'_>) {
    match job {
        Job::Gemm(operands) => drive::<MR, NR>(operands),
        Job::Peak { steps, flops } => {
            let (a, b) = (
                std::hint::black_box(0.999_999_9f64),
                std::hint::black_box(1e-9f64),
            );
            // A local array, so LLVM can keep every chain in a register.
            let mut lanes = [1.0f64; LANES];
            for _ in 0..steps {
                for v in lanes.iter_mut() {
                    *v = *v * a + b;
                }
            }
            std::hint::black_box(lanes);
            *flops = (2 * LANES * steps) as f64;
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
    // Only the rows a `k` block packs: 4 KiB of a 32-deep leaf rather
    // than the whole 32 KiB `KC × 16` panel.
    let mut packed = vec![[0.0f64; NR]; KC.min(nk)];
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
    use crate::kernelgen::testing::{run_on, wide_arg, Rng};
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

    fn span(lo: [i64; 2], extent: [i64; 2]) -> Rect {
        Rect::new(
            Point::from_slice(&lo),
            Point::from_slice(&[lo[0] + extent[0] - 1, lo[1] + extent[1] - 1]),
        )
    }

    #[test]
    fn every_variant_matches_both_oracles_bit_for_bit() {
        let names: Vec<&str> = gemm_variants().iter().map(|v| v.name).collect();
        println!("gemm.gen variants on this host: {}", names.join(", "));
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
            let c = wide_arg(&mut rng, span([klo, jlo], [nk, nj]), Rng::finite);
            let b = wide_arg(&mut rng, span([ilo, klo], [ni, nk]), Rng::finite);
            // `A` starts from stored values inside the leaf rectangle and
            // from NaN outside it.
            let mut a = wide_arg(&mut rng, span([ilo, jlo], [ni, nj]), |_| f64::NAN);
            for i in ilo..ilo + ni {
                for j in jlo..jlo + nj {
                    a.set(&[i, j], rng.finite());
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
        #[cfg(target_arch = "x86_64")]
        {
            assert!(variants.len() <= 3, "at most three instantiations");
            let avx512 = variants.iter().position(|v| v.name.starts_with("avx512"));
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert_eq!(avx512, Some(variants.len() - 1), "avx512 runs, and last");
            } else {
                assert_eq!(avx512, None, "no avx512 without avx512f");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(variants.len(), 1, "the baseline alone");
        for v in variants {
            assert_eq!(v.kc, KC);
            assert_eq!(
                v.name.split(' ').nth(1),
                Some(&*format!("{}x{}", v.mr, v.nr))
            );
            assert!(v.peak_chain(10) > 0.0);
        }
        assert_eq!(dispatched().name, variants.last().unwrap().name);
    }
}
