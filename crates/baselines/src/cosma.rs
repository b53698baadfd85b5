//! COSMA baseline (Kwasniewski et al. 2019).
//!
//! COSMA computes a communication-optimal processor grid and parallelization
//! from its red-blue pebbling cost model, and overlaps communication with
//! computation. Differences from DISTAL captured here (per §7.1.1–7.1.2):
//!
//! * **CPU**: COSMA uses all 40 cores per node, while DISTAL reserves 4 for
//!   Legion's dependence analysis — so COSMA's effective peak is ~10%
//!   higher. The "Restricted CPUs" variant pins COSMA to 36 cores, which
//!   the paper shows matches DISTAL exactly.
//! * **GPU**: COSMA keeps matrices in host memory and streams tiles through
//!   an out-of-core GEMM. It pays host↔device transfers (≈2× slower than
//!   DISTAL at one node, Figure 15b) but its inter-node transfers run at the
//!   full NIC rate, avoiding the Legion GPU-framebuffer DMA penalty that
//!   costs DISTAL ~15% at 256 nodes. It also never exhausts the 16 GB
//!   framebuffer, unlike replication-heavy 3D algorithms.

use crate::common::{PhasedRun, System};
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::RunConfig;
use distal_core::BackendError;
use distal_machine::spec::{MemKind, ProcKind};

/// Builds the COSMA GEMM run.
///
/// `restricted_cpus` models the paper's "COSMA (Restricted CPUs)" line
/// (36 of 40 cores).
///
/// # Errors
///
/// Propagates compile and seeding errors.
pub fn gemm(config: &RunConfig, n: i64, restricted_cpus: bool) -> Result<PhasedRun, BackendError> {
    let p = config.processors();
    let alg = MatmulAlgorithm::Cosma;
    let mut config = config.clone();
    if config.proc_kind == ProcKind::Cpu {
        // COSMA dedicates every core to computation.
        config.spec.cpu_worker_fraction = if restricted_cpus { 36.0 / 40.0 } else { 1.0 };
    }
    // GPU out-of-core: tensors live in host memory; compute stages into FB.
    let out_of_core = config.proc_kind == ProcKind::Gpu;
    if out_of_core {
        config.mem = MemKind::Sys;
    }
    let system = System {
        // The out-of-core GEMM (Tiled-MM) achieves roughly half of cuBLAS
        // peak — the 2x single-node gap of Figure 15b. CPU COSMA runs at
        // full leaf efficiency.
        efficiency: if out_of_core { 0.5 } else { 0.95 },
        bulk_synchronous: false,
        compute_mem: out_of_core.then_some(MemKind::Fb),
    };
    // COSMA sequentializes the local k range so the staged working set fits
    // in the framebuffer (its "sequential steps"); it therefore never runs
    // out of GPU memory, unlike the replication-heavy 3D algorithms.
    let grid = alg.grid(p);
    let (gx, gy, gz) = (grid.extent(0), grid.extent(1), grid.extent(2));
    let steps = if out_of_core {
        let budget = (config.spec.node.fb_bytes as f64 * 0.9) as u64;
        distal_algs::matmul::cosma_steps_for_memory(n, gx, gy, gz, budget).unwrap_or(1)
    } else {
        1
    };
    let schedule = distal_algs::matmul::cosma_schedule(gx, gy, gz, steps.max(1));
    PhasedRun::gemm(&config, alg, n, &schedule, system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::functional;
    use distal_runtime::Mode;

    #[test]
    fn cosma_gemm_correct() {
        let run = gemm(&functional(2), 8, false);
        crate::common::assert_gemm_matches_oracle(&mut run.unwrap(), 8);
    }

    #[test]
    fn restricted_variant_is_slower_on_cpu() {
        let config = RunConfig::cpu(1, Mode::Model);
        let n = 8192;
        let full = gemm(&config, n, false).unwrap().run().unwrap();
        let restricted = gemm(&config, n, true).unwrap().run().unwrap();
        assert!(restricted.makespan_s > full.makespan_s * 1.05);
    }

    #[test]
    fn gpu_variant_stages_through_host() {
        let config = RunConfig::gpu(1, Mode::Model);
        let stats = gemm(&config, 2048, false).unwrap().run().unwrap();
        // Host-device traffic must appear (out-of-core staging).
        let hd = stats
            .bytes_by_class
            .get(&distal_runtime::ChannelClass::HostDevice)
            .copied()
            .unwrap_or(0);
        assert!(hd > 0, "expected host-device staging traffic");
    }
}
