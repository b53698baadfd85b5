//! ScaLAPACK baseline: bulk-synchronous SUMMA (paper §7.1).
//!
//! ScaLAPACK implements the SUMMA algorithm on a 2D block distribution. Its
//! MPI implementation synchronizes at each broadcast step, so communication
//! is not hidden behind computation — the paper measures it at ≤80% of
//! DISTAL/COSMA at 256 nodes, with variability on non-square grids.

use crate::common::{PhasedRun, System};
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::RunConfig;
use distal_core::BackendError;

/// Builds a bulk-synchronous SUMMA GEMM run (ScaLAPACK's algorithm).
///
/// # Errors
///
/// Propagates compile and seeding errors.
pub fn gemm(config: &RunConfig, n: i64, chunk: i64) -> Result<PhasedRun, BackendError> {
    let alg = MatmulAlgorithm::Summa;
    let system = System {
        // MPI ranks use the full node (no cores reserved for a runtime), but
        // the rank-per-socket decomposition costs a little leaf efficiency.
        efficiency: 0.92,
        bulk_synchronous: true,
        compute_mem: None,
    };
    let schedule = alg.schedule(config.processors(), n, chunk);
    PhasedRun::gemm(config, alg, n, &schedule, system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::functional;
    use distal_runtime::program::Op;
    use distal_runtime::Mode;

    #[test]
    fn scalapack_gemm_is_correct_and_synchronous() {
        let mut run = gemm(&functional(2), 8, 4).unwrap();
        crate::common::assert_gemm_matches_oracle(&mut run, 8);
        let barriers = run
            .instance(0)
            .kernel()
            .compute
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Barrier))
            .count();
        assert!(barriers >= 2, "expected per-step barriers, got {barriers}");
    }

    #[test]
    fn barriers_slow_the_model_down() {
        let config = RunConfig::cpu(4, Mode::Model);
        let n = 4096;
        let sync = gemm(&config, n, n / 8).unwrap().run().unwrap();
        // DISTAL's own SUMMA on the same machine, no barriers.
        let (problem, schedule) =
            distal_algs::setup::matmul_problem(MatmulAlgorithm::Summa, &config, n, n / 8).unwrap();
        let mut ours = config.backend().compile_typed(&problem, &schedule).unwrap();
        ours.place_stats().unwrap();
        let free = ours.execute_stats().unwrap();
        assert!(
            sync.makespan_s > free.makespan_s,
            "bulk-synchronous {} should be slower than overlapped {}",
            sync.makespan_s,
            free.makespan_s
        );
    }
}
