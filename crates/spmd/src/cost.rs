//! α-β (latency–bandwidth) cost model for static SPMD programs.
//!
//! Because the whole schedule — every message, every leaf block, every
//! dependency — is known at compile time, the backend can price a program
//! without running it: a deterministic per-rank timeline is replayed over
//! the global op stream, charging each message
//!
//! ```text
//! α · d(from, to)  +  bytes / β
//! ```
//!
//! where `d` is the torus hop distance ([`crate::lower::torus_distance`])
//! and `β` the per-link bandwidth, and each leaf block `flops / rate`.
//! Senders serialize their own injections (one NIC per rank), receivers
//! wait for arrival — exactly the discipline the sequential rank VM
//! replays, so the makespan orders schedules the way execution would on
//! a real torus. This is what makes tree, ring, and naive lowerings of
//! the same schedule quantitatively comparable next to their (identical)
//! byte counts in [`crate::stats::CommStats`].
//!
//! # Scope of the serialized-injection assumption
//!
//! The one-NIC-per-rank serialization is a *model* of network injection,
//! and it is the timing discipline of [`Transport::Sequential`] only:
//! there, modeled time is the execution's sole clock, and reports carry
//! it as `critical_path_s` under `Provenance::Modeled`. The threaded
//! transport ([`Transport::Threaded`]) moves payloads over in-memory
//! channels where "injection" is a `memcpy` — sends genuinely overlap
//! across ranks and nothing serializes on a NIC — so its reports do
//! **not** reuse this model as their headline: measured wall clock is
//! `critical_path_s` (`Provenance::Measured`) and the α-β makespan is
//! kept alongside in `Report::modeled_s`, with
//! `Report::modeled_vs_measured()` exposing the ratio between the two.
//!
//! [`Transport::Sequential`]: crate::transport::Transport::Sequential
//! [`Transport::Threaded`]: crate::transport::Transport::Threaded

use crate::lower::torus_distance;
use crate::ops::SpmdOp;
use crate::program::SpmdProgram;
use distal_machine::grid::Grid;
use distal_machine::spec::MachineSpec;
use std::collections::BTreeMap;

/// The model parameters: per-message latency `α` (scaled by hop
/// distance), per-link bandwidth `β`, and a leaf compute rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaBeta {
    /// Seconds of fixed latency per torus hop (software + wire).
    pub alpha_s: f64,
    /// Link bandwidth in bytes per second.
    pub beta_bytes_per_s: f64,
    /// Leaf kernel rate in flops per second per rank.
    pub flops_per_s: f64,
}

impl Default for AlphaBeta {
    /// A small-cluster default: 1 µs/hop, 12.5 GB/s links (100 Gb/s),
    /// 50 Gflop/s leaves.
    fn default() -> Self {
        AlphaBeta {
            alpha_s: 1e-6,
            beta_bytes_per_s: 12.5e9,
            flops_per_s: 50e9,
        }
    }
}

impl AlphaBeta {
    /// Derives parameters from a physical machine description: inter-node
    /// latency and bandwidth, CPU-socket leaf rate.
    pub fn from_spec(spec: &MachineSpec) -> Self {
        AlphaBeta {
            alpha_s: spec.internode_latency_s,
            beta_bytes_per_s: spec.internode_gbs * 1e9,
            flops_per_s: spec.proc_gflops(distal_machine::spec::ProcKind::Cpu) * 1e9,
        }
    }

    /// The wire time of moving `bytes` between two ranks:
    /// `α · d + bytes / β`.
    pub fn transfer_s(&self, grid: &Grid, from: usize, to: usize, bytes: u64) -> f64 {
        let d = torus_distance(
            grid,
            &grid.delinearize(from as i64),
            &grid.delinearize(to as i64),
        )
        .max(1);
        self.alpha_s * d as f64 + bytes as f64 / self.beta_bytes_per_s
    }
}

/// The priced timeline of one program.
#[derive(Clone, Debug, PartialEq)]
pub struct CostReport {
    /// Finish time of every rank.
    pub per_rank_s: Vec<f64>,
    /// `max(per_rank_s)` — the modeled program runtime.
    pub makespan_s: f64,
    /// Seconds the critical rank spent in leaf kernels.
    pub compute_s: f64,
    /// Messages on the longest dependent-message chain anywhere in the
    /// timeline (send serialization + payload forwarding).
    pub critical_messages: usize,
}

/// Replays `program`'s global op stream against the model, compressed
/// operand tiles sized by `nnz` ([`SpmdProgram::message_bytes_with`]).
///
/// Per-rank clocks advance through compute blocks; a send occupies the
/// sender for the full message time (serialized injection), and the
/// matching receive waits for `max(receiver clock, arrival)`. Message
/// *depth* is carried along the same recursion: a message's chain length
/// is one more than the longest chain already ending at its sender, and
/// receivers inherit the maximum.
pub(crate) fn evaluate(
    program: &SpmdProgram,
    model: &AlphaBeta,
    nnz: &[Option<u64>],
) -> CostReport {
    let ranks = program.ranks();
    let grid = &program.grid;
    let mut clock = vec![0.0f64; ranks];
    let mut busy = vec![0.0f64; ranks]; // compute seconds per rank
    let mut chain = vec![0usize; ranks];
    let mut in_flight: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for (rank, op) in program.in_order() {
        match op {
            SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => {
                // nnz-sized payloads for compressed operand tiles: this is
                // where the α-β model ranks the same schedule differently
                // at 1% vs 50% density.
                let wire = model.transfer_s(grid, m.from, m.to, program.message_bytes_with(m, nnz));
                let arrival = clock[rank] + wire;
                clock[rank] += wire;
                chain[rank] += 1;
                in_flight.insert(m.tag, (arrival, chain[rank]));
            }
            SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => {
                let (arrival, depth) = in_flight
                    .remove(&m.tag)
                    .expect("static programs pair every recv with an earlier send");
                clock[rank] = clock[rank].max(arrival);
                chain[rank] = chain[rank].max(depth);
            }
            SpmdOp::Compute { flops, .. } => {
                let t = flops / model.flops_per_s;
                clock[rank] += t;
                busy[rank] += t;
            }
            SpmdOp::RetireScratch { .. } => {}
        }
    }
    let (critical, _) = clock
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, t)| (i, *t))
        .unwrap_or((0, 0.0));
    CostReport {
        makespan_s: clock.iter().copied().fold(0.0, f64::max),
        compute_s: busy[critical],
        critical_messages: chain.iter().copied().max().unwrap_or(0),
        per_rank_s: clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_distance_weighted() {
        let grid = Grid::grid2(4, 4);
        let model = AlphaBeta {
            alpha_s: 1.0,
            beta_bytes_per_s: 8.0,
            flops_per_s: 1.0,
        };
        // 16 bytes = 2 s of bandwidth time; rank 10 is (2,2): 4 hops.
        assert!((model.transfer_s(&grid, 0, 1, 16) - 3.0).abs() < 1e-12);
        assert!((model.transfer_s(&grid, 0, 10, 16) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn from_spec_uses_internode_channel() {
        let spec = MachineSpec::small(4);
        let model = AlphaBeta::from_spec(&spec);
        assert!(model.alpha_s > 0.0);
        assert!(model.beta_bytes_per_s > 0.0);
        assert!(model.flops_per_s > 0.0);
    }
}
