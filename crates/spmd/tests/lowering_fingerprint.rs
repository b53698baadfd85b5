//! A committed fingerprint of the SPMD lowering, so a lowering change
//! shows up as a failing constant and names the first op that moved —
//! not as a hand-diffed `Debug` dump.
//!
//! Per case — the six Figure 9 algorithms at p ∈ {4, 16} under each
//! collective lowering, and the four higher-order kernels — the program
//! is rendered as one line per op of [`SpmdProgram::in_order`] (`rank:
//! op`, so sequence, tags, rects and flops all count), then the per-rank
//! op counts, then the recognized collectives, and the lines are chained
//! through FNV-1a (the digest `PlanKey` uses). [`GOLDEN`] holds the final
//! digest plus a *trail*: the top six bits of the running digest after
//! every line, so the first line that differs can be printed.
//!
//! The constants were generated at the commit before `SpmdProgram` lost
//! its second copy of every op (from its `global`/`programs` fields). To
//! accept a deliberate lowering change, paste the table a failing run
//! prints.

use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{higher_order_problem, matmul_problem_on, RunConfig};
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::Mode;
use distal_spmd::{lower_problem, CollectiveConfig, SpmdProgram};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// `(case, final digest, trail)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &str)] = &[
    ("Our Cannon p=4 p2p", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our Cannon p=4 trees", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our Cannon p=4 rings", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our PUMMA p=4 p2p", 0xbff069998d252cb8, "AFpFSdX4NPulJ0PpEUkI8XiJKEWu0hDZv"),
    ("Our PUMMA p=4 trees", 0xbff069998d252cb8, "AFpFSdX4NPulJ0PpEUkI8XiJKEWu0hDZv"),
    ("Our PUMMA p=4 rings", 0xbff069998d252cb8, "AFpFSdX4NPulJ0PpEUkI8XiJKEWu0hDZv"),
    ("Our SUMMA p=4 p2p", 0xf97a1fbd3372df52, "kmEAwYLszcmqc/WNcP97ZvNW7n3Ler+acGBTkSOZxd9rG8iehiEw5e148OchsuCj+"),
    ("Our SUMMA p=4 trees", 0xf97a1fbd3372df52, "kmEAwYLszcmqc/WNcP97ZvNW7n3Ler+acGBTkSOZxd9rG8iehiEw5e148OchsuCj+"),
    ("Our SUMMA p=4 rings", 0xf97a1fbd3372df52, "kmEAwYLszcmqc/WNcP97ZvNW7n3Ler+acGBTkSOZxd9rG8iehiEw5e148OchsuCj+"),
    ("Our Johnson's p=4 p2p", 0xa50e9c6a575ccaa6, "DBiDehkBzHA+p"),
    ("Our Johnson's p=4 trees", 0xa50e9c6a575ccaa6, "DBiDehkBzHA+p"),
    ("Our Johnson's p=4 rings", 0xa50e9c6a575ccaa6, "DBiDehkBzHA+p"),
    ("Our Solomonik's p=4 p2p", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our Solomonik's p=4 trees", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our Solomonik's p=4 rings", 0x349c43f5839f1fa0, "AgaEIolBKNMHSGmcC573a0f0BR+kk/pAN"),
    ("Our COSMA p=4 p2p", 0x2c16a470977cdea4, "xZs3EX8vcqc+L"),
    ("Our COSMA p=4 trees", 0x2c16a470977cdea4, "xZs3EX8vcqc+L"),
    ("Our COSMA p=4 rings", 0x2c16a470977cdea4, "xZs3EX8vcqc+L"),
    ("Our Cannon p=16 p2p", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our Cannon p=16 trees", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our Cannon p=16 rings", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our PUMMA p=16 p2p", 0x4317973ab9a3511c, "BWrGmFfXoMH3JrelMavfveBMVIZLVfg+1LR+ylALsFTunBRF5hYHCqFOJHMh+7EaAZGEtX7uD3RooeUHy7e6Ud3/+uS99wi6QQk1RRzvKrDfKcx+8PhTIF6mQhpz6EedmoVMXsZ0VS6Jm2nkjKdSIAZvTZ8iCEYwlXO2RTGxiQ9722FY1WVIafNKSa55YzYAq34Vf0SUPbS3jMvhhZQZDvkkGFGM30MP/3lGAmVkN+Zu+rrV48rj+5tns953X1fFzdyAEaOcvLtOkuw+uL9VdcD3rWepZoTwn9gDwCXCk09fw+3KrzMFATkS7PIXS/D5Q"),
    ("Our PUMMA p=16 trees", 0xe09158c8ee4423ce, "BTuBgKC3alG5RnScicdHeuXEv366EN1JRZpY+LzKqJZhLSd/kddkVLBe/LdhOEfD20mJy/Ok0UD34J5y42KL9GWoOAXBUAWFuSzNLq71oyBkFpa5fbLcgRGr90eHqSpD0I8FjsP6HrXsSu35WN7rwC2qYbAh0Nl/hawgFtIRDAD94Nfk+31Fq/roR4qgK7PySy2OKCBQuN4hXunFwiM9U6YHlAxKY/CDcn5ckRTJrNlIpf2WLRGwCjCm5PSiRJtYZtlvqZCccDmmKuPg2JMzLxUl/7C2BeRKiGZtdHAl8Kt13/3U2JaYvX2otGOZm19F6PvSKuOkE3IO3OpE4"),
    ("Our PUMMA p=16 rings", 0x41dcb8877fd8af20, "BTuz0qrrpn0TwVwkm92OlWkLfx9L6qB6ny5ZVXTBF7JR8fTfyGRhaTFqKvO26tXKbacVE99PW279VQzvj+MhgdQYwuVwPu/IhCpuxZPUHOzt98iuRKFYDz18XMWBxsN0rI95lVAjEuKY6t7V9PznuyK+CI2Sf2G/MmBKUDHf9akSNOnytRJNeDfUiA4xI9LgGYjPq7m4ZQuopplCejd9qJH0drqugvYmcpqWu8ATkVDr5OTKXSHISuGQjvqPIiuaQ3VDEX++vQbTbtuwONLD1e0thlalWpr/LHdcqnMwQ+YRz231yVqreCl0WaJ6VdCBruhcVoTPTqYlHX9NQ"),
    ("Our SUMMA p=16 p2p", 0x673a61717a6e7eba, "BWrGmFfXoMvRiSC1QwGMFpVXbmUtWVVLCDTTLNyor5kCTn1UzYLnP1xXHSnCHawQRbxZjtdoV3E73MB8a8UyHPmpBJOby1m8DzKwXMURYlj6AWGhforYiKJx4Dhyjje628WKI8JzjIhczlxJd2jI6FhE1xri1w1H0V8I+FqCUteUu/R10J/Gfhzdw3+nLUxRYifz1V8bkFdOa+/56iIAPVOZ86+jPCMNQ5BKlz6F+mDmd4IfY4OEOlI1El95wGBXSN1P2ZaRObqxsg+dkjrsoEiP4eit5Sb2GwZd4G4dHy9M3IDxN6bqSbWVct5EmJ1gZ"),
    ("Our SUMMA p=16 trees", 0x93591197a71d2e80, "BTuBgKC3alB4h96p+/lWnyb+wHz3FCwq/R/WM6iMaGHecAHOiCWn82Qc+FNncdAnlm9PO6q2I33IV+nKToJURWwRmNUL8carq613bvtZnBlnnhHPHJSuHnyFgXoiCLuMKFxvZWGDoSiFIWwvzUav54wuC2xSs5H7T+QjkwC0TpKuK0Mu12DF+deqUOulQUZ8RGfhQohYkk9fpVMPtq5TyDalM3JtFTZgTsOCQC5f7hJpOvNmxmVzjap9pAY7V0zSPukCqPDk7taaei7VzJHkCuECQq7zSKTHF6wnpTW57KAVkhUbmhtGZ9hrMLAhduf5Ace8kAffxs3T5fjsNEBkmMmtZ3drbe7uk"),
    ("Our SUMMA p=16 rings", 0xa2eb91ff2a23f38e, "BTuz0qrrpnofDSsY1rHhV+0sdI87BXZuI5qcqcW03GlHM7Sv4vATPuHWQO85/MOq4Hl7h5GOUYuXGIwl3kupnAYWASawMNEROY5hyHV2hUyrrJ9KVO1OdeRwfnDWg9gGSUd5xGXmnJMKeVXRhTATyLFkVQWZNwS96bQI0TWsb2bmxeQY3Qnt1trqgjYZ2d1zQbwR4PpIy/NW/dlvFCgTZovv1sHFL9B8eIeT/TmbQSYxL9RqCiO0m++lZZeke91l8bJ9EYZ9XWH4nJSyHMy3UA2fa2OqO1PTVLIK+/DQhUOiFLs829z+2/jQ/4QpjjUQTCot34usWWVzT+TqMPgp60pM97u35+mHo"),
    ("Our Johnson's p=16 p2p", 0x5b7999f5061e1bb6, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGceQNO/D+D1PT1b/C5Dgf48V1UW"),
    ("Our Johnson's p=16 trees", 0x73580a6bc5484e1d, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGczYD/0YRZoaX+9FCLvBoI9xiVFe0Uc"),
    ("Our Johnson's p=16 rings", 0x94c57f2aed31746a, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGcIBBqbfblnpabnVFOCZuXIOl7UU8Ql"),
    ("Our Solomonik's p=16 p2p", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our Solomonik's p=16 trees", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our Solomonik's p=16 rings", 0x3ac5d28bd289aaf6, "BncCpfb5VRIDy1S6E8LlNdiFptFvO3FzllgKi+pM8o7uC6UNIeYLVGUe9GWeIh8CY6znhKHnFEV7j5a76Ks70l3OCdB1IVeIpBwaGOVe10uGulrePHj2W/f52QG4RoZKFw1x40ByQCEcW2Qz6OLCV1TzE9t0T0Iz3AfoNjVrACIP8wyJNMOd+KPVIloLMSTonTpNj1nvChWDa/HAP6O3YEzf38rOnKg3F+/NveVSPQfbmoviI0kRqAFXtGvl2zQCsWpfxo92kuZoBIyBMvxCBwsKa7BaNvi6c3cMLVNbC3SHDW5GbZAUue+IX18yGj7dO"),
    ("Our COSMA p=16 p2p", 0x5b7999f5061e1bb6, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGceQNO/D+D1PT1b/C5Dgf48V1UW"),
    ("Our COSMA p=16 trees", 0x73580a6bc5484e1d, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGczYD/0YRZoaX+9FCLvBoI9xiVFe0Uc"),
    ("Our COSMA p=16 rings", 0x94c57f2aed31746a, "Tdxdp5AcQKU3HOm/vPra3vENaYeqVZuavj5N/cMdgWIYSJGcIBBqbfblnpabnVFOCZuXIOl7UU8Ql"),
    ("TTV p=8", 0xf82d619938479800, "TuoaKSAY+"),
    ("Innerprod p=8", 0x3381724993ddb814, "TuoaKSAYn0Y4DTjCCbGkMyJM"),
    ("TTM p=8", 0xfc5eefcad7937e50, "hX7S4Bs4/"),
    ("MTTKRP p=8", 0x8aa5b6184cddf3b8, "yzMWoKImYT2CFYSwNq1iqQi"),
];

fn lines(program: &SpmdProgram) -> Vec<String> {
    let mut out: Vec<String> = program
        .in_order()
        .map(|(rank, op)| format!("{rank}: {op}"))
        .collect();
    let counts: Vec<usize> = (0..program.ranks())
        .map(|r| program.rank_ops(r).len())
        .collect();
    out.push(format!("rank op counts {counts:?}"));
    out.extend(
        program
            .collectives
            .iter()
            .map(|c| format!("collective {c}")),
    );
    out
}

/// The final chained FNV-1a digest of `lines` and its per-line trail.
fn fingerprint(lines: &[String]) -> (u64, String) {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut trail = String::with_capacity(lines.len());
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        trail.push(ALPHABET[(digest >> 58) as usize] as char);
    }
    (digest, trail)
}

fn cases() -> Vec<(String, SpmdProgram)> {
    let lowerings = [
        ("p2p", CollectiveConfig::point_to_point()),
        ("trees", CollectiveConfig::trees()),
        ("rings", CollectiveConfig::rings()),
    ];
    let mut out = Vec::new();
    for p in [4i64, 16] {
        let n = 2 * p;
        for alg in MatmulAlgorithm::all(p) {
            let (problem, schedule) = matmul_problem_on(
                alg,
                MachineSpec::small(p as usize),
                ProcKind::Cpu,
                MemKind::Sys,
                p,
                n,
                (n / 4).max(1),
            )
            .unwrap();
            for (label, cfg) in &lowerings {
                let program = lower_problem(&problem, &schedule, cfg).unwrap();
                out.push((format!("{} p={p} {label}", alg.name()), program));
            }
        }
    }
    let mut config = RunConfig::cpu(2, Mode::Functional);
    config.spec = MachineSpec::small(4);
    for kernel in HigherOrderKernel::all() {
        let (problem, schedule) = higher_order_problem(kernel, &config, 8).unwrap();
        let program = lower_problem(&problem, &schedule, &CollectiveConfig::trees()).unwrap();
        let p = config.processors();
        out.push((format!("{} p={p}", kernel.name()), program));
    }
    out
}

#[test]
fn lowering_matches_the_committed_fingerprint() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list changed");
    let mut table = String::new();
    let mut failures = Vec::new();
    for ((name, program), (want_name, want_digest, want_trail)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "case list changed");
        let lines = lines(program);
        let (digest, trail) = fingerprint(&lines);
        table.push_str(&format!(
            "    (\"{name}\", 0x{digest:016x}, \"{trail}\"),\n"
        ));
        if digest == *want_digest && trail == *want_trail {
            continue;
        }
        let at = trail
            .bytes()
            .zip(want_trail.bytes())
            .position(|(got, want)| got != want)
            .unwrap_or(trail.len().min(want_trail.len()));
        failures.push(format!(
            "{name}: {} lines (committed {}), first difference at line {at}: {}",
            lines.len(),
            want_trail.len(),
            lines.get(at).map_or("<end of program>", String::as_str),
        ));
    }
    assert!(
        failures.is_empty(),
        "the lowering changed:\n  {}\nif deliberate, replace GOLDEN with:\n{table}",
        failures.join("\n  ")
    );
}
