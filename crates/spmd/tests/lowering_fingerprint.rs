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
//!
//! [`GOLDEN_DIGESTS`] pins the programs too long for a trail — the
//! pipeline benchmark's shape (n = 512, chunk 128) at p = 64 and p = 256 —
//! and three small layouts whose supplier tie-breaking no Figure 9 row
//! exercises, by final digest only. Those constants were generated at the
//! commit before the supplier search moved onto `geom::RectIndex`. A
//! mismatch there is located against a dump rendered at the parent commit
//! (see [`render_parent_dumps`]).

use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{higher_order_problem, matmul_problem_on, RunConfig};
use distal_core::{DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::Mode;
use distal_spmd::{lower_problem, CollectiveConfig, SpmdProgram};
use std::path::PathBuf;

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

/// `(case, final digest)` of the digest-only cases.
#[rustfmt::skip]
const GOLDEN_DIGESTS: &[(&str, u64)] = &[
    ("Our Cannon p=64 n=512 p2p", 0x8cd85e40abb04bc0),
    ("Our Cannon p=64 n=512 trees", 0x8cd85e40abb04bc0),
    ("Our Cannon p=64 n=512 rings", 0x8cd85e40abb04bc0),
    ("Our PUMMA p=64 n=512 p2p", 0x5e26217b940c7794),
    ("Our PUMMA p=64 n=512 trees", 0xe5b866b4c36892ec),
    ("Our PUMMA p=64 n=512 rings", 0xba6cabeda509830c),
    ("Our SUMMA p=64 n=512 p2p", 0xb4d23d5dc4da27c8),
    ("Our SUMMA p=64 n=512 trees", 0xaa7430676480359e),
    ("Our SUMMA p=64 n=512 rings", 0xd2127c7ad135d4e8),
    ("Our Johnson's p=64 n=512 p2p", 0x47c5744b794b38df),
    ("Our Johnson's p=64 n=512 trees", 0x174ceab51a1864a6),
    ("Our Johnson's p=64 n=512 rings", 0x7cbd336da0661311),
    ("Our Solomonik's p=64 n=512 p2p", 0x63f4d76f50477df2),
    ("Our Solomonik's p=64 n=512 trees", 0xb55f24d64e7c33bb),
    ("Our Solomonik's p=64 n=512 rings", 0xaeac04b9da1912f5),
    ("Our COSMA p=64 n=512 p2p", 0x47c5744b794b38df),
    ("Our COSMA p=64 n=512 trees", 0x174ceab51a1864a6),
    ("Our COSMA p=64 n=512 rings", 0x7cbd336da0661311),
    ("Our Cannon p=256 n=512 trees", 0xf147294f1ab298f2),
    ("Our PUMMA p=256 n=512 trees", 0x1feed675bbdb670a),
    ("Our SUMMA p=256 n=512 trees", 0x793e52bd465ecb58),
    ("SUMMA p=4 n=32, B and C @bc4", 0xce757c30a5c689e6),
    ("Solomonik's p=32 n=16, B and C replicated", 0xa1a31680ff0b9ab7),
    ("SUMMA p=4 n=8, C undistributed", 0x896bf8a5b4fa586b),
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
    let lowerings = lowerings();
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

fn lowerings() -> [(&'static str, CollectiveConfig); 3] {
    [
        ("p2p", CollectiveConfig::point_to_point()),
        ("trees", CollectiveConfig::trees()),
        ("rings", CollectiveConfig::rings()),
    ]
}

/// `A(i,j) = B(i,k) * C(k,j)` at side `n` on `alg`'s grid for `p`
/// processors under `alg`'s schedule (chunk `n / 4`), with the given
/// formats for `A`, `B`, `C` instead of the algorithm's own.
fn matmul_with_formats(
    alg: MatmulAlgorithm,
    p: i64,
    n: i64,
    formats: [Format; 3],
) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(alg.grid(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p as usize), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    for (name, format) in ["A", "B", "C"].iter().zip(formats) {
        problem
            .tensor(TensorSpec::new(*name, vec![n, n], format))
            .unwrap();
    }
    (problem, alg.schedule(p, n, n / 4))
}

/// The digest-only cases: the pipeline benchmark's `plan_scale` shape
/// (n = 512, chunk 128) for the six algorithms at p = 64 under each
/// lowering and for Cannon / PUMMA / SUMMA at p = 256 under trees; then
/// three small layouts in which one need meets many candidate holders —
/// block-cyclic inputs (16 home pieces per rank), inputs replicated
/// along the third grid dimension of a multi-step 2.5D schedule (every
/// rectangle has two home owners, and forwarded scratch copies compete
/// with them), and an undistributed input (whole on rank 0).
fn digest_only_cases() -> Vec<(String, SpmdProgram)> {
    let mut out = Vec::new();
    let bench_shape = |alg: MatmulAlgorithm, p: i64| {
        let spec = MachineSpec::small(p as usize / 2);
        matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, 512, 128).unwrap()
    };
    for alg in MatmulAlgorithm::all(64) {
        let (problem, schedule) = bench_shape(alg, 64);
        for (label, cfg) in &lowerings() {
            let program = lower_problem(&problem, &schedule, cfg).unwrap();
            out.push((format!("{} p=64 n=512 {label}", alg.name()), program));
        }
    }
    for alg in [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Summa,
    ] {
        let (problem, schedule) = bench_shape(alg, 256);
        let program = lower_problem(&problem, &schedule, &CollectiveConfig::trees()).unwrap();
        out.push((format!("{} p=256 n=512 trees", alg.name()), program));
    }

    let f = |s: &str| Format::parse(s, MemKind::Sys).unwrap();
    let small = [
        (
            "SUMMA p=4 n=32, B and C @bc4",
            MatmulAlgorithm::Summa,
            4,
            32,
            [f("xy->xy"), f("xy->xy @bc4"), f("xy->xy @bc4")],
        ),
        (
            "Solomonik's p=32 n=16, B and C replicated",
            MatmulAlgorithm::Solomonik { c: 2 },
            32,
            16,
            [f("xy->xy0"), f("xy->xy*"), f("xy->xy*")],
        ),
        (
            "SUMMA p=4 n=8, C undistributed",
            MatmulAlgorithm::Summa,
            4,
            8,
            [f("xy->xy"), f("xy->xy"), Format::undistributed()],
        ),
    ];
    for (name, alg, p, n, formats) in small {
        let (problem, schedule) = matmul_with_formats(alg, p, n, formats);
        let program = lower_problem(&problem, &schedule, &CollectiveConfig::trees()).unwrap();
        out.push((name.to_string(), program));
    }
    out
}

/// Where [`render_parent_dumps`] writes a digest-only case's lines.
fn dump_path(case: &str) -> PathBuf {
    let slug: String = case
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("lowering_fingerprint")
        .join(format!("{slug}.txt"))
}

#[test]
fn large_lowerings_match_the_committed_digests() {
    let cases = digest_only_cases();
    assert_eq!(cases.len(), GOLDEN_DIGESTS.len(), "case list changed");
    let mut table = String::new();
    let mut failures = Vec::new();
    for ((name, program), (want_name, want_digest)) in cases.iter().zip(GOLDEN_DIGESTS) {
        assert_eq!(name, want_name, "case list changed");
        let lines = lines(program);
        let (digest, _) = fingerprint(&lines);
        table.push_str(&format!("    (\"{name}\", 0x{digest:016x}),\n"));
        if digest == *want_digest {
            continue;
        }
        // No trail at this length: locate the change against the dump a
        // parent checkout rendered, when there is one.
        let path = dump_path(name);
        failures.push(match std::fs::read_to_string(&path) {
            Ok(parent) => {
                let parent: Vec<&str> = parent.lines().collect();
                let at = lines
                    .iter()
                    .zip(&parent)
                    .position(|(got, want)| got != want)
                    .unwrap_or(lines.len().min(parent.len()));
                format!(
                    "{name}: {} lines (parent dump {}), first difference at line {at}: \
                     {} (parent: {})",
                    lines.len(),
                    parent.len(),
                    lines.get(at).map_or("<end of program>", String::as_str),
                    parent.get(at).unwrap_or(&"<end of program>"),
                )
            }
            Err(_) => format!(
                "{name}: {} lines, digest 0x{digest:016x} (committed 0x{want_digest:016x}); \
                 no parent dump at {} — check out the parent commit, run `cargo test -p \
                 distal-spmd --test lowering_fingerprint -- --ignored render_parent_dumps`, \
                 and re-run this test here to see the first differing line",
                lines.len(),
                path.display()
            ),
        });
    }
    assert!(
        failures.is_empty(),
        "the lowering changed:\n  {}\nif deliberate, replace GOLDEN_DIGESTS with:\n{table}",
        failures.join("\n  ")
    );
}

/// Writes every digest-only case's lines under the target directory (which
/// survives a `git checkout`), for
/// [`large_lowerings_match_the_committed_digests`] to diff a later
/// mismatch against.
#[test]
#[ignore = "writes op dumps; run at the parent commit to locate a digest mismatch"]
fn render_parent_dumps() {
    for (name, program) in digest_only_cases() {
        let path = dump_path(&name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, lines(&program).join("\n") + "\n").unwrap();
    }
}
