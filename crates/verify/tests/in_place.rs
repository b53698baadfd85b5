//! Verifying a lowered program in place finds what verifying its copy in
//! the event IR finds: `verify_program` reads the rank lists through the
//! [`distal_verify::Events`] view, `to_verify_ir` copies the same events
//! into a [`distal_verify::VerifyProgram`], and the two must agree
//! finding for finding — on clean programs and on programs corrupted
//! through `SpmdProgram::rewrite` by dropped, duplicated, re-tagged,
//! shifted and reordered ops.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::{DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{
    lower_problem, to_verify_ir, verify_program, CollectiveConfig, SpmdOp, SpmdProgram,
};

/// One Figure 9 matmul on `p` ranks, n = 8.
fn figure9(alg: MatmulAlgorithm, p: i64, cfg: &CollectiveConfig) -> SpmdProgram {
    let spec = MachineSpec::small(p as usize);
    let (problem, schedule) =
        matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, 8, 4).unwrap();
    lower_problem(&problem, &schedule, cfg).unwrap()
}

/// Compressed SpMV `a(i) = B(i,j) * c(j)` on a 4-rank line: B ships CSR
/// payloads, so message bytes are nnz-sized.
fn spmv(cfg: &CollectiveConfig) -> SpmdProgram {
    let (p, n) = (4, 16);
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p as usize), machine);
    problem.statement("a(i) = B(i,j) * c(j)").unwrap();
    let line = Format::parse("x->x", MemKind::Sys).unwrap();
    problem.tensor(TensorSpec::new("a", vec![n], line)).unwrap();
    let mut b_home = Format::undistributed_in(MemKind::Global);
    b_home.levels = Format::parse_levels("xy->x", "ds", MemKind::Sys)
        .unwrap()
        .levels;
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_home))
        .unwrap();
    let whole = Format::undistributed_in(MemKind::Global);
    problem
        .tensor(TensorSpec::new("c", vec![n], whole))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, 0.25).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    lower_problem(&problem, &schedule, cfg).unwrap()
}

/// xorshift64*, the generator the sibling suites use.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `r` moved by `d` along every dimension.
fn shift(r: &Rect, d: i64) -> Rect {
    let moved = |p: &Point| Point::new(p.coords().iter().map(|c| c + d).collect());
    Rect::new(moved(r.lo()), moved(r.hi()))
}

/// One random corruption of `stream`, the op stream of `program`: drop an
/// op, duplicate it, re-tag a message, shift a rectangle or a leaf's
/// bounds (interned in `program`), or move an op elsewhere in the stream,
/// possibly onto another rank.
fn corrupt(rng: &mut Rng, program: &mut SpmdProgram, stream: &mut Vec<(usize, SpmdOp)>) {
    let ranks = program.ranks();
    if stream.is_empty() {
        return;
    }
    let at = rng.below(stream.len());
    let d = [1, -1, 3, 1 << 20][rng.below(4)];
    match rng.below(6) {
        0 => {
            stream.remove(at);
        }
        1 => {
            let copy = stream[at];
            stream.insert(rng.below(stream.len() + 1), copy);
        }
        2 => {
            let tag = rng.next() % 64;
            if let Some(m) = message_mut(&mut stream[at].1) {
                m.tag = tag;
            }
        }
        3 => match &mut stream[at].1 {
            SpmdOp::Compute { bounds, .. } => {
                let shifted = program.bounds(*bounds).iter();
                let shifted: Vec<_> = shifted.map(|&(lo, hi)| (lo + d, hi + d)).collect();
                *bounds = program.intern_bounds(&shifted);
            }
            op => {
                if let Some(m) = message_mut(op) {
                    m.rect = program.intern(shift(program.rect(m.rect), d));
                }
            }
        },
        4 => {
            let entry = stream.remove(at);
            stream.insert(rng.below(stream.len() + 1), entry);
        }
        _ => stream[at].0 = rng.below(ranks),
    }
}

fn message_mut(op: &mut SpmdOp) -> Option<&mut distal_spmd::Message> {
    match op {
        SpmdOp::Send(m) | SpmdOp::Recv(m) | SpmdOp::ReduceSend(m) | SpmdOp::ReduceRecv(m) => {
            Some(m)
        }
        _ => None,
    }
}

#[test]
fn verifying_in_place_finds_what_verifying_the_copy_finds() {
    let mut programs = Vec::new();
    for cfg in [
        CollectiveConfig::point_to_point(),
        CollectiveConfig::trees(),
        CollectiveConfig::rings(),
    ] {
        for alg in MatmulAlgorithm::all(4) {
            programs.push(figure9(alg, 4, &cfg));
        }
        programs.push(figure9(MatmulAlgorithm::Johnson, 8, &cfg));
        programs.push(spmv(&cfg));
    }
    let mut rng = Rng(0xD157_A1D0);
    let (mut cases, mut flagged) = (0, 0);
    for program in &programs {
        let clean = verify_program(program);
        assert!(clean.is_empty(), "{clean:?}");
        assert_eq!(clean, distal_verify::verify(&to_verify_ir(program)));
        for _ in 0..40 {
            let mut corrupted = program.clone();
            let mut stream: Vec<_> = corrupted.in_order().map(|(r, op)| (r, *op)).collect();
            for _ in 0..1 + rng.below(3) {
                corrupt(&mut rng, &mut corrupted, &mut stream);
            }
            corrupted.rewrite(|s| *s = stream);
            let in_place = verify_program(&corrupted);
            let copied = distal_verify::verify(&to_verify_ir(&corrupted));
            assert_eq!(in_place, copied, "{corrupted:#?}");
            cases += 1;
            flagged += usize::from(!in_place.is_empty());
        }
    }
    // The corruptions are real: most of them are found.
    assert!(
        flagged * 4 >= cases * 3,
        "{flagged} of {cases} corruptions found"
    );
}
