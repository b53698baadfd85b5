//! Shared random-einsum generation for the integration tests: one
//! generator feeds both the oracle-agreement suite
//! (`random_einsums.rs`) and the executor parity suite
//! (`executor_parity.rs`), so the two validate the same case
//! distribution and cannot drift apart. Plus the one oracle check every
//! runtime-backend suite shares.
#![allow(dead_code)] // each test binary uses a subset

use distal::prelude::*;
use distal_format::notation::{DimName, TensorDistribution};
use std::collections::BTreeMap;

/// Runs `problem` under `schedule` on a functional runtime backend and
/// asserts its output agrees with the sequential oracle (evaluated on the
/// inputs the instance itself holds) to `tol`, relative to magnitude.
/// Returns the executed instance and its (placement, compute) statistics.
pub fn run_against_oracle(
    backend: &RuntimeBackend,
    problem: &Problem,
    schedule: &Schedule,
    tol: f64,
) -> (RuntimeInstance, RunStats, RunStats) {
    let assignment = problem.assignment().expect("a statement");
    let mut instance = backend
        .compile_typed(problem, schedule)
        .unwrap_or_else(|e| panic!("{assignment}: compile: {e}"));
    let place = instance.place_stats().expect("place");
    let compute = instance.execute_stats().expect("execute");
    let inputs: BTreeMap<String, Vec<f64>> = assignment
        .input_accesses()
        .iter()
        .map(|acc| (acc.tensor.clone(), instance.read(&acc.tensor).unwrap()))
        .collect();
    let want = distal::core::oracle::evaluate(assignment, &problem.dims_map(), &inputs).unwrap();
    let got = instance.read(&assignment.lhs.tensor).unwrap();
    assert_eq!(got.len(), want.len(), "{assignment}");
    for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() <= tol * (1.0 + w.abs()),
            "{assignment}: mismatch at {idx}: {g} vs {w}"
        );
    }
    (instance, place, compute)
}

/// Small deterministic xorshift64* generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn data(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| (self.next() % 17) as f64 / 8.0 - 1.0)
            .collect()
    }
}

pub const VARS: [&str; 4] = ["i", "j", "k", "l"];

/// One random statement: expression string, tensor dims, distributed var.
pub struct Case {
    pub expr: String,
    pub dims: BTreeMap<String, Vec<i64>>,
    pub extents: BTreeMap<String, i64>,
    pub out: String,
    pub out_vars: Vec<String>,
    pub input_vars: Vec<Vec<String>>,
}

pub fn generate(rng: &mut Rng) -> Case {
    let extents: BTreeMap<String, i64> = VARS
        .iter()
        .map(|v| (v.to_string(), 2 + rng.below(4) as i64))
        .collect();
    let n_inputs = 1 + rng.below(2); // 1..=2 factors
    let names = ["B", "C"];
    let mut input_vars: Vec<Vec<String>> = Vec::new();
    for _ in 0..n_inputs {
        let arity = 1 + rng.below(3);
        let mut pool: Vec<&str> = VARS.to_vec();
        let mut vars = Vec::new();
        for _ in 0..arity {
            vars.push(pool.remove(rng.below(pool.len())).to_string());
        }
        input_vars.push(vars);
    }
    // Output: a subset (possibly empty = scalar) of the used variables.
    let used: Vec<String> = {
        let mut v: Vec<String> = Vec::new();
        for vars in &input_vars {
            for x in vars {
                if !v.contains(x) {
                    v.push(x.clone());
                }
            }
        }
        v
    };
    let out_arity = rng.below(used.len() + 1).min(2);
    let mut pool = used.clone();
    let mut out_vars = Vec::new();
    for _ in 0..out_arity {
        out_vars.push(pool.remove(rng.below(pool.len())));
    }

    let fmt_access = |name: &str, vars: &[String]| {
        if vars.is_empty() {
            name.to_string()
        } else {
            format!("{name}({})", vars.join(","))
        }
    };
    let out = if out_vars.is_empty() { "a" } else { "A" }.to_string();
    let rhs = input_vars
        .iter()
        .enumerate()
        .map(|(idx, vars)| fmt_access(names[idx], vars))
        .collect::<Vec<_>>()
        .join(" * ");
    let expr = format!("{} = {rhs}", fmt_access(&out, &out_vars));

    let mut dims = BTreeMap::new();
    dims.insert(out.clone(), out_vars.iter().map(|v| extents[v]).collect());
    for (idx, vars) in input_vars.iter().enumerate() {
        dims.insert(
            names[idx].to_string(),
            vars.iter().map(|v| extents[v]).collect(),
        );
    }
    Case {
        expr,
        dims,
        extents,
        out,
        out_vars,
        input_vars,
    }
}

/// Distribution of a tensor on a 1-D machine: partition by `dist_var` when
/// the tensor has it, otherwise replicate.
pub fn format_1d(vars: &[String], dist_var: &str) -> Format {
    let names: Vec<String> = (0..vars.len())
        .map(|q| char::from(b'a' + q as u8).to_string())
        .collect();
    let machine = match vars.iter().position(|v| v == dist_var) {
        Some(q) => DimName::Var(names[q].clone()),
        None => DimName::Broadcast,
    };
    Format::new(
        TensorDistribution::new(names, vec![machine]).unwrap(),
        MemKind::Sys,
    )
}

/// The generic 1-D schedule: distribute `dist_var`, communicate everything
/// at the distributed loop. Non-prefix variables need the full reorder.
pub fn schedule_1d(case: &Case, all_vars: &[String], dist_var: &str, p: i64) -> Schedule {
    let tensors: Vec<String> = case.dims.keys().cloned().collect();
    let trefs: Vec<&str> = tensors.iter().map(String::as_str).collect();
    let mut order: Vec<String> = vec![format!("{dist_var}_o")];
    for v in all_vars {
        if v == dist_var {
            order.push(format!("{dist_var}_i"));
        } else {
            order.push(v.clone());
        }
    }
    let order_refs: Vec<&str> = order.iter().map(String::as_str).collect();
    Schedule::new()
        .divide(
            dist_var,
            &format!("{dist_var}_o"),
            &format!("{dist_var}_i"),
            p,
        )
        .reorder(&order_refs)
        .distribute(&[&format!("{dist_var}_o")])
        .communicate(&trefs, &format!("{dist_var}_o"))
}

/// A generated case as a problem on a `p`-processor line machine, inputs
/// seeded per case, under [`schedule_1d`] over the first output variable
/// (or the statement's first variable, for a scalar output).
pub fn case_problem(case: &Case, p: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem
        .statement(&case.expr)
        .unwrap_or_else(|e| panic!("generated invalid expression '{}': {e}", case.expr));
    let assignment = problem.assignment().unwrap();
    let all_vars: Vec<String> = assignment.all_vars().iter().map(|v| v.0.clone()).collect();
    let dist_var = case
        .out_vars
        .first()
        .cloned()
        .unwrap_or_else(|| all_vars[0].clone());
    let schedule = schedule_1d(case, &all_vars, &dist_var, p);
    let mut data_rng = Rng(0x5EED ^ case.expr.len() as u64);
    for (name, dims) in &case.dims {
        let format = if name == &case.out && case.out_vars.is_empty() {
            Format::undistributed()
        } else if name == &case.out {
            format_1d(&case.out_vars, &dist_var)
        } else {
            let idx = if name == "B" { 0 } else { 1 };
            format_1d(&case.input_vars[idx], &dist_var)
        };
        problem
            .tensor(TensorSpec::new(name.clone(), dims.clone(), format))
            .unwrap_or_else(|e| panic!("{}: {e}", case.expr));
        if name != &case.out {
            let len = dims.iter().product::<i64>().max(1) as usize;
            problem.set_data(name, data_rng.data(len)).unwrap();
        }
    }
    (problem, schedule)
}
