//! A sequential reference evaluator — the correctness oracle for tests.
//!
//! The oracle is the reference leaf, [`InterpreterKernel`], run once over
//! the whole iteration space: a statement has one meaning, and the
//! generated leaves are held to that same interpreter bit for bit.

use crate::kernels::InterpreterKernel;
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect};
use distal_runtime::kernel::{ArgData, Kernel, KernelArg, KernelCtx};
use distal_runtime::program::Privilege;
use std::collections::BTreeMap;

/// Evaluates a tensor index notation statement sequentially.
///
/// `dims` gives each tensor's dimension sizes; `inputs` gives row-major
/// data for every right-hand-side tensor. Returns the output tensor's
/// row-major data: one [`InterpreterKernel`] leaf, bounded by every
/// variable's full extent, run into a fresh zeroed output that it adds
/// into exactly when the statement [`Assignment::is_reduction`].
///
/// # Errors
///
/// Reports missing tensors, inconsistent extents, and size mismatches as
/// strings (this is a test utility, not part of the compiler surface).
pub fn evaluate(
    assignment: &Assignment,
    dims: &BTreeMap<String, Vec<i64>>,
    inputs: &BTreeMap<String, Vec<f64>>,
) -> Result<Vec<f64>, String> {
    let extents = assignment
        .infer_extents(dims)
        .ok_or_else(|| "missing tensor dims or inconsistent extents".to_string())?;
    // `infer_extents` has found dims for every access.
    let out_dims = &dims[&assignment.lhs.tensor];
    let mut out = vec![0.0; out_dims.iter().product::<i64>().max(1) as usize];
    let rect = Rect::sized(out_dims);
    let mut args = vec![KernelArg {
        privilege: Privilege::ReadWrite,
        rect,
        alloc: rect,
        data: ArgData::Write(&mut out),
        sparse: None,
    }];
    for acc in assignment.input_accesses() {
        let d = &dims[&acc.tensor];
        let expect: i64 = d.iter().product();
        let data = inputs
            .get(&acc.tensor)
            .ok_or(format!("missing data for {}", acc.tensor))?;
        if data.len() as i64 != expect {
            let (t, len) = (&acc.tensor, data.len());
            return Err(format!("tensor {t} has {len} elements, expected {expect}"));
        }
        let rect = Rect::sized(d);
        args.push(KernelArg {
            privilege: Privilege::Read,
            rect,
            alloc: rect,
            data: ArgData::Read(data),
            sparse: None,
        });
    }
    // Bounds `[0, extent - 1]` per variable, in `all_vars` order.
    let vars = assignment.all_vars();
    let scalars = vars.iter().flat_map(|v| [0, extents[v] - 1]).collect();
    let leaf = InterpreterKernel::new(assignment.clone(), assignment.is_reduction());
    leaf.execute(&mut KernelCtx {
        args,
        point: Point::zeros(0),
        scalars,
    });
    Ok(out)
}

/// Evaluates the oracle on `inputs` and [`compare`]s `got` with it.
///
/// # Errors
///
/// The oracle's own error, or [`compare`]'s prefixed with the statement.
pub fn check(
    assignment: &Assignment,
    dims: &BTreeMap<String, Vec<i64>>,
    inputs: &BTreeMap<String, Vec<f64>>,
    got: &[f64],
    tol: f64,
) -> Result<(), String> {
    let want = evaluate(assignment, dims, inputs)?;
    compare(got, &want, tol).map_err(|e| format!("{assignment}: {e}"))
}

/// Compares `got` with an oracle answer `want` already evaluated (for
/// callers that check many results against one answer): equal lengths,
/// and `|g − w| < tol · (1 + |w|)` at every index.
///
/// # Errors
///
/// A length mismatch, or the first index whose values differ by too much,
/// with both values.
pub fn compare(got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        let (g, w) = (got.len(), want.len());
        return Err(format!("{g} elements, the oracle has {w}"));
    }
    // "Not close" rather than "far apart": a NaN on either side mismatches.
    let close = |(g, w): (&f64, &f64)| (g - w).abs() < tol * (1.0 + w.abs());
    match got.iter().zip(want).position(|pair| !close(pair)) {
        None => Ok(()),
        Some(i) => Err(format!("mismatch at {i}: {} vs {}", got[i], want[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_ir::expr::kernels;

    fn dims_of(pairs: &[(&str, &[i64])]) -> BTreeMap<String, Vec<i64>> {
        pairs
            .iter()
            .map(|(n, d)| (n.to_string(), d.to_vec()))
            .collect()
    }

    #[test]
    fn matmul_identity() {
        let n = 3i64;
        let dims = dims_of(&[("A", &[n, n]), ("B", &[n, n]), ("C", &[n, n])]);
        let ident: Vec<f64> = (0..n * n)
            .map(|x| if x / n == x % n { 1.0 } else { 0.0 })
            .collect();
        let b: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let mut inputs = BTreeMap::new();
        inputs.insert("B".into(), b.clone());
        inputs.insert("C".into(), ident);
        let out = evaluate(&kernels::matmul(), &dims, &inputs).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn ttv_small() {
        // B is 2x2x2 of ones, c = [1, 2]; A(i,j) = sum_k B(i,j,k) c(k) = 3.
        let dims = dims_of(&[("A", &[2, 2]), ("B", &[2, 2, 2]), ("c", &[2])]);
        let mut inputs = BTreeMap::new();
        inputs.insert("B".into(), vec![1.0; 8]);
        inputs.insert("c".into(), vec![1.0, 2.0]);
        let out = evaluate(&kernels::ttv(), &dims, &inputs).unwrap();
        assert_eq!(out, vec![3.0; 4]);
    }

    #[test]
    fn innerprod_scalar() {
        let dims = dims_of(&[("a", &[]), ("B", &[2, 2, 2]), ("C", &[2, 2, 2])]);
        let mut inputs = BTreeMap::new();
        inputs.insert("B".into(), vec![2.0; 8]);
        inputs.insert("C".into(), vec![3.0; 8]);
        let out = evaluate(&kernels::innerprod(), &dims, &inputs).unwrap();
        assert_eq!(out, vec![48.0]);
    }

    #[test]
    fn mttkrp_hand_checked() {
        // 2x2x2 B of ones; C, D 2x2 of ones: A(i,l) = sum_{j,k} 1 = 4.
        let dims = dims_of(&[
            ("A", &[2, 2]),
            ("B", &[2, 2, 2]),
            ("C", &[2, 2]),
            ("D", &[2, 2]),
        ]);
        let mut inputs = BTreeMap::new();
        inputs.insert("B".into(), vec![1.0; 8]);
        inputs.insert("C".into(), vec![1.0; 4]);
        inputs.insert("D".into(), vec![1.0; 4]);
        let out = evaluate(&kernels::mttkrp(), &dims, &inputs).unwrap();
        assert_eq!(out, vec![4.0; 4]);
    }

    #[test]
    fn check_names_the_first_mismatch() {
        let dims = dims_of(&[("A", &[3]), ("B", &[3])]);
        let inputs = BTreeMap::from([("B".to_string(), vec![1.0, 2.0, 3.0])]);
        let a = distal_ir::expr::Assignment::parse("A(i) = B(i)").unwrap();
        assert_eq!(check(&a, &dims, &inputs, &[1.0, 2.0, 3.0], 1e-12), Ok(()));
        let err = |got: &[f64]| check(&a, &dims, &inputs, got, 1e-12).unwrap_err();
        assert!(err(&[1.0, 2.5, f64::NAN]).contains("mismatch at 1: 2.5 vs 2"));
        assert!(err(&[1.0, 2.0, f64::NAN]).contains("mismatch at 2: NaN vs 3"));
        assert!(err(&[1.0, 2.0]).contains("2 elements, the oracle has 3"));
        assert!(err(&[0.0, 2.0, 3.0]).starts_with("A(i) = B(i): mismatch at 0"));
        assert_eq!(compare(&[1.0, 2.0], &[1.0, 2.0], 1e-12), Ok(()));
    }

    #[test]
    fn a_zero_extent_variable_leaves_the_output_zeroed() {
        // k has extent 0: the sum over it is empty, so every A(i) is +0.0.
        let dims = dims_of(&[("A", &[3]), ("B", &[3, 0]), ("c", &[0])]);
        let inputs = BTreeMap::from([("B".into(), vec![]), ("c".into(), vec![])]);
        let a = distal_ir::expr::Assignment::parse("A(i) = B(i,k) * c(k)").unwrap();
        let out = evaluate(&a, &dims, &inputs).unwrap();
        assert_eq!(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), [0; 3]);
    }

    #[test]
    fn literals_sums_and_products_match_a_hand_loop_bit_for_bit() {
        let dims = dims_of(&[("A", &[3, 5]), ("B", &[3, 5]), ("C", &[3, 5])]);
        let (b, c) = (crate::random_data(15, 7), crate::random_data(15, 8));
        let inputs = BTreeMap::from([("B".into(), b.clone()), ("C".into(), c.clone())]);
        let a = distal_ir::expr::Assignment::parse("A(i,j) = B(i,j) * 2.0 + C(i,j)").unwrap();
        let mut want = vec![0.0; 15];
        for i in 0..3 {
            for j in 0..5 {
                want[i * 5 + j] = b[i * 5 + j] * 2.0 + c[i * 5 + j];
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&evaluate(&a, &dims, &inputs).unwrap()), bits(&want));
    }

    #[test]
    fn size_mismatch_reported() {
        let dims = dims_of(&[("A", &[2]), ("B", &[2])]);
        let mut inputs = BTreeMap::new();
        inputs.insert("B".into(), vec![1.0; 3]);
        let a = distal_ir::expr::Assignment::parse("A(i) = B(i)").unwrap();
        assert!(evaluate(&a, &dims, &inputs)
            .unwrap_err()
            .contains("elements"));
    }
}
