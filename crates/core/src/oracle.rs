//! A sequential reference evaluator — the correctness oracle for tests.

use distal_ir::expr::{Assignment, Expr, IndexVar};
use std::collections::BTreeMap;

/// Evaluates a tensor index notation statement sequentially.
///
/// `dims` gives each tensor's dimension sizes; `inputs` gives row-major
/// data for every right-hand-side tensor. Returns the output tensor's
/// row-major data.
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
    let vars = assignment.all_vars();
    let var_extents: Vec<i64> = vars.iter().map(|v| extents[v]).collect();

    let positions = |indices: &[IndexVar]| -> Vec<usize> {
        let at = |v: &IndexVar| vars.iter().position(|x| x == v).unwrap();
        indices.iter().map(at).collect()
    };

    // Validate input sizes and precompute access metadata: variable
    // positions and strides.
    struct AccessInfo<'a> {
        var_pos: Vec<usize>,
        strides: Vec<i64>,
        data: &'a [f64],
    }
    let mut infos: Vec<AccessInfo> = Vec::new();
    for acc in assignment.input_accesses() {
        let d = dims
            .get(&acc.tensor)
            .ok_or(format!("missing dims for {}", acc.tensor))?;
        let expect: i64 = d.iter().product();
        let data = inputs
            .get(&acc.tensor)
            .ok_or(format!("missing data for {}", acc.tensor))?;
        if data.len() as i64 != expect {
            let (t, len) = (&acc.tensor, data.len());
            return Err(format!("tensor {t} has {len} elements, expected {expect}"));
        }
        infos.push(AccessInfo {
            var_pos: positions(&acc.indices),
            strides: row_major_strides(d),
            data,
        });
    }

    let out_dims = dims
        .get(&assignment.lhs.tensor)
        .ok_or(format!("missing dims for {}", assignment.lhs.tensor))?;
    let out_len: i64 = out_dims.iter().product::<i64>().max(1);
    let mut out = vec![0.0; out_len as usize];
    let out_strides = row_major_strides(out_dims);
    let out_pos = positions(&assignment.lhs.indices);

    let mut point = vec![0i64; vars.len()];
    if var_extents.contains(&0) {
        return Ok(out);
    }
    let mut values = vec![0.0f64; infos.len()];
    loop {
        for (vi, info) in infos.iter().enumerate() {
            let mut idx = 0;
            for (d, &p) in info.var_pos.iter().enumerate() {
                idx += point[p] * info.strides[d];
            }
            values[vi] = info.data[idx as usize];
        }
        let mut it = values.iter().copied();
        let v = eval_expr(&assignment.rhs, &mut it);
        let mut idx = 0;
        for (d, &p) in out_pos.iter().enumerate() {
            idx += point[p] * out_strides[d];
        }
        if assignment.is_reduction() {
            out[idx as usize] += v;
        } else {
            out[idx as usize] = v;
        }
        // Odometer.
        let mut d = vars.len();
        loop {
            if d == 0 {
                return Ok(out);
            }
            d -= 1;
            point[d] += 1;
            if point[d] < var_extents[d] {
                break;
            }
            point[d] = 0;
        }
    }
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

/// Row-major strides of a tensor with extents `dims`.
fn row_major_strides(dims: &[i64]) -> Vec<i64> {
    let mut strides = vec![1i64; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

fn eval_expr(e: &Expr, values: &mut impl Iterator<Item = f64>) -> f64 {
    match e {
        Expr::Access(_) => values.next().expect("missing value"),
        Expr::Literal(c) => *c,
        // Operands evaluate left to right, taking `values` in access order.
        Expr::Add(l, r) => eval_expr(l, values) + eval_expr(r, values),
        Expr::Mul(l, r) => eval_expr(l, values) * eval_expr(r, values),
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
