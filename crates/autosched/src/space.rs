//! Candidate enumeration: the joint (grid, formats, schedule) search space.

use distal_core::{CompileError, Schedule};
use distal_format::notation::{DimName, TensorDistribution};
use distal_format::Format;
use distal_ir::expr::{Assignment, IndexVar};
use distal_machine::grid::Grid;
use distal_machine::spec::MemKind;
use std::collections::BTreeMap;

/// One point of the search space: a machine organization, a format per
/// tensor, and a schedule — the three things Figure 1 asks the user for.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Human-readable description (family, distributed vars, grid, chunk).
    pub name: String,
    /// The machine grid (a factorization of the processor count).
    pub grid: Grid,
    /// Format per tensor name.
    pub formats: BTreeMap<String, Format>,
    /// The schedule.
    pub schedule: Schedule,
}

/// Maximum number of distributed free variables.
const MAX_DIMS: usize = 3;

/// Chunk sizes tried for streaming the sequential reduction loop (`0`
/// means "one chunk per grid row", SUMMA's natural granularity).
const CHUNKS: [i64; 2] = [0, 256];

/// Knobs bounding the enumeration. The rest is fixed: at most three
/// distributed free variables, and a streamed reduction in chunks of one
/// per grid row or of 256.
#[derive(Clone, Debug)]
pub struct SpaceOptions {
    /// Memory kind tensor tiles live in.
    pub mem: MemKind,
    /// Enumerate every grid factorization instead of only the balanced one
    /// (COSMA-style grid exploration; exhaustive for small `p`).
    pub exhaustive_grids: bool,
}

impl SpaceOptions {
    /// Defaults: balanced grids.
    pub fn new(mem: MemKind) -> Self {
        SpaceOptions {
            mem,
            exhaustive_grids: false,
        }
    }
}

/// All ordered size-`k` subsequences of `items` (order preserved, so the
/// distributed loop order follows the statement's variable order).
fn subsequences<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        for mut rest in subsequences(&items[i + 1..], k - 1) {
            rest.insert(0, first.clone());
            out.push(rest);
        }
    }
    out
}

/// All factorizations of `p` into exactly `d` ordered factors.
fn factorizations(p: i64, d: usize) -> Vec<Vec<i64>> {
    if d == 1 {
        return vec![vec![p]];
    }
    let mut out = Vec::new();
    let mut f = 1;
    while f <= p {
        if p % f == 0 {
            for mut rest in factorizations(p / f, d - 1) {
                rest.insert(0, f);
                out.push(rest);
            }
        }
        f += 1;
    }
    out
}

/// The most balanced factorization of `p` into `d` factors: largest
/// minimum factor, then smallest maximum, then lexicographically first
/// (so ties resolve deterministically to the ascending form).
fn balanced(p: i64, d: usize) -> Vec<i64> {
    factorizations(p, d)
        .into_iter()
        .min_by_key(|f| {
            let min = *f.iter().min().expect("nonempty");
            let max = *f.iter().max().expect("nonempty");
            (-min, max, f.clone())
        })
        .expect("p >= 1 always factors")
}

/// Positional dimension names for a tensor of the given order ("a", "b"...).
fn dim_names(order: usize) -> Vec<String> {
    (0..order)
        .map(|i| char::from(b'a' + i as u8).to_string())
        .collect()
}

/// How to lay out the machine dimensions whose variable does not index a
/// given input tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbsentPolicy {
    /// Replicate the tensor across the dimension (`*`) — communication-lean
    /// at compute time, memory-hungry (the 2D family with pre-broadcast
    /// inputs; "Replicate B onto all nodes", Figure 1).
    Broadcast,
    /// Partition a spare tensor dimension (one indexed by a reduction
    /// variable) over the machine dimension — the classic tiled layouts of
    /// Figure 9 (SUMMA's `B xy↦xy` tiles B's reduction dimension over the
    /// machine's `y`). Falls back to broadcast when no spare dim remains.
    PartitionSpare,
    /// Fix the tensor to face 0 of the dimension — Johnson's layout.
    Face,
}

/// The format distributing each tensor dimension indexed by a variable in
/// `dist_vars` along that variable's machine dimension; `spare` lists the
/// tensor's dimensions indexed by reduction variables not in `dist_vars`
/// (candidates for [`AbsentPolicy::PartitionSpare`]).
fn format_for(
    acc_indices: &[IndexVar],
    dist_vars: &[IndexVar],
    policy: AbsentPolicy,
    reductions: &[IndexVar],
    mem: MemKind,
) -> Format {
    let names = dim_names(acc_indices.len());
    let mut spare: Vec<usize> = acc_indices
        .iter()
        .enumerate()
        .filter(|(_, v)| reductions.contains(v) && !dist_vars.contains(v))
        .map(|(i, _)| i)
        .collect();
    let machine_dims: Vec<DimName> = dist_vars
        .iter()
        .map(|v| match acc_indices.iter().position(|i| i == v) {
            Some(pos) => DimName::Var(names[pos].clone()),
            None => match policy {
                AbsentPolicy::Broadcast => DimName::Broadcast,
                AbsentPolicy::Face => DimName::Const(0),
                AbsentPolicy::PartitionSpare => {
                    if spare.is_empty() {
                        DimName::Broadcast
                    } else {
                        DimName::Var(names[spare.remove(0)].clone())
                    }
                }
            },
        })
        .collect();
    let dist = TensorDistribution::new(names, machine_dims)
        .expect("generated notation is valid by construction");
    Format::new(dist, mem)
}

/// Formats for every tensor of `assignment` under the distributed
/// variables `dist_vars`. The *output* never broadcasts: machine dims not
/// indexing it are fixed to face 0 (partial results fold there).
fn formats_for(
    assignment: &Assignment,
    dist_vars: &[IndexVar],
    inputs_policy: AbsentPolicy,
    mem: MemKind,
) -> BTreeMap<String, Format> {
    let reductions = assignment.reduction_vars();
    let mut formats = BTreeMap::new();
    formats.insert(
        assignment.lhs.tensor.clone(),
        format_for(
            &assignment.lhs.indices,
            dist_vars,
            AbsentPolicy::Face,
            &reductions,
            mem,
        ),
    );
    for acc in assignment.input_accesses() {
        formats.entry(acc.tensor.clone()).or_insert_with(|| {
            format_for(&acc.indices, dist_vars, inputs_policy, &reductions, mem)
        });
    }
    formats
}

fn var_names(vars: &[IndexVar]) -> Vec<String> {
    vars.iter().map(|v| v.0.clone()).collect()
}

fn derived(vars: &[IndexVar], suffix: &str) -> Vec<String> {
    vars.iter().map(|v| format!("{}{suffix}", v.0)).collect()
}

fn refs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// A schedule prefix that distributes `targets` over `gdims` with the
/// distributed halves hoisted outermost — unlike the compound
/// `distribute_onto`, this works for *any* subset of the statement's
/// variables (e.g. distributing only `j` of `A(i,j)`), by issuing a full
/// reorder over every loop variable.
///
/// Returns the schedule and the loop order below the distributed prefix
/// (`targets` replaced by their inner halves, other variables unchanged).
fn distribute_prefix(
    all_vars: &[IndexVar],
    targets: &[IndexVar],
    outs: &[String],
    ins: &[String],
    gdims: &[i64],
) -> (Schedule, Vec<String>) {
    let mut schedule = Schedule::new();
    for ((v, o), (i, g)) in targets
        .iter()
        .zip(outs.iter())
        .zip(ins.iter().zip(gdims.iter()))
    {
        schedule = schedule.divide(&v.0, o, i, *g);
    }
    let rest: Vec<String> = all_vars
        .iter()
        .map(|v| match targets.iter().position(|t| t == v) {
            Some(pos) => ins[pos].clone(),
            None => v.0.clone(),
        })
        .collect();
    let mut order: Vec<&str> = refs(outs);
    order.extend(rest.iter().map(String::as_str));
    schedule = schedule.reorder(&order).distribute(&refs(outs));
    (schedule, rest)
}

/// Enumerates the candidate (grid, formats, schedule) triples for an
/// expression on `p` processors.
///
/// # Errors
///
/// [`CompileError::Expression`] when `expr` does not parse,
/// [`CompileError::UnknownTensor`] for a tensor `dims` has no shape for,
/// and [`CompileError::InconsistentExtents`] when the shapes disagree on
/// an index variable's extent.
pub fn enumerate_candidates(
    expr: &str,
    dims: &BTreeMap<String, Vec<i64>>,
    p: i64,
    options: &SpaceOptions,
) -> Result<(Assignment, Vec<Candidate>), CompileError> {
    let assignment =
        Assignment::parse(expr).map_err(|e| CompileError::Expression(e.to_string()))?;
    for acc in assignment.accesses() {
        if !dims.contains_key(&acc.tensor) {
            return Err(CompileError::UnknownTensor(acc.tensor.clone()));
        }
    }
    let extents = assignment
        .infer_extents(dims)
        .ok_or(CompileError::InconsistentExtents)?;
    let free = assignment.free_vars();
    let reductions = assignment.reduction_vars();
    // The reduction variable streamed sequentially: the largest one.
    let stream = reductions.iter().max_by_key(|v| extents[*v]).cloned();

    let mut candidates = Vec::new();

    // Baseline: everything on one processor, tensors undistributed.
    {
        let mut formats = BTreeMap::new();
        for acc in assignment.accesses() {
            formats.insert(acc.tensor.clone(), Format::undistributed());
        }
        candidates.push(Candidate {
            name: "sequential".into(),
            grid: Grid::line(1),
            formats,
            schedule: Schedule::new(),
        });
    }

    // Owner-computes and systolic families over subsets of free variables.
    for ds in 1..=MAX_DIMS.min(free.len()) {
        for subset in subsequences(&free, ds) {
            let grids = if options.exhaustive_grids {
                factorizations(p, ds)
            } else {
                vec![balanced(p, ds)]
            };
            for gdims in grids {
                if gdims.iter().any(|&g| g < 1) || gdims.iter().product::<i64>() != p {
                    continue;
                }
                candidates.extend(owner_computes_family(
                    &assignment,
                    &subset,
                    &gdims,
                    stream.as_ref(),
                    &extents,
                    options,
                ));
            }
        }
    }

    // Reduction-distributed (Johnson-style) family: distribute up to two
    // free variables plus the streamed reduction variable.
    if let Some(r) = &stream {
        for ds in 1..=2usize.min(free.len()) {
            for subset in subsequences(&free, ds) {
                let gdims = balanced(p, ds + 1);
                if gdims.iter().product::<i64>() != p {
                    continue;
                }
                if let Some(c) = reduction_distributed(&assignment, &subset, r, &gdims, options) {
                    candidates.push(c);
                }
            }
        }
    }

    Ok((assignment, candidates))
}

/// SUMMA-shaped (and, when the grid allows, Cannon-shaped) candidates for
/// one choice of distributed free variables and grid. Each schedule comes
/// in two format variants: classic *tiled* inputs (Figure 9's layouts) and
/// pre-*replicated* inputs (`+rep`, trading memory for silence at compute
/// time) — memory limits arbitrate between them during the search.
fn owner_computes_family(
    assignment: &Assignment,
    subset: &[IndexVar],
    gdims: &[i64],
    stream: Option<&IndexVar>,
    extents: &BTreeMap<IndexVar, i64>,
    options: &SpaceOptions,
) -> Vec<Candidate> {
    let grid = Grid::new(gdims.to_vec());
    let tiled = formats_for(
        assignment,
        subset,
        AbsentPolicy::PartitionSpare,
        options.mem,
    );
    let replicated = formats_for(assignment, subset, AbsentPolicy::Broadcast, options.mem);
    let variants: Vec<(&str, &BTreeMap<String, Format>)> = if tiled == replicated {
        vec![("", &tiled)]
    } else {
        vec![("", &tiled), ("+rep", &replicated)]
    };
    let outs = derived(subset, "_o");
    let ins = derived(subset, "_i");
    let out_name = assignment.lhs.tensor.clone();
    let input_names: Vec<String> = {
        let mut seen = Vec::new();
        for acc in assignment.input_accesses() {
            if !seen.contains(&acc.tensor) && acc.tensor != out_name {
                seen.push(acc.tensor.clone());
            }
        }
        seen
    };
    let subset_label = var_names(subset).join(",");
    let grid_label = gdims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");

    let (base, rest) = distribute_prefix(&assignment.all_vars(), subset, &outs, &ins, gdims);
    let mut out = Vec::new();

    // The loop order once the stream variable is split: distributed outers,
    // then the stream's chunk loop, then everything else, then the chunk's
    // inner half.
    let stream_order = |ro: &str, ri: &str| -> Vec<String> {
        let mut order: Vec<String> = outs.clone();
        order.push(ro.to_string());
        order.extend(
            rest.iter()
                .filter(|v| stream.map(|r| &r.0) != Some(*v))
                .cloned(),
        );
        order.push(ri.to_string());
        order
    };

    match stream {
        None => {
            // Element-wise: everything communicates at the launch level.
            let mut tensors: Vec<&str> = vec![&out_name];
            tensors.extend(input_names.iter().map(String::as_str));
            for (suffix, formats) in &variants {
                out.push(Candidate {
                    name: format!("owner[{subset_label}] {grid_label}{suffix}"),
                    grid: grid.clone(),
                    formats: (*formats).clone(),
                    schedule: base
                        .clone()
                        .communicate(&tensors, outs.last().expect("ds >= 1")),
                });
            }
        }
        Some(r) => {
            let extent = extents[r];
            let last_out = outs.last().expect("ds >= 1").clone();
            for chunk in CHUNKS {
                let chunk = if chunk == 0 {
                    (extent / gdims[0]).max(1)
                } else if chunk >= extent {
                    continue; // no streaming at this size; covered by chunk=0
                } else {
                    chunk
                };
                let (ro, ri) = (format!("{}_so", r.0), format!("{}_si", r.0));
                let order = stream_order(&ro, &ri);
                let schedule = base
                    .clone()
                    .split(&r.0, &ro, &ri, chunk)
                    .reorder(&refs(&order))
                    .communicate(&[&out_name], &last_out)
                    .communicate(&refs(&input_names), &ro);
                for (suffix, formats) in &variants {
                    out.push(Candidate {
                        name: format!("owner[{subset_label}] {grid_label} chunk={chunk}{suffix}"),
                        grid: grid.clone(),
                        formats: (*formats).clone(),
                        schedule: schedule.clone(),
                    });
                }
            }
            // Systolic variant: divide the stream by the first grid
            // dimension and rotate over the distributed vars (Cannon's
            // shape, meaningful with classic tiled layouts and a
            // non-trivial first dimension).
            if gdims[0] > 1 {
                let (ro, ri, ros) = (
                    format!("{}_so", r.0),
                    format!("{}_si", r.0),
                    format!("{}_ss", r.0),
                );
                let order = stream_order(&ro, &ri);
                let schedule = base
                    .clone()
                    .divide(&r.0, &ro, &ri, gdims[0])
                    .reorder(&refs(&order))
                    .rotate(&ro, &refs(&outs), &ros)
                    .communicate(&[&out_name], &last_out)
                    .communicate(&refs(&input_names), &ros);
                out.push(Candidate {
                    name: format!("systolic[{subset_label}] {grid_label}"),
                    grid,
                    formats: tiled.clone(),
                    schedule,
                });
            }
        }
    }
    out
}

/// One Johnson-style candidate: distribute `subset + r`, fix tensors to
/// grid faces, fold partial outputs.
fn reduction_distributed(
    assignment: &Assignment,
    subset: &[IndexVar],
    r: &IndexVar,
    gdims: &[i64],
    options: &SpaceOptions,
) -> Option<Candidate> {
    let mut dist_vars = subset.to_vec();
    dist_vars.push(r.clone());
    let grid = Grid::new(gdims.to_vec());
    // Faces (Const 0) for machine dims a tensor does not share — the
    // schedule's launch-level communicate broadcasts them, trading memory
    // for communication exactly like the paper's 3D algorithms.
    let formats = formats_for(assignment, &dist_vars, AbsentPolicy::Face, options.mem);
    let outs = derived(&dist_vars, "_o");
    let ins = derived(&dist_vars, "_i");
    let mut tensors: Vec<&str> = vec![&assignment.lhs.tensor];
    let input_names: Vec<String> = assignment
        .input_accesses()
        .iter()
        .map(|a| a.tensor.clone())
        .collect();
    for n in &input_names {
        if !tensors.contains(&n.as_str()) {
            tensors.push(n);
        }
    }
    let (base, _rest) = distribute_prefix(&assignment.all_vars(), &dist_vars, &outs, &ins, gdims);
    let schedule = base.communicate(&tensors, outs.last().expect("nonempty"));
    let grid_label = gdims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    Some(Candidate {
        name: format!(
            "reduce3d[{},{}] {grid_label}",
            var_names(subset).join(","),
            r.0
        ),
        grid,
        formats,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_dims(n: i64) -> BTreeMap<String, Vec<i64>> {
        ["A", "B", "C"]
            .iter()
            .map(|t| (t.to_string(), vec![n, n]))
            .collect()
    }

    #[test]
    fn helpers() {
        assert_eq!(
            subsequences(&[1, 2, 3], 2),
            vec![vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert_eq!(factorizations(12, 2).len(), 6);
        assert_eq!(balanced(16, 2), vec![4, 4]);
        assert_eq!(balanced(8, 3), vec![2, 2, 2]);
        assert_eq!(balanced(7, 2), vec![1, 7]);
        assert_eq!(dim_names(3), vec!["a", "b", "c"]);
    }

    #[test]
    fn matmul_space_contains_the_classics() {
        let opts = SpaceOptions::new(MemKind::Sys);
        let (_, cands) =
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64), 16, &opts).unwrap();
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        // SUMMA's shape: owner-computes over (i, j) on the square grid.
        assert!(
            names.iter().any(|n| n.starts_with("owner[i,j] 4x4")),
            "{names:?}"
        );
        // Cannon's shape.
        assert!(names.contains(&"systolic[i,j] 4x4"), "{names:?}");
        // Johnson's shape needs a cube; at p=16 the balanced 3d grid is
        // non-cubic but still present.
        assert!(
            names.iter().any(|n| n.starts_with("reduce3d[i,j,k]")),
            "{names:?}"
        );
        assert!(names.contains(&"sequential"));
        // Every candidate name is unique.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn formats_follow_distribution_choices() {
        let opts = SpaceOptions::new(MemKind::Sys);
        let (a, cands) =
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64), 16, &opts).unwrap();
        let summa = cands
            .iter()
            .find(|c| c.name.starts_with("owner[i,j] 4x4 chunk") && !c.name.ends_with("+rep"))
            .unwrap();
        // The classic SUMMA layout of Figure 9: all three matrices tiled
        // (B's and C's reduction dimension covers the machine dim their
        // missing free variable would have).
        assert_eq!(
            format!("{}", summa.formats["A"].distributions[0]),
            "ab ↦ ab"
        );
        assert_eq!(
            format!("{}", summa.formats["B"].distributions[0]),
            "ab ↦ ab"
        );
        assert_eq!(
            format!("{}", summa.formats["C"].distributions[0]),
            "ab ↦ ab"
        );
        // The pre-replicated variant broadcasts the missing dimension.
        let rep = cands
            .iter()
            .find(|c| c.name.starts_with("owner[i,j] 4x4 chunk") && c.name.ends_with("+rep"))
            .unwrap();
        assert_eq!(format!("{}", rep.formats["B"].distributions[0]), "ab ↦ a*");
        assert_eq!(format!("{}", rep.formats["C"].distributions[0]), "ab ↦ *b");
        let johnson = cands
            .iter()
            .find(|c| c.name.starts_with("reduce3d[i,j,k]"))
            .unwrap();
        // Johnson's face-fixed layout (Figure 9).
        assert_eq!(
            format!("{}", johnson.formats["A"].distributions[0]),
            "ab ↦ ab0"
        );
        assert_eq!(
            format!("{}", johnson.formats["B"].distributions[0]),
            "ab ↦ a0b"
        );
        assert_eq!(
            format!("{}", johnson.formats["C"].distributions[0]),
            "ab ↦ 0ba"
        );
        let _ = a;
    }

    #[test]
    fn elementwise_expression_has_no_stream() {
        let mut dims = BTreeMap::new();
        for t in ["A", "B", "C"] {
            dims.insert(t.to_string(), vec![32, 32]);
        }
        let opts = SpaceOptions::new(MemKind::Sys);
        let (_, cands) = enumerate_candidates("A(i,j) = B(i,j) + C(i,j)", &dims, 4, &opts).unwrap();
        // No reduction: no systolic or 3d candidates.
        assert!(cands.iter().all(|c| !c.name.starts_with("systolic")));
        assert!(cands.iter().all(|c| !c.name.starts_with("reduce3d")));
        assert!(cands.iter().any(|c| c.name.starts_with("owner[i,j]")));
    }

    #[test]
    fn exhaustive_grids_expand_the_space() {
        let mut opts = SpaceOptions::new(MemKind::Sys);
        let (_, balanced_only) =
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(32), 8, &opts).unwrap();
        opts.exhaustive_grids = true;
        let (_, all) =
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(32), 8, &opts).unwrap();
        assert!(all.len() > balanced_only.len());
    }

    #[test]
    fn errors_surface() {
        let opts = SpaceOptions::new(MemKind::Sys);
        assert!(matches!(
            enumerate_candidates("not an expression", &BTreeMap::new(), 4, &opts),
            Err(CompileError::Expression(_))
        ));
        assert!(matches!(
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &BTreeMap::new(), 4, &opts),
            Err(CompileError::UnknownTensor(t)) if t == "A"
        ));
        let mut bad = BTreeMap::new();
        bad.insert("A".to_string(), vec![4, 4]);
        bad.insert("B".to_string(), vec![4, 8]);
        bad.insert("C".to_string(), vec![4, 4]);
        assert!(matches!(
            enumerate_candidates("A(i,j) = B(i,k) * C(k,j)", &bad, 4, &opts),
            Err(CompileError::InconsistentExtents)
        ));
    }
}
