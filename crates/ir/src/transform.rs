//! Scheduling transformations as rewrites on concrete index notation
//! (paper §5.2).
//!
//! Each command rewrites the loop nest and records its relation both in the
//! [`crate::provenance::VarSolver`] (for bounds analysis) and the
//! human-readable `s.t.` trail:
//!
//! ```text
//! ... ∀i S  --divide(i,io,ii,c)-->  ... ∀io ∀ii S s.t. divide(i,io,ii,c)
//! ... ∀i S  --distribute(i)----->   ... ∀i S s.t. distribute(i)
//! ... ∀I ∀t S --rotate(t,I,r)--->   ... ∀I ∀r S s.t. rotate(t,I,r)
//! ... ∀i S  --communicate(T,i)-->   ... ∀i S s.t. communicate(T,i)
//! ```

use crate::cin::{ConcreteNotation, Loop};
use crate::expr::IndexVar;
use crate::provenance::SolverError;
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised by scheduling commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The named variable is not a loop of the statement.
    UnknownLoopVar(String),
    /// `reorder` was given duplicate or unknown variables.
    BadReorder(String),
    /// A `communicate` referenced a tensor not present in the statement.
    UnknownTensor(String),
    /// An underlying provenance error (redefinition, bad factor, ...).
    Solver(SolverError),
    /// `distribute` would leave distributed loops non-contiguous or not
    /// outermost, which code generation cannot lower.
    NonContiguousDistribution,
    /// A compound command's argument lists have mismatched lengths (e.g.
    /// `distribute_onto` with 2 targets but 3 grid dimensions).
    ArityMismatch(String),
    /// A failing command located in its schedule: the zero-based command
    /// index, the command's stable `Display`, and the underlying error.
    /// Produced by `Schedule::apply` so late errors read like compiler
    /// diagnostics instead of bare variable names.
    AtCommand {
        /// Zero-based position of the failing command in the schedule.
        index: usize,
        /// The command's stable textual form.
        command: String,
        /// The underlying failure.
        inner: Box<ScheduleError>,
    },
}

impl ScheduleError {
    /// Wraps `inner` with its schedule location. Already-located errors
    /// pass through unchanged (no double wrapping).
    #[must_use]
    pub fn at_command(index: usize, command: String, inner: ScheduleError) -> Self {
        match inner {
            located @ ScheduleError::AtCommand { .. } => located,
            inner => ScheduleError::AtCommand {
                index,
                command,
                inner: Box::new(inner),
            },
        }
    }

    /// The underlying error, unwrapping any [`ScheduleError::AtCommand`]
    /// location.
    pub fn root(&self) -> &ScheduleError {
        match self {
            ScheduleError::AtCommand { inner, .. } => inner.root(),
            other => other,
        }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnknownLoopVar(v) => write!(f, "'{v}' is not a loop variable"),
            ScheduleError::BadReorder(msg) => write!(f, "invalid reorder: {msg}"),
            ScheduleError::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            ScheduleError::Solver(e) => write!(f, "{e}"),
            ScheduleError::NonContiguousDistribution => {
                write!(f, "distributed loops must be outermost and contiguous")
            }
            ScheduleError::ArityMismatch(msg) => write!(f, "arity mismatch: {msg}"),
            ScheduleError::AtCommand {
                index,
                command,
                inner,
            } => write!(f, "command {index} `{command}`: {inner}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<SolverError> for ScheduleError {
    fn from(e: SolverError) -> Self {
        ScheduleError::Solver(e)
    }
}

impl ConcreteNotation {
    /// `split(i, io, ii, chunk)`: breaks loop `i` into an outer loop over
    /// chunks of size `chunk` and an inner loop within the chunk.
    ///
    /// # Errors
    ///
    /// Fails when `i` is not a loop or the derived names collide.
    pub fn split(
        &mut self,
        i: &IndexVar,
        io: IndexVar,
        ii: IndexVar,
        chunk: i64,
    ) -> Result<&mut Self, ScheduleError> {
        let pos = self
            .position(i)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(i.0.clone()))?;
        self.solver.split(i, io.clone(), ii.clone(), chunk)?;
        self.note(format!("split({i}, {io}, {ii}, {chunk})"));
        self.replace_loop(pos, vec![io, ii]);
        Ok(self)
    }

    /// `divide(i, io, ii, parts)`: breaks loop `i` into `parts` equal
    /// pieces; `io` ranges over pieces, `ii` within a piece.
    ///
    /// # Errors
    ///
    /// Fails when `i` is not a loop or the derived names collide.
    pub fn divide(
        &mut self,
        i: &IndexVar,
        io: IndexVar,
        ii: IndexVar,
        parts: i64,
    ) -> Result<&mut Self, ScheduleError> {
        let pos = self
            .position(i)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(i.0.clone()))?;
        self.solver.divide(i, io.clone(), ii.clone(), parts)?;
        self.note(format!("divide({i}, {io}, {ii}, {parts})"));
        self.replace_loop(pos, vec![io, ii]);
        Ok(self)
    }

    fn replace_loop(&mut self, pos: usize, vars: Vec<IndexVar>) {
        let old = self.loops.remove(pos);
        for (off, v) in vars.into_iter().enumerate() {
            let mut l = Loop::new(v);
            // Tags stay on the loop position they were attached to; the
            // outer derived loop inherits them.
            if off == 0 {
                l.distributed = old.distributed;
                l.communicate = old.communicate.clone();
                l.parallelized = old.parallelized;
            }
            self.loops.insert(pos + off, l);
        }
    }

    /// `collapse(a, b, fused)`: fuses the directly nested loops `a` (outer)
    /// and `b` (inner) into a single loop `fused` (paper §2's loop-fusion
    /// transformation).
    ///
    /// # Errors
    ///
    /// `a` and `b` must be directly nested loops (in that order) and the
    /// fused name must be fresh.
    pub fn collapse(
        &mut self,
        a: &IndexVar,
        b: &IndexVar,
        fused: IndexVar,
    ) -> Result<&mut Self, ScheduleError> {
        let pa = self
            .position(a)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(a.0.clone()))?;
        let pb = self
            .position(b)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(b.0.clone()))?;
        if pb != pa + 1 {
            return Err(ScheduleError::BadReorder(format!(
                "collapse requires '{a}' directly above '{b}'"
            )));
        }
        self.solver.collapse(a, b, fused.clone())?;
        self.note(format!("collapse({a}, {b}, {fused})"));
        let outer = self.loops.remove(pa);
        let inner = self.loops.remove(pa);
        let mut l = Loop::new(fused);
        l.distributed = outer.distributed || inner.distributed;
        l.parallelized = outer.parallelized || inner.parallelized;
        l.communicate = outer.communicate;
        l.communicate.extend(inner.communicate);
        self.loops.insert(pa, l);
        Ok(self)
    }

    /// `reorder(order)`: sets the relative order of the listed loops,
    /// leaving unlisted loops at their positions.
    ///
    /// # Errors
    ///
    /// The listed variables must be distinct loop variables.
    pub fn reorder(&mut self, order: &[IndexVar]) -> Result<&mut Self, ScheduleError> {
        // A loop nest is a handful of loops: scans, not sets.
        if (1..order.len()).any(|k| order[..k].contains(&order[k])) {
            return Err(ScheduleError::BadReorder("duplicate variables".into()));
        }
        for v in order {
            if self.position(v).is_none() {
                return Err(ScheduleError::UnknownLoopVar(v.0.clone()));
            }
        }
        let slots: Vec<usize> = self
            .loops
            .iter()
            .enumerate()
            .filter_map(|(p, l)| order.contains(&l.var).then_some(p))
            .collect();
        let mut listed: Vec<Loop> = Vec::with_capacity(order.len());
        for v in order {
            let p = self.position(v).unwrap();
            listed.push(self.loops[p].clone());
        }
        for (slot, l) in slots.into_iter().zip(listed) {
            self.loops[slot] = l;
        }
        self.note(format!("reorder({})", join(order)));
        Ok(self)
    }

    /// `distribute(vars)`: marks the loops as distributed — all iterations
    /// run on different processors at the same time (Figure 6).
    ///
    /// # Errors
    ///
    /// The loops must exist, and after marking, distributed loops must form
    /// an outermost contiguous run.
    pub fn distribute(&mut self, vars: &[IndexVar]) -> Result<&mut Self, ScheduleError> {
        for v in vars {
            let pos = self
                .position(v)
                .ok_or_else(|| ScheduleError::UnknownLoopVar(v.0.clone()))?;
            self.loops[pos].distributed = true;
        }
        if self.distributed_prefix().is_none() {
            return Err(ScheduleError::NonContiguousDistribution);
        }
        self.note(format!("distribute({})", join(vars)));
        Ok(self)
    }

    /// `communicate(tensors, i)`: aggregates communication of the tensors at
    /// each iteration of loop `i` (§3.3). Purely a performance directive.
    ///
    /// # Errors
    ///
    /// The loop and the tensors must exist in the statement.
    pub fn communicate(
        &mut self,
        tensors: &[&str],
        i: &IndexVar,
    ) -> Result<&mut Self, ScheduleError> {
        let pos = self
            .position(i)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(i.0.clone()))?;
        let known: BTreeSet<&str> = self
            .body
            .accesses()
            .iter()
            .map(|a| a.tensor.as_str())
            .collect();
        for t in tensors {
            if !known.contains(t) {
                return Err(ScheduleError::UnknownTensor(t.to_string()));
            }
            self.loops[pos].communicate.push(t.to_string());
        }
        self.note(format!("communicate({{{}}}, {i})", tensors.join(", ")));
        Ok(self)
    }

    /// `rotate(t, over, result)`: replaces loop `t` by `result`, with
    /// `t = (result + Σ over) mod extent(t)` — the symmetry-breaking
    /// transformation enabling systolic schedules (§3.3, Figure 8).
    ///
    /// # Errors
    ///
    /// `t` and all of `over` must be loop variables; `result` must be fresh.
    pub fn rotate(
        &mut self,
        t: &IndexVar,
        over: &[IndexVar],
        result: IndexVar,
    ) -> Result<&mut Self, ScheduleError> {
        let pos = self
            .position(t)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(t.0.clone()))?;
        for v in over {
            if self.position(v).is_none() {
                return Err(ScheduleError::UnknownLoopVar(v.0.clone()));
            }
        }
        self.solver.rotate(t, over.to_vec(), result.clone())?;
        self.note(format!("rotate({t}, {{{}}}, {result})", join(over)));
        let old = std::mem::replace(&mut self.loops[pos], Loop::new(result));
        self.loops[pos].distributed = old.distributed;
        self.loops[pos].communicate = old.communicate;
        self.loops[pos].parallelized = old.parallelized;
        Ok(self)
    }

    /// `parallelize(i)`: marks a leaf loop for intra-processor parallelism
    /// (threads / vector lanes). A performance annotation only.
    ///
    /// # Errors
    ///
    /// Fails when `i` is not a loop variable.
    pub fn parallelize(&mut self, i: &IndexVar) -> Result<&mut Self, ScheduleError> {
        let pos = self
            .position(i)
            .ok_or_else(|| ScheduleError::UnknownLoopVar(i.0.clone()))?;
        self.loops[pos].parallelized = true;
        self.note(format!("parallelize({i})"));
        Ok(self)
    }

    /// The compound `distribute(targets, dist, local, grid)` command of
    /// §3.3: divides each target by the corresponding machine dimension,
    /// reorders the divided variables outermost, and distributes them.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ArityMismatch`] when the argument lists have
    /// different lengths; otherwise propagates errors from the underlying
    /// `divide`/`reorder`/`distribute`.
    pub fn distribute_onto(
        &mut self,
        targets: &[IndexVar],
        dist: &[IndexVar],
        local: &[IndexVar],
        grid_dims: &[i64],
    ) -> Result<&mut Self, ScheduleError> {
        if targets.len() != dist.len()
            || targets.len() != local.len()
            || targets.len() != grid_dims.len()
        {
            return Err(ScheduleError::ArityMismatch(format!(
                "distribute_onto needs equal-length lists, got {} targets, {} dist, \
                 {} local, {} grid dims",
                targets.len(),
                dist.len(),
                local.len(),
                grid_dims.len()
            )));
        }
        for i in 0..targets.len() {
            self.divide(&targets[i], dist[i].clone(), local[i].clone(), grid_dims[i])?;
        }
        let mut order: Vec<IndexVar> = dist.to_vec();
        order.extend(local.iter().cloned());
        self.reorder(&order)?;
        self.distribute(dist)?;
        Ok(self)
    }
}

/// `vars` written as a comma-separated list, for a relation note.
fn join(vars: &[IndexVar]) -> impl fmt::Display + '_ {
    struct Joined<'a>(&'a [IndexVar]);
    impl fmt::Display for Joined<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (k, v) in self.0.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                write!(f, "{sep}{v}")?;
            }
            Ok(())
        }
    }
    Joined(vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cin::ConcreteNotation;
    use crate::expr::{kernels, Assignment};
    use crate::provenance::{Env, VarId};
    use std::collections::BTreeMap;

    fn iv(s: &str) -> IndexVar {
        IndexVar::new(s)
    }

    /// The solver id of a variable of `cin`.
    fn id(cin: &ConcreteNotation, name: &str) -> VarId {
        cin.solver.id(&iv(name)).expect("a known variable")
    }

    /// An environment binding the named variables of `cin`.
    fn env(cin: &ConcreteNotation, bound: &[(&str, i64)]) -> Env {
        let mut env = Env::new();
        for &(name, value) in bound {
            env.bind(id(cin, name), value);
        }
        env
    }

    fn matmul_cin(n: i64) -> ConcreteNotation {
        let extents: BTreeMap<IndexVar, i64> = [("i", n), ("j", n), ("k", n)]
            .iter()
            .map(|(v, e)| (iv(v), *e))
            .collect();
        ConcreteNotation::from_assignment(kernels::matmul(), &extents).unwrap()
    }

    #[test]
    fn figure2_summa_schedule_rewrites() {
        // The Figure 2 schedule: divide i and j, reorder, distribute,
        // split k, reorder again, communicate.
        let mut cin = matmul_cin(64);
        cin.divide(&iv("i"), iv("io"), iv("ii"), 2).unwrap();
        cin.divide(&iv("j"), iv("jo"), iv("ji"), 2).unwrap();
        cin.reorder(&[iv("io"), iv("jo"), iv("ii"), iv("ji")])
            .unwrap();
        cin.distribute(&[iv("io"), iv("jo")]).unwrap();
        cin.split(&iv("k"), iv("ko"), iv("ki"), 16).unwrap();
        cin.reorder(&[iv("io"), iv("jo"), iv("ko"), iv("ii"), iv("ji"), iv("ki")])
            .unwrap();
        cin.communicate(&["A"], &iv("jo")).unwrap();
        cin.communicate(&["B", "C"], &iv("ko")).unwrap();
        assert_eq!(
            cin.loop_vars(),
            vec![iv("io"), iv("jo"), iv("ko"), iv("ii"), iv("ji"), iv("ki")]
        );
        assert_eq!(cin.distributed_prefix().unwrap().len(), 2);
        let shown = format!("{cin}");
        assert!(shown.starts_with("∀io ∀jo ∀ko ∀ii ∀ji ∀ki A(i, j) += B(i, k) * C(k, j)"));
        assert!(shown.contains("communicate({B, C}, ko)"));
        // Bounds: at (io, jo, ko) = (1, 0, 2), i spans the second half and
        // k spans the third chunk.
        let env = env(&cin, &[("io", 1), ("ko", 2)]);
        assert_eq!(cin.solver.interval(id(&cin, "i"), &env).lo, 32);
        assert_eq!(cin.solver.interval(id(&cin, "k"), &env).lo, 32);
        assert_eq!(cin.solver.interval(id(&cin, "k"), &env).hi, 47);
    }

    #[test]
    fn cannon_rotate_replaces_loop() {
        let mut cin = matmul_cin(9);
        cin.distribute_onto(
            &[iv("i"), iv("j")],
            &[iv("io"), iv("jo")],
            &[iv("ii"), iv("ji")],
            &[3, 3],
        )
        .unwrap();
        cin.divide(&iv("k"), iv("ko"), iv("ki"), 3).unwrap();
        cin.reorder(&[iv("ko"), iv("ii"), iv("ji"), iv("ki")])
            .unwrap();
        cin.rotate(&iv("ko"), &[iv("io"), iv("jo")], iv("kos"))
            .unwrap();
        assert_eq!(
            cin.loop_vars(),
            vec![iv("io"), iv("jo"), iv("kos"), iv("ii"), iv("ji"), iv("ki")]
        );
        // ko is now derived: at (io,jo,kos)=(1,2,0), ko=(0+1+2)%3=0.
        let env = env(&cin, &[("io", 1), ("jo", 2), ("kos", 0)]);
        assert_eq!(cin.solver.value(id(&cin, "ko"), &env), Some(0));
    }

    #[test]
    fn collapse_fuses_adjacent_loops() {
        let mut cin = matmul_cin(6);
        cin.collapse(&iv("i"), &iv("j"), iv("f")).unwrap();
        assert_eq!(cin.loop_vars(), vec![iv("f"), iv("k")]);
        assert_eq!(cin.solver.extent(&iv("f")), 36);
        // Values recover through the fused variable.
        let env = env(&cin, &[("f", 13)]);
        assert_eq!(cin.solver.value(id(&cin, "i"), &env), Some(2));
        assert_eq!(cin.solver.value(id(&cin, "j"), &env), Some(1));
        // Non-adjacent loops are rejected.
        let mut cin = matmul_cin(6);
        assert!(matches!(
            cin.collapse(&iv("i"), &iv("k"), iv("g")),
            Err(ScheduleError::BadReorder(_))
        ));
    }

    #[test]
    fn reorder_validation() {
        let mut cin = matmul_cin(4);
        assert_eq!(
            cin.reorder(&[iv("i"), iv("i")]).err(),
            Some(ScheduleError::BadReorder("duplicate variables".into()))
        );
        assert_eq!(
            cin.reorder(&[iv("zz")]).err(),
            Some(ScheduleError::UnknownLoopVar("zz".into()))
        );
        // Partial reorder keeps unlisted loops in place.
        cin.reorder(&[iv("k"), iv("i")]).unwrap();
        assert_eq!(cin.loop_vars(), vec![iv("k"), iv("j"), iv("i")]);
    }

    #[test]
    fn distribute_must_be_outermost() {
        let mut cin = matmul_cin(4);
        assert_eq!(
            cin.distribute(&[iv("j")]).err(),
            Some(ScheduleError::NonContiguousDistribution)
        );
        let mut cin = matmul_cin(4);
        cin.distribute(&[iv("i"), iv("j")]).unwrap();
        assert_eq!(cin.distributed_prefix().unwrap().len(), 2);
    }

    #[test]
    fn communicate_validates_tensor_names() {
        let mut cin = matmul_cin(4);
        assert_eq!(
            cin.communicate(&["Z"], &iv("i")).err(),
            Some(ScheduleError::UnknownTensor("Z".into()))
        );
        cin.communicate(&["B", "C"], &iv("k")).unwrap();
        assert_eq!(cin.loops[2].communicate, vec!["B", "C"]);
    }

    #[test]
    fn split_tags_stay_on_outer() {
        let mut cin = matmul_cin(8);
        cin.distribute(&[iv("i")]).unwrap();
        cin.communicate(&["B"], &iv("i")).unwrap();
        cin.divide(&iv("i"), iv("io"), iv("ii"), 2).unwrap();
        assert!(cin.loops[0].distributed);
        assert_eq!(cin.loops[0].communicate, vec!["B"]);
        assert!(!cin.loops[1].distributed);
    }

    #[test]
    fn parallelize_marks_loop() {
        let mut cin = matmul_cin(4);
        cin.parallelize(&iv("j")).unwrap();
        assert!(cin.loops[1].parallelized);
        assert!(format!("{cin}").contains("parallelize(j)"));
    }

    #[test]
    fn distribute_onto_arity_is_an_error_not_a_panic() {
        let mut cin = matmul_cin(4);
        let err = cin
            .distribute_onto(&[iv("i"), iv("j")], &[iv("io")], &[iv("ii")], &[2, 2])
            .unwrap_err();
        assert!(matches!(err, ScheduleError::ArityMismatch(_)));
        assert!(err.to_string().contains("2 targets"), "{err}");
    }

    #[test]
    fn at_command_locates_and_unwraps() {
        let inner = ScheduleError::UnknownLoopVar("zz".into());
        let located = ScheduleError::at_command(3, "divide(zz -> a,b into 2)".into(), inner);
        assert_eq!(
            located.to_string(),
            "command 3 `divide(zz -> a,b into 2)`: 'zz' is not a loop variable"
        );
        assert_eq!(located.root(), &ScheduleError::UnknownLoopVar("zz".into()));
        // Re-wrapping keeps the original location.
        let again = ScheduleError::at_command(9, "other".into(), located.clone());
        assert_eq!(again, located);
    }

    #[test]
    fn increment_assignment_lowering() {
        let a = Assignment::parse("A(i) += B(i)").unwrap();
        let extents: BTreeMap<IndexVar, i64> = [(iv("i"), 4)].into_iter().collect();
        let cin = ConcreteNotation::from_assignment(a, &extents).unwrap();
        assert!(cin.body.increment);
    }
}
