//! The scheduling language (paper §3.3 and Figure 2).
//!
//! A [`Schedule`] is a recorded chain of scheduling commands applied to a
//! statement's concrete index notation at compile time. The API mirrors the
//! C++ surface of Figure 2:
//!
//! ```
//! use distal_core::Schedule;
//! let s = Schedule::new()
//!     .divide("i", "io", "ii", 2)
//!     .divide("j", "jo", "ji", 2)
//!     .reorder(&["io", "jo", "ii", "ji"])
//!     .distribute(&["io", "jo"])
//!     .split("k", "ko", "ki", 256)
//!     .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
//!     .communicate(&["A"], "jo")
//!     .communicate(&["B", "C"], "ko");
//! assert_eq!(s.commands().len(), 8);
//! ```

use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::IndexVar;
use distal_ir::transform::ScheduleError;
use std::fmt;

/// One scheduling command.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedCmd {
    /// `divide(var, outer, inner, parts)`.
    Divide {
        /// Variable to divide.
        var: String,
        /// Outer (block index) variable.
        outer: String,
        /// Inner (within block) variable.
        inner: String,
        /// Number of blocks.
        parts: i64,
    },
    /// `split(var, outer, inner, chunk)`.
    Split {
        /// Variable to split.
        var: String,
        /// Outer (chunk index) variable.
        outer: String,
        /// Inner (within chunk) variable.
        inner: String,
        /// Chunk size.
        chunk: i64,
    },
    /// `reorder(vars)`.
    Reorder(Vec<String>),
    /// `distribute(vars)`.
    Distribute(Vec<String>),
    /// The compound `distribute(targets, dist, local, grid)` of §3.3.
    DistributeOnto {
        /// Variables to distribute.
        targets: Vec<String>,
        /// Their distributed (outer) halves.
        dist: Vec<String>,
        /// Their local (inner) halves.
        local: Vec<String>,
        /// Machine grid dimensions.
        dims: Vec<i64>,
    },
    /// `communicate(tensors, var)`.
    Communicate {
        /// Tensors whose communication aggregates at the loop.
        tensors: Vec<String>,
        /// The loop variable.
        var: String,
    },
    /// `rotate(target, over, result)`.
    Rotate {
        /// Variable to rotate.
        target: String,
        /// Variables whose sum offsets the rotation.
        over: Vec<String>,
        /// The new loop variable.
        result: String,
    },
    /// `parallelize(var)`.
    Parallelize(String),
    /// `collapse(a, b, fused)`.
    Collapse {
        /// Outer loop.
        a: String,
        /// Inner loop (directly nested under `a`).
        b: String,
        /// The fused loop variable.
        fused: String,
    },
    /// `substitute(vars, kernel)` — Figure 2 line 40: replace the loops
    /// over `vars` with an optimized leaf kernel.
    Substitute {
        /// The leaf loop variables the kernel absorbs.
        vars: Vec<String>,
        /// Which kernel to substitute.
        leaf: LeafKind,
    },
}

/// The leaf kernel named by a `substitute` command.
///
/// The original system substitutes vendor kernels (`CuBLAS::GeMM`); this
/// reproduction substitutes its generated GEMM. `crate::kernelgen::leaf_for`
/// turns the choice into a kernel for every backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafKind {
    /// Pick automatically from the statement's shape (the default).
    Auto,
    /// The generated dense GEMM (the `CuBLAS::GeMM` stand-in). Only valid
    /// for matmul-shaped statements.
    Gemm,
    /// The generic dense-loop interpreter.
    Interpreter,
}

/// A chain of scheduling commands.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    cmds: Vec<SchedCmd>,
}

fn ivs_owned(names: &[String]) -> Vec<IndexVar> {
    names.iter().map(IndexVar::new).collect()
}

impl Schedule {
    /// An empty schedule (runs the default loop nest on one processor).
    pub fn new() -> Self {
        Schedule::default()
    }

    /// The recorded commands.
    pub fn commands(&self) -> &[SchedCmd] {
        &self.cmds
    }

    /// Appends `divide`.
    #[must_use]
    pub fn divide(mut self, var: &str, outer: &str, inner: &str, parts: i64) -> Self {
        self.cmds.push(SchedCmd::Divide {
            var: var.into(),
            outer: outer.into(),
            inner: inner.into(),
            parts,
        });
        self
    }

    /// Appends `split`.
    #[must_use]
    pub fn split(mut self, var: &str, outer: &str, inner: &str, chunk: i64) -> Self {
        self.cmds.push(SchedCmd::Split {
            var: var.into(),
            outer: outer.into(),
            inner: inner.into(),
            chunk,
        });
        self
    }

    /// Appends `reorder`.
    #[must_use]
    pub fn reorder(mut self, order: &[&str]) -> Self {
        self.cmds.push(SchedCmd::Reorder(
            order.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Appends `distribute`.
    #[must_use]
    pub fn distribute(mut self, vars: &[&str]) -> Self {
        self.cmds.push(SchedCmd::Distribute(
            vars.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Appends the compound `distribute(targets, dist, local, grid)`.
    #[must_use]
    pub fn distribute_onto(
        mut self,
        targets: &[&str],
        dist: &[&str],
        local: &[&str],
        dims: &[i64],
    ) -> Self {
        self.cmds.push(SchedCmd::DistributeOnto {
            targets: targets.iter().map(|s| s.to_string()).collect(),
            dist: dist.iter().map(|s| s.to_string()).collect(),
            local: local.iter().map(|s| s.to_string()).collect(),
            dims: dims.to_vec(),
        });
        self
    }

    /// Appends `communicate`.
    #[must_use]
    pub fn communicate(mut self, tensors: &[&str], var: &str) -> Self {
        self.cmds.push(SchedCmd::Communicate {
            tensors: tensors.iter().map(|s| s.to_string()).collect(),
            var: var.into(),
        });
        self
    }

    /// Appends `rotate`.
    #[must_use]
    pub fn rotate(mut self, target: &str, over: &[&str], result: &str) -> Self {
        self.cmds.push(SchedCmd::Rotate {
            target: target.into(),
            over: over.iter().map(|s| s.to_string()).collect(),
            result: result.into(),
        });
        self
    }

    /// Appends `parallelize`.
    #[must_use]
    pub fn parallelize(mut self, var: &str) -> Self {
        self.cmds.push(SchedCmd::Parallelize(var.into()));
        self
    }

    /// Appends `collapse`.
    #[must_use]
    pub fn collapse(mut self, a: &str, b: &str, fused: &str) -> Self {
        self.cmds.push(SchedCmd::Collapse {
            a: a.into(),
            b: b.into(),
            fused: fused.into(),
        });
        self
    }

    /// Appends `substitute` (Figure 2 line 40): absorb the leaf loops over
    /// `vars` into the named kernel.
    #[must_use]
    pub fn substitute(mut self, vars: &[&str], leaf: LeafKind) -> Self {
        self.cmds.push(SchedCmd::Substitute {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            leaf,
        });
        self
    }

    /// The leaf kernel chosen by the last `substitute` command, if any.
    pub(crate) fn leaf_choice(&self) -> Option<(&[String], LeafKind)> {
        self.cmds.iter().rev().find_map(|c| match c {
            SchedCmd::Substitute { vars, leaf } => Some((vars.as_slice(), *leaf)),
            _ => None,
        })
    }

    /// Applies all commands to a concrete index notation statement.
    ///
    /// # Errors
    ///
    /// The first failing command's [`ScheduleError`], wrapped in
    /// [`ScheduleError::AtCommand`] with the command's index and stable
    /// `Display` so late failures name their schedule location.
    pub fn apply(&self, cin: &mut ConcreteNotation) -> Result<(), ScheduleError> {
        for (idx, cmd) in self.cmds.iter().enumerate() {
            Self::apply_command(cin, idx, cmd)?;
        }
        Ok(())
    }

    /// Applies `cmd`, a schedule's command `idx`, with its failure located
    /// as [`Schedule::apply`] locates it. Admission (`crate::lint`) walks
    /// a schedule through this one command at a time, so it applies
    /// exactly what the compiler applies.
    pub(crate) fn apply_command(
        cin: &mut ConcreteNotation,
        idx: usize,
        cmd: &SchedCmd,
    ) -> Result<(), ScheduleError> {
        Self::apply_cmd(cin, cmd).map_err(|e| ScheduleError::at_command(idx, cmd.to_string(), e))
    }

    /// Applies one command (no location wrapping; `apply_command` adds it).
    fn apply_cmd(cin: &mut ConcreteNotation, cmd: &SchedCmd) -> Result<(), ScheduleError> {
        match cmd {
            SchedCmd::Divide {
                var,
                outer,
                inner,
                parts,
            } => {
                cin.divide(
                    &IndexVar::new(var),
                    IndexVar::new(outer),
                    IndexVar::new(inner),
                    *parts,
                )?;
            }
            SchedCmd::Split {
                var,
                outer,
                inner,
                chunk,
            } => {
                cin.split(
                    &IndexVar::new(var),
                    IndexVar::new(outer),
                    IndexVar::new(inner),
                    *chunk,
                )?;
            }
            SchedCmd::Reorder(order) => {
                cin.reorder(&ivs_owned(order))?;
            }
            SchedCmd::Distribute(vars) => {
                cin.distribute(&ivs_owned(vars))?;
            }
            SchedCmd::DistributeOnto {
                targets,
                dist,
                local,
                dims,
            } => {
                cin.distribute_onto(
                    &ivs_owned(targets),
                    &ivs_owned(dist),
                    &ivs_owned(local),
                    dims,
                )?;
            }
            SchedCmd::Communicate { tensors, var } => {
                let names: Vec<&str> = tensors.iter().map(String::as_str).collect();
                cin.communicate(&names, &IndexVar::new(var))?;
            }
            SchedCmd::Rotate {
                target,
                over,
                result,
            } => {
                cin.rotate(
                    &IndexVar::new(target),
                    &ivs_owned(over),
                    IndexVar::new(result),
                )?;
            }
            SchedCmd::Parallelize(var) => {
                cin.parallelize(&IndexVar::new(var))?;
            }
            SchedCmd::Collapse { a, b, fused } => {
                cin.collapse(&IndexVar::new(a), &IndexVar::new(b), IndexVar::new(fused))?;
            }
            SchedCmd::Substitute { vars, leaf } => {
                // A backend directive, not a loop rewrite: validate the
                // named loops exist and record it in the s.t. trail.
                for v in vars {
                    let iv = IndexVar::new(v);
                    if !cin.solver.knows(&iv) {
                        return Err(ScheduleError::UnknownLoopVar(v.clone()));
                    }
                }
                cin.note(format!("substitute({}, {leaf:?})", vars.join(", ")));
            }
        }
        Ok(())
    }

    /// The SUMMA schedule of Figure 2 for `A(i,j) = B(i,k) * C(k,j)` on a
    /// `gx × gy` grid, stepping `k` in chunks of `chunk` — including the
    /// line-40 substitution of the optimized GEMM at the leaves.
    pub fn summa(gx: i64, gy: i64, chunk: i64) -> Self {
        Schedule::new()
            .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
            .split("k", "ko", "ki", chunk)
            .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
            .communicate(&["A"], "jo")
            .communicate(&["B", "C"], "ko")
            .substitute(&["ii", "ji", "ki"], LeafKind::Gemm)
    }
}

impl fmt::Display for LeafKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeafKind::Auto => write!(f, "auto"),
            LeafKind::Gemm => write!(f, "gemm"),
            LeafKind::Interpreter => write!(f, "interpreter"),
        }
    }
}

/// The stable textual form of one command, e.g.
/// `distribute(i,j -> io,jo | ii,ji onto 2x2)`. Used by
/// [`crate::cache::PlanKey`] and diagnostics; every parameter appears, so
/// two commands render identically iff they are equal.
impl fmt::Display for SchedCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedCmd::Divide {
                var,
                outer,
                inner,
                parts,
            } => write!(f, "divide({var} -> {outer},{inner} into {parts})"),
            SchedCmd::Split {
                var,
                outer,
                inner,
                chunk,
            } => write!(f, "split({var} -> {outer},{inner} chunk {chunk})"),
            SchedCmd::Reorder(order) => write!(f, "reorder({})", order.join(",")),
            SchedCmd::Distribute(vars) => write!(f, "distribute({})", vars.join(",")),
            SchedCmd::DistributeOnto {
                targets,
                dist,
                local,
                dims,
            } => write!(
                f,
                "distribute({} -> {} | {} onto {})",
                targets.join(","),
                dist.join(","),
                local.join(","),
                dims.iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            SchedCmd::Communicate { tensors, var } => {
                write!(f, "communicate({} @ {var})", tensors.join(","))
            }
            SchedCmd::Rotate {
                target,
                over,
                result,
            } => write!(f, "rotate({target} over {} -> {result})", over.join(",")),
            SchedCmd::Parallelize(var) => write!(f, "parallelize({var})"),
            SchedCmd::Collapse { a, b, fused } => write!(f, "collapse({a},{b} -> {fused})"),
            SchedCmd::Substitute { vars, leaf } => {
                write!(f, "substitute({} -> {leaf})", vars.join(","))
            }
        }
    }
}

/// The stable textual form of a whole schedule: its commands joined with
/// `; ` (empty schedules render as `(empty)`).
impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cmds.is_empty() {
            return write!(f, "(empty)");
        }
        for (i, cmd) in self.cmds.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{cmd}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_ir::cin::ConcreteNotation;
    use distal_ir::expr::kernels;
    use std::collections::BTreeMap;

    fn matmul_cin(n: i64) -> ConcreteNotation {
        let extents: BTreeMap<IndexVar, i64> = [("i", n), ("j", n), ("k", n)]
            .iter()
            .map(|(v, e)| (IndexVar::new(*v), *e))
            .collect();
        ConcreteNotation::from_assignment(kernels::matmul(), &extents).unwrap()
    }

    #[test]
    fn summa_schedule_applies() {
        let mut cin = matmul_cin(64);
        Schedule::summa(2, 2, 16).apply(&mut cin).unwrap();
        let vars: Vec<String> = cin.loop_vars().iter().map(|v| v.0.clone()).collect();
        assert_eq!(vars, vec!["io", "jo", "ko", "ii", "ji", "ki"]);
        assert_eq!(cin.distributed_prefix().unwrap().len(), 2);
        // The substitution shows in the s.t. trail (Figure 2 line 40).
        assert!(format!("{cin}").contains("substitute(ii, ji, ki"));
    }

    #[test]
    fn substitute_validates_loop_vars() {
        let mut cin = matmul_cin(8);
        let s = Schedule::new().substitute(&["nope"], LeafKind::Gemm);
        assert!(s.apply(&mut cin).is_err());
        assert_eq!(
            Schedule::summa(2, 2, 4).leaf_choice().map(|(_, l)| l),
            Some(LeafKind::Gemm)
        );
        assert_eq!(Schedule::new().leaf_choice(), None);
    }

    #[test]
    fn bad_schedule_surfaces_error() {
        let mut cin = matmul_cin(8);
        let s = Schedule::new().divide("zz", "a", "b", 2);
        assert!(s.apply(&mut cin).is_err());
    }

    #[test]
    fn apply_errors_carry_command_index_and_display() {
        // The third command (index 2) names a loop that never existed.
        let mut cin = matmul_cin(8);
        let s = Schedule::new()
            .divide("i", "io", "ii", 2)
            .divide("j", "jo", "ji", 2)
            .communicate(&["A"], "nope");
        let err = s.apply(&mut cin).unwrap_err();
        match &err {
            ScheduleError::AtCommand {
                index,
                command,
                inner,
            } => {
                assert_eq!(*index, 2);
                assert_eq!(command, "communicate(A @ nope)");
                assert_eq!(**inner, ScheduleError::UnknownLoopVar("nope".into()));
            }
            other => panic!("expected AtCommand, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "command 2 `communicate(A @ nope)`: 'nope' is not a loop variable"
        );
        assert_eq!(err.root(), &ScheduleError::UnknownLoopVar("nope".into()));
    }

    #[test]
    fn display_is_stable_and_parameter_sensitive() {
        // Two identically-built schedules render identically.
        let a = Schedule::summa(2, 2, 16);
        let b = Schedule::summa(2, 2, 16);
        assert_eq!(a.to_string(), b.to_string());
        // Different chunk sizes render differently.
        let c = Schedule::summa(2, 2, 8);
        assert_ne!(a.to_string(), c.to_string());
        // Different grids render differently.
        let d = Schedule::summa(4, 1, 16);
        assert_ne!(a.to_string(), d.to_string());
        // The compound distribute renders in the documented shape.
        assert!(
            a.to_string()
                .contains("distribute(i,j -> io,jo | ii,ji onto 2x2)"),
            "{a}"
        );
        assert!(a.to_string().contains("split(k -> ko,ki chunk 16)"));
        assert!(a.to_string().contains("substitute(ii,ji,ki -> gemm)"));
        // Every command kind renders with all its parameters.
        let all = Schedule::new()
            .divide("i", "io", "ii", 2)
            .reorder(&["io", "ii"])
            .distribute(&["io"])
            .communicate(&["A", "B"], "io")
            .rotate("ko", &["io"], "kos")
            .parallelize("ii")
            .collapse("a", "b", "ab")
            .substitute(&["ii"], LeafKind::Auto);
        let text = all.to_string();
        for needle in [
            "divide(i -> io,ii into 2)",
            "reorder(io,ii)",
            "distribute(io)",
            "communicate(A,B @ io)",
            "rotate(ko over io -> kos)",
            "parallelize(ii)",
            "collapse(a,b -> ab)",
            "substitute(ii -> auto)",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in `{text}`");
        }
        assert_eq!(Schedule::new().to_string(), "(empty)");
    }

    #[test]
    fn builder_records_commands() {
        let s = Schedule::new()
            .rotate("ko", &["io", "jo"], "kos")
            .parallelize("ii");
        assert_eq!(s.commands().len(), 2);
        assert!(matches!(&s.commands()[0], SchedCmd::Rotate { target, .. } if target == "ko"));
    }
}
