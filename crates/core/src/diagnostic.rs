//! Structured findings from plan-time static verification.
//!
//! The SPMD verifier (`distal-verify`, wired into `SpmdBackend::plan` in
//! either mode) proves communication matching, deadlock freedom,
//! buffer-hazard freedom, and shape legality over a lowered program
//! *before* anything executes. Its findings surface through this type:
//! every [`Diagnostic`] names the offending rank/tensor/tag where the
//! analysis can attribute one, so a rejected plan reads like a compiler
//! error, not a hung thread or a silently corrupted output.
//!
//! The schedule admission linter (`crate::lint`, wired into every
//! `Backend::plan` *before* lowering) emits the same type for its legality
//! and performance passes; its findings additionally carry the offending
//! schedule command index, the loop variable, and a fix-it hint.
//!
//! Diagnostics ride on [`Plan::diagnostics`](crate::plan::Plan::diagnostics)
//! and [`Report::diagnostics`](crate::report::Report::diagnostics);
//! error-severity findings abort planning with
//! [`BackendError::Verification`](crate::backend::BackendError::Verification).

use std::fmt;

/// How severe a verification finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wrong; the plan still executes.
    Warning,
    /// A proven violation: the plan is rejected at `Backend::plan` time.
    Error,
}

/// What class of invariant a [`Diagnostic`] reports against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A receive whose matching send does not exist: the receiver would
    /// block forever (the case the runtime watchdog only catches after
    /// its timeout).
    LostMessage,
    /// A send whose matching receive does not exist: nobody takes the
    /// payload, and the run fails naming it once the ranks finish.
    OrphanMessage,
    /// More than one send or receive on a single tag: a send feeds only
    /// the first receive of its tag, so a payload is never taken or a
    /// receive waits forever.
    DuplicateMessage,
    /// A matched send/receive pair that disagrees on tensor, rectangle,
    /// endpoints, byte count, or reduce semantics.
    MessageMismatch,
    /// A message rectangle, task access, or peer rank outside the owning
    /// tensor's extents or the launch domain.
    OutOfBounds,
    /// Overlapping writes to the same tensor cells without reduction
    /// semantics: the result depends on fold order (write-write race).
    WriteHazard,
    /// A received payload lands over data the rank reads in place
    /// (unordered read-write overlap).
    ReadHazard,
    /// A cycle in the cross-rank happens-before graph: some set of ranks
    /// waits on each other forever.
    Deadlock,
    /// Per-tensor byte conservation violated: bytes sent != bytes
    /// received across the program.
    ByteImbalance,
    /// A structurally ill-formed program (e.g. empty rank list).
    Malformed,
    /// A schedule command names a loop variable the statement (or the
    /// schedule so far) never introduced.
    UnknownLoopVar,
    /// A schedule command introduces a loop variable that already exists
    /// (or lists the same variable twice).
    DuplicateLoopVar,
    /// The shape a `distribute`/`distribute_onto` requests does not match
    /// the machine grid (wrong dimension count, wrong extents, or more
    /// distributed iterations than processors).
    GridMismatch,
    /// A `divide`/`split` chunk or part count that is non-positive or
    /// larger than the loop's extent.
    BadChunk,
    /// A `communicate` at a nonexistent loop level or naming a tensor the
    /// statement never accesses.
    BadCommunicate,
    /// A loop variable distributed more than once (directly or through a
    /// derived half of an already-distributed variable).
    Redistribution,
    /// A coordinate-range (blocked/cyclic) distribution over a tensor
    /// dimension stored as a `Compressed` level: position-space splits of
    /// compressed coordinates are not coordinate ranges.
    CompressedDistribution,
    /// Performance: a divide/split that does not divide the loop extent
    /// leaves some processors with larger tiles (reported with the
    /// computed imbalance ratio).
    LoadImbalance,
    /// Performance: a broadcast (`*`) machine dimension replicates a
    /// tensor past the configured byte threshold.
    ReplicationBlowup,
    /// Performance: a communication fan the collective recognizer provably
    /// cannot rewrite into a tree/ring (per-destination payloads differ).
    UnrewritableFan,
    /// Performance: a large tensor left undistributed on a multi-processor
    /// machine serializes its traffic through one rank.
    UndistributedTensor,
    /// Performance: a schedule parameter tied to the data size makes the
    /// serving `PlanKey` cardinality unbounded (every shape compiles a
    /// fresh plan).
    PlanCardinality,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticKind::LostMessage => "lost-message",
            DiagnosticKind::OrphanMessage => "orphan-message",
            DiagnosticKind::DuplicateMessage => "duplicate-message",
            DiagnosticKind::MessageMismatch => "message-mismatch",
            DiagnosticKind::OutOfBounds => "out-of-bounds",
            DiagnosticKind::WriteHazard => "write-hazard",
            DiagnosticKind::ReadHazard => "read-hazard",
            DiagnosticKind::Deadlock => "deadlock",
            DiagnosticKind::ByteImbalance => "byte-imbalance",
            DiagnosticKind::Malformed => "malformed",
            DiagnosticKind::UnknownLoopVar => "unknown-loop-var",
            DiagnosticKind::DuplicateLoopVar => "duplicate-loop-var",
            DiagnosticKind::GridMismatch => "grid-mismatch",
            DiagnosticKind::BadChunk => "bad-chunk",
            DiagnosticKind::BadCommunicate => "bad-communicate",
            DiagnosticKind::Redistribution => "re-distribution",
            DiagnosticKind::CompressedDistribution => "compressed-distribution",
            DiagnosticKind::LoadImbalance => "load-imbalance",
            DiagnosticKind::ReplicationBlowup => "replication-blowup",
            DiagnosticKind::UnrewritableFan => "unrewritable-fan",
            DiagnosticKind::UndistributedTensor => "undistributed-tensor",
            DiagnosticKind::PlanCardinality => "plan-cardinality",
        };
        f.write_str(s)
    }
}

/// One structured verification finding, attributable to a rank, tensor,
/// and/or message tag where the analysis can name them.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The invariant class violated.
    pub kind: DiagnosticKind,
    /// Whether the finding rejects the plan.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending rank, when attributable.
    pub rank: Option<usize>,
    /// The tensor involved, when attributable.
    pub tensor: Option<String>,
    /// The message tag involved, when attributable.
    pub tag: Option<u64>,
    /// The zero-based index of the offending schedule command, when the
    /// finding comes from schedule admission.
    pub command: Option<usize>,
    /// The loop variable involved, when attributable.
    pub var: Option<String>,
    /// A machine-applicable fix-it hint ("use chunk 16", "distribute onto
    /// 2x2"), when the analysis can compute one.
    pub fixit: Option<String>,
}

impl Diagnostic {
    /// An error-severity finding (rejects the plan).
    pub fn error(kind: DiagnosticKind, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            severity: Severity::Error,
            message: message.into(),
            rank: None,
            tensor: None,
            tag: None,
            command: None,
            var: None,
            fixit: None,
        }
    }

    /// A warning-severity finding (reported, not fatal).
    pub fn warning(kind: DiagnosticKind, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(kind, message)
        }
    }

    /// Attributes the finding to a rank.
    #[must_use]
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Attributes the finding to a tensor.
    #[must_use]
    pub fn with_tensor(mut self, tensor: impl Into<String>) -> Self {
        self.tensor = Some(tensor.into());
        self
    }

    /// Attributes the finding to a message tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Attributes the finding to a schedule command (zero-based index).
    #[must_use]
    pub(crate) fn with_command(mut self, command: usize) -> Self {
        self.command = Some(command);
        self
    }

    /// Attributes the finding to a loop variable.
    #[must_use]
    pub(crate) fn with_var(mut self, var: impl Into<String>) -> Self {
        self.var = Some(var.into());
        self
    }

    /// Attaches a fix-it hint.
    #[must_use]
    pub(crate) fn with_fixit(mut self, fixit: impl Into<String>) -> Self {
        self.fixit = Some(fixit.into());
        self
    }

    /// True for error-severity findings.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]",
            match self.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            },
            self.kind
        )?;
        if let Some(c) = self.command {
            write!(f, " command {c}")?;
        }
        if let Some(r) = self.rank {
            write!(f, " rank {r}")?;
        }
        if let Some(t) = &self.tensor {
            write!(f, " tensor '{t}'")?;
        }
        if let Some(v) = &self.var {
            write!(f, " var '{v}'")?;
        }
        if let Some(t) = self.tag {
            write!(f, " tag {t}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(fix) = &self.fixit {
            write!(f, "; fix: {fix}")?;
        }
        Ok(())
    }
}

/// True when no finding in `diags` is error-severity (the plan is legal;
/// warnings may remain).
pub fn verified_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| !d.is_error())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_attribute_and_display() {
        let d = Diagnostic::error(DiagnosticKind::LostMessage, "recv has no send")
            .with_rank(3)
            .with_tensor("B")
            .with_tag(17);
        assert!(d.is_error());
        let s = d.to_string();
        assert!(s.contains("error[lost-message]"), "{s}");
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("tensor 'B'"), "{s}");
        assert!(s.contains("tag 17"), "{s}");

        let w = Diagnostic::warning(DiagnosticKind::ReadHazard, "landing shadows home");
        assert!(!w.is_error());
        assert!(w.to_string().starts_with("warning[read-hazard]"));
    }

    #[test]
    fn schedule_attribution_and_fixit_display() {
        let d = Diagnostic::error(DiagnosticKind::BadChunk, "7 parts do not fit")
            .with_command(2)
            .with_var("ko")
            .with_fixit("use 4 parts");
        let s = d.to_string();
        assert!(s.contains("error[bad-chunk]"), "{s}");
        assert!(s.contains("command 2"), "{s}");
        assert!(s.contains("var 'ko'"), "{s}");
        assert!(s.ends_with("; fix: use 4 parts"), "{s}");
        // Lint kinds render in kebab case.
        for (k, text) in [
            (DiagnosticKind::UnknownLoopVar, "unknown-loop-var"),
            (DiagnosticKind::GridMismatch, "grid-mismatch"),
            (DiagnosticKind::Redistribution, "re-distribution"),
            (DiagnosticKind::LoadImbalance, "load-imbalance"),
            (DiagnosticKind::PlanCardinality, "plan-cardinality"),
        ] {
            assert_eq!(k.to_string(), text);
        }
    }

    #[test]
    fn clean_means_no_errors() {
        assert!(verified_clean(&[]));
        let w = Diagnostic::warning(DiagnosticKind::ReadHazard, "x");
        assert!(verified_clean(std::slice::from_ref(&w)));
        let e = Diagnostic::error(DiagnosticKind::Deadlock, "x");
        assert!(!verified_clean(&[w, e]));
    }
}
