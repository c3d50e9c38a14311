//! Functions and their bodies: the call structure the profiler samples.
//!
//! A function body is a sequence of statements: virtual-time [`Work`],
//! [`Call`] sites (direct or indirect — indirect calls model dispatch through
//! tables/callbacks, which static analysis cannot resolve precisely), and
//! probabilistic [`Branch`]es, the mechanism behind *workload-dependent*
//! library usage (e.g. `xmlschema` only runs when the input contains an SBOM,
//! paper §VI-2).
//!
//! [`Work`]: StmtKind::Work
//! [`Call`]: StmtKind::Call
//! [`Branch`]: StmtKind::Branch

use slimstart_simcore::time::SimDuration;

use crate::ids::{FunctionId, ModuleId};

/// Whether a call site is resolvable statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// A syntactically visible call: static analysis resolves the target.
    Direct,
    /// A call through a dispatch table or callback: dynamic profiling sees
    /// the real target; static analysis must treat it conservatively.
    Indirect,
}

/// A call site inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// The callee.
    pub target: FunctionId,
    /// Direct or indirect dispatch.
    pub kind: CallKind,
}

/// One statement in a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Source line of the statement.
    pub line: u32,
    /// What the statement does.
    pub kind: StmtKind,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Consume virtual compute time.
    Work(SimDuration),
    /// Invoke another function.
    Call(CallSite),
    /// Access a module attribute (constant, class, table) without calling
    /// into it — Python's `lib.CONSTANT`. Touching a deferred module forces
    /// its load, and static analysis must treat the module as used.
    Touch(ModuleId),
    /// Execute `body` with the given probability per invocation.
    Branch {
        /// Probability in `[0, 1]` that the body executes.
        probability: f64,
        /// Statements guarded by the branch.
        body: Vec<Stmt>,
    },
}

impl StmtKind {
    /// Shorthand for a direct call.
    pub fn call(target: FunctionId) -> StmtKind {
        StmtKind::Call(CallSite {
            target,
            kind: CallKind::Direct,
        })
    }

    /// Shorthand for an indirect call.
    pub fn indirect_call(target: FunctionId) -> StmtKind {
        StmtKind::Call(CallSite {
            target,
            kind: CallKind::Indirect,
        })
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    module: ModuleId,
    line: u32,
    body: Vec<Stmt>,
}

impl Function {
    /// Creates a function named `name` defined in `module` at source `line`.
    pub fn new(name: impl Into<String>, module: ModuleId, line: u32, body: Vec<Stmt>) -> Self {
        Function {
            name: name.into(),
            module,
            line,
            body,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module the function is defined in.
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// Source line of the definition.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// The statement sequence.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// All call sites in the body, flattening branches (a branch's calls are
    /// statically *possible*, which is how a static analyzer must treat them).
    pub fn call_sites(&self) -> Vec<&CallSite> {
        fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a CallSite>) {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::Call(site) => out.push(site),
                    StmtKind::Branch { body, .. } => walk(body, out),
                    StmtKind::Work(_) | StmtKind::Touch(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// All modules this function's body touches via attribute access,
    /// flattening branches (statically *possible* touches).
    pub fn touched_modules(&self) -> Vec<ModuleId> {
        fn walk(stmts: &[Stmt], out: &mut Vec<ModuleId>) {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::Touch(m) => out.push(*m),
                    StmtKind::Branch { body, .. } => walk(body, out),
                    StmtKind::Work(_) | StmtKind::Call(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Total `Work` time in the body assuming every branch executes
    /// (a static upper bound, excluding callee work).
    pub fn max_local_work(&self) -> SimDuration {
        fn walk(stmts: &[Stmt]) -> SimDuration {
            stmts
                .iter()
                .map(|s| match &s.kind {
                    StmtKind::Work(d) => *d,
                    StmtKind::Branch { body, .. } => walk(body),
                    StmtKind::Call(_) | StmtKind::Touch(_) => SimDuration::ZERO,
                })
                .sum()
        }
        walk(&self.body)
    }

    /// All branch probabilities in the body (for validation).
    pub(crate) fn branch_probabilities(&self) -> Vec<f64> {
        fn walk(stmts: &[Stmt], out: &mut Vec<f64>) {
            for stmt in stmts {
                if let StmtKind::Branch { probability, body } = &stmt.kind {
                    out.push(*probability);
                    walk(body, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: usize) -> FunctionId {
        FunctionId::from_index(i)
    }

    fn sample_function() -> Function {
        Function::new(
            "f",
            ModuleId::from_index(0),
            1,
            vec![
                Stmt {
                    line: 2,
                    kind: StmtKind::Work(SimDuration::from_millis(1)),
                },
                Stmt {
                    line: 3,
                    kind: StmtKind::call(fid(1)),
                },
                Stmt {
                    line: 4,
                    kind: StmtKind::Branch {
                        probability: 0.1,
                        body: vec![
                            Stmt {
                                line: 5,
                                kind: StmtKind::indirect_call(fid(2)),
                            },
                            Stmt {
                                line: 6,
                                kind: StmtKind::Work(SimDuration::from_millis(2)),
                            },
                        ],
                    },
                },
            ],
        )
    }

    #[test]
    fn call_sites_flatten_branches() {
        let f = sample_function();
        let sites = f.call_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].target, fid(1));
        assert_eq!(sites[0].kind, CallKind::Direct);
        assert_eq!(sites[1].target, fid(2));
        assert_eq!(sites[1].kind, CallKind::Indirect);
    }

    #[test]
    fn max_local_work_includes_branches() {
        let f = sample_function();
        assert_eq!(f.max_local_work(), SimDuration::from_millis(3));
    }

    #[test]
    fn branch_probabilities_collected_recursively() {
        let nested = Function::new(
            "g",
            ModuleId::from_index(0),
            1,
            vec![Stmt {
                line: 2,
                kind: StmtKind::Branch {
                    probability: 0.5,
                    body: vec![Stmt {
                        line: 3,
                        kind: StmtKind::Branch {
                            probability: 0.25,
                            body: vec![],
                        },
                    }],
                },
            }],
        );
        assert_eq!(nested.branch_probabilities(), vec![0.5, 0.25]);
    }

    #[test]
    fn touched_modules_collected_through_branches() {
        let f = Function::new(
            "t",
            ModuleId::from_index(0),
            1,
            vec![
                Stmt {
                    line: 2,
                    kind: StmtKind::Touch(ModuleId::from_index(5)),
                },
                Stmt {
                    line: 3,
                    kind: StmtKind::Branch {
                        probability: 0.5,
                        body: vec![Stmt {
                            line: 4,
                            kind: StmtKind::Touch(ModuleId::from_index(6)),
                        }],
                    },
                },
            ],
        );
        assert_eq!(
            f.touched_modules(),
            vec![ModuleId::from_index(5), ModuleId::from_index(6)]
        );
        assert!(f.call_sites().is_empty());
        assert_eq!(f.max_local_work(), SimDuration::ZERO);
    }

    #[test]
    fn accessors() {
        let f = sample_function();
        assert_eq!(f.name(), "f");
        assert_eq!(f.module(), ModuleId::from_index(0));
        assert_eq!(f.line(), 1);
        assert_eq!(f.body().len(), 3);
    }
}
