//! Call stacks: what the sampling profiler observes.
//!
//! Every live activation — a function call or a module top-level execution
//! ("module init") — is a [`Frame`]. The profiler's per-sample *call path*
//! is a snapshot of the stack from the entry point down to the innermost
//! frame, exactly like the paths in the paper's Tables I, IV and V.

use slimstart_appmodel::{Application, FunctionId, ModuleId};

/// What a stack frame is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A module's top-level execution (the `__init__` phase). Samples whose
    /// stack contains one of these frames are *initialization samples*
    /// (paper §IV-A2, the Lib-4 problem).
    ModuleInit(ModuleId),
    /// A regular function activation.
    Call(FunctionId),
}

/// One activation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// What is executing.
    pub kind: FrameKind,
    /// The source line currently executing inside this frame.
    pub line: u32,
}

impl Frame {
    /// The module this frame executes in.
    pub fn module(&self, app: &Application) -> ModuleId {
        match self.kind {
            FrameKind::ModuleInit(m) => m,
            FrameKind::Call(f) => app.function(f).module(),
        }
    }

    /// The modeled source file of this frame.
    pub fn file<'a>(&self, app: &'a Application) -> &'a str {
        app.module(self.module(app)).file()
    }

    /// Whether this is a module-initialization frame.
    pub fn is_init(&self) -> bool {
        matches!(self.kind, FrameKind::ModuleInit(_))
    }
}

/// The live activation stack of a process.
///
/// Alongside the frames it keeps a count of live module-init frames, so
/// [`CallStack::in_init`] is O(1) instead of a scan. `push`, `pop` and
/// `set_line` touch only the frames and that counter.
#[derive(Debug, Clone, Default)]
pub struct CallStack {
    frames: Vec<Frame>,
    init_frames: usize,
}

impl CallStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        CallStack::default()
    }

    /// Pushes a new activation.
    pub fn push(&mut self, kind: FrameKind, line: u32) {
        let frame = Frame { kind, line };
        self.frames.push(frame);
        if frame.is_init() {
            self.init_frames += 1;
        }
    }

    /// Pops the innermost activation.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (an interpreter bug).
    pub fn pop(&mut self) -> Frame {
        let frame = self.frames.pop().expect("CallStack::pop on empty stack");
        if frame.is_init() {
            self.init_frames -= 1;
        }
        frame
    }

    /// Updates the current line of the innermost frame (as execution moves
    /// from statement to statement).
    pub fn set_line(&mut self, line: u32) {
        if let Some(top) = self.frames.last_mut() {
            top.line = line;
        }
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Stack depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether any live frame is a module-init frame — i.e. whether a sample
    /// taken now would be classified as an initialization sample.
    pub fn in_init(&self) -> bool {
        self.init_frames > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_simcore::time::SimDuration;

    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function(
            "main",
            m,
            3,
            vec![Stmt {
                line: 4,
                kind: StmtKind::Work(SimDuration::ZERO),
            }],
        );
        b.add_handler("h", f);
        b.finish().unwrap()
    }

    #[test]
    fn push_pop_depth() {
        let mut s = CallStack::new();
        assert_eq!(s.depth(), 0);
        s.push(FrameKind::ModuleInit(ModuleId::from_index(0)), 1);
        s.push(FrameKind::Call(FunctionId::from_index(0)), 3);
        assert_eq!(s.depth(), 2);
        let top = s.pop();
        assert_eq!(top.kind, FrameKind::Call(FunctionId::from_index(0)));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "empty stack")]
    fn pop_empty_panics() {
        CallStack::new().pop();
    }

    #[test]
    fn set_line_updates_top() {
        let mut s = CallStack::new();
        s.push(FrameKind::Call(FunctionId::from_index(0)), 3);
        s.set_line(9);
        assert_eq!(s.frames()[0].line, 9);
        // No-op on empty stack.
        let mut empty = CallStack::new();
        empty.set_line(1);
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn in_init_detects_module_frames() {
        let mut s = CallStack::new();
        s.push(FrameKind::Call(FunctionId::from_index(0)), 1);
        assert!(!s.in_init());
        s.push(FrameKind::ModuleInit(ModuleId::from_index(0)), 1);
        assert!(s.in_init());
    }

    #[test]
    fn frame_introspection() {
        let app = app();
        let call = Frame {
            kind: FrameKind::Call(FunctionId::from_index(0)),
            line: 4,
        };
        assert_eq!(call.file(&app), "handler.py");
        assert!(!call.is_init());
        let init = Frame {
            kind: FrameKind::ModuleInit(ModuleId::from_index(0)),
            line: 1,
        };
        assert!(init.is_init());
    }

    #[test]
    fn in_init_is_counted_not_scanned() {
        let mut s = CallStack::new();
        s.push(FrameKind::ModuleInit(ModuleId::from_index(0)), 1);
        s.push(FrameKind::ModuleInit(ModuleId::from_index(1)), 1);
        s.push(FrameKind::Call(FunctionId::from_index(0)), 2);
        assert!(s.in_init());
        s.pop();
        s.pop();
        assert!(s.in_init());
        s.pop();
        assert!(!s.in_init());
    }
}
