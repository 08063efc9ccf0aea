//! # rvsim-cc — a small C compiler targeting RV32IM+F assembly
//!
//! The paper integrates the GCC cross-compiler on the server to translate C
//! programs into RISC-V assembly with selectable optimization levels and a
//! C ↔ assembly line mapping for the editor (§II-B, §III-C).  A proprietary
//! toolchain cannot be bundled here, so this crate provides the same
//! *capability* for the reproduction: a self-contained compiler for a C
//! subset that is sufficient for the educational kernels the simulator is
//! meant to teach with (array loops, reductions, branches, recursion,
//! floating-point arithmetic).
//!
//! Supported subset:
//!
//! * types: `int`, `float`, `char`, `void`, one level of pointers, 1-D arrays
//! * globals with initializers, `extern` arrays (filled through the Memory
//!   Settings window), local scalars and arrays
//! * functions with parameters and return values (integer and float)
//! * statements: declarations, assignment (+ `+=`, `-=`, `*=`), `if`/`else`,
//!   `while`, `for`, `return`, `break`, `continue`, blocks
//! * expressions: arithmetic, comparisons, logical `&&`/`||`/`!`, array
//!   indexing, function calls, casts between `int` and `float`, post-`++`/`--`
//!
//! Optimization levels mirror the paper's four GCC levels in spirit:
//!
//! * `-O0` — everything on the stack, no folding
//! * `-O1` — constant folding and algebraic simplification
//! * `-O2` — `-O1` plus scalar locals promoted to callee-saved registers
//! * `-O3` — `-O2` plus strength reduction (multiplication/division by powers
//!   of two become shifts)
//!
//! The output of [`compile`] is an assembly listing (accepted by `rvsim-asm`)
//! plus a per-statement line map linking C lines to assembly lines.

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;

use serde::{Deserialize, Serialize};

/// Optimization level (`-O0` … `-O3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub enum OptLevel {
    /// No optimization; all locals live on the stack.
    #[default]
    O0,
    /// Constant folding and algebraic simplification.
    O1,
    /// `O1` plus register allocation of scalar locals.
    O2,
    /// `O2` plus strength reduction.
    O3,
}

impl OptLevel {
    /// Parse `"0"`/`"O0"`/`"-O2"`-style spellings.
    pub fn parse(text: &str) -> Option<OptLevel> {
        match text.trim().trim_start_matches('-').trim_start_matches(['O', 'o']) {
            "0" => Some(OptLevel::O0),
            "1" => Some(OptLevel::O1),
            "2" => Some(OptLevel::O2),
            "3" => Some(OptLevel::O3),
            _ => None,
        }
    }

    /// True when constant folding is enabled.
    pub fn fold_constants(self) -> bool {
        self >= OptLevel::O1
    }

    /// True when scalar locals are kept in registers.
    pub fn registers_for_locals(self) -> bool {
        self >= OptLevel::O2
    }

    /// True when strength reduction is applied.
    pub fn strength_reduction(self) -> bool {
        self >= OptLevel::O3
    }
}

/// A compile error with source position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcError {
    /// 1-based source line.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl CcError {
    /// Create an error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        CcError { line, message: message.into() }
    }
}

impl std::fmt::Display for CcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CcError {}

/// Result of a successful compilation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOutput {
    /// Generated assembly listing (accepted by `rvsim-asm`).
    pub assembly: String,
    /// Links from C source lines to the first assembly line generated for
    /// them (1-based on both sides) — the editor's C ↔ assembly highlighting.
    pub line_map: Vec<(usize, usize)>,
}

/// Compile C `source` at the given optimization level.
pub fn compile(source: &str, opt: OptLevel) -> Result<CompileOutput, Vec<CcError>> {
    let tokens = lexer::tokenize(source).map_err(|e| vec![e])?;
    let unit = parser::parse(&tokens).map_err(|e| vec![e])?;
    codegen::generate(&unit, opt).map_err(|e| vec![e])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_level_parsing_and_ordering() {
        assert_eq!(OptLevel::parse("-O2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("O0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("3"), Some(OptLevel::O3));
        assert_eq!(OptLevel::parse("fast"), None);
        assert!(OptLevel::O3 > OptLevel::O0);
        assert!(!OptLevel::O0.fold_constants());
        assert!(OptLevel::O1.fold_constants());
        assert!(!OptLevel::O1.registers_for_locals());
        assert!(OptLevel::O2.registers_for_locals());
        assert!(OptLevel::O3.strength_reduction());
    }

    #[test]
    fn error_display() {
        let e = CcError::new(3, "expected `;`");
        assert_eq!(e.to_string(), "line 3: expected `;`");
    }

    /// Compile `source` at every level on a thread with a dispatch worker's
    /// 2 MiB stack.  A pass that recursed once per nesting level would run
    /// off it and abort the whole process, not just fail.
    fn compile_on_worker_stack(source: String) -> Vec<Result<CompileOutput, Vec<CcError>>> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3]
                    .map(|opt| compile(&source, opt))
                    .into()
            })
            .unwrap()
            .join()
            .expect("the compiling thread survives")
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_on_a_worker_stack() {
        use parser::MAX_NESTING as MAX;
        let returning = |expr: &str| format!("int main(void) {{ int x = 1; return {expr}; }}");
        let blocks = |depth: usize, innermost: &str| {
            let (open, close) = ("{".repeat(depth), "}".repeat(depth));
            format!("int main(void) {{ int x = 1; {open}{innermost}{close} return x; }}")
        };
        let parens =
            |depth: usize| returning(&format!("{}x{}", "(".repeat(depth), ")".repeat(depth)));
        let sum = |terms: usize| format!("x{}", " + x".repeat(terms - 1));
        let prefixed =
            |prefix: &str, count: usize| returning(&format!("{}x", prefix.repeat(count)));
        let within = [
            parens(MAX),
            returning(&sum(MAX)),
            prefixed("- ", MAX - 1),
            blocks(MAX, ""),
            blocks(MAX / 2, &format!("x = {};", sum(MAX / 2 - 1))),
        ];
        let past = [
            parens(MAX + 1),
            returning(&sum(MAX + 1)),
            blocks(MAX, "x = x;"),
            parens(1_000),
            returning(&sum(5_000)),
            blocks(5_000, ""),
            prefixed("- ", 10_000),
            prefixed("(int) ", 10_000),
            returning(&format!("x{}", "++".repeat(10_000))),
            format!("int main(void) {{ int {}p; return 0; }}", "*".repeat(10_000)),
        ];
        for (sources, compiles) in [(within.to_vec(), true), (past.to_vec(), false)] {
            for source in sources {
                for result in compile_on_worker_stack(source.clone()) {
                    match result {
                        Ok(_) => assert!(compiles, "{}", &source[..80]),
                        Err(e) => assert!(!compiles && e[0].message.contains("nesting"), "{e:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn end_to_end_smoke() {
        let out = compile("int main(void) { return 1 + 2; }", OptLevel::O0).unwrap();
        assert!(out.assembly.contains("main:"));
        assert!(!out.line_map.is_empty());
        let err = compile("int main(void) { return 1 + ; }", OptLevel::O0).unwrap_err();
        assert!(!err.is_empty());
    }
}
