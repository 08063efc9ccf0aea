//! Operand expression evaluation (paper §III-C).
//!
//! The compiler frequently emits arithmetic in instruction arguments
//! (`lla x4, arr+64`), and pseudo-instruction expansion introduces
//! `%hi(...)` / `%lo(...)` relocations.  This module evaluates such
//! expressions once all label values are known (i.e. in the second pass,
//! after memory allocation).
//!
//! Grammar (additive expressions are all the compiler generates):
//!
//! ```text
//! expr   := term (('+' | '-') term)*
//! term   := integer | symbol | '%hi' '(' expr ')' | '%lo' '(' expr ')'
//!         | '(' expr ')' | '-' term
//! ```

use std::collections::HashMap;

/// Deepest nesting of parentheses, `%hi(`/`%lo(` and unary minus an
/// operand may use.  The evaluator recurses once per level, so the bound
/// keeps a hostile operand from overflowing the thread's stack.
pub const MAX_NESTING: usize = 128;

/// Evaluate an operand expression against a symbol table.
pub fn evaluate(expr: &str, symbols: &HashMap<String, i64>) -> Result<i64, String> {
    let mut parser = Parser { input: expr, pos: 0, depth: 0, symbols };
    let value = parser.parse_expr()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(format!("unexpected trailing input in `{expr}`"));
    }
    Ok(value)
}

/// `%hi(value)`: upper 20 bits, rounded so that `(hi << 12) + lo == value`
/// with a signed 12-bit `lo`.
pub fn hi20(value: i64) -> i64 {
    ((value + 0x800) >> 12) & 0xfffff
}

/// `%lo(value)`: signed low 12 bits.
pub fn lo12(value: i64) -> i64 {
    let lo = value & 0xfff;
    if lo >= 0x800 {
        lo - 0x1000
    } else {
        lo
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Nesting of the term being parsed (see [`MAX_NESTING`]).
    depth: usize,
    symbols: &'a HashMap<String, i64>,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, prefix: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    /// Run `parse` one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<i64, String>) -> Result<i64, String> {
        if self.depth >= MAX_NESTING {
            return Err(format!("expression nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_expr(&mut self) -> Result<i64, String> {
        let mut value = self.parse_term()?;
        loop {
            if self.eat("+") {
                value += self.parse_term()?;
            } else if self.eat("-") {
                value -= self.parse_term()?;
            } else {
                break;
            }
        }
        Ok(value)
    }

    fn parse_term(&mut self) -> Result<i64, String> {
        self.skip_ws();
        if self.eat("%hi") {
            if !self.eat("(") {
                return Err("expected `(` after %hi".to_string());
            }
            let inner = self.nested(Self::parse_expr)?;
            if !self.eat(")") {
                return Err("missing `)` after %hi expression".to_string());
            }
            return Ok(hi20(inner));
        }
        if self.eat("%lo") {
            if !self.eat("(") {
                return Err("expected `(` after %lo".to_string());
            }
            let inner = self.nested(Self::parse_expr)?;
            if !self.eat(")") {
                return Err("missing `)` after %lo expression".to_string());
            }
            return Ok(lo12(inner));
        }
        if self.eat("(") {
            let inner = self.nested(Self::parse_expr)?;
            if !self.eat(")") {
                return Err("missing `)`".to_string());
            }
            return Ok(inner);
        }
        if self.eat("-") {
            return Ok(-self.nested(Self::parse_term)?);
        }
        self.skip_ws();
        let rest = self.rest();
        if rest.is_empty() {
            return Err("unexpected end of expression".to_string());
        }
        // Number literal (decimal, hex, binary) or character literal.
        let first = rest.chars().next().unwrap();
        if first == '\'' {
            // 'a' or '\n'
            let mut chars = rest.chars();
            chars.next();
            let (value, consumed) = match chars.next() {
                Some('\\') => {
                    let esc = chars.next().ok_or("unterminated character literal")?;
                    let v = match esc {
                        'n' => b'\n',
                        't' => b'\t',
                        '0' => 0,
                        '\\' => b'\\',
                        '\'' => b'\'',
                        other => return Err(format!("unknown escape `\\{other}`")),
                    };
                    (v as i64, 4)
                }
                Some(c) => (c as i64, 3),
                None => return Err("unterminated character literal".to_string()),
            };
            if !rest[consumed - 1..].starts_with('\'') {
                return Err("unterminated character literal".to_string());
            }
            self.pos += consumed;
            return Ok(value);
        }
        if first.is_ascii_digit() {
            let end = rest
                .char_indices()
                .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_')
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let text = &rest[..end];
            let value = parse_number(text).ok_or_else(|| format!("bad number `{text}`"))?;
            self.pos += end;
            return Ok(value);
        }
        if first.is_ascii_alphabetic() || first == '_' || first == '.' {
            let end = rest
                .char_indices()
                .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_' && *c != '.' && *c != '$')
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let name = &rest[..end];
            self.pos += end;
            return self
                .symbols
                .get(name)
                .copied()
                .ok_or_else(|| format!("undefined symbol `{name}`"));
        }
        Err(format!("unexpected character `{first}` in expression"))
    }
}

/// Parse a decimal / hex (`0x`) / binary (`0b`) unsigned literal.
fn parse_number(text: &str) -> Option<i64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = text.strip_prefix("0b").or_else(|| text.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2).ok()
    } else {
        text.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols() -> HashMap<String, i64> {
        let mut s = HashMap::new();
        s.insert("arr".to_string(), 0x1000);
        s.insert("x".to_string(), 20);
        s.insert(".L2".to_string(), 64);
        s
    }

    #[test]
    fn plain_numbers() {
        let s = HashMap::new();
        assert_eq!(evaluate("42", &s).unwrap(), 42);
        assert_eq!(evaluate("-42", &s).unwrap(), -42);
        assert_eq!(evaluate("0x10", &s).unwrap(), 16);
        assert_eq!(evaluate("0b1010", &s).unwrap(), 10);
        assert_eq!(evaluate("  7 ", &s).unwrap(), 7);
    }

    #[test]
    fn symbol_arithmetic() {
        let s = symbols();
        assert_eq!(evaluate("arr", &s).unwrap(), 0x1000);
        assert_eq!(evaluate("arr+64", &s).unwrap(), 0x1040);
        assert_eq!(evaluate("arr + 64", &s).unwrap(), 0x1040);
        assert_eq!(evaluate("arr-4", &s).unwrap(), 0xffc);
        assert_eq!(evaluate("arr+x-4", &s).unwrap(), 0x1010);
        assert_eq!(evaluate(".L2", &s).unwrap(), 64);
        assert_eq!(evaluate("(arr+4)-(x)", &s).unwrap(), 0x1004 - 20);
    }

    #[test]
    fn character_literals() {
        let s = HashMap::new();
        assert_eq!(evaluate("'a'", &s).unwrap(), 97);
        assert_eq!(evaluate("'\\n'", &s).unwrap(), 10);
        assert_eq!(evaluate("'0'", &s).unwrap(), 48);
    }

    #[test]
    fn hi_lo_relocations_compose() {
        let s = symbols();
        for value in [0i64, 4, 0x800, 0xfff, 0x1000, 0x12345678, 0x7ffff800, 0x7fffffff] {
            let hi = hi20(value);
            let lo = lo12(value);
            assert_eq!((hi << 12) + lo, value, "hi/lo must recompose 0x{value:x}");
            assert!((-2048..=2047).contains(&lo), "lo12 out of range for 0x{value:x}");
        }
        assert_eq!(evaluate("%hi(arr)", &s).unwrap(), 1);
        assert_eq!(evaluate("%lo(arr)", &s).unwrap(), 0);
        assert_eq!(evaluate("%lo(arr+8)", &s).unwrap(), 8);
    }

    #[test]
    fn undefined_symbol_is_error() {
        let s = symbols();
        let err = evaluate("missing+4", &s).unwrap_err();
        assert!(err.contains("missing"));
    }

    #[test]
    fn malformed_expressions_error() {
        let s = symbols();
        assert!(evaluate("", &s).is_err());
        assert!(evaluate("arr+", &s).is_err());
        assert!(evaluate("%hi arr", &s).is_err());
        assert!(evaluate("%hi(arr", &s).is_err());
        assert!(evaluate("(arr", &s).is_err());
        assert!(evaluate("arr 4", &s).is_err());
        assert!(evaluate("@", &s).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let s = symbols();
        let nested =
            |open: &str, depth: usize| format!("{}arr{}", open.repeat(depth), ")".repeat(depth));
        assert_eq!(evaluate(&nested("(", MAX_NESTING), &s).unwrap(), 0x1000);
        assert_eq!(evaluate(&nested("%lo(", MAX_NESTING), &s).unwrap(), 0);
        assert_eq!(evaluate(&format!("{}4", "- ".repeat(MAX_NESTING)), &s).unwrap(), 4);
        for deeper in [
            nested("(", MAX_NESTING + 1),
            nested("%hi(", MAX_NESTING + 1),
            format!("{}4", "-".repeat(MAX_NESTING + 1)),
        ] {
            let error = evaluate(&deeper, &s).unwrap_err();
            assert!(error.contains("nested deeper"), "{error}");
        }
    }
}
