//! The two-pass assembler (paper §III-C).

use crate::error::AsmError;
use crate::expr;
use crate::program::{AsmInstruction, DataItem, Operand, Program};
use rvsim_isa::{pseudo, ArgKind, InstructionDescriptor, InstructionSet, RegisterId};
use std::collections::HashMap;

/// Assembler options.
#[derive(Debug, Clone)]
pub struct AssemblerOptions {
    /// Base address of the data segment in main memory.  The stack normally
    /// occupies `[0, data_base)` (paper §III-C: the stack is allocated at the
    /// beginning of memory, user data after it).
    pub data_base: u64,
    /// Entry-point label.  Defaults to `main` when present, otherwise the
    /// first instruction.
    pub entry_label: Option<String>,
    /// Predefined symbols: labels of arrays allocated through the Memory
    /// Settings window (`extern` data in C programs) that the program may
    /// reference without defining.
    pub extra_symbols: HashMap<String, i64>,
}

impl Default for AssemblerOptions {
    fn default() -> Self {
        AssemblerOptions { data_base: 0x1000, entry_label: None, extra_symbols: HashMap::new() }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Instruction as collected by the first pass (operands still textual).
#[derive(Debug, Clone)]
struct RawInstruction {
    mnemonic: String,
    operands: Vec<String>,
    source_line: usize,
    text: String,
}

/// Pending data produced by the first pass, offsets relative to the data base.
#[derive(Debug, Clone)]
enum PendingData {
    /// Fully known bytes (strings, zero fill, alignment padding).
    Bytes { offset: u64, bytes: Vec<u8>, label: Option<String>, line: usize },
    /// Numeric elements whose values may reference labels.
    Numeric {
        offset: u64,
        elem_size: usize,
        exprs: Vec<String>,
        label: Option<String>,
        line: usize,
    },
}

impl PendingData {
    fn offset(&self) -> u64 {
        match self {
            PendingData::Bytes { offset, .. } | PendingData::Numeric { offset, .. } => *offset,
        }
    }
}

/// Strip `#` and `//` comments (outside string literals).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_escape = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_string {
            if c == '\\' && !prev_escape {
                prev_escape = true;
            } else {
                if c == '"' && !prev_escape {
                    in_string = false;
                }
                prev_escape = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == '#' || (c == '/' && i + 1 < bytes.len() && bytes[i + 1] as char == '/') {
            // `#` and `//` both start a comment.
            return &line[..i];
        }
        i += 1;
    }
    line
}

/// Split an operand list on top-level commas (commas inside parentheses or
/// string literals do not split).
fn split_operands(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            '(' if !in_string => {
                depth += 1;
                current.push(c);
            }
            ')' if !in_string => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if !in_string && depth == 0 => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

/// Parse a `.ascii`/`.asciiz`/`.string` literal with C escapes.
fn parse_string_literal(text: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let text = text.trim();
    if !text.starts_with('"') || !text.ends_with('"') || text.len() < 2 {
        return Err(AsmError::new(line, format!("expected string literal, got `{text}`")));
    }
    let inner = &text[1..text.len() - 1];
    let mut out = Vec::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            let esc =
                chars.next().ok_or_else(|| AsmError::new(line, "unterminated escape in string"))?;
            out.push(match esc {
                'n' => b'\n',
                't' => b'\t',
                'r' => b'\r',
                '0' => 0,
                '\\' => b'\\',
                '"' => b'"',
                other => {
                    return Err(AsmError::new(line, format!("unknown escape `\\{other}`")));
                }
            });
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Ok(out)
}

/// Directives that are recognized but carry no meaning for the simulator.
const IGNORED_DIRECTIVES: &[&str] = &[
    ".globl",
    ".global",
    ".type",
    ".size",
    ".file",
    ".ident",
    ".option",
    ".attribute",
    ".local",
    ".comm",
    ".weak",
    ".cfi_startproc",
    ".cfi_endproc",
    ".cfi_def_cfa_offset",
    ".cfi_offset",
    ".cfi_restore",
    ".addrsig",
    ".addrsig_sym",
];

/// Assemble `source` against the instruction set `isa`.
pub fn assemble(
    source: &str,
    isa: &InstructionSet,
    options: &AssemblerOptions,
) -> Result<Program, Vec<AsmError>> {
    let mut errors: Vec<AsmError> = Vec::new();
    let mut raw_instructions: Vec<RawInstruction> = Vec::new();
    let mut pending_data: Vec<PendingData> = Vec::new();
    let mut symbols: HashMap<String, i64> = options.extra_symbols.clone();
    // Data offsets are relative to the data base; label values become absolute
    // as soon as they are bound (the paper allocates memory between the two
    // passes — the base address is known up front here).
    let mut data_cursor: u64 = 0;
    let mut section = Section::Text;
    // Labels are bound lazily: a label binds to the next instruction (code
    // address) or the next data directive (data address), whichever comes
    // first.  This lets programs interleave data definitions and code without
    // explicit `.data`/`.text` directives, as in the paper's Listing 2.
    let mut pending_labels: Vec<(String, usize)> = Vec::new();

    fn bind_labels(
        pending: &mut Vec<(String, usize)>,
        value: i64,
        symbols: &mut HashMap<String, i64>,
        errors: &mut Vec<AsmError>,
    ) {
        for (label, line) in pending.drain(..) {
            if symbols.insert(label.clone(), value).is_some() {
                errors.push(AsmError::new(line, format!("duplicate label `{label}`")));
            }
        }
    }

    // ------------------------------------------------------------ first pass
    for (lineno0, raw_line) in source.lines().enumerate() {
        let lineno = lineno0 + 1;
        let mut line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }

        // Labels (possibly several, possibly followed by code on the same line).
        while let Some(colon) = find_label_colon(&line) {
            let label = line[..colon].trim().to_string();
            if label.is_empty() || !is_valid_label(&label) {
                errors.push(AsmError::new(lineno, format!("invalid label `{label}`")));
                break;
            }
            pending_labels.push((label, lineno));
            line = line[colon + 1..].trim().to_string();
        }
        if line.is_empty() {
            continue;
        }

        let (head, rest) = match line.find(char::is_whitespace) {
            Some(i) => (line[..i].to_string(), line[i..].trim().to_string()),
            None => (line.clone(), String::new()),
        };

        if head.starts_with('.') {
            handle_directive(
                &head,
                &rest,
                lineno,
                &mut section,
                &mut data_cursor,
                &mut pending_data,
                &mut pending_labels,
                &mut symbols,
                options,
                &mut errors,
            );
            continue;
        }

        // An instruction line.
        if section == Section::Data {
            errors.push(AsmError::new(lineno, "instruction in data section"));
            continue;
        }
        bind_labels(
            &mut pending_labels,
            (raw_instructions.len() as i64) * 4,
            &mut symbols,
            &mut errors,
        );
        let operand_texts = split_operands(&rest);
        let expanded = pseudo::expand(&head, &operand_texts)
            .unwrap_or_else(|| vec![(head.clone(), operand_texts.clone())]);
        for (mnemonic, ops) in expanded {
            raw_instructions.push(RawInstruction {
                mnemonic,
                operands: ops,
                source_line: lineno,
                text: line.clone(),
            });
        }
    }

    // Labels trailing the last instruction / data item bind to the current end
    // of the active section (commonly used as end markers).
    let trailing_value = match section {
        Section::Text => (raw_instructions.len() as i64) * 4,
        Section::Data => (options.data_base + data_cursor) as i64,
    };
    bind_labels(&mut pending_labels, trailing_value, &mut symbols, &mut errors);

    // ----------------------------------------------------------- second pass
    let mut program = Program { data_end: options.data_base + data_cursor, ..Program::default() };

    // Data items: evaluate numeric expressions now that all labels are known.
    for item in &pending_data {
        match item {
            PendingData::Bytes { offset, bytes, label, line } => {
                program.data.push(DataItem {
                    label: label.clone(),
                    address: options.data_base + offset,
                    bytes: bytes.clone(),
                    source_line: *line,
                });
            }
            PendingData::Numeric { offset, elem_size, exprs, label, line } => {
                let mut bytes = Vec::with_capacity(exprs.len() * elem_size);
                for e in exprs {
                    match evaluate_data_expr(e, &symbols) {
                        Ok(v) => bytes.extend_from_slice(&v.to_le_bytes()[..*elem_size]),
                        Err(msg) => {
                            errors.push(AsmError::new(*line, msg));
                            bytes.extend_from_slice(&vec![0u8; *elem_size]);
                        }
                    }
                }
                program.data.push(DataItem {
                    label: label.clone(),
                    address: options.data_base + offset,
                    bytes,
                    source_line: *line,
                });
            }
        }
    }
    // Keep the data items sorted by address for deterministic loading.
    program.data.sort_by_key(|d| d.address);
    let _ = pending_data.iter().map(PendingData::offset).count();

    // Instructions: resolve operands against descriptors.
    for (index, raw) in raw_instructions.iter().enumerate() {
        let address = (index as u64) * 4;
        let Some(descriptor) = isa.get(&raw.mnemonic) else {
            errors.push(AsmError::new(
                raw.source_line,
                format!("unknown instruction `{}`", raw.mnemonic),
            ));
            continue;
        };
        match resolve_operands(descriptor, &raw.operands, address, &symbols) {
            Ok(operands) => program.instructions.push(AsmInstruction {
                mnemonic: raw.mnemonic.clone(),
                operands,
                address,
                source_line: raw.source_line,
                text: raw.text.clone(),
            }),
            Err(msg) => errors.push(AsmError::new(raw.source_line, msg)),
        }
    }

    program.symbols = symbols;

    // Entry point.
    let entry = options.entry_label.clone().or_else(|| {
        if program.symbols.contains_key("main") {
            Some("main".to_string())
        } else {
            None
        }
    });
    if let Some(label) = entry {
        if !program.set_entry(&label) {
            errors.push(AsmError::global(format!("entry label `{label}` not found in code")));
        }
    }

    if program.instructions.is_empty() && errors.is_empty() {
        errors.push(AsmError::global("program contains no instructions"));
    }

    if errors.is_empty() {
        Ok(program)
    } else {
        Err(errors)
    }
}

fn find_label_colon(line: &str) -> Option<usize> {
    // A label is an identifier at the start of the line terminated by ':'.
    let mut end = 0;
    for (i, c) in line.char_indices() {
        if c == ':' {
            return if i == end && i > 0 { Some(i) } else { None };
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$' {
            end = i + 1;
        } else {
            return None;
        }
    }
    None
}

fn is_valid_label(label: &str) -> bool {
    !label.is_empty()
        && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
        && !label.chars().next().unwrap().is_ascii_digit()
}

#[allow(clippy::too_many_arguments)]
fn handle_directive(
    head: &str,
    rest: &str,
    lineno: usize,
    section: &mut Section,
    data_cursor: &mut u64,
    pending_data: &mut Vec<PendingData>,
    pending_labels: &mut Vec<(String, usize)>,
    symbols: &mut HashMap<String, i64>,
    options: &AssemblerOptions,
    errors: &mut Vec<AsmError>,
) {
    // Bind all pending labels to the current (already aligned) data cursor and
    // return the first one so the data item can carry it for display.
    let mut bind_data_labels = |cursor: u64,
                                symbols: &mut HashMap<String, i64>,
                                errors: &mut Vec<AsmError>|
     -> Option<String> {
        let first = pending_labels.first().map(|(l, _)| l.clone());
        for (label, line) in pending_labels.drain(..) {
            if symbols.insert(label.clone(), (options.data_base + cursor) as i64).is_some() {
                errors.push(AsmError::new(line, format!("duplicate label `{label}`")));
            }
        }
        first
    };

    // Pad the data segment up to `align` bytes.
    fn align_data(
        data_cursor: &mut u64,
        align: u64,
        pending_data: &mut Vec<PendingData>,
        lineno: usize,
    ) {
        let align = align.max(1);
        let aligned = data_cursor.div_ceil(align) * align;
        if aligned > *data_cursor {
            pending_data.push(PendingData::Bytes {
                offset: *data_cursor,
                bytes: vec![0u8; (aligned - *data_cursor) as usize],
                label: None,
                line: lineno,
            });
            *data_cursor = aligned;
        }
    }

    match head {
        ".text" => *section = Section::Text,
        ".data" | ".rodata" | ".bss" => *section = Section::Data,
        ".section" => {
            let name = rest.split([',', ' ']).next().unwrap_or("");
            *section = if name.contains("text") { Section::Text } else { Section::Data };
        }
        ".align" | ".p2align" => {
            // RISC-V GAS: .align N aligns to 2^N bytes.  Alignment only
            // affects the data segment; code is index-addressed.
            let n: u32 = rest.split(',').next().unwrap_or("0").trim().parse().unwrap_or(0);
            align_data(data_cursor, 1u64 << n.min(12), pending_data, lineno);
        }
        ".balign" => {
            let align: u64 = rest.split(',').next().unwrap_or("1").trim().parse().unwrap_or(1);
            align_data(data_cursor, align, pending_data, lineno);
        }
        ".byte" | ".hword" | ".half" | ".2byte" | ".word" | ".4byte" | ".dword" | ".8byte" => {
            let elem_size = match head {
                ".byte" => 1,
                ".hword" | ".half" | ".2byte" => 2,
                ".dword" | ".8byte" => 8,
                _ => 4,
            };
            // Natural alignment, as the hardware (and the paper's examples) expect.
            align_data(data_cursor, elem_size as u64, pending_data, lineno);
            let label = bind_data_labels(*data_cursor, symbols, errors);
            let exprs: Vec<String> = split_operands(rest).into_iter().collect();
            let count = exprs.len().max(1);
            pending_data.push(PendingData::Numeric {
                offset: *data_cursor,
                elem_size,
                exprs,
                label,
                line: lineno,
            });
            *data_cursor += (count * elem_size) as u64;
        }
        ".float" | ".double" => {
            let elem_size = if head == ".float" { 4 } else { 8 };
            align_data(data_cursor, elem_size as u64, pending_data, lineno);
            let label = bind_data_labels(*data_cursor, symbols, errors);
            let mut bytes = Vec::new();
            for part in split_operands(rest) {
                if head == ".float" {
                    match part.parse::<f32>() {
                        Ok(v) => bytes.extend_from_slice(&v.to_le_bytes()),
                        Err(_) => errors.push(AsmError::new(lineno, format!("bad float `{part}`"))),
                    }
                } else {
                    match part.parse::<f64>() {
                        Ok(v) => bytes.extend_from_slice(&v.to_le_bytes()),
                        Err(_) => {
                            errors.push(AsmError::new(lineno, format!("bad double `{part}`")))
                        }
                    }
                }
            }
            let len = bytes.len() as u64;
            pending_data.push(PendingData::Bytes {
                offset: *data_cursor,
                bytes,
                label,
                line: lineno,
            });
            *data_cursor += len;
        }
        ".ascii" | ".asciiz" | ".string" => {
            let label = bind_data_labels(*data_cursor, symbols, errors);
            match parse_string_literal(rest, lineno) {
                Ok(mut bytes) => {
                    if head != ".ascii" {
                        bytes.push(0); // null terminated
                    }
                    let len = bytes.len() as u64;
                    pending_data.push(PendingData::Bytes {
                        offset: *data_cursor,
                        bytes,
                        label,
                        line: lineno,
                    });
                    *data_cursor += len;
                }
                Err(e) => errors.push(e),
            }
        }
        ".skip" | ".zero" | ".space" => {
            let label = bind_data_labels(*data_cursor, symbols, errors);
            let n: u64 = rest.split(',').next().unwrap_or("0").trim().parse().unwrap_or(0);
            pending_data.push(PendingData::Bytes {
                offset: *data_cursor,
                bytes: vec![0u8; n as usize],
                label,
                line: lineno,
            });
            *data_cursor += n;
        }
        _ if IGNORED_DIRECTIVES.contains(&head) => {}
        _ => {
            errors.push(AsmError::new(lineno, format!("unknown directive `{head}`")));
        }
    }
}

fn evaluate_data_expr(text: &str, symbols: &HashMap<String, i64>) -> Result<i64, String> {
    expr::evaluate(text, symbols)
}

fn resolve_operands(
    descriptor: &InstructionDescriptor,
    operand_texts: &[String],
    address: u64,
    symbols: &HashMap<String, i64>,
) -> Result<Vec<Operand>, String> {
    // Memory instructions use the `value, offset(base)` syntax: two textual
    // operands map onto three descriptor arguments.
    let texts: Vec<String> = if descriptor.is_memory() && operand_texts.len() == 2 {
        let (offset, base) = split_memory_operand(&operand_texts[1])?;
        vec![operand_texts[0].clone(), offset, base]
    } else {
        operand_texts.to_vec()
    };

    if texts.len() != descriptor.arguments.len() {
        return Err(format!(
            "`{}` expects {} operands, got {}",
            descriptor.name,
            descriptor.arguments.len(),
            texts.len()
        ));
    }

    let pc_relative = descriptor.target.as_deref().map(|t| t.contains("\\pc")).unwrap_or(false);

    let mut operands = Vec::with_capacity(texts.len());
    for (arg, text) in descriptor.arguments.iter().zip(&texts) {
        match arg.kind {
            ArgKind::IntReg | ArgKind::FpReg => {
                let reg =
                    RegisterId::parse(text).ok_or_else(|| format!("`{text}` is not a register"))?;
                let expects_fp = arg.kind == ArgKind::FpReg;
                let is_fp = reg.kind == rvsim_isa::RegisterFileKind::Fp;
                if expects_fp != is_fp {
                    return Err(format!(
                        "operand `{text}` of `{}` must be a {} register",
                        descriptor.name,
                        if expects_fp { "floating-point" } else { "integer" }
                    ));
                }
                operands.push(Operand::Register(reg));
            }
            ArgKind::Imm | ArgKind::Label => {
                let value = expr::evaluate(text, symbols)
                    .map_err(|e| format!("in operand `{text}`: {e}"))?;
                let value = if arg.kind == ArgKind::Label && pc_relative {
                    // Symbolic targets become PC-relative offsets; numeric
                    // literals are taken as already-relative offsets.
                    if text.trim().parse::<i64>().is_ok() {
                        value
                    } else {
                        value - address as i64
                    }
                } else {
                    value
                };
                check_imm_range(descriptor, arg.name.as_str(), value)?;
                operands.push(Operand::Immediate(value));
            }
        }
    }
    Ok(operands)
}

fn split_memory_operand(text: &str) -> Result<(String, String), String> {
    let text = text.trim();
    let open = text
        .rfind('(')
        .ok_or_else(|| format!("memory operand `{text}` must look like `offset(base)`"))?;
    if !text.ends_with(')') {
        return Err(format!("memory operand `{text}` missing `)`"));
    }
    let offset = text[..open].trim();
    let base = text[open + 1..text.len() - 1].trim();
    let offset = if offset.is_empty() { "0" } else { offset };
    Ok((offset.to_string(), base.to_string()))
}

fn check_imm_range(
    descriptor: &InstructionDescriptor,
    arg: &str,
    value: i64,
) -> Result<(), String> {
    let name = descriptor.name.as_str();
    // U-type instructions take a 20-bit immediate.
    if (name == "lui" || name == "auipc") && arg == "imm" {
        if !(0..=0xfffff).contains(&value) {
            return Err(format!("`{name}` immediate {value} outside 0..0xFFFFF"));
        }
        return Ok(());
    }
    // I-type arithmetic and memory offsets are 12-bit signed.
    let is_itype_imm = arg == "imm"
        && (descriptor.is_memory()
            || matches!(name, "addi" | "andi" | "ori" | "xori" | "slti" | "sltiu" | "jalr"));
    if is_itype_imm && !(-2048..=2047).contains(&value) {
        return Err(format!("`{name}` immediate {value} outside -2048..2047"));
    }
    // Shift amounts are 5-bit.
    if matches!(name, "slli" | "srli" | "srai") && arg == "imm" && !(0..=31).contains(&value) {
        return Err(format!("`{name}` shift amount {value} outside 0..31"));
    }
    // Branch and jump ranges (generous; programs are index-addressed).
    if descriptor.is_conditional_branch() && arg == "imm" && !(-4096..=4095).contains(&value) {
        return Err(format!("branch offset {value} outside ±4 KiB"));
    }
    if name == "jal" && arg == "imm" && !(-(1 << 20)..=(1 << 20) - 1).contains(&value) {
        return Err(format!("jal offset {value} outside ±1 MiB"));
    }
    Ok(())
}

/// Remove compiler noise from generated assembly (the paper's output filter):
/// unneeded directives, empty lines and unreferenced local labels.
pub fn filter_assembly(text: &str) -> String {
    const NOISE: &[&str] = &[
        ".file",
        ".ident",
        ".option",
        ".attribute",
        ".type",
        ".size",
        ".globl",
        ".global",
        ".addrsig",
        ".addrsig_sym",
        ".cfi_startproc",
        ".cfi_endproc",
        ".cfi_def_cfa_offset",
        ".cfi_offset",
        ".cfi_restore",
        ".local",
        ".comm",
    ];
    let mut out: Vec<&str> = Vec::new();
    let mut last_blank = false;
    for raw in text.lines() {
        let stripped = strip_comment(raw);
        let trimmed = stripped.trim();
        if trimmed.is_empty() {
            if !last_blank && !out.is_empty() {
                out.push("");
                last_blank = true;
            }
            continue;
        }
        let head = trimmed.split_whitespace().next().unwrap_or("");
        if NOISE.contains(&head) {
            continue;
        }
        out.push(raw.trim_end());
        last_blank = false;
    }
    while out.last() == Some(&"") {
        out.pop();
    }
    let mut s = out.join("\n");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::RegisterFileKind;

    fn isa() -> InstructionSet {
        InstructionSet::rv32imf()
    }

    fn ok(source: &str) -> Program {
        assemble(source, &isa(), &AssemblerOptions::default()).expect("program assembles")
    }

    fn err(source: &str) -> Vec<AsmError> {
        assemble(source, &isa(), &AssemblerOptions::default())
            .expect_err("program must not assemble")
    }

    #[test]
    fn simple_program_assembles() {
        let p = ok("main:\n  li a0, 5\n  addi a0, a0, 1\n  ret\n");
        assert_eq!(p.len(), 3);
        assert_eq!(p.instructions[0].mnemonic, "addi"); // li expanded
        assert_eq!(p.instructions[0].imm(2), Some(5));
        assert_eq!(p.instructions[2].mnemonic, "jalr"); // ret expanded
        assert_eq!(p.entry_point, 0);
        assert_eq!(p.symbol("main"), Some(0));
    }

    #[test]
    fn labels_and_branches_become_relative() {
        let p = ok("main:\n  li t0, 0\nloop:\n  addi t0, t0, 1\n  blt t0, t1, loop\n  j end\nend:\n  ret\n");
        // Instruction 2 is `blt t0, t1, loop`; loop is instruction 1 (addr 4),
        // blt is at addr 8, so offset -4.
        let blt = &p.instructions[2];
        assert_eq!(blt.mnemonic, "blt");
        assert_eq!(blt.imm(2), Some(-4));
        // `j end` is jal x0, end: end at 16, j at 12 -> +4.
        let j = &p.instructions[3];
        assert_eq!(j.mnemonic, "jal");
        assert_eq!(j.imm(1), Some(4));
    }

    #[test]
    fn forward_references_resolve() {
        let p = ok("main:\n  beq x0, x0, done\n  addi a0, a0, 1\ndone:\n  ret\n");
        assert_eq!(p.instructions[0].imm(2), Some(8));
    }

    #[test]
    fn memory_operands_split_offset_and_base() {
        let p = ok("main:\n  lw a0, 8(sp)\n  sw a0, -4(s0)\n  flw fa0, 0(a1)\n  ret\n");
        let lw = &p.instructions[0];
        assert_eq!(lw.reg(0), Some(RegisterId::x(10)));
        assert_eq!(lw.imm(1), Some(8));
        assert_eq!(lw.reg(2), Some(RegisterId::sp()));
        let sw = &p.instructions[1];
        assert_eq!(sw.imm(1), Some(-4));
        assert_eq!(sw.reg(2), Some(RegisterId::x(8)));
        let flw = &p.instructions[2];
        assert_eq!(flw.reg(0).unwrap().kind, RegisterFileKind::Fp);
    }

    #[test]
    fn paper_listing2_memory_definitions() {
        // Listing 2 from the paper.
        let src = "
x:
    .word 5             # integer variable x

    .align 4
arr:
    .zero 64            # 64 bytes with 16B alignment

hello:
    .asciiz \"Hello World\"

main:
    la a0, arr
    lw a1, 0(a0)
    ret
";
        let p = ok(src);
        let base = AssemblerOptions::default().data_base;
        assert_eq!(p.symbol("x"), Some(base as i64));
        let arr = p.symbol("arr").unwrap() as u64;
        assert_eq!(arr % 16, 0, "arr must be 16-byte aligned");
        assert!(arr >= base + 4);
        let hello = p.symbol("hello").unwrap() as u64;
        assert_eq!(hello, arr + 64);
        // The hello string is null-terminated.
        let item = p.data.iter().find(|d| d.label.as_deref() == Some("hello")).unwrap();
        assert_eq!(item.bytes, b"Hello World\0");
        // la expands to lui+addi with %hi/%lo of arr.
        assert_eq!(p.instructions[0].mnemonic, "lui");
        assert_eq!(p.instructions[1].mnemonic, "addi");
        let hi = p.instructions[0].imm(1).unwrap();
        let lo = p.instructions[1].imm(2).unwrap();
        assert_eq!((hi << 12) + lo, arr as i64);
    }

    #[test]
    fn word_directive_accepts_label_arithmetic() {
        let src = "
arr:
    .word 1, 2, 3, 4
ptr:
    .word arr+8
main:
    ret
";
        let p = ok(src);
        let arr = p.symbol("arr").unwrap();
        let ptr_item = p.data.iter().find(|d| d.label.as_deref() == Some("ptr")).unwrap();
        let value = u32::from_le_bytes(ptr_item.bytes[0..4].try_into().unwrap()) as i64;
        assert_eq!(value, arr + 8);
    }

    #[test]
    fn byte_and_half_directives() {
        let p = ok("vals:\n .byte 1, 2, 255\nhalves:\n .hword 0x1234, -1\nmain:\n ret\n");
        let vals = p.data.iter().find(|d| d.label.as_deref() == Some("vals")).unwrap();
        assert_eq!(vals.bytes, vec![1, 2, 255]);
        let halves = p.data.iter().find(|d| d.label.as_deref() == Some("halves")).unwrap();
        assert_eq!(halves.bytes, vec![0x34, 0x12, 0xff, 0xff]);
        assert_eq!(halves.address % 2, 0);
    }

    #[test]
    fn float_directive() {
        let p = ok("f:\n .float 1.5, -2.0\nmain:\n ret\n");
        let f = p.data.iter().find(|d| d.label.as_deref() == Some("f")).unwrap();
        assert_eq!(&f.bytes[0..4], &1.5f32.to_le_bytes());
        assert_eq!(&f.bytes[4..8], &(-2.0f32).to_le_bytes());
    }

    #[test]
    fn entry_label_option_and_default() {
        let src = "start:\n  addi a0, x0, 1\nmain:\n  addi a0, x0, 2\n  ret\n";
        let p = ok(src);
        assert_eq!(p.entry_point, 4, "defaults to main");
        let opts = AssemblerOptions { entry_label: Some("start".into()), ..Default::default() };
        let p = assemble(src, &isa(), &opts).unwrap();
        assert_eq!(p.entry_point, 0);
        let opts = AssemblerOptions { entry_label: Some("nope".into()), ..Default::default() };
        assert!(assemble(src, &isa(), &opts).is_err());
    }

    #[test]
    fn unknown_instruction_reports_line() {
        let errors = err("main:\n  addx a0, a1, a2\n  ret\n");
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 2);
        assert!(errors[0].message.contains("addx"));
    }

    #[test]
    fn wrong_operand_kind_or_count() {
        let errors = err("main:\n  add a0, a1\n  ret\n");
        assert!(errors[0].message.contains("expects 3 operands"));
        let errors = err("main:\n  add a0, a1, fa0\n  ret\n");
        assert!(errors[0].message.contains("integer register"));
        let errors = err("main:\n  fadd.s fa0, fa1, a0\n  ret\n");
        assert!(errors[0].message.contains("floating-point"));
        let errors = err("main:\n  addi a0, a1, 5000\n  ret\n");
        assert!(errors[0].message.contains("outside -2048..2047"));
        let errors = err("main:\n  slli a0, a1, 33\n  ret\n");
        assert!(errors[0].message.contains("shift amount"));
    }

    #[test]
    fn duplicate_and_invalid_labels() {
        let errors = err("a:\n a:\n  ret\n");
        assert!(errors.iter().any(|e| e.message.contains("duplicate label")));
        let errors = err("main:\n  beq x0, x0, nowhere\n  ret\n");
        assert!(errors.iter().any(|e| e.message.contains("undefined symbol")));
    }

    #[test]
    fn instruction_in_data_section_rejected() {
        let errors = err(".data\n  addi a0, a0, 1\n");
        assert!(errors[0].message.contains("instruction in data section"));
    }

    #[test]
    fn empty_program_rejected() {
        let errors = err("# just a comment\n");
        assert!(errors[0].message.contains("no instructions"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = ok("# header\nmain: # entry\n  addi a0, x0, 1 // one\n\n  ret\n");
        assert_eq!(p.len(), 2);
        assert_eq!(p.instructions[0].source_line, 3);
    }

    #[test]
    fn gcc_noise_directives_are_ignored() {
        let src = "\t.file\t\"t.c\"\n\t.option nopic\n\t.attribute arch, \"rv32i\"\n\t.text\n\t.globl\tmain\n\t.type\tmain, @function\nmain:\n\taddi\ta0,x0,3\n\tret\n\t.size\tmain, .-main\n\t.ident\t\"GCC\"\n";
        let p = ok(src);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn source_lines_recorded_for_editor_links() {
        let p = ok("main:\n  li a0, 100000\n  ret\n");
        // li expands to two instructions, both attributed to line 2.
        assert_eq!(p.instructions[0].source_line, 2);
        assert_eq!(p.instructions[1].source_line, 2);
        assert_eq!(p.instructions[2].source_line, 3);
        assert_eq!(p.instructions[0].mnemonic, "lui");
    }

    #[test]
    fn data_end_reflects_allocation() {
        let p = ok("arr:\n .zero 64\nmain:\n ret\n");
        assert_eq!(p.data_end, AssemblerOptions::default().data_base + 64);
    }

    #[test]
    fn filter_removes_noise_and_keeps_code() {
        let src = "\t.file\t\"t.c\"\n\t.globl\tmain\nmain:\n\taddi a0,x0,1 # one\n\n\n\tret\n\t.size\tmain, .-main\n";
        let filtered = filter_assembly(src);
        assert!(!filtered.contains(".file"));
        assert!(!filtered.contains(".globl"));
        assert!(!filtered.contains(".size"));
        assert!(filtered.contains("main:"));
        assert!(filtered.contains("addi a0,x0,1"));
        assert!(!filtered.contains("\n\n\n"), "blank runs collapsed");
    }

    #[test]
    fn split_operands_respects_parens() {
        assert_eq!(split_operands("a0, 8(sp), 3"), vec!["a0", "8(sp)", "3"]);
        assert_eq!(split_operands("a0, %lo(arr+4)(a1)"), vec!["a0", "%lo(arr+4)(a1)"]);
        assert_eq!(split_operands(""), Vec::<String>::new());
    }

    #[test]
    fn deeply_nested_operands_are_errors_on_a_worker_stack() {
        // 100,000 levels: a 200 KB program, well inside the server's 4 MiB
        // body limit, which a recursion per level would run off a dispatch
        // worker's 2 MiB stack.
        let depth = 100_000;
        let operand = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let errors = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                ["li a0", "lw a0"].map(|head| err(&format!("main:\n  {head}, {operand}\n")))
            })
            .unwrap()
            .join()
            .expect("the assembling thread survives");
        for errors in errors {
            assert!(errors[0].message.contains("nested deeper"), "{errors:?}");
        }
        let nested = format!("{}1{}", "(".repeat(100), ")".repeat(100));
        assert_eq!(
            ok(&format!("main:\n  addi a0, a0, {nested}\n")).instructions[0].imm(2),
            Some(1)
        );
    }

    #[test]
    fn memory_operand_with_relocation() {
        let p = ok("arr:\n .word 1,2,3\nmain:\n  lui a1, %hi(arr)\n  lw a0, %lo(arr)(a1)\n  ret\n");
        let lw = &p.instructions[1];
        let arr = p.symbol("arr").unwrap();
        let hi = p.instructions[0].imm(1).unwrap();
        assert_eq!((hi << 12) + lw.imm(1).unwrap(), arr);
    }
}
