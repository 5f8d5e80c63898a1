//! Label-resolving program builder: the back half of the compiler's code
//! generator targets this instead of raw branch offsets.

use crate::error::{Error, Result};
use crate::inst::Inst;
use crate::program::Program;
use crate::reg::Reg;
use std::collections::HashMap;

/// Pending branch fix-up: instruction index + label + kind.
#[derive(Debug, Clone)]
enum Fixup {
    Bnez { at: usize, rs: Reg, label: String },
    Branch { at: usize, label: String },
}

/// Builds a [`Program`] with symbolic labels for branch targets.
///
/// ```
/// use scaledeep_isa::{ProgramBuilder, Reg};
///
/// # fn main() -> Result<(), scaledeep_isa::Error> {
/// let mut b = ProgramBuilder::new("loop-demo");
/// b.ldri(Reg::R0, 3);
/// b.label("loop")?;
/// b.subri(Reg::R0, Reg::R0, 1);
/// b.bnez(Reg::R0, "loop");
/// b.halt();
/// let prog = b.finish()?;
/// assert_eq!(prog.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            insts: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// Current instruction count (the address of the next emitted
    /// instruction).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits an arbitrary instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Defines a label at the current position.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateLabel`] when the label already exists.
    pub fn label(&mut self, name: impl Into<String>) -> Result<&mut Self> {
        let name = name.into();
        if self.labels.insert(name.clone(), self.insts.len()).is_some() {
            return Err(Error::DuplicateLabel { label: name });
        }
        Ok(self)
    }

    /// Emits `LDRI rd, value`.
    pub fn ldri(&mut self, rd: Reg, value: i64) -> &mut Self {
        self.emit(Inst::Ldri { rd, value })
    }

    /// Emits `SUBRI rd, rs, imm`.
    pub fn subri(&mut self, rd: Reg, rs: Reg, imm: i64) -> &mut Self {
        self.emit(Inst::Subri { rd, rs, imm })
    }

    /// Emits a branch-if-not-zero to `label` (resolved at
    /// [`finish`](Self::finish)).
    pub fn bnez(&mut self, rs: Reg, label: impl Into<String>) -> &mut Self {
        self.fixups.push(Fixup::Bnez {
            at: self.insts.len(),
            rs,
            label: label.into(),
        });
        self.emit(Inst::Bnez { rs, offset: 0 })
    }

    /// Emits an unconditional branch to `label`.
    pub fn branch(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push(Fixup::Branch {
            at: self.insts.len(),
            label: label.into(),
        });
        self.emit(Inst::Branch { offset: 0 })
    }

    /// Emits `HALT`.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Inst::Halt)
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UndefinedLabel`] for dangling branches and
    /// [`Error::OffsetOverflow`] for out-of-range targets.
    pub fn finish(mut self) -> Result<Program> {
        for fixup in &self.fixups {
            let (at, label) = match fixup {
                Fixup::Bnez { at, label, .. } | Fixup::Branch { at, label } => (*at, label),
            };
            let &target = self
                .labels
                .get(label)
                .ok_or_else(|| Error::UndefinedLabel {
                    label: label.clone(),
                })?;
            // Branch semantics: pc' = at + 1 + offset.
            let offset = target as i64 - at as i64 - 1;
            let offset = i32::try_from(offset).map_err(|_| Error::OffsetOverflow {
                label: label.clone(),
            })?;
            self.insts[at] = match fixup {
                Fixup::Bnez { rs, .. } => Inst::Bnez { rs: *rs, offset },
                Fixup::Branch { .. } => Inst::Branch { offset },
            };
        }
        Ok(Program::new(self.name, self.insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_branch_resolves_negative() {
        let mut b = ProgramBuilder::new("t");
        b.ldri(Reg::R0, 2);
        b.label("top").unwrap();
        b.subri(Reg::R0, Reg::R0, 1);
        b.bnez(Reg::R0, "top");
        b.halt();
        let p = b.finish().unwrap();
        // bnez at index 2; target 1; offset = 1 - 2 - 1 = -2.
        assert_eq!(
            p.insts()[2],
            Inst::Bnez {
                rs: Reg::R0,
                offset: -2
            }
        );
    }

    #[test]
    fn forward_branch_resolves_positive() {
        let mut b = ProgramBuilder::new("t");
        b.branch("end");
        b.ldri(Reg::R0, 1);
        b.label("end").unwrap();
        b.halt();
        let p = b.finish().unwrap();
        // branch at 0, target 2: offset = 1.
        assert_eq!(p.insts()[0], Inst::Branch { offset: 1 });
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.branch("nowhere");
        assert!(matches!(
            b.finish().unwrap_err(),
            Error::UndefinedLabel { .. }
        ));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.label("x").unwrap();
        assert!(matches!(
            b.label("x").unwrap_err(),
            Error::DuplicateLabel { .. }
        ));
    }
}
