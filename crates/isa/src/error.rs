//! Error type for program encoding and decoding.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from decoding programs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The byte stream ended in the middle of an instruction.
    TruncatedStream {
        /// Byte offset at which decoding stopped.
        offset: usize,
    },
    /// An unknown opcode was encountered.
    BadOpcode {
        /// The offending opcode byte.
        opcode: u8,
        /// Byte offset of the opcode.
        offset: usize,
    },
    /// An operand field held an invalid value (bad register index,
    /// bad enum tag).
    BadOperand {
        /// Description of the bad field.
        what: &'static str,
        /// Byte offset of the instruction.
        offset: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TruncatedStream { offset } => {
                write!(f, "instruction stream truncated at byte {offset}")
            }
            Error::BadOpcode { opcode, offset } => {
                write!(f, "unknown opcode {opcode:#x} at byte {offset}")
            }
            Error::BadOperand { what, offset } => {
                write!(f, "invalid {what} operand at byte {offset}")
            }
        }
    }
}

impl std::error::Error for Error {}
