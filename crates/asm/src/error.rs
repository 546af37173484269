//! Error types for assembly, encoding, and placement.

use dorado_base::MicroAddr;

/// Errors produced while assembling, encoding, or placing microcode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmError {
    /// Two different uses of the FF field were requested in one instruction
    /// (§5.5: "This encoding saves many bits in the microinstruction, at the
    /// expense of allowing only one FF-specified operation ... in each
    /// cycle").
    FfConflict {
        /// Description of the first use.
        first: String,
        /// Description of the conflicting second use.
        second: String,
    },
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A field value did not fit its encoding.
    FieldRange {
        /// The field name.
        field: &'static str,
        /// The offending value.
        value: u32,
        /// The maximum encodable value.
        max: u32,
    },
    /// A 16-bit constant is not representable in byte form (§5.9) and so
    /// cannot be loaded by a single microinstruction.
    ConstantNotByteForm(u16),
    /// An encoding in the microword did not decode to a defined operation.
    ReservedEncoding {
        /// The field name.
        field: &'static str,
        /// The raw value found.
        value: u32,
    },
    /// The program did not fit in the 4096-word microstore.
    StoreFull {
        /// How many words were needed when space ran out.
        needed: usize,
    },
    /// A dispatch table was not aligned or sized as required.
    BadDispatchTable(String),
    /// A conditional branch could not be encoded: its targets could not be
    /// arranged as an even/odd pair in the branch's page.
    BranchPairUnplaceable {
        /// The branch's address.
        at: MicroAddr,
        /// The false target label.
        when_false: String,
        /// The true target label.
        when_true: String,
    },
    /// The program is empty.
    EmptyProgram,
    /// Post-placement verification found one or more violations.  Each
    /// entry is one rendered [`crate::verify::Violation`], deduplicated.
    Verification(Vec<String>),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::FfConflict { first, second } => {
                write!(f, "FF field conflict: {first} vs {second}")
            }
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::FieldRange { field, value, max } => {
                write!(f, "{field} value {value} exceeds maximum {max}")
            }
            AsmError::ConstantNotByteForm(v) => {
                write!(
                    f,
                    "constant {v:#06x} is not in byte form (needs two instructions)"
                )
            }
            AsmError::ReservedEncoding { field, value } => {
                write!(f, "reserved {field} encoding {value:#x}")
            }
            AsmError::StoreFull { needed } => {
                write!(f, "microstore full: {needed} words needed")
            }
            AsmError::BadDispatchTable(msg) => write!(f, "bad dispatch table: {msg}"),
            AsmError::BranchPairUnplaceable {
                at,
                when_false,
                when_true,
            } => write!(
                f,
                "branch at {at} cannot reach pair ({when_false}, {when_true})"
            ),
            AsmError::EmptyProgram => write!(f, "program contains no instructions"),
            AsmError::Verification(violations) => {
                write!(f, "verification failed ({} violations):", violations.len())?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AsmError::DuplicateLabel("x".into());
        assert_eq!(format!("{e}"), "duplicate label `x`");
        let e = AsmError::ConstantNotByteForm(0x1234);
        assert!(format!("{e}").contains("0x1234"));
        let e = AsmError::StoreFull { needed: 5000 };
        assert!(format!("{e}").contains("5000"));
    }
}
