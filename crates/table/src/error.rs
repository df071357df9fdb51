use std::fmt;

/// Errors produced by the table layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// An attribute id was out of range for the schema.
    InvalidAttrId(u32),
    /// A row had the wrong number of fields.
    ArityMismatch {
        /// Number of attributes the schema expects.
        expected: usize,
        /// Number of fields the row supplied.
        got: usize,
    },
    /// A categorical value could not be interpreted as a number.
    NonNumericValue {
        /// Attribute whose dictionary contained the value.
        attr: String,
        /// The offending dictionary entry.
        value: String,
    },
    /// A value was not present in a column dictionary.
    UnknownValue {
        /// Attribute searched.
        attr: String,
        /// The value that was looked up.
        value: String,
    },
    /// CSV input was malformed.
    Csv(String),
    /// Underlying I/O failure (stringified to keep the error `Clone`).
    Io(String),
    /// Tables passed to an operation had incompatible shapes.
    Incompatible(String),
    /// A relation would grow past [`MAX_ROWS`](crate::rows::MAX_ROWS).
    TooManyRows {
        /// 1-based number of the first row that does not fit.
        row: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            Error::InvalidAttrId(id) => write!(f, "attribute id {id} out of range"),
            Error::ArityMismatch { expected, got } => {
                write!(f, "row has {got} fields, schema expects {expected}")
            }
            Error::NonNumericValue { attr, value } => {
                write!(f, "value `{value}` of attribute `{attr}` is not numeric")
            }
            Error::UnknownValue { attr, value } => {
                write!(f, "value `{value}` does not occur in attribute `{attr}`")
            }
            Error::Csv(msg) => write!(f, "csv error: {msg}"),
            Error::Io(msg) => write!(f, "io error: {msg}"),
            Error::Incompatible(msg) => write!(f, "incompatible operands: {msg}"),
            Error::TooManyRows { row } => write!(
                f,
                "row {row} does not fit: a table holds at most {} rows",
                crate::rows::MAX_ROWS
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Result alias for the table layer.
pub type Result<T> = std::result::Result<T, Error>;
