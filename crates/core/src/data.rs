//! Typed argument values and persistence modes.
//!
//! DIET profiles carry typed arguments: scalars, vectors/matrices, strings
//! and files, each tagged with a persistence mode controlling whether the
//! middleware may cache the data on the server after the call
//! (`DIET_VOLATILE` vs `DIET_PERSISTENT`/`DIET_STICKY`). The paper's
//! `ramsesZoom2` service uses files and `DIET_INT` scalars, all volatile.

use bytes::{ByteStr, Bytes};
use std::sync::Arc;

/// Element base types (the `diet_base_type_t` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseType {
    Char,
    Int32,
    Int64,
    Float,
    Double,
}

impl BaseType {
    pub fn size_bytes(self) -> usize {
        match self {
            BaseType::Char => 1,
            BaseType::Int32 | BaseType::Float => 4,
            BaseType::Int64 | BaseType::Double => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BaseType::Char => "char",
            BaseType::Int32 => "int32",
            BaseType::Int64 => "int64",
            BaseType::Float => "float",
            BaseType::Double => "double",
        }
    }
}

/// Persistence modes (the `diet_persistence_mode_t` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Persistence {
    /// Freed on the server right after the call (the paper uses this for
    /// every `ramsesZoom2` argument).
    #[default]
    Volatile,
    /// Kept on the server, movable to another server on demand.
    Persistent,
    /// Kept on the server, never moved.
    Sticky,
}

/// A typed value (the content behind a `diet_arg_t`).
#[derive(Debug, Clone, PartialEq)]
pub enum DietValue {
    /// Absent — OUT arguments before the call ("declared even if their
    /// values is set to NULL").
    Null,
    ScalarI32(i32),
    ScalarI64(i64),
    ScalarF64(f64),
    ScalarChar(u8),
    /// Dense vector of doubles. Arc-backed so clone/retain are refcount
    /// bumps, not deep copies.
    VectorF64(Arc<[f64]>),
    /// Dense vector of 32-bit ints. Arc-backed like `VectorF64`.
    VectorI32(Arc<[i32]>),
    /// UTF-8 string (paramstring). [`ByteStr`]-backed so a decoded wire
    /// frame hands out an O(1) slice of the receive buffer instead of a
    /// fresh `String` allocation + copy.
    Str(ByteStr),
    /// A file: logical name plus contents. DIET ships files by content; the
    /// `name` mirrors the client-side path for diagnostics.
    File {
        name: String,
        data: Bytes,
    },
    /// A reference to data already resident on the grid (DAGDA handle): the
    /// client ships only the id; the executing SeD resolves it from its own
    /// store or pulls it from the owning SeD before the solve.
    DataRef {
        id: String,
    },
}

impl DietValue {
    pub fn type_name(&self) -> &'static str {
        match self {
            DietValue::Null => "null",
            DietValue::ScalarI32(_) => "scalar i32",
            DietValue::ScalarI64(_) => "scalar i64",
            DietValue::ScalarF64(_) => "scalar f64",
            DietValue::ScalarChar(_) => "scalar char",
            DietValue::VectorF64(_) => "vector f64",
            DietValue::VectorI32(_) => "vector i32",
            DietValue::Str(_) => "string",
            DietValue::File { .. } => "file",
            DietValue::DataRef { .. } => "data ref",
        }
    }

    /// Build an Arc-backed f64 vector value.
    pub fn vec_f64(v: impl Into<Arc<[f64]>>) -> Self {
        DietValue::VectorF64(v.into())
    }

    /// Build an Arc-backed i32 vector value.
    pub fn vec_i32(v: impl Into<Arc<[i32]>>) -> Self {
        DietValue::VectorI32(v.into())
    }

    /// Build a grid-data reference.
    pub fn data_ref(id: impl Into<String>) -> Self {
        DietValue::DataRef { id: id.into() }
    }

    /// Payload size in bytes — what the transport actually moves; drives the
    /// latency accounting the paper measures in Figure 5.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            DietValue::Null => 0,
            DietValue::ScalarI32(_) => 4,
            DietValue::ScalarI64(_) | DietValue::ScalarF64(_) => 8,
            DietValue::ScalarChar(_) => 1,
            DietValue::VectorF64(v) => (v.len() * 8) as u64,
            DietValue::VectorI32(v) => (v.len() * 4) as u64,
            DietValue::Str(s) => s.len() as u64,
            DietValue::File { name, data } => (name.len() + data.len()) as u64,
            // The whole point of a ref: only the id crosses the wire.
            DietValue::DataRef { id } => id.len() as u64,
        }
    }

    /// Convenience accessors used by solve functions (the `diet_*_get` API).
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            DietValue::ScalarI32(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            DietValue::ScalarF64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            DietValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn as_file(&self) -> Option<(&str, &Bytes)> {
        match self {
            DietValue::File { name, data } => Some((name, data)),
            _ => None,
        }
    }

    pub fn as_data_ref(&self) -> Option<&str> {
        match self {
            DietValue::DataRef { id } => Some(id),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, DietValue::Null)
    }

    /// Is this the very buffer `other` is — same allocation, same extent —
    /// not merely an equal one? Identity implies equality (both handles keep
    /// the buffer alive), so a `true` can stand in for comparing the bytes.
    /// Kinds that own no shared buffer are never "the same".
    pub fn same_buffer(&self, other: &DietValue) -> bool {
        let same_bytes = |a: &[u8], b: &[u8]| a.as_ptr() == b.as_ptr() && a.len() == b.len();
        match (self, other) {
            (DietValue::VectorF64(a), DietValue::VectorF64(b)) => Arc::ptr_eq(a, b),
            (DietValue::VectorI32(a), DietValue::VectorI32(b)) => Arc::ptr_eq(a, b),
            (DietValue::Str(a), DietValue::Str(b)) => same_bytes(a.as_bytes(), b.as_bytes()),
            (DietValue::File { name: n, data: a }, DietValue::File { name: m, data: b }) => {
                n == m && same_bytes(a, b)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(DietValue::Null.payload_bytes(), 0);
        assert_eq!(DietValue::ScalarI32(7).payload_bytes(), 4);
        assert_eq!(DietValue::vec_f64(vec![0.0; 10]).payload_bytes(), 80);
        assert_eq!(DietValue::data_ref("zoom#0").payload_bytes(), 6);
        let f = DietValue::File {
            name: "x.nml".into(),
            data: Bytes::from_static(b"hello"),
        };
        assert_eq!(f.payload_bytes(), 10);
    }

    #[test]
    fn accessors_enforce_types() {
        let v = DietValue::ScalarI32(42);
        assert_eq!(v.as_i32(), Some(42));
        assert_eq!(v.as_f64(), None);
        assert_eq!(v.as_str(), None);
        let s = DietValue::Str("abc".into());
        assert_eq!(s.as_str(), Some("abc"));
        assert!(DietValue::Null.is_null());
    }

    #[test]
    fn base_type_sizes() {
        assert_eq!(BaseType::Char.size_bytes(), 1);
        assert_eq!(BaseType::Int32.size_bytes(), 4);
        assert_eq!(BaseType::Double.size_bytes(), 8);
    }

    #[test]
    fn default_persistence_is_volatile() {
        assert_eq!(Persistence::default(), Persistence::Volatile);
    }

    #[test]
    fn vector_clone_is_a_refcount_bump() {
        let v = DietValue::vec_f64(vec![1.0; 1024]);
        let w = v.clone();
        match (&v, &w) {
            (DietValue::VectorF64(a), DietValue::VectorF64(b)) => {
                assert!(Arc::ptr_eq(a, b), "clone must share the allocation");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn data_ref_accessor() {
        let r = DietValue::data_ref("ic/zoom");
        assert_eq!(r.as_data_ref(), Some("ic/zoom"));
        assert_eq!(DietValue::Null.as_data_ref(), None);
    }
}
