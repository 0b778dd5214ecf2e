//! Physical element storage for resident arrays.
//!
//! An [`ArrayData`] is an immutable, reference-counted flat buffer of
//! elements in row-major order, shared by all views derived from it
//! (thesis §5.2.1: "Storage of Resident Arrays").

use crate::dtype::{Num, NumericType};
use crate::error::{ArrayError, Result};

/// The flat element buffer of a resident array.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    Int(Vec<i64>),
    Real(Vec<f64>),
}

impl Buffer {
    /// A zero-filled buffer of `len` elements of the given type.
    pub fn zeros(ty: NumericType, len: usize) -> Self {
        match ty {
            NumericType::Int => Buffer::Int(vec![0; len]),
            NumericType::Real => Buffer::Real(vec![0.0; len]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Buffer::Int(v) => v.len(),
            Buffer::Real(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Immutable physical storage of a resident array: element type plus a
/// flat row-major buffer. Logical structure (shape, slicing) lives in
/// [`crate::ArrayView`]; many views may share one `ArrayData`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayData {
    buf: Buffer,
}

impl From<Buffer> for ArrayData {
    fn from(buf: Buffer) -> Self {
        ArrayData { buf }
    }
}

impl ArrayData {
    pub fn from_i64(values: Vec<i64>) -> Self {
        ArrayData {
            buf: Buffer::Int(values),
        }
    }

    pub fn from_f64(values: Vec<f64>) -> Self {
        ArrayData {
            buf: Buffer::Real(values),
        }
    }

    pub fn from_nums(values: &[Num]) -> Self {
        let all_int = values.iter().all(|n| matches!(n, Num::Int(_)));
        if all_int {
            ArrayData::from_i64(values.iter().map(|n| n.as_i64()).collect())
        } else {
            ArrayData::from_f64(values.iter().map(|n| n.as_f64()).collect())
        }
    }

    /// A zero-filled buffer of `len` elements of the given type.
    pub fn zeros(ty: NumericType, len: usize) -> Self {
        Buffer::zeros(ty, len).into()
    }

    pub fn numeric_type(&self) -> NumericType {
        match self.buf {
            Buffer::Int(_) => NumericType::Int,
            Buffer::Real(_) => NumericType::Real,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn buffer(&self) -> &Buffer {
        &self.buf
    }

    /// Element at linear address `addr`.
    #[inline]
    pub fn get_linear(&self, addr: usize) -> Num {
        match &self.buf {
            Buffer::Int(v) => Num::Int(v[addr]),
            Buffer::Real(v) => Num::Real(v[addr]),
        }
    }

    /// Serialize elements `range` into little-endian bytes, 8 bytes per
    /// element. Used by the chunked storage back-ends.
    pub fn serialize_range(&self, start: usize, end: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity((end - start) * 8);
        match &self.buf {
            Buffer::Int(v) => {
                for x in &v[start..end] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Buffer::Real(v) => {
                for x in &v[start..end] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserialize a little-endian byte payload produced by
    /// [`ArrayData::serialize_range`].
    pub fn deserialize(ty: NumericType, bytes: &[u8]) -> Result<Self> {
        if !bytes.len().is_multiple_of(8) {
            return Err(ArrayError::Corrupt(format!(
                "payload of {} bytes is not a multiple of 8",
                bytes.len()
            )));
        }
        let n = bytes.len() / 8;
        Ok(match ty {
            NumericType::Int => {
                let mut v = Vec::with_capacity(n);
                for c in bytes.chunks_exact(8) {
                    v.push(i64::from_le_bytes(c.try_into().unwrap()));
                }
                ArrayData::from_i64(v)
            }
            NumericType::Real => {
                let mut v = Vec::with_capacity(n);
                for c in bytes.chunks_exact(8) {
                    v.push(f64::from_le_bytes(c.try_into().unwrap()));
                }
                ArrayData::from_f64(v)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nums_infers_type() {
        let ints = ArrayData::from_nums(&[Num::Int(1), Num::Int(2)]);
        assert_eq!(ints.numeric_type(), NumericType::Int);
        let mixed = ArrayData::from_nums(&[Num::Int(1), Num::Real(2.5)]);
        assert_eq!(mixed.numeric_type(), NumericType::Real);
        assert_eq!(mixed.get_linear(0), Num::Real(1.0));
    }

    #[test]
    fn serialize_roundtrip_int() {
        let d = ArrayData::from_i64(vec![1, -2, i64::MAX]);
        let bytes = d.serialize_range(0, 3);
        let back = ArrayData::deserialize(NumericType::Int, &bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn serialize_roundtrip_real() {
        let d = ArrayData::from_f64(vec![0.5, -1.25e300, f64::INFINITY]);
        let bytes = d.serialize_range(0, 3);
        let back = ArrayData::deserialize(NumericType::Real, &bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn serialize_subrange() {
        let d = ArrayData::from_i64(vec![10, 20, 30, 40]);
        let bytes = d.serialize_range(1, 3);
        let back = ArrayData::deserialize(NumericType::Int, &bytes).unwrap();
        assert_eq!(back, ArrayData::from_i64(vec![20, 30]));
    }

    #[test]
    fn deserialize_rejects_ragged_payload() {
        assert!(ArrayData::deserialize(NumericType::Int, &[0u8; 7]).is_err());
    }

    #[test]
    fn zeros() {
        let d = ArrayData::zeros(NumericType::Real, 4);
        assert_eq!(d.len(), 4);
        assert_eq!(d.get_linear(3), Num::Real(0.0));
    }
}
