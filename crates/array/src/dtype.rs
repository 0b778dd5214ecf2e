//! Scalar numeric values and element types.
//!
//! SciSPARQL arrays hold either integers or reals (thesis §4.1); mixed
//! arithmetic promotes integers to reals, matching the language's scalar
//! arithmetic extension (§4.1.4).

use std::cmp::Ordering;
use std::fmt;

use crate::error::{ArrayError, Result};

/// Element type of a numeric array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericType {
    /// 64-bit signed integers (`xsd:integer` elements).
    Int,
    /// 64-bit IEEE-754 reals (`xsd:double` elements).
    Real,
}

impl NumericType {
    /// The type that results from combining two operand types:
    /// integer arithmetic stays integer, anything involving a real is real.
    pub fn promote(self, other: NumericType) -> NumericType {
        match (self, other) {
            (NumericType::Int, NumericType::Int) => NumericType::Int,
            _ => NumericType::Real,
        }
    }

    /// Size of one element in bytes in serialized form.
    pub fn element_size(self) -> usize {
        8
    }
}

impl fmt::Display for NumericType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericType::Int => write!(f, "Integer"),
            NumericType::Real => write!(f, "Real"),
        }
    }
}

/// A scalar numeric value: one element of an array, or a scalar operand
/// in array arithmetic.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    Int(i64),
    Real(f64),
}

impl Num {
    pub fn numeric_type(self) -> NumericType {
        match self {
            Num::Int(_) => NumericType::Int,
            Num::Real(_) => NumericType::Real,
        }
    }

    /// The value as a real, converting integers.
    pub fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Real(r) => r,
        }
    }

    /// The value as an integer; reals are truncated toward zero.
    pub fn as_i64(self) -> i64 {
        match self {
            Num::Int(i) => i,
            Num::Real(r) => r as i64,
        }
    }

    /// True unless the value is integer zero, real zero, or NaN
    /// (the Effective Boolean Value of a numeric, SPARQL §17.2.2).
    pub fn effective_bool(self) -> bool {
        match self {
            Num::Int(i) => i != 0,
            Num::Real(r) => r != 0.0 && !r.is_nan(),
        }
    }

    pub fn is_nan(self) -> bool {
        matches!(self, Num::Real(r) if r.is_nan())
    }

    pub fn checked_add(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => a
                .checked_add(b)
                .map(Num::Int)
                .ok_or(ArrayError::ArithmeticOverflow),
            _ => Ok(Num::Real(self.as_f64() + rhs.as_f64())),
        }
    }

    pub fn checked_sub(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => a
                .checked_sub(b)
                .map(Num::Int)
                .ok_or(ArrayError::ArithmeticOverflow),
            _ => Ok(Num::Real(self.as_f64() - rhs.as_f64())),
        }
    }

    pub fn checked_mul(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => a
                .checked_mul(b)
                .map(Num::Int)
                .ok_or(ArrayError::ArithmeticOverflow),
            _ => Ok(Num::Real(self.as_f64() * rhs.as_f64())),
        }
    }

    /// Division always yields a real, per SPARQL's `xsd:decimal`-style
    /// semantics adapted to SciSPARQL numerics; integer division by zero
    /// is an error rather than infinity.
    pub fn checked_div(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(_), Num::Int(0)) => Err(ArrayError::DivisionByZero),
            _ => Ok(Num::Real(self.as_f64() / rhs.as_f64())),
        }
    }

    /// Remainder; integer on integer operands.
    pub fn checked_rem(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(_), Num::Int(0)) => Err(ArrayError::DivisionByZero),
            (Num::Int(a), Num::Int(b)) => Ok(Num::Int(a.wrapping_rem(b))),
            _ => Ok(Num::Real(self.as_f64() % rhs.as_f64())),
        }
    }

    pub fn checked_neg(self) -> Result<Num> {
        match self {
            Num::Int(i) => i
                .checked_neg()
                .map(Num::Int)
                .ok_or(ArrayError::ArithmeticOverflow),
            Num::Real(r) => Ok(Num::Real(-r)),
        }
    }

    pub fn pow(self, rhs: Num) -> Result<Num> {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) if (0..=u32::MAX as i64).contains(&b) => a
                .checked_pow(b as u32)
                .map(Num::Int)
                .ok_or(ArrayError::ArithmeticOverflow),
            _ => Ok(Num::Real(self.as_f64().powf(rhs.as_f64()))),
        }
    }

    pub fn abs(self) -> Num {
        match self {
            Num::Int(i) => Num::Int(i.saturating_abs()),
            Num::Real(r) => Num::Real(r.abs()),
        }
    }

    pub fn min(self, rhs: Num) -> Num {
        match self.partial_cmp(&rhs) {
            Some(Ordering::Greater) => rhs,
            _ => self,
        }
    }

    pub fn max(self, rhs: Num) -> Num {
        match self.partial_cmp(&rhs) {
            Some(Ordering::Less) => rhs,
            _ => self,
        }
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl PartialOrd for Num {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => Some(a.cmp(b)),
            _ => self.as_f64().partial_cmp(&other.as_f64()),
        }
    }
}

impl From<i64> for Num {
    fn from(v: i64) -> Self {
        Num::Int(v)
    }
}

impl From<f64> for Num {
    fn from(v: f64) -> Self {
        Num::Real(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_rules() {
        assert_eq!(NumericType::Int.promote(NumericType::Int), NumericType::Int);
        assert_eq!(
            NumericType::Int.promote(NumericType::Real),
            NumericType::Real
        );
        assert_eq!(
            NumericType::Real.promote(NumericType::Int),
            NumericType::Real
        );
    }

    #[test]
    fn int_arithmetic_stays_int() {
        let r = Num::Int(6).checked_mul(Num::Int(7)).unwrap();
        assert!(matches!(r, Num::Int(42)));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        let r = Num::Int(1).checked_add(Num::Real(0.5)).unwrap();
        assert!(matches!(r, Num::Real(v) if v == 1.5));
    }

    #[test]
    fn division_yields_real() {
        let r = Num::Int(1).checked_div(Num::Int(2)).unwrap();
        assert_eq!(r.as_f64(), 0.5);
    }

    #[test]
    fn int_division_by_zero_errors() {
        assert!(Num::Int(1).checked_div(Num::Int(0)).is_err());
        assert!(Num::Int(1).checked_rem(Num::Int(0)).is_err());
    }

    #[test]
    fn real_division_by_zero_is_inf() {
        let r = Num::Real(1.0).checked_div(Num::Int(0)).unwrap();
        assert!(r.as_f64().is_infinite());
    }

    #[test]
    fn overflow_detected() {
        assert!(Num::Int(i64::MAX).checked_add(Num::Int(1)).is_err());
        assert!(Num::Int(i64::MIN).checked_neg().is_err());
    }

    #[test]
    fn cross_type_equality() {
        assert_eq!(Num::Int(2), Num::Real(2.0));
        assert_ne!(Num::Int(2), Num::Real(2.5));
    }

    #[test]
    fn ordering_mixed() {
        assert!(Num::Int(1) < Num::Real(1.5));
        assert!(Num::Real(2.5) > Num::Int(2));
        assert!(Num::Real(f64::NAN).partial_cmp(&Num::Int(0)).is_none());
    }

    #[test]
    fn effective_bool() {
        assert!(Num::Int(3).effective_bool());
        assert!(!Num::Int(0).effective_bool());
        assert!(!Num::Real(0.0).effective_bool());
        assert!(!Num::Real(f64::NAN).effective_bool());
        assert!(Num::Real(-0.5).effective_bool());
    }

    #[test]
    fn display_keeps_real_marker() {
        assert_eq!(Num::Real(2.0).to_string(), "2.0");
        assert_eq!(Num::Int(2).to_string(), "2");
        assert_eq!(Num::Real(2.5).to_string(), "2.5");
    }

    #[test]
    fn pow_semantics() {
        assert_eq!(Num::Int(2).pow(Num::Int(10)).unwrap(), Num::Int(1024));
        assert_eq!(Num::Int(2).pow(Num::Int(-1)).unwrap(), Num::Real(0.5));
        assert_eq!(Num::Real(4.0).pow(Num::Real(0.5)).unwrap(), Num::Real(2.0));
    }
}
