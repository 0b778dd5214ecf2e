//! The text of numbers and arrays.
//!
//! A number has two texts. Its lexical form (`2`, `2.0`, `2.5`, `1e15`,
//! `INF`, `-INF`, `NaN`) is what a result cell and `STR` show. Its term
//! form is what SciSPARQL and Turtle read back as the same number: the
//! lexical form when the number is finite, else the typed literal
//! `"INF"^^<…#double>`. An array is written in the nested-collection
//! notation SciSPARQL and Turtle read it in, `(1 2 3)` for vectors and
//! `((1 2) (3 4))` for matrices, whole, each element in term form.

use std::fmt::{self, Write};

use crate::dtype::Num;
use crate::num_array::NumArray;

/// The datatype IRI of a non-finite double's term form.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

/// Write `n`'s lexical form: an integer's digits; a whole real under
/// 1e15 with `.0` and a larger one with an exponent, so that neither
/// reads back as an integer; any other finite real in its shortest
/// round-trip form; `INF`, `-INF` or `NaN` for the rest.
#[inline]
pub fn write_lexical(out: &mut impl Write, n: Num) -> fmt::Result {
    match n {
        Num::Int(i) => write_int(out, i),
        Num::Real(f64::INFINITY) => out.write_str("INF"),
        Num::Real(f64::NEG_INFINITY) => out.write_str("-INF"),
        Num::Real(r) if r.is_nan() => out.write_str("NaN"),
        Num::Real(r) if r.fract() == 0.0 && r.abs() < 1e15 => {
            if r.is_sign_negative() {
                out.write_char('-')?;
            }
            write_int(out, r.abs() as i64)?;
            out.write_str(".0")
        }
        Num::Real(r) if r.fract() == 0.0 => write!(out, "{r:e}"),
        Num::Real(r) => write!(out, "{r}"),
    }
}

/// Write `n` as a term: its lexical form when finite, the typed
/// literal `"INF"^^<…#double>` (`-INF`, `NaN`) when not, which no bare
/// number spells.
#[inline]
pub fn write_num(out: &mut impl Write, n: Num) -> fmt::Result {
    if !matches!(n, Num::Real(r) if !r.is_finite()) {
        return write_lexical(out, n);
    }
    out.write_char('"')?;
    write_lexical(out, n)?;
    out.write_str("\"^^<")?;
    out.write_str(XSD_DOUBLE)?;
    out.write_char('>')
}

/// Write an integer's decimal digits.
#[inline]
fn write_int(out: &mut impl Write, i: i64) -> fmt::Result {
    let (mut n, mut digits, mut at) = (i.unsigned_abs(), [0u8; 20], 20);
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.write_char('-')?;
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

impl fmt::Display for Num {
    /// The lexical form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_lexical(f, *self)
    }
}

impl fmt::Display for NumArray {
    /// The array whole; a precision (`{:.16}`) keeps at most that many
    /// elements per dimension and writes ` ...` for the rest, for a
    /// human reader.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limit = f.precision().unwrap_or(usize::MAX);
        let mut cells = self.elements().into_iter();
        match self.shape().as_slice() {
            [] => cells.try_for_each(|n| write_num(f, n)),
            shape => write_level(f, shape, &mut cells, limit),
        }
    }
}

/// One `( … )` level of `shape`, its cells taken from `cells`.
fn write_level(
    f: &mut fmt::Formatter<'_>,
    shape: &[usize],
    cells: &mut impl Iterator<Item = Num>,
    limit: usize,
) -> fmt::Result {
    let (&len, inner) = shape.split_first().expect("one level per dimension");
    f.write_char('(')?;
    for i in 0..len {
        if i == limit {
            let rest = (len - i) * inner.iter().product::<usize>();
            cells.by_ref().take(rest).for_each(drop);
            f.write_str(" ...")?;
            break;
        }
        if i > 0 {
            f.write_char(' ')?;
        }
        match inner {
            [] => write_num(f, cells.next().expect("a cell per index"))?,
            _ => write_level(f, inner, cells, limit)?,
        }
    }
    f.write_char(')')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_display() {
        let a = NumArray::from_i64(vec![1, 2, 3]);
        assert_eq!(a.to_string(), "(1 2 3)");
    }

    #[test]
    fn matrix_display() {
        let a = NumArray::from_i64_shaped(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        assert_eq!(a.to_string(), "((1 2) (3 4))");
    }

    #[test]
    fn real_display_keeps_marker() {
        let a = NumArray::from_f64(vec![1.0, 2.5]);
        assert_eq!(a.to_string(), "(1.0 2.5)");
    }

    #[test]
    fn large_vector_elided() {
        let a = NumArray::from_i64((0..100).collect());
        assert_eq!(a.to_string().split(' ').count(), 100);
        let short = format!("{a:.16}");
        assert!(
            short.starts_with("(0 1 ") && short.ends_with(" 15 ...)"),
            "{short}"
        );
        let m = NumArray::from_i64_shaped((0..9).collect(), &[3, 3]).unwrap();
        assert_eq!(format!("{m:.2}"), "((0 1 ...) (3 4 ...) ...)");
    }

    #[test]
    fn lexical_and_term_forms() {
        let term = |n: Num| {
            let mut s = String::new();
            write_num(&mut s, n).unwrap();
            s
        };
        for (n, lexical) in [
            (Num::Int(i64::MIN), "-9223372036854775808"),
            (Num::Real(-0.0), "-0.0"),
            (Num::Real(2.0), "2.0"),
            (Num::Real(1e300), "1e300"),
            (Num::Real(0.25), "0.25"),
        ] {
            assert_eq!((n.to_string(), term(n)), (lexical.into(), lexical.into()));
        }
        for (r, lexical) in [
            (f64::INFINITY, "INF"),
            (-f64::INFINITY, "-INF"),
            (f64::NAN, "NaN"),
        ] {
            assert_eq!(Num::Real(r).to_string(), lexical);
            assert_eq!(term(Num::Real(r)), format!("\"{lexical}\"^^<{XSD_DOUBLE}>"));
        }
        let a = NumArray::from_f64(vec![1.5, f64::NAN]);
        assert_eq!(a.to_string(), format!("(1.5 \"NaN\"^^<{XSD_DOUBLE}>)"));
    }

    #[test]
    fn view_display_follows_logical_order() {
        let m = NumArray::from_i64_shaped((0..6).collect(), &[2, 3]).unwrap();
        assert_eq!(m.transpose().to_string(), "((0 3) (1 4) (2 5))");
    }
}
