//! Array metadata and proxies.
//!
//! An [`ArrayProxy`] is what an SSDM query variable binds to when it
//! matches an externally stored array: the array's catalog entry plus a
//! logical view. Dereferences, slices and transpositions apply to the
//! proxy without touching storage (thesis §5.2, §6.1) — only the APR
//! operator materializes elements.

use std::sync::Arc;

use ssdm_array::{ArrayError, ArrayView, NumericType, Subscript};

use crate::chunks::Chunking;

/// Catalog entry of one stored array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    pub array_id: u64,
    pub numeric_type: NumericType,
    /// Original (stored) shape, row-major.
    pub shape: Vec<usize>,
    pub chunking: Chunking,
    /// Whether the back-end holds `SCC1` codec frames
    /// ([`crate::codec`]) rather than raw little-endian elements. Set
    /// when the array is stored and persisted in snapshots: the APR
    /// runner decodes if and only if this flag is set — payload bytes
    /// are never sniffed, since
    /// adversarial raw data could begin with the frame magic.
    pub encoded: bool,
}

impl ArrayMeta {
    pub fn total_elements(&self) -> usize {
        self.shape.iter().product()
    }
}

/// A lazy handle to (a view of) a stored array.
#[derive(Debug, Clone)]
pub struct ArrayProxy {
    meta: Arc<ArrayMeta>,
    view: ArrayView,
}

impl ArrayProxy {
    /// A proxy over the whole stored array.
    pub fn whole(meta: Arc<ArrayMeta>) -> Self {
        let view = ArrayView::contiguous(&meta.shape);
        ArrayProxy { meta, view }
    }

    pub fn from_parts(meta: Arc<ArrayMeta>, view: ArrayView) -> Self {
        ArrayProxy { meta, view }
    }

    pub fn meta(&self) -> &Arc<ArrayMeta> {
        &self.meta
    }

    pub fn view(&self) -> &ArrayView {
        &self.view
    }

    pub fn array_id(&self) -> u64 {
        self.meta.array_id
    }

    pub fn shape(&self) -> Vec<usize> {
        self.view.shape()
    }

    pub fn ndims(&self) -> usize {
        self.view.ndims()
    }

    pub fn element_count(&self) -> usize {
        self.view.element_count()
    }

    /// Fraction of the stored array this proxy addresses.
    pub fn selectivity(&self) -> f64 {
        let total = self.meta.total_elements();
        if total == 0 {
            0.0
        } else {
            self.element_count() as f64 / total as f64
        }
    }

    /// Fix one dimension (0-based), like [`ssdm_array::NumArray::subscript`].
    pub fn subscript(&self, dim: usize, index: usize) -> Result<ArrayProxy, ArrayError> {
        Ok(ArrayProxy {
            meta: Arc::clone(&self.meta),
            view: self.view.subscript(dim, index)?,
        })
    }

    /// Slice one dimension (0-based inclusive bounds).
    pub fn slice(
        &self,
        dim: usize,
        lo: usize,
        stride: usize,
        hi: usize,
    ) -> Result<ArrayProxy, ArrayError> {
        Ok(ArrayProxy {
            meta: Arc::clone(&self.meta),
            view: self.view.slice(dim, lo, stride, hi)?,
        })
    }

    pub fn transpose(&self) -> ArrayProxy {
        ArrayProxy {
            meta: Arc::clone(&self.meta),
            view: self.view.transpose(),
        }
    }

    /// Apply a SciSPARQL dereference list (1-based, negatives from the
    /// end) — the proxy analogue of [`ssdm_array::NumArray::dereference`].
    pub fn dereference(&self, subs: &[Subscript]) -> Result<ArrayProxy, ArrayError> {
        if subs.len() > self.ndims() {
            return Err(ArrayError::DimensionMismatch {
                expected: self.ndims(),
                got: subs.len(),
            });
        }
        let mut out = self.clone();
        for (dim, sub) in subs.iter().enumerate().rev() {
            let size = out.view.dims()[dim].size;
            out = match *sub {
                Subscript::Index(i) => {
                    let idx = resolve_1based(i, size, dim)?;
                    out.subscript(dim, idx)?
                }
                Subscript::Range { lo, stride, hi } => {
                    let lo0 = match lo {
                        Some(l) => resolve_1based(l, size, dim)?,
                        None => 0,
                    };
                    let hi0 = match hi {
                        Some(h) => resolve_1based(h, size, dim)?,
                        None => size.saturating_sub(1),
                    };
                    if stride <= 0 {
                        return Err(ArrayError::InvalidSlice("stride must be positive".into()));
                    }
                    out.slice(dim, lo0, stride as usize, hi0)?
                }
                Subscript::All => out,
            };
        }
        Ok(out)
    }
}

fn resolve_1based(i: i64, size: usize, dim: usize) -> Result<usize, ArrayError> {
    let idx = if i >= 1 {
        (i - 1) as usize
    } else if i <= -1 {
        let back = (-i) as usize;
        if back > size {
            return Err(ArrayError::IndexOutOfBounds {
                dim,
                index: i,
                size,
            });
        }
        size - back
    } else {
        return Err(ArrayError::IndexOutOfBounds {
            dim,
            index: 0,
            size,
        });
    };
    if idx >= size {
        return Err(ArrayError::IndexOutOfBounds {
            dim,
            index: i,
            size,
        });
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_array::NumericType;

    fn meta() -> Arc<ArrayMeta> {
        Arc::new(ArrayMeta {
            array_id: 1,
            numeric_type: NumericType::Int,
            shape: vec![10, 20],
            chunking: Chunking::new(64, 200),
            encoded: false,
        })
    }

    #[test]
    fn whole_proxy_shape() {
        let p = ArrayProxy::whole(meta());
        assert_eq!(p.shape(), vec![10, 20]);
        assert_eq!(p.element_count(), 200);
        assert_eq!(p.selectivity(), 1.0);
    }

    #[test]
    fn transformations_are_lazy() {
        let p = ArrayProxy::whole(meta());
        let row = p.subscript(0, 3).unwrap();
        assert_eq!(row.shape(), vec![20]);
        assert_eq!(row.selectivity(), 0.1);
        let part = row.slice(0, 0, 2, 19).unwrap();
        assert_eq!(part.element_count(), 10);
    }

    #[test]
    fn dereference_one_based() {
        let p = ArrayProxy::whole(meta());
        let d = p
            .dereference(&[Subscript::Index(2), Subscript::Index(-1)])
            .unwrap();
        assert_eq!(d.element_count(), 1);
        // Row 2 (1-based) = row index 1, column -1 = index 19:
        // linear address 1*20 + 19 = 39.
        assert_eq!(d.view().addresses(), vec![39]);
    }

    #[test]
    fn bounds_errors_surface_without_io() {
        let p = ArrayProxy::whole(meta());
        assert!(p.subscript(0, 10).is_err());
        assert!(p.dereference(&[Subscript::Index(11)]).is_err());
    }
}
