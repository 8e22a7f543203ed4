//! Semirings: the algebra that turns sparse linear algebra into graph
//! traversal.
//!
//! In `C = A ⊕.⊗ B`, the multiplicative operator `⊗` combines a matrix
//! entry with a vector entry and the additive monoid `⊕` reduces the
//! products. The kernels use exactly the semirings named in the paper
//! (§III-A): `any-secondi` (BFS), `min-plus` (SSSP), `plus-second` (PR),
//! `plus-first` (BC), `min-second` (FastSV CC). TC's `plus-pair` is
//! fused into `ops::mxm_pair_masked_sum`.

use crate::GrbIndex;
use gapbs_graph::types::Distance;

/// The additive monoid of a semiring: an associative, commutative combine
/// with an identity, and optionally a *terminal* value that allows early
/// exit (the `any` monoid terminates on the first hit).
pub trait AddMonoid<T> {
    /// Identity element of the combine.
    fn identity(&self) -> T;
    /// Combines two partial results.
    fn combine(&self, a: T, b: T) -> T;
    /// `true` if `v` is terminal — no further combining can change it.
    fn is_terminal(&self, _v: &T) -> bool {
        false
    }
}

/// A full semiring: multiplicative operator plus additive monoid.
///
/// The multiply receives the joining index `k` (the row index of the
/// second operand) so that index-valued operators like `secondi` are
/// expressible, along with the matrix entry's weight and the vector value.
pub trait Semiring<X, Y = X> {
    /// The additive monoid type.
    type Add: AddMonoid<Y>;
    /// The additive monoid instance.
    fn add(&self) -> &Self::Add;
    /// Multiplicative operator: `k` is the joining index, `weight` the
    /// matrix entry value, `x` the vector entry value.
    fn multiply(&self, k: GrbIndex, weight: i32, x: &X) -> Y;
}

/// `any` monoid: any operand is acceptable; terminal immediately. Used by
/// BFS so a vertex stops combining once *a* parent is found.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyMonoid;

impl AddMonoid<Option<GrbIndex>> for AnyMonoid {
    fn identity(&self) -> Option<GrbIndex> {
        None
    }
    fn combine(&self, a: Option<GrbIndex>, b: Option<GrbIndex>) -> Option<GrbIndex> {
        a.or(b)
    }
    fn is_terminal(&self, v: &Option<GrbIndex>) -> bool {
        v.is_some()
    }
}

/// `min` monoid over distances.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMonoid;

impl AddMonoid<Distance> for MinMonoid {
    fn identity(&self) -> Distance {
        Distance::MAX
    }
    fn combine(&self, a: Distance, b: Distance) -> Distance {
        a.min(b)
    }
}

/// `min` monoid over indices (FastSV labels).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MinIndexMonoid;

impl AddMonoid<GrbIndex> for MinIndexMonoid {
    fn identity(&self) -> GrbIndex {
        GrbIndex::MAX
    }
    fn combine(&self, a: GrbIndex, b: GrbIndex) -> GrbIndex {
        a.min(b)
    }
}

/// `plus` monoid over floats.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusMonoid;

impl AddMonoid<f64> for PlusMonoid {
    fn identity(&self) -> f64 {
        0.0
    }
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// `any-secondi`: the BFS semiring. The product is the joining index (the
/// prospective parent); the `any` monoid keeps whichever arrives first.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnySecondI {
    add: AnyMonoid,
}

impl Semiring<(), Option<GrbIndex>> for AnySecondI {
    type Add = AnyMonoid;
    fn add(&self) -> &AnyMonoid {
        &self.add
    }
    fn multiply(&self, k: GrbIndex, _weight: i32, _x: &()) -> Option<GrbIndex> {
        Some(k)
    }
}

/// `min-plus` (tropical): the SSSP semiring.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinPlus {
    add: MinMonoid,
}

impl Semiring<Distance, Distance> for MinPlus {
    type Add = MinMonoid;
    fn add(&self) -> &MinMonoid {
        &self.add
    }
    fn multiply(&self, _k: GrbIndex, weight: i32, x: &Distance) -> Distance {
        x.saturating_add(Distance::from(weight))
    }
}

/// `plus-second`: the PR semiring — matrix values are ignored, only the
/// structure routes the score contributions.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusSecond {
    add: PlusMonoid,
}

impl Semiring<f64, f64> for PlusSecond {
    type Add = PlusMonoid;
    fn add(&self) -> &PlusMonoid {
        &self.add
    }
    fn multiply(&self, _k: GrbIndex, _weight: i32, x: &f64) -> f64 {
        *x
    }
}

/// `min-second`: the FastSV semiring — propagates the neighbor's label.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MinSecond {
    add: MinIndexMonoid,
}

impl Semiring<GrbIndex, GrbIndex> for MinSecond {
    type Add = MinIndexMonoid;
    fn add(&self) -> &MinIndexMonoid {
        &self.add
    }
    fn multiply(&self, _k: GrbIndex, _weight: i32, x: &GrbIndex) -> GrbIndex {
        *x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_monoid_is_terminal_on_first_hit() {
        let m = AnyMonoid;
        assert!(!m.is_terminal(&m.identity()));
        let v = m.combine(None, Some(3));
        assert_eq!(v, Some(3));
        assert!(m.is_terminal(&v));
        // `any` keeps an existing value.
        assert_eq!(m.combine(Some(5), Some(9)), Some(5));
    }

    #[test]
    fn min_plus_behaves_tropically() {
        let s = MinPlus::default();
        assert_eq!(s.multiply(0, 4, &10), 14);
        assert_eq!(s.add().combine(14, 9), 9);
        assert_eq!(s.add().identity(), Distance::MAX);
        // Saturation instead of overflow.
        assert_eq!(s.multiply(0, 1, &Distance::MAX), Distance::MAX);
    }

    #[test]
    fn secondi_returns_joining_index() {
        let s = AnySecondI::default();
        assert_eq!(s.multiply(42, 0, &()), Some(42));
    }
}
