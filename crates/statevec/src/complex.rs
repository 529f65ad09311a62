use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` components.
///
/// A deliberately tiny implementation — the simulator needs only addition,
/// multiplication, conjugation and magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub(crate) const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub(crate) const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub(crate) const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates `re + i·im`.
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// `e^{iθ}`.
    pub(crate) fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub(crate) fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    pub(crate) fn scale(self, k: f64) -> Self {
        C64 {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.4}{:+.4}i", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(-a, C64::new(-1.0, -2.0));
        assert_eq!(a.conj(), C64::new(1.0, -2.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, C64::new(-1.0, 0.0));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..8 {
            let z = C64::cis(k as f64 * 0.7);
            assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_and_scale() {
        let a = C64::new(3.0, 4.0);
        assert!((a.norm_sqr() - 25.0).abs() < 1e-12);
        assert_eq!(a.scale(2.0), C64::new(6.0, 8.0));
    }
}
