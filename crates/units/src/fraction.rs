//! Dimensionless fractions: state of charge and depth of discharge.

use serde::{Deserialize, Serialize};

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Used as the common representation behind [`Soc`] and [`Dod`]. Construction
/// clamps out-of-range inputs rather than failing, because fractions in this
/// workspace are the result of physical integration where tiny numerical
/// overshoot is expected; NaN is rejected.
///
/// # Examples
///
/// ```
/// use recharge_units::Fraction;
///
/// assert_eq!(Fraction::new(0.25).value(), 0.25);
/// assert_eq!(Fraction::new(1.0000001).value(), 1.0); // clamped
/// assert_eq!(Fraction::new(-0.1).value(), 0.0); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Fraction(f64);

impl Fraction {
    /// The zero fraction.
    pub const ZERO: Fraction = Fraction(0.0);

    /// The unit fraction.
    const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, clamping the input into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN: a NaN fraction always indicates an upstream
    /// arithmetic bug and must not propagate silently.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "fraction must not be NaN");
        Fraction(value.clamp(0.0, 1.0))
    }

    /// The underlying value in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The complementary fraction `1 − self`.
    #[must_use]
    pub fn complement(self) -> Fraction {
        Fraction(1.0 - self.0)
    }

    /// The value expressed in percent (`0..=100`).
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Creates a fraction from a percentage (`0..=100`), clamping.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is NaN.
    #[must_use]
    pub fn from_percent(percent: f64) -> Self {
        Fraction::new(percent / 100.0)
    }
}

impl core::fmt::Display for Fraction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

/// Battery **state of charge**: the fraction of usable capacity currently held.
///
/// `Soc` and [`Dod`] are complementary views of the same physical state;
/// convert with [`Soc::to_dod`] / [`Dod::to_soc`].
///
/// # Examples
///
/// ```
/// use recharge_units::{Dod, Soc};
///
/// let soc = Soc::new(0.3);
/// assert_eq!(soc.to_dod(), Dod::new(0.7));
/// assert!(soc.to_dod().is_at_least_half());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Soc(Fraction);

impl Soc {
    /// A fully charged battery.
    pub const FULL: Soc = Soc(Fraction::ONE);

    /// Creates a state of charge from a fraction in `[0, 1]` (clamped).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Soc(Fraction::new(value))
    }

    /// The state of charge as a fraction in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0.value()
    }

    /// The complementary depth of discharge.
    #[must_use]
    pub fn to_dod(self) -> Dod {
        Dod(self.0.complement())
    }
}

impl Default for Soc {
    /// Batteries enter service fully charged.
    fn default() -> Self {
        Soc::FULL
    }
}

impl core::fmt::Display for Soc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SoC {}", self.0)
    }
}

/// Battery **depth of discharge**: the fraction of usable capacity that has
/// been drained.
///
/// The paper defines 100% DOD as a 3,300 W discharge sustained for 90 seconds
/// (§III-A, footnote 1). The variable charger's behaviour branches at 50% DOD
/// (Eq. 1), exposed here as [`Dod::is_at_least_half`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Dod(Fraction);

impl Dod {
    /// No discharge at all.
    pub const ZERO: Dod = Dod(Fraction::ZERO);

    /// A full discharge (3,300 W × 90 s in the paper's definition).
    pub const FULL: Dod = Dod(Fraction::ONE);

    /// Creates a depth of discharge from a fraction in `[0, 1]` (clamped).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Dod(Fraction::new(value))
    }

    /// Creates a depth of discharge from a percentage (`0..=100`, clamped).
    ///
    /// # Panics
    ///
    /// Panics if `percent` is NaN.
    #[must_use]
    pub fn from_percent(percent: f64) -> Self {
        Dod(Fraction::from_percent(percent))
    }

    /// The depth of discharge as a fraction in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0.value()
    }

    /// The depth of discharge in percent.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0.as_percent()
    }

    /// The complementary state of charge.
    #[must_use]
    pub fn to_soc(self) -> Soc {
        Soc(self.0.complement())
    }

    /// Whether the battery is at least 50% discharged — the branch point of the
    /// variable charger's current-selection formula (Eq. 1).
    #[must_use]
    pub fn is_at_least_half(self) -> bool {
        self.value() >= 0.5
    }
}

impl core::fmt::Display for Dod {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DOD {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_clamps() {
        assert_eq!(Fraction::new(2.0).value(), 1.0);
        assert_eq!(Fraction::new(-2.0).value(), 0.0);
        assert_eq!(Fraction::from_percent(150.0).value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn fraction_rejects_nan() {
        let _ = Fraction::new(f64::NAN);
    }

    #[test]
    fn complement_round_trips() {
        let f = Fraction::new(0.3);
        assert!((f.complement().complement().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn soc_dod_duality() {
        let dod = Dod::from_percent(70.0);
        assert!((dod.to_soc().value() - 0.3).abs() < 1e-12);
        assert_eq!(Soc::FULL.to_dod(), Dod::ZERO);
        assert_eq!(Soc::new(0.0).to_dod(), Dod::FULL);
        assert_eq!(Soc::default(), Soc::FULL);
    }

    #[test]
    fn half_discharge_branch() {
        assert!(Dod::new(0.5).is_at_least_half());
        assert!(Dod::new(0.7).is_at_least_half());
        assert!(!Dod::new(0.49).is_at_least_half());
    }

    #[test]
    fn percent_accessors() {
        assert_eq!(Dod::from_percent(25.0).as_percent(), 25.0);
        assert_eq!(Fraction::new(0.5).as_percent(), 50.0);
    }

    #[test]
    fn ordering() {
        assert!(Dod::new(0.2) < Dod::new(0.3));
        assert!(Soc::new(0.9) > Soc::new(0.1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Dod::new(0.25)), "DOD 25.0%");
        assert_eq!(format!("{}", Soc::new(0.25)), "SoC 25.0%");
    }
}
