//! Timing models for clock tree synthesis.
//!
//! The DAC'24 SLLT paper evaluates clock trees with three delay views:
//!
//! 1. a **wirelength (linear) delay model** used inside topology
//!    construction — path length is the delay proxy (paper Eq. (1)–(3)),
//! 2. the **Elmore model** over the routed RC tree for reported wire delays
//!    (Table 3, Tables 6–7) — see [`Technology::wire_delay`], which the
//!    timing walk in `sllt_buffer::timing` applies edge by edge,
//! 3. a **first-order linear buffer delay model**
//!    `D_buf = ωs·slew_in + ωc·cap_load + ωi` (paper Eq. (6), after
//!    Sitik et al.) — see [`BufferCell::delay`].
//!
//! Units are fixed across the workspace: µm, ps, fF, Ω. Note that
//! `1 Ω·fF = 10⁻³ ps`; the [`PS_PER_OHM_FF`] constant carries the
//! conversion so formulas can be written in natural units.
//!
//! # Example
//!
//! ```
//! use sllt_timing::{Technology, BufferLibrary};
//!
//! let tech = Technology::n28();
//! // A 100 µm wire driving 10 fF: ~10-30 ps of Elmore delay at 28 nm.
//! let d = tech.wire_delay(100.0, 10.0);
//! assert!(d > 5.0 && d < 50.0);
//!
//! let lib = BufferLibrary::n28();
//! let buf = lib.smallest();
//! assert!(buf.delay(20.0, 30.0) > buf.intrinsic_ps);
//! ```

pub mod buffer;
pub mod tech;

pub use buffer::{BufferCell, BufferLibrary};
pub use tech::Technology;

/// Conversion factor: `1 Ω·fF = 10⁻³ ps`.
pub const PS_PER_OHM_FF: f64 = 1e-3;

/// `ln 9 ≈ 2.197`: the 10–90 % ramp factor relating Elmore delay to slew
/// (Bakoglu). Used by the slew model and the critical-wirelength formula.
pub const LN9: f64 = 2.1972245773362196;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln9_is_ln_of_nine() {
        assert!((LN9 - 9.0f64.ln()).abs() < 1e-12);
    }
}
