//! Critical wirelength (paper §3.4, "Buffer Driver Capability
//! Estimation").
//!
//! For two buffers joined by a wire of length `L`, inserting a third
//! buffer midway changes the stage delay by
//!
//! ```text
//! T − T' = r·c·(ln 9·ωs + 1)·L²/4 − ωc·Cap − ωi
//! ```
//!
//! Setting `T = T'` gives the break-even length
//!
//! ```text
//! L̂ = 2·√((ωc·Cap_load + ωi) / (r·c·(ln 9·ωs + 1)))
//! ```
//!
//! — wires longer than `L̂` deserve a repeater. The paper substitutes the
//! full downstream `Cap_load` for the pin cap as "a refined estimation".

use sllt_timing::{BufferCell, Technology, LN9, PS_PER_OHM_FF};

/// The critical wirelength `L̂` in µm for the given buffer cell driving
/// `cap_load_ff` of downstream capacitance.
///
/// # Panics
///
/// Panics when `cap_load_ff` is negative.
pub fn critical_wirelength(cell: &BufferCell, tech: &Technology, cap_load_ff: f64) -> f64 {
    assert!(cap_load_ff >= 0.0, "negative load");
    let numer = cell.cap_coeff * cap_load_ff + cell.intrinsic_ps;
    let denom =
        tech.unit_res_ohm * tech.unit_cap_ff * PS_PER_OHM_FF * (LN9 * cell.slew_coeff + 1.0);
    2.0 * (numer / denom).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_timing::BufferLibrary;

    #[test]
    fn heavier_loads_shorten_nothing() {
        // L̂ grows with load: a heavier endpoint makes the repeater less
        // attractive (its fixed cost is amortized over more delay).
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let cell = lib.cell("BUFX4").unwrap();
        let l_small = critical_wirelength(cell, &tech, 5.0);
        let l_big = critical_wirelength(cell, &tech, 50.0);
        assert!(l_big > l_small);
    }

    #[test]
    fn formula_matches_hand_computation() {
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let c = lib.cell("BUFX2").unwrap();
        let cap = 10.0;
        let expect = 2.0
            * ((c.cap_coeff * cap + c.intrinsic_ps)
                / (tech.unit_res_ohm * tech.unit_cap_ff * 1e-3 * (LN9 * c.slew_coeff + 1.0)))
                .sqrt();
        assert!((critical_wirelength(c, &tech, cap) - expect).abs() < 1e-9);
    }

    #[test]
    fn critical_length_tracks_the_numeric_repeater_optimum() {
        // Drive a 900 µm line through k identical repeaters; the total
        // stage-chain delay is minimized at some segment length L*. The
        // closed-form L̂ should land in L*'s neighbourhood (the formula
        // drops second-order slew terms, so demand agreement within 2×).
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let cell = lib.cell("BUFX8").unwrap();
        let total = 900.0;
        let chain_delay = |k: usize| -> f64 {
            let seg = total / (k + 1) as f64;
            // Each stage: buffer driving (wire seg + next input pin).
            let load = tech.wire_cap(seg) + cell.input_cap_ff;
            let mut slew = tech.source_slew_ps;
            let mut delay = 0.0;
            for _ in 0..=k {
                delay += cell.delay(slew, load) + tech.wire_delay(seg, cell.input_cap_ff);
                slew = cell.output_slew(slew, load);
                slew = tech.wire_output_slew(slew, seg, cell.input_cap_ff);
            }
            delay
        };
        let best_k = (0..20)
            .min_by(|&a, &b| chain_delay(a).total_cmp(&chain_delay(b)))
            .expect("nonempty range");
        let numeric_opt_seg = total / (best_k + 1) as f64;
        let l_hat = critical_wirelength(cell, &tech, cell.input_cap_ff);
        let ratio = l_hat / numeric_opt_seg;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "L̂ = {l_hat:.0} vs numeric optimum {numeric_opt_seg:.0} (ratio {ratio:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "negative load")]
    fn negative_load_rejected() {
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let _ = critical_wirelength(lib.smallest(), &tech, -1.0);
    }
}
