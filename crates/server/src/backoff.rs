//! Deterministic jittered exponential backoff for job retries.
//!
//! The `slltd` scheduler re-runs a failed job after a delay that
//! doubles per attempt and carries jitter so a burst of same-shaped
//! failures does not retry in lockstep. The jitter is *seeded*, never
//! wall-clock random: the delay is a pure function of
//! `(seed, attempt)`, so a replayed batch backs off
//! identically and the job journal's recorded `backoff_ms` values are
//! reproducible — the same discipline as the engine's SplitMix64 seed
//! streams.

use sllt_rng::SplitMix64;

/// Base delay before the first retry, ms.
pub const BASE_MS: u64 = 100;
/// Delay ceiling, ms. Growth saturates here.
pub const CAP_MS: u64 = 5_000;

/// Backoff before `attempt` (1-based; attempt 1 is the initial try and
/// gets 0), in milliseconds. The delay for attempt `n ≥ 2` is drawn
/// uniformly from `[ceil/2, ceil)` where
/// `ceil = min(base × 2^(n−2), cap)` — "equal jitter": at least half
/// the exponential wait is always honored, and the draw depends only on
/// `(seed, n)`.
pub fn backoff_ms(seed: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    if attempt <= 1 || base_ms == 0 {
        return 0;
    }
    let exp = attempt - 2;
    // Saturating shift: past 2^16 doublings everything caps anyway.
    let grown = base_ms.saturating_mul(1u64 << exp.min(16));
    let ceil = grown.min(cap_ms.max(1));
    let half = (ceil / 2).max(1);
    let mut rng = SplitMix64::new(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    half + rng.next_u64() % half
}

/// [`backoff_ms`] with the default [`BASE_MS`]/[`CAP_MS`] schedule.
pub fn default_backoff_ms(seed: u64, attempt: u32) -> u64 {
    backoff_ms(seed, attempt, BASE_MS, CAP_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_waits_nothing() {
        assert_eq!(backoff_ms(7, 0, 100, 5_000), 0);
        assert_eq!(backoff_ms(7, 1, 100, 5_000), 0);
    }

    #[test]
    fn delays_are_deterministic_in_seed_and_attempt() {
        for attempt in 2..8 {
            assert_eq!(
                backoff_ms(42, attempt, 100, 5_000),
                backoff_ms(42, attempt, 100, 5_000)
            );
        }
        // Different seeds de-synchronize (overwhelmingly likely for any
        // fixed pair; pinned here so a regression is loud).
        assert_ne!(backoff_ms(1, 4, 100, 5_000), backoff_ms(2, 4, 100, 5_000));
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        for seed in [0u64, 9, 0xdead_beef] {
            for attempt in 2..12u32 {
                let ceil = (100u64 << (attempt - 2)).min(5_000);
                let d = backoff_ms(seed, attempt, 100, 5_000);
                assert!(
                    d >= ceil / 2 && d < ceil.max(2),
                    "attempt {attempt}: {d} outside [{}, {ceil})",
                    ceil / 2
                );
            }
        }
    }

    #[test]
    fn cap_saturates_and_degenerate_inputs_stay_sane() {
        assert!(backoff_ms(3, 60, 100, 5_000) < 5_000);
        assert_eq!(backoff_ms(3, 5, 0, 5_000), 0, "zero base disables backoff");
        // cap smaller than base still yields a bounded, nonzero delay.
        let d = backoff_ms(3, 2, 1_000, 10);
        assert!((5..10).contains(&d));
    }
}
