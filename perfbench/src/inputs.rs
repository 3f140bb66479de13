//! Seeded workload inputs. The program under test only ever sees the
//! design files written here and the submit requests built from them.
//!
//! Seed 0 is canonical: the Table-4 placements exactly as
//! `sllt_design::SUITE` synthesizes them and the plain
//! `GridSpec::square` array. Any other seed moves every sink by a small
//! uniform offset (below [`JITTER_UM`] per axis, clamped to the die), so
//! a claim can be checked on placements it was not tuned on while the
//! workload keeps its size, density and shape.

use sllt_design::{read_design, write_design, Design, GridSpec, SUITE};
use sllt_rng::SplitMix64;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Largest per-axis sink displacement for a non-zero seed, µm: a few
/// placement sites, far below the 15 µm grid pitch.
pub const JITTER_UM: f64 = 0.5;

/// A uniform draw in `[0, 1)` from the top 53 bits.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Stream seed for one named input under a workload seed.
pub fn stream(seed: u64, name: &str) -> SplitMix64 {
    SplitMix64::new(seed ^ sllt_obs::journal::fnv1a64(name.as_bytes()))
}

/// Perturbs `design` for `seed` (no-op for seed 0).
pub fn perturb(design: &mut Design, seed: u64) {
    if seed == 0 {
        return;
    }
    let mut rng = stream(seed, &design.name);
    let (lo, hi) = (design.die.lo(), design.die.hi());
    for s in &mut design.sinks {
        let dx = (2.0 * unit(&mut rng) - 1.0) * JITTER_UM;
        let dy = (2.0 * unit(&mut rng) - 1.0) * JITTER_UM;
        s.pos.x = (s.pos.x + dx).clamp(lo.x, hi.x);
        s.pos.y = (s.pos.y + dy).clamp(lo.y, hi.y);
    }
}

/// The ten placed paper designs of Table 4.
pub fn suite(seed: u64) -> Vec<Design> {
    SUITE
        .iter()
        .map(|spec| {
            let mut d = spec.instantiate();
            perturb(&mut d, seed);
            d
        })
        .collect()
}

/// A square register grid of `sinks` flip-flops at 15 µm pitch.
pub fn square_grid(sinks: usize, seed: u64) -> Design {
    let mut d = GridSpec::square(sinks).instantiate();
    perturb(&mut d, seed);
    d
}

/// Writes `design` as `<dir>/<name>.sllt` and returns the path.
pub fn write_file(dir: &Path, design: &Design) -> Result<PathBuf, String> {
    let path = dir.join(format!("{}.sllt", design.name));
    let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(f);
    write_design(design, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// A design file turned back into a runnable design, with the time each
/// sllt-design layer took.
pub struct Loaded {
    pub design: Design,
    pub read_s: f64,
    pub sanitize_s: f64,
    pub bytes: u64,
}

/// `read_design` then `sanitize::repair`, timed separately. A file the
/// sanitizer cannot make usable is an error.
pub fn load(path: &Path) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = f.metadata().map_err(|e| e.to_string())?.len();
    let raw =
        read_design(&mut BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))?;
    let t1 = Instant::now();
    let (design, report) = sllt_design::sanitize::repair(&raw);
    let t2 = Instant::now();
    if report.has_fatal() {
        return Err(format!("{}: {}", path.display(), report.summary()));
    }
    Ok(Loaded {
        design,
        read_s: (t1 - t0).as_secs_f64(),
        sanitize_s: (t2 - t1).as_secs_f64(),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_canonical_and_other_seeds_move_sinks_slightly() {
        let canon = SUITE[0].instantiate();
        assert_eq!(suite(0)[0], canon);
        let a = suite(7);
        assert_eq!(a[0], suite(7)[0], "same seed, same inputs");
        assert_ne!(a[0], canon);
        assert_ne!(a[0], suite(8)[0]);
        for (p, q) in a[0].sinks.iter().zip(&canon.sinks) {
            assert!((p.pos.x - q.pos.x).abs() <= JITTER_UM);
            assert!((p.pos.y - q.pos.y).abs() <= JITTER_UM);
            assert!(canon.die.contains(p.pos));
        }
        assert_eq!(square_grid(100, 0), GridSpec::square(100).instantiate());
    }
}
