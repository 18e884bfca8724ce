//! The host's current speed, for rescaling host times.
//!
//! A shared host speeds up and slows down by ±20 % over seconds to
//! minutes as its other tenants come and go, which no amount of
//! repetition inside one run averages out. The benchmark therefore times
//! a fixed reference loop just before and just after each timed call and
//! rescales the call to the speed the host ran the reference at:
//!
//! `adjusted = measured × NOMINAL_S / reference`
//!
//! The reference is benchmark code of the same kind the program runs
//! (floating-point maths, an ordered map, short-lived vectors), so a
//! change to the program cannot move it. An adjusted time reads as "host
//! seconds on this host at its nominal speed".

use std::collections::BTreeMap;
use std::time::Instant;

use crate::gen::SplitMix64;

/// Seconds the reference loop takes at the host's nominal speed: its
/// median on the 2-core x86-64 host the committed baseline was recorded
/// on.
pub const NOMINAL_S: f64 = 0.006;

/// Time one pass of the reference loop, seconds.
pub fn reference_s() -> f64 {
    let clock = Instant::now();
    let mut rng = SplitMix64::new(7);
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    let mut acc = 0.0f64;
    for i in 0..40_000u64 {
        let x = rng.unit();
        acc += (x * 1.7).exp().ln() * (x + 0.5).sqrt();
        *map.entry(rng.next_u64() % 4096).or_insert(0.0) += acc * 1e-9;
        if i % 64 == 0 {
            let v: Vec<f64> = (0..256).map(|j| f64::from(j) * x).collect();
            acc += v.iter().sum::<f64>() * 1e-12;
        }
    }
    std::hint::black_box((acc, map.len()));
    clock.elapsed().as_secs_f64()
}

/// Run `f`, which returns its own measured seconds, between two
/// reference passes; returns its result and the seconds rescaled to
/// nominal host speed.
pub fn adjusted<T, E>(f: impl FnOnce() -> Result<(T, f64), E>) -> Result<(T, f64), E> {
    let before = reference_s();
    let (out, seconds) = f()?;
    let after = reference_s();
    Ok((out, seconds * NOMINAL_S / (0.5 * (before + after))))
}
