//! The benchmark's only wall-clock reads. Everything else takes times
//! from here, so the ambient clock stays in one scoped place.

use std::time::Instant;

/// A monotonic instant.
#[derive(Debug, Clone, Copy)]
pub struct Tick(Instant);

/// Reads the monotonic clock.
// Benchmark timing surface: the one place this package reads the wall
// clock (mirrors the bench/repro exemption of the ambient-authority rule).
#[allow(clippy::disallowed_methods)]
#[inline]
pub fn now() -> Tick {
    Tick(Instant::now())
}

impl Tick {
    /// Nanoseconds from `self` to `later` (zero if `later` is earlier).
    #[inline]
    pub fn ns_until(self, later: Tick) -> u64 {
        u64::try_from(later.0.saturating_duration_since(self.0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds elapsed since `self`.
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        self.ns_until(now())
    }

    /// Seconds elapsed since `self`.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

/// Side of the reference kernel's square matrices.
const REFERENCE_N: usize = 48;
/// Slots of the reference kernel's table (64 KiB, on the stack).
const REFERENCE_TABLE: usize = 1 << 14;
/// Rounds of the reference kernel (about a millisecond in all).
const REFERENCE_REPS: usize = 4;

/// Times one run of the reference kernel, ns. The kernel calls no
/// library crate, so no change to the program moves it, and mixes the
/// kinds of work the workloads do: a dense matrix product (the fit
/// path's kernels) and a scalar loop of dependent integer steps,
/// scattered table updates and branches (the serve path's bookkeeping).
/// A shared host's speed drifts by up to 1.8x from minute to minute;
/// the kernel slows with it, though by less than the workloads, so a
/// time divided by the kernel's median time from the same run moves
/// less than the time itself.
pub fn reference_ns() -> u64 {
    const N: usize = REFERENCE_N;
    let mut a = [0.0_f64; N * N];
    for (i, x) in a.iter_mut().enumerate() {
        *x = ((i * 7919) % 1000) as f64 / 1000.0;
    }
    let a = std::hint::black_box(a);
    let mut c = [0.0_f64; N * N];
    let mut table = [0_u32; REFERENCE_TABLE];
    let mut state = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut level = 0.0_f64;
    let t = now();
    for _ in 0..REFERENCE_REPS {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * a[k * N + j];
                }
            }
        }
        c = std::hint::black_box(c);
        for _ in 0..N * N * 16 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let slot = (state >> 32) as usize % REFERENCE_TABLE;
            table[slot] = table[slot].wrapping_add(1);
            let v = (state >> 11) as f64 / (1_u64 << 53) as f64;
            level = if v > 0.9 {
                0.5 * (level + v)
            } else {
                level * 0.999 + v
            };
        }
        table = std::hint::black_box(table);
    }
    std::hint::black_box(level);
    t.elapsed_ns()
}
