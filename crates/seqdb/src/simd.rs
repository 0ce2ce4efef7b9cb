//! The growth kernel's 64-lane block compare, plus kernel-backend
//! detection.
//!
//! A [`PostingCursor`](crate::PostingCursor) answers one monotone
//! `next_after(lowest)` probe at a time. Along one run of an unconstrained
//! growth pass, though, the next [`BLOCK_LANES`] instances regularly take
//! the next [`BLOCK_LANES`] row slots one by one. [`gt_mask64`] checks that
//! in one call: a per-lane unsigned `row[at + i] > last_i` compare whose
//! leading all-pass prefix is exactly the run of lanes that advance with no
//! search (`core::kernel` carries the induction proof).
//!
//! Two backends implement it:
//!
//! * **`avx2`** — eight 256-bit compares, behind runtime detection;
//! * **`scalar`** — 64 branchless compare-and-shift lanes, the pinned
//!   reference the AVX2 arm must match exactly.
//!
//! The growth kernel runs the block compare only on `avx2`: a portable
//! 64-lane compare does not beat the serial probe loop, so under `scalar`
//! the kernel is that loop alone. Backend choice is a process-wide property
//! ([`active_backend`]): runtime CPU detection via
//! `is_x86_feature_detected!`, overridable by [`force_backend`] so the
//! equivalence suites and the benches can run both paths in one process.
//! Both produce bit-identical mining output by contract.

// This is the third module (after `shared` and `snapshot`) that opts in to
// `unsafe`: the AVX2 intrinsics and their raw-pointer vector loads. Safety
// arguments are local and documented on every block, and the xtask audit
// enforces `// SAFETY:` on each unsafe block and `#[target_feature]` fn.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lanes in one block compare.
pub const BLOCK_LANES: usize = 64;

/// The implementation the growth kernel's block compare runs on.
///
/// Ordered fastest-first; [`active_backend`] picks the best one the CPU
/// supports. Both backends mine bit-identically — the choice is purely a
/// throughput decision, which is what makes [`force_backend`] safe to flip
/// at any time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// 256-bit AVX2 compares (8 x `u32` lanes each).
    Avx2,
    /// No block compare: the serial probe loop alone.
    Scalar,
}

impl KernelBackend {
    /// The lowercase name reported in stats and bench JSON
    /// (`avx2`/`scalar`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Avx2 => "avx2",
            Self::Scalar => "scalar",
        }
    }

    /// All backends, fastest first.
    pub fn all() -> [Self; 2] {
        [Self::Avx2, Self::Scalar]
    }

    /// Whether this process can actually execute the backend: `Scalar`
    /// runs everywhere, `Avx2` needs the runtime-detected instruction set.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx2 => false,
            Self::Scalar => true,
        }
    }

    fn encode(self) -> u8 {
        match self {
            Self::Avx2 => 1,
            Self::Scalar => 2,
        }
    }

    fn decode(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Avx2),
            2 => Some(Self::Scalar),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Programmatic override slot: 0 = none, else `KernelBackend::encode`.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// The CPU decision, computed once per process.
static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
/// Human-readable CPU feature summary, computed once per process.
static FEATURES: OnceLock<String> = OnceLock::new();

/// The fastest backend this CPU can execute.
fn detect() -> KernelBackend {
    if KernelBackend::Avx2.is_available() {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    }
}

/// The backend the growth kernel dispatches on right now: the
/// [`force_backend`] override if one is set, else the once-per-process CPU
/// detection.
pub fn active_backend() -> KernelBackend {
    KernelBackend::decode(FORCED.load(Ordering::Relaxed))
        .unwrap_or_else(|| *DETECTED.get_or_init(detect))
}

/// Forces every subsequent [`active_backend`] call to report `backend`
/// (or the detected one if the CPU cannot run it), or clears the override
/// with `None`.
///
/// `Some(KernelBackend::Scalar)` switches the block compare off. The
/// equivalence suites use this to run the same mining pass both ways in
/// one process, and the bench harness to measure the serial path on
/// AVX2 hardware. Because both are bit-identical, flipping the override
/// concurrently with running kernels changes throughput only, never
/// results.
pub fn force_backend(backend: Option<KernelBackend>) {
    let code = backend.map_or(0, |b| if b.is_available() { b } else { detect() }.encode());
    FORCED.store(code, Ordering::Relaxed);
}

/// The CPU features relevant to kernel dispatch that this process detected
/// at startup, as a space-separated list (for example `"sse2 avx2"`), or
/// `"portable"` off x86. Reported in `rgs-mine stats`, the serve `/stats`
/// endpoint, and `BENCH_growth_kernel.json` so cross-machine numbers stop
/// being ambiguous.
pub fn detected_features() -> &'static str {
    FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let mut features = String::from("sse2");
            if std::arch::is_x86_feature_detected!("avx2") {
                features.push_str(" avx2");
            }
            features
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            String::from("portable")
        }
    })
}

/// Per-lane unsigned `a[i] > b[i]` over one [`BLOCK_LANES`] block, as a
/// 64-bit mask (bit `i` set iff lane `i` compares greater).
///
/// With `a` = the next [`BLOCK_LANES`] row positions at the growth cursor
/// and `b` = the next instances' `last` positions, the mask's trailing ones
/// count the lanes that advance through consecutive row slots with no
/// search; `u64::MAX` proves all 64 do.
#[inline]
#[must_use]
pub fn gt_mask64(a: &[u32; BLOCK_LANES], b: &[u32; BLOCK_LANES], backend: KernelBackend) -> u64 {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: the guard just confirmed AVX2 at runtime.
            unsafe { gt_mask64_avx2(a, b) }
        }
        // Scalar, or Avx2 requested on a CPU without it.
        _ => gt_mask64_scalar(a, b),
    }
}

/// Reference implementation: 64 branchless compare-and-shift lanes.
#[inline]
fn gt_mask64_scalar(a: &[u32; BLOCK_LANES], b: &[u32; BLOCK_LANES]) -> u64 {
    let mut mask = 0u64;
    for (lane, (&x, &t)) in a.iter().zip(b.iter()).enumerate() {
        mask |= u64::from(x > t) << lane;
    }
    mask
}

/// AVX2 block compare: eight 256-bit compares, one outlined call per
/// 64-lane block. Unsigned order is restored by XOR-ing the sign bit into
/// both operands before the signed compare.
// SAFETY: callers must ensure AVX2 is available (`gt_mask64` checks it at
// runtime before every call).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gt_mask64_avx2(a: &[u32; BLOCK_LANES], b: &[u32; BLOCK_LANES]) -> u64 {
    use std::arch::x86_64::{
        _mm256_castsi256_ps, _mm256_cmpgt_epi32, _mm256_loadu_si256, _mm256_movemask_ps,
        _mm256_set1_epi32, _mm256_xor_si256,
    };
    let bias = _mm256_set1_epi32(i32::MIN);
    let (a_chunks, _) = a.as_chunks::<8>();
    let (b_chunks, _) = b.as_chunks::<8>();
    let mut mask = 0u64;
    for (chunk, (x, t)) in a_chunks.iter().zip(b_chunks).enumerate() {
        // SAFETY: each chunk is exactly 8 u32s (32 bytes), so each 32-byte
        // load reads the whole chunk and nothing else.
        let (xv, tv) = unsafe {
            (
                _mm256_loadu_si256(x.as_ptr().cast()),
                _mm256_loadu_si256(t.as_ptr().cast()),
            )
        };
        let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(xv, bias), _mm256_xor_si256(tv, bias));
        let lanes = u32::from_ne_bytes(_mm256_movemask_ps(_mm256_castsi256_ps(gt)).to_ne_bytes());
        mask |= u64::from(lanes) << (chunk * 8);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so the sweep is reproducible without `rand`.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    fn backends_under_test() -> Vec<KernelBackend> {
        KernelBackend::all()
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    #[test]
    fn force_backend_round_trips_and_clamps() {
        let before = active_backend();
        force_backend(Some(KernelBackend::Scalar));
        assert_eq!(active_backend(), KernelBackend::Scalar);
        // An unavailable request degrades to the detected backend rather
        // than faulting mid-mine.
        force_backend(Some(KernelBackend::Avx2));
        assert!(active_backend().is_available());
        force_backend(None);
        assert_eq!(active_backend(), before);
    }

    #[test]
    fn detected_features_and_names_are_stable() {
        let features = detected_features();
        assert!(!features.is_empty());
        for backend in KernelBackend::all() {
            assert_eq!(backend.to_string(), backend.name());
        }
        #[cfg(target_arch = "x86_64")]
        assert!(features.contains("sse2"));
    }

    #[test]
    fn gt_mask64_matches_scalar_across_backends_and_ranges() {
        let mut rng = Lcg(0xB10C);
        for round in 0..100 {
            let mut a = [0u32; BLOCK_LANES];
            let mut b = [0u32; BLOCK_LANES];
            for lane in 0..BLOCK_LANES {
                let scale = match rng.next() % 3 {
                    0 => 1,
                    1 => 1 << 16,
                    _ => 1 << 28,
                };
                a[lane] = u32::try_from(rng.next() % 97)
                    .expect("< 97")
                    .wrapping_mul(scale);
                b[lane] = match rng.next() % 4 {
                    0 => a[lane],
                    1 => a[lane].wrapping_add(1),
                    2 => a[lane].wrapping_sub(1),
                    _ => u32::try_from(rng.next() % 97)
                        .expect("< 97")
                        .wrapping_mul(scale),
                };
            }
            let expected = gt_mask64_scalar(&a, &b);
            for backend in backends_under_test() {
                assert_eq!(
                    gt_mask64(&a, &b, backend),
                    expected,
                    "round {round} backend {backend}"
                );
            }
        }
        let max = [u32::MAX; BLOCK_LANES];
        let zero = [0u32; BLOCK_LANES];
        for backend in backends_under_test() {
            assert_eq!(gt_mask64(&max, &zero, backend), u64::MAX, "{backend}");
            assert_eq!(gt_mask64(&zero, &max, backend), 0, "{backend}");
            assert_eq!(gt_mask64(&max, &max, backend), 0, "{backend}");
        }
    }
}
