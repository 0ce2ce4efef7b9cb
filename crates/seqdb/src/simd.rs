//! CPU feature reporting, plus a stub of the retired kernel-backend switch.
//!
//! The growth kernel is one serial probe loop (see `core::kernel`); no code
//! path depends on the CPU. [`detected_features`] names the vector
//! extensions the build targets, so `rgs-mine stats`, the serve `/stats`
//! endpoint and the bench reports record what build produced a number.
//!
//! [`KernelBackend`], [`active_backend`] and [`force_backend`] remain only
//! because the `perfbench` package still names them: there is one backend,
//! `scalar`, and forcing it changes nothing.

// The mining hot path: a panic here would abort the whole run.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// The growth kernel's implementation. There is only one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// The serial `PostingCursor` probe loop.
    Scalar,
}

impl KernelBackend {
    /// The lowercase name reported in bench JSON (`scalar`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
        }
    }
}

/// The backend the growth kernel runs on: always [`KernelBackend::Scalar`].
pub fn active_backend() -> KernelBackend {
    KernelBackend::Scalar
}

/// Does nothing: there is no second backend to switch to.
pub fn force_backend(_backend: Option<KernelBackend>) {}

/// The x86 vector extensions this build was compiled to use, as a
/// space-separated list (`"sse2"` on a default x86-64 build, `"sse2 avx2"`
/// under `-C target-cpu=native` on an AVX2 machine), or `"portable"` off
/// x86. No code dispatches on the CPU at run time, so the compile-time
/// target features are the only vector instructions a run can execute.
/// Reported in `rgs-mine stats`, the serve `/stats` endpoint, and the bench
/// reports so cross-machine numbers stop being ambiguous.
pub fn detected_features() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "sse2 avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_features_and_names_are_stable() {
        let features = detected_features();
        assert!(!features.is_empty());
        assert_eq!(active_backend().name(), "scalar");
        #[cfg(target_arch = "x86_64")]
        assert!(features.contains("sse2"));
    }
}
