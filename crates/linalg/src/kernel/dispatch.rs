//! Runtime kernel-backend selection.
//!
//! The packed GEMM layer has three tiers — three instantiations of one
//! micro-tile source — spanning *two numeric contracts* (see the
//! module docs of [`crate::kernel`]):
//!
//! * [`KernelBackend::Portable`] — the mul-then-add tile, compiled for
//!   the build target; bitwise identical to the naive mul-then-add
//!   ascending-`k` triple loop.
//! * [`KernelBackend::Fma`] — the fused 6×8 tile, compiled for
//!   AVX2+FMA; bitwise identical to the [`f64::mul_add`] ascending-`k`
//!   triple loop.
//! * [`KernelBackend::Avx512`] — the fused 8×8 tile, compiled for
//!   AVX-512 (one zmm register per accumulator row), sharing the
//!   **same** fused contract as the FMA tier (one `mul_add` rounding
//!   per `k`-term, ascending `k`), so the two hardware tiers are
//!   bitwise identical to each other.
//!
//! The backend is chosen **once per process** the first time any
//! dispatched product runs, from two inputs:
//!
//! 1. the `NETANOM_KERNEL` environment variable
//!    (`portable` | `fma` | `avx512`), an explicit override for
//!    testing, debugging, and reproducing one tier's results on a
//!    host that would dispatch another;
//! 2. failing that, CPU feature detection via
//!    `is_x86_feature_detected!`, widest tier first: `avx512f` **and**
//!    `avx512vl` select [`KernelBackend::Avx512`], else `avx2` **and**
//!    `fma` select [`KernelBackend::Fma`], anything else (including
//!    every non-x86_64 target) falls back to
//!    [`KernelBackend::Portable`].
//!
//! An override requesting a hardware tier the CPU lacks is *ignored*
//! (with the requested tier recorded in [`backend_diagnostics`])
//! rather than honored: the hardware tiers' entry points refuse to run
//! without their features, so honoring the override could only abort.
//! Unrecognized values are likewise ignored in favor of detection. The
//! selection never errors and never silently changes mid-process,
//! which is what makes "one run = one backend = one numeric contract"
//! a usable testing contract ([`active_backend`] is cached in a
//! [`OnceLock`]).

use std::sync::OnceLock;

/// The micro-kernel tier every dispatched product routes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The mul-then-add tile for the build target: bitwise equal to
    /// the naive mul-then-add ascending-`k` loop on every target.
    Portable,
    /// The fused 6×8 tile compiled for AVX2+FMA: bitwise equal to the
    /// [`f64::mul_add`] ascending-`k` loop; requires `avx2` + `fma`.
    Fma,
    /// The fused 8×8 tile compiled for AVX-512: same fused contract as
    /// [`KernelBackend::Fma`] — bitwise equal to the [`f64::mul_add`]
    /// ascending-`k` loop — on 8-lane zmm registers; requires
    /// `avx512f` + `avx512vl`.
    Avx512,
}

/// Every tier, widest first — the order detection prefers them. Used
/// by tier-generic tests to enumerate what the host can
/// run (filtered through [`KernelBackend::is_supported`]).
pub const ALL_BACKENDS: [KernelBackend; 3] = [
    KernelBackend::Avx512,
    KernelBackend::Fma,
    KernelBackend::Portable,
];

impl KernelBackend {
    /// Stable lowercase name, matching the `NETANOM_KERNEL` values.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Portable => "portable",
            KernelBackend::Fma => "fma",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// The CPU features this tier needs at runtime, as the
    /// `+`-separated string diagnostics print; `Portable` needs none.
    pub fn required_features(self) -> &'static str {
        match self {
            KernelBackend::Portable => "",
            KernelBackend::Fma => "avx2+fma",
            KernelBackend::Avx512 => "avx512f+avx512vl",
        }
    }

    /// `true` when this backend can run on the current CPU. `Portable`
    /// always can; the hardware tiers need their runtime-detected
    /// features (see [`KernelBackend::required_features`]).
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Portable => true,
            KernelBackend::Fma => fma_supported(),
            KernelBackend::Avx512 => avx512_supported(),
        }
    }

    /// `true` when this tier accumulates with one fused rounding per
    /// `k`-term ([`f64::mul_add`] semantics); `false` for the
    /// mul-then-add portable contract. Both hardware tiers are fused,
    /// which is why they are bitwise identical to each other.
    pub fn is_fused(self) -> bool {
        !matches!(self, KernelBackend::Portable)
    }
}

/// Every tier the current CPU can execute, widest first.
pub fn supported_backends() -> Vec<KernelBackend> {
    ALL_BACKENDS
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

#[cfg(target_arch = "x86_64")]
fn fma_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_supported() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_supported() -> bool {
    false
}

/// How the active backend came to be selected — kept alongside the
/// choice so diagnostics can explain *why*, not just *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// CPU feature detection picked the tier (no override present).
    Detected,
    /// `NETANOM_KERNEL` forced the tier.
    Override,
    /// `NETANOM_KERNEL` asked for this tier, which the CPU cannot run;
    /// detection chose instead.
    OverrideUnsupported(KernelBackend),
    /// `NETANOM_KERNEL` held an unrecognized value; detection chose.
    OverrideInvalid,
}

/// Pure selection logic, separated from process state (environment,
/// CPUID) so every branch is unit-testable on any host. Detection
/// prefers the widest supported tier.
fn select(
    env: Option<&str>,
    fma_supported: bool,
    avx512_supported: bool,
) -> (KernelBackend, Provenance) {
    let detected = if avx512_supported {
        KernelBackend::Avx512
    } else if fma_supported {
        KernelBackend::Fma
    } else {
        KernelBackend::Portable
    };
    match env.map(str::trim) {
        Some("portable") => (KernelBackend::Portable, Provenance::Override),
        Some("fma") if fma_supported => (KernelBackend::Fma, Provenance::Override),
        Some("fma") => (
            detected,
            Provenance::OverrideUnsupported(KernelBackend::Fma),
        ),
        Some("avx512") if avx512_supported => (KernelBackend::Avx512, Provenance::Override),
        Some("avx512") => (
            detected,
            Provenance::OverrideUnsupported(KernelBackend::Avx512),
        ),
        Some(_) => (detected, Provenance::OverrideInvalid),
        None => (detected, Provenance::Detected),
    }
}

fn selection() -> (KernelBackend, Provenance) {
    static ACTIVE: OnceLock<(KernelBackend, Provenance)> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let env = std::env::var("NETANOM_KERNEL").ok();
        select(env.as_deref(), fma_supported(), avx512_supported())
    })
}

/// The backend every dispatched product in this process uses.
///
/// Selected on first call (see the module docs for the rules) and
/// constant for the lifetime of the process, so all products computed
/// by one run share one numeric contract.
pub fn active_backend() -> KernelBackend {
    selection().0
}

/// One-line, human-readable account of the active backend and how it
/// was chosen, e.g. `avx512 (runtime-detected avx512f+avx512vl)` —
/// surfaced by `netanom --version` so deployments can confirm which
/// tier their numbers came from.
pub fn backend_diagnostics() -> String {
    let (backend, provenance) = selection();
    let why = match (backend, provenance) {
        (KernelBackend::Portable, Provenance::Detected) => {
            "no simd tier detected; autovectorized fallback".to_string()
        }
        (hw, Provenance::Detected) => {
            format!("runtime-detected {}", hw.required_features())
        }
        (_, Provenance::Override) => format!("NETANOM_KERNEL={} override", backend.name()),
        (_, Provenance::OverrideUnsupported(requested)) => format!(
            "NETANOM_KERNEL={} requested but {} not detected; using {}",
            requested.name(),
            requested.required_features(),
            backend.name()
        ),
        (_, Provenance::OverrideInvalid) => format!(
            "unrecognized NETANOM_KERNEL value ignored (expected portable|fma|avx512); \
             runtime detection chose {}",
            backend.name()
        ),
    };
    format!("{} ({why})", backend.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_without_override_prefers_the_widest_tier() {
        assert_eq!(
            select(None, true, true),
            (KernelBackend::Avx512, Provenance::Detected)
        );
        assert_eq!(
            select(None, true, false),
            (KernelBackend::Fma, Provenance::Detected)
        );
        // AVX-512 without AVX2+FMA cannot occur on real CPUs, but the
        // selection must still be well-defined: widest supported wins.
        assert_eq!(
            select(None, false, true),
            (KernelBackend::Avx512, Provenance::Detected)
        );
        assert_eq!(
            select(None, false, false),
            (KernelBackend::Portable, Provenance::Detected)
        );
    }

    #[test]
    fn portable_override_wins_even_on_simd_hardware() {
        assert_eq!(
            select(Some("portable"), true, true),
            (KernelBackend::Portable, Provenance::Override)
        );
        assert_eq!(
            select(Some("portable"), false, false),
            (KernelBackend::Portable, Provenance::Override)
        );
    }

    #[test]
    fn fma_override_requires_hardware_support() {
        assert_eq!(
            select(Some("fma"), true, true),
            (KernelBackend::Fma, Provenance::Override)
        );
        assert_eq!(
            select(Some("fma"), false, false),
            (
                KernelBackend::Portable,
                Provenance::OverrideUnsupported(KernelBackend::Fma)
            )
        );
    }

    #[test]
    fn avx512_override_requires_hardware_support() {
        assert_eq!(
            select(Some("avx512"), true, true),
            (KernelBackend::Avx512, Provenance::Override)
        );
        // Unsupported avx512 override on an FMA host: detection picks
        // Fma, and the provenance records which tier was *requested*.
        assert_eq!(
            select(Some("avx512"), true, false),
            (
                KernelBackend::Fma,
                Provenance::OverrideUnsupported(KernelBackend::Avx512)
            )
        );
        assert_eq!(
            select(Some("avx512"), false, false),
            (
                KernelBackend::Portable,
                Provenance::OverrideUnsupported(KernelBackend::Avx512)
            )
        );
    }

    #[test]
    fn invalid_override_falls_back_to_detection() {
        assert_eq!(
            select(Some("avx9000"), true, true),
            (KernelBackend::Avx512, Provenance::OverrideInvalid)
        );
        assert_eq!(
            select(Some(""), false, false),
            (KernelBackend::Portable, Provenance::OverrideInvalid)
        );
    }

    #[test]
    fn override_values_are_trimmed() {
        assert_eq!(
            select(Some(" portable\n"), true, false),
            (KernelBackend::Portable, Provenance::Override)
        );
        assert_eq!(
            select(Some(" avx512 "), false, true),
            (KernelBackend::Avx512, Provenance::Override)
        );
    }

    #[test]
    fn portable_is_always_supported_and_named_stably() {
        assert!(KernelBackend::Portable.is_supported());
        assert_eq!(KernelBackend::Portable.name(), "portable");
        assert_eq!(KernelBackend::Fma.name(), "fma");
        assert_eq!(KernelBackend::Avx512.name(), "avx512");
    }

    #[test]
    fn fused_contract_covers_exactly_the_hardware_tiers() {
        assert!(!KernelBackend::Portable.is_fused());
        assert!(KernelBackend::Fma.is_fused());
        assert!(KernelBackend::Avx512.is_fused());
    }

    #[test]
    fn supported_backends_always_includes_portable_last() {
        let tiers = supported_backends();
        assert_eq!(tiers.last(), Some(&KernelBackend::Portable));
        for t in &tiers {
            assert!(t.is_supported());
        }
    }

    #[test]
    fn active_backend_is_stable_and_supported() {
        let first = active_backend();
        assert!(first.is_supported());
        assert_eq!(active_backend(), first);
        assert!(backend_diagnostics().starts_with(first.name()));
    }
}
