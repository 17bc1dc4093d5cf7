//! Shared engine-construction configuration for every deployment verb.
//!
//! Historically each online CLI verb (`stream`, `shard`, `tracker`,
//! `worker`) re-parsed the same chunk/refit/window/train-bins options
//! into ad-hoc locals and hand-assembled its engine. [`EngineConfig`] is
//! the one builder they all share now — and the one the persistent
//! `netanom serve` daemon uses to open sessions — so a named engine
//! configuration (method × refit strategy × cadence) means the same
//! thing everywhere; the sharded verbs pair it with a [`PartitionSpec`].
//!
//! Parsing follows the CLI's error idiom: an unknown value errors with
//! the full valid set (mirroring `netanom --list-methods` and
//! `MethodName::parse`), and the errors are plain `String`s because
//! their audience is a shell or protocol user, not a library caller.
//!
//! The method itself is stored as a *name*: this crate defines the
//! engines and backends, but the method registry (`MethodName` in
//! `netanom-baselines`) lives above it, so resolution of the name into
//! a fitted backend happens in the layer that owns the registry
//! (`netanom_baselines::methods::build_streaming` for the streaming
//! verbs; `netanom shard` resolves the name itself and hands
//! [`ShardedEngine`](crate::ShardedEngine) the concrete backend).

use crate::stream::{RefitStrategy, StreamConfig};
use crate::DiagnoserConfig;
use netanom_topology::LinkPartition;

/// The valid `--refit` / `refit=` values, in display order.
pub const REFIT_NAMES: [&str; 3] = ["full", "incremental", "truncated"];

/// How the link set is split across shards, before the link count is
/// known.
///
/// `per-pop` and `explicit` partitions resolve to concrete link groups
/// at the edge (a topology lookup, or a partition CSV the CLI parses);
/// both arrive here as [`PartitionSpec::Groups`], so
/// [`PartitionSpec::resolve`] needs only the measurement dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Round-robin link `l` to shard `l % shards`.
    RoundRobin {
        /// Number of shards.
        shards: usize,
    },
    /// Explicit link groups (from `LinkPartition::per_pop` on a
    /// topology, or a user-supplied partition CSV).
    Groups(Vec<Vec<usize>>),
}

impl PartitionSpec {
    /// Resolve into a validated [`LinkPartition`] over `num_links`
    /// links. Errors are user-facing strings, like the other config
    /// parse helpers in this module.
    pub fn resolve(&self, num_links: usize) -> Result<LinkPartition, String> {
        match self {
            PartitionSpec::RoundRobin { shards } => {
                LinkPartition::round_robin(num_links, *shards).map_err(|e| e.to_string())
            }
            PartitionSpec::Groups(groups) => {
                LinkPartition::explicit(num_links, groups.clone()).map_err(|e| e.to_string())
            }
        }
    }

    /// Number of shards this spec describes.
    pub fn num_shards(&self) -> usize {
        match self {
            PartitionSpec::RoundRobin { shards } => *shards,
            PartitionSpec::Groups(groups) => groups.len(),
        }
    }
}

/// Parse a `--refit` value; unknown values error with the valid set.
pub fn parse_refit(value: &str) -> Result<RefitStrategy, String> {
    match value {
        "full" => Ok(RefitStrategy::FullSvd),
        "incremental" => Ok(RefitStrategy::Incremental),
        "truncated" => Ok(RefitStrategy::truncated()),
        other => Err(format!(
            "unknown refit strategy {other:?}; must be {}",
            REFIT_NAMES.join("|")
        )),
    }
}

/// One engine configuration: everything needed to construct a
/// streaming, sharded, or served engine except the training data
/// itself.
///
/// Build it once from flags (or an `open` protocol line) — both are a
/// loop over [`EngineConfig::set`] — then hand it to
/// `netanom_baselines::methods::build_streaming`, or read the engine's
/// [`StreamConfig`] and [`DiagnoserConfig`] off it.
///
/// ```
/// use netanom_core::service::EngineConfig;
///
/// let cfg = EngineConfig::new(1008)
///     .unwrap()
///     .with_method("subspace")
///     .with_refit_str("incremental")
///     .unwrap()
///     .with_refit_every(144)
///     .unwrap();
/// assert_eq!(cfg.window(), 1008); // defaults to the training length
/// assert_eq!(cfg.chunk(), EngineConfig::DEFAULT_CHUNK);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    method: String,
    strategy: RefitStrategy,
    refit_every: Option<usize>,
    train_bins: usize,
    window: Option<usize>,
    chunk: usize,
    confidence: f64,
}

impl EngineConfig {
    /// Default ingestion chunk (one day of 10-minute bins).
    pub const DEFAULT_CHUNK: usize = 144;
    /// Default detection confidence.
    pub const DEFAULT_CONFIDENCE: f64 = 0.999;

    /// A configuration training on `train_bins` rows with every other
    /// knob at its default: subspace method, full refits, no cadence,
    /// window = training length, chunk 144, confidence 0.999.
    pub fn new(train_bins: usize) -> Result<Self, String> {
        if train_bins < 2 {
            return Err(format!(
                "train-bins must be an integer >= 2, got {train_bins}"
            ));
        }
        Ok(EngineConfig {
            method: "subspace".to_string(),
            strategy: RefitStrategy::FullSvd,
            refit_every: None,
            train_bins,
            window: None,
            chunk: Self::DEFAULT_CHUNK,
            confidence: Self::DEFAULT_CONFIDENCE,
        })
    }

    /// Select the detection method by registry name. The name is
    /// validated by the registry when the engine is built (this crate
    /// does not own the method registry).
    pub fn with_method(mut self, name: &str) -> Self {
        self.method = name.to_string();
        self
    }

    /// Set the refit strategy directly.
    pub fn with_refit(mut self, strategy: RefitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Parse and set the refit strategy; unknown values error with the
    /// valid set.
    pub fn with_refit_str(mut self, value: &str) -> Result<Self, String> {
        self.strategy = parse_refit(value)?;
        Ok(self)
    }

    /// Refit after every `every` arrivals.
    pub fn with_refit_every(mut self, every: usize) -> Result<Self, String> {
        if every == 0 {
            return Err("refit-every must be a positive integer".to_string());
        }
        self.refit_every = Some(every);
        Ok(self)
    }

    /// Retain a sliding window of `window` rows (default: the training
    /// length). A window shorter than the training length is refused:
    /// the engines would silently keep the training length instead.
    pub fn with_window(mut self, window: usize) -> Result<Self, String> {
        if window < self.train_bins {
            return Err(format!(
                "window must be at least train-bins ({}), got {window}",
                self.train_bins
            ));
        }
        self.window = Some(window);
        Ok(self)
    }

    /// Ingestion chunk size for the batched CSV readers.
    pub fn with_chunk(mut self, chunk: usize) -> Result<Self, String> {
        if chunk == 0 {
            return Err("chunk must be a positive integer".to_string());
        }
        self.chunk = chunk;
        Ok(self)
    }

    /// Detection confidence, strictly inside `(0, 1)`.
    pub fn with_confidence(mut self, confidence: f64) -> Result<Self, String> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(format!(
                "confidence must be strictly between 0 and 1, got {confidence}"
            ));
        }
        self.confidence = confidence;
        Ok(self)
    }

    /// Apply one textual engine option — the `--key value` flags of the
    /// CLI's online verbs and the `key=value` parameters of the serve
    /// daemon's `open` line are the same options, parsed and
    /// range-checked here once. `Ok(false)` means `key` is not an engine
    /// option, so the caller can try its own (`--chunk`, `queue=`, …).
    pub fn set(&mut self, key: &str, value: &str) -> Result<bool, String> {
        let positive = || {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{key} must be a positive integer, got {value:?}"))
        };
        let cfg = self.clone();
        *self = match key {
            "method" => cfg.with_method(value),
            "refit" => cfg.with_refit_str(value)?,
            "refit-every" => cfg.with_refit_every(positive()?)?,
            "window" => cfg.with_window(positive()?)?,
            "confidence" => cfg.with_confidence(
                value
                    .parse()
                    .map_err(|_| format!("confidence must be a number, got {value:?}"))?,
            )?,
            _ => return Ok(false),
        };
        Ok(true)
    }

    /// Downgrade a statistics-maintaining strategy that has no refit
    /// cadence to full refits, returning the name of the strategy that
    /// was downgraded (so the caller can tell the user). Statistics
    /// that are never consumed should not be paid for at `O(m²)` per
    /// arrival.
    pub fn normalize(&mut self) -> Option<&'static str> {
        if self.refit_every.is_none() && self.strategy.maintains_statistics() {
            let requested = match self.strategy {
                RefitStrategy::Incremental => "incremental",
                RefitStrategy::Truncated { .. } => "truncated",
                RefitStrategy::FullSvd => unreachable!("maintains no statistics"),
            };
            self.strategy = RefitStrategy::FullSvd;
            Some(requested)
        } else {
            None
        }
    }

    /// The selected method's registry name.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The refit strategy.
    pub fn strategy(&self) -> RefitStrategy {
        self.strategy
    }

    /// The refit cadence in arrivals, if any.
    pub fn refit_every(&self) -> Option<usize> {
        self.refit_every
    }

    /// Training prefix length in rows.
    pub fn train_bins(&self) -> usize {
        self.train_bins
    }

    /// Sliding-window capacity (defaults to the training length).
    pub fn window(&self) -> usize {
        self.window.unwrap_or(self.train_bins)
    }

    /// Ingestion chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Detection confidence.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The engine-level [`StreamConfig`] this configuration describes.
    pub fn stream_config(&self) -> StreamConfig {
        let mut cfg = StreamConfig::new(self.window()).strategy(self.strategy);
        cfg.refit_every = self.refit_every;
        cfg
    }

    /// The [`DiagnoserConfig`] this configuration describes.
    pub fn diagnoser_config(&self) -> DiagnoserConfig {
        DiagnoserConfig {
            confidence: self.confidence,
            ..DiagnoserConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DEFAULT_TRUNCATED_K;

    #[test]
    fn refit_parse_lists_the_valid_set() {
        let err = parse_refit("sketchy").unwrap_err();
        for name in REFIT_NAMES {
            assert!(err.contains(name), "{err}");
        }
        assert_eq!(parse_refit("full").unwrap(), RefitStrategy::FullSvd);
        assert_eq!(
            parse_refit("incremental").unwrap(),
            RefitStrategy::Incremental
        );
        assert!(matches!(
            parse_refit("truncated").unwrap(),
            RefitStrategy::Truncated { .. }
        ));
    }

    #[test]
    fn builder_validates_ranges() {
        assert!(EngineConfig::new(1).is_err());
        let cfg = EngineConfig::new(100).unwrap();
        assert!(cfg.clone().with_refit_every(0).is_err());
        assert!(cfg.clone().with_window(0).is_err());
        assert!(cfg.clone().with_chunk(0).is_err());
        assert!(cfg.clone().with_confidence(1.0).is_err());
        assert!(matches!(
            cfg.with_refit_str("truncated").unwrap().strategy(),
            RefitStrategy::Truncated {
                k: DEFAULT_TRUNCATED_K,
                ..
            }
        ));
    }

    #[test]
    fn set_parses_every_engine_option_and_passes_on_the_rest() {
        let mut cfg = EngineConfig::new(100).unwrap();
        for (key, value) in [
            ("method", "ewma"),
            ("refit", "truncated"),
            ("refit-every", "24"),
            ("window", "160"),
            ("confidence", "0.99"),
        ] {
            assert_eq!(cfg.set(key, value), Ok(true), "{key}");
        }
        assert_eq!(cfg.method(), "ewma");
        assert!(matches!(
            cfg.strategy(),
            RefitStrategy::Truncated {
                k: DEFAULT_TRUNCATED_K,
                ..
            }
        ));
        assert_eq!(cfg.refit_every(), Some(24));
        assert_eq!(cfg.window(), 160);
        assert_eq!(cfg.confidence(), 0.99);
        // Not engine options: the caller's own.
        for key in ["chunk", "queue", "dim", "train-bins", "links"] {
            assert_eq!(cfg.clone().set(key, "1"), Ok(false), "{key}");
        }
        // A rejected value names the option.
        for (key, value) in [
            ("refit", "sometimes"),
            ("refit-every", "-3"),
            ("window", "wide"),
            ("confidence", "1.5"),
            ("confidence", "high"),
        ] {
            let err = cfg.set(key, value).unwrap_err();
            assert!(err.contains(key), "{key}={value}: {err}");
        }
    }

    #[test]
    fn normalize_downgrades_cadenceless_statistics() {
        let mut cfg = EngineConfig::new(100)
            .unwrap()
            .with_refit(RefitStrategy::Incremental);
        assert_eq!(cfg.normalize(), Some("incremental"));
        assert_eq!(cfg.strategy(), RefitStrategy::FullSvd);

        let mut cfg = EngineConfig::new(100)
            .unwrap()
            .with_refit(RefitStrategy::Incremental)
            .with_refit_every(10)
            .unwrap();
        assert_eq!(cfg.normalize(), None);
        assert_eq!(cfg.strategy(), RefitStrategy::Incremental);
    }

    #[test]
    fn window_defaults_to_train_bins() {
        let cfg = EngineConfig::new(77).unwrap();
        assert_eq!(cfg.window(), 77);
        assert_eq!(cfg.clone().with_window(200).unwrap().window(), 200);
        assert_eq!(cfg.clone().with_window(77).unwrap().window(), 77);
        let err = cfg.with_window(76).unwrap_err();
        assert_eq!(err, "window must be at least train-bins (77), got 76");
    }

    #[test]
    fn round_robin_resolves() {
        let spec = PartitionSpec::RoundRobin { shards: 3 };
        assert_eq!(spec.num_shards(), 3);
        let part = spec.resolve(7).unwrap();
        assert_eq!(part.num_shards(), 3);
        assert_eq!(part.group(0), &[0, 3, 6]);
    }
}
