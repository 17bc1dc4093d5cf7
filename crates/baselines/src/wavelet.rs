//! Haar-wavelet multiscale residual.
//!
//! Barford et al. [2] detect anomalies by removing the low-frequency part
//! of a signal with a wavelet decomposition and flagging deviations in
//! what remains. This module implements the simplest member of that
//! family — a Haar approximation at a configurable depth — as an ablation
//! comparator; a production wavelet detector would use longer filters,
//! but the Haar pyramid already captures the methodological contrast with
//! the subspace approach (temporal vs. spatial correlation).

/// Haar multiscale filter: the signal's `levels`-deep pairwise-average
/// approximation is treated as "normal"; the residual is the candidate
/// anomaly signal.
#[derive(Debug, Clone, Copy)]
pub struct HaarWavelet {
    /// Decomposition depth. Each level halves the time resolution, so the
    /// approximation at level `L` is piecewise-constant on windows of
    /// `2^L` bins (level 5 ≈ 5.3 hours at 10-minute bins).
    pub levels: usize,
}

impl HaarWavelet {
    /// Create a filter with the given depth.
    ///
    /// # Panics
    /// Panics if `levels == 0` (that would make the residual identically
    /// zero).
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0, "need at least one decomposition level");
        HaarWavelet { levels }
    }

    /// The low-frequency approximation of the signal (same length).
    ///
    /// Implementation: recursive pairwise averaging; an odd-length tail
    /// at any level keeps its last element; the coarse signal is then
    /// upsampled back by duplication. This is the Haar scaling-function
    /// pyramid without the detail coefficients.
    pub fn approximation(&self, series: &[f64]) -> Vec<f64> {
        if series.is_empty() {
            return Vec::new();
        }
        // Downsample `levels` times, remembering each level's length.
        let mut lengths = Vec::with_capacity(self.levels);
        let mut cur = series.to_vec();
        for _ in 0..self.levels {
            if cur.len() == 1 {
                break;
            }
            lengths.push(cur.len());
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < cur.len() {
                next.push(0.5 * (cur[i] + cur[i + 1]));
                i += 2;
            }
            if i < cur.len() {
                next.push(cur[i]);
            }
            cur = next;
        }
        // Upsample back by duplication: coarse element k covers fine
        // positions 2k and 2k+1 (the odd tail element covers only itself).
        for &len in lengths.iter().rev() {
            let mut up = Vec::with_capacity(len);
            for (k, &v) in cur.iter().enumerate() {
                up.push(v);
                if 2 * k + 1 < len {
                    up.push(v);
                }
            }
            debug_assert_eq!(up.len(), len);
            cur = up;
        }
        cur
    }

    /// Residual `z − approximation(z)`: the high-frequency content where
    /// spikes live.
    pub fn residuals(&self, series: &[f64]) -> Vec<f64> {
        self.approximation(series)
            .iter()
            .zip(series)
            .map(|(a, z)| z - a)
            .collect()
    }

    /// The streaming-stateful port: buffer arrivals and emit each
    /// completed `2^levels`-bin block's residuals. See [`HaarStream`].
    pub fn stream(&self) -> HaarStream {
        HaarStream {
            filter: *self,
            buf: Vec::with_capacity(1usize << self.levels),
        }
    }
}

/// Incremental Haar filter: the streaming port of [`HaarWavelet`].
///
/// The Haar pyramid is block-structured: on any series, the batch
/// [`HaarWavelet::approximation`] is computed independently within each
/// aligned `2^levels`-bin block (pairwise averaging never crosses an
/// aligned block boundary, and odd tails are kept locally). The stream
/// exploits exactly that: it buffers arrivals and, when a block
/// completes, emits the block's residuals — **bitwise** the values the
/// batch filter produces for those bins, including a final partial
/// block via [`HaarStream::flush`]. Residuals therefore arrive with up
/// to one block of latency, which is inherent to the (non-causal)
/// wavelet smoothing itself.
#[derive(Debug, Clone)]
pub struct HaarStream {
    filter: HaarWavelet,
    buf: Vec<f64>,
}

impl HaarStream {
    /// Bins per emitted block (`2^levels`).
    pub fn block_len(&self) -> usize {
        1usize << self.filter.levels
    }

    /// Arrivals buffered toward the next block.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Buffer one arrival; when it completes a block, return that
    /// block's residuals (oldest first).
    pub fn push(&mut self, z: f64) -> Option<Vec<f64>> {
        self.buf.push(z);
        if self.buf.len() == self.block_len() {
            Some(self.emit())
        } else {
            None
        }
    }

    /// Emit the residuals of the buffered partial block (empty if
    /// nothing is buffered), clearing the buffer — the end-of-stream
    /// counterpart of the batch filter's odd-tail handling.
    pub fn flush(&mut self) -> Vec<f64> {
        if self.buf.is_empty() {
            return Vec::new();
        }
        self.emit()
    }

    fn emit(&mut self) -> Vec<f64> {
        let out = self.filter.residuals(&self.buf);
        self.buf.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_has_zero_residual() {
        let w = HaarWavelet::new(4);
        let s = vec![42.0; 64];
        let resid = w.residuals(&s);
        assert!(resid.iter().all(|&r| r.abs() < 1e-12));
    }

    #[test]
    fn approximation_preserves_mean_on_dyadic_length() {
        let w = HaarWavelet::new(3);
        let s: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() * 5.0 + 10.0)
            .collect();
        let a = w.approximation(&s);
        let mean_s = s.iter().sum::<f64>() / 64.0;
        let mean_a = a.iter().sum::<f64>() / 64.0;
        assert!((mean_s - mean_a).abs() < 1e-9);
    }

    #[test]
    fn spike_survives_in_residual() {
        let w = HaarWavelet::new(5);
        let mut s: Vec<f64> = (0..256)
            .map(|i| 100.0 + 30.0 * (i as f64 * std::f64::consts::TAU / 128.0).sin())
            .collect();
        s[100] += 500.0;
        let resid = w.residuals(&s);
        // The spike spreads over the 2^5-wide window but keeps most of
        // its amplitude at the spike bin.
        assert!(resid[100] > 350.0, "spike residual {}", resid[100]);
    }

    #[test]
    fn slow_trend_is_absorbed_by_the_approximation() {
        let w = HaarWavelet::new(5);
        let s: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let resid = w.residuals(&s);
        let max = resid.iter().cloned().fold(0.0_f64, |a, b| a.max(b.abs()));
        // Linear trend error of a 32-wide piecewise-constant fit ≤ 32.
        assert!(max <= 32.0, "trend leak {max}");
    }

    #[test]
    fn non_dyadic_lengths_are_handled() {
        let w = HaarWavelet::new(3);
        for len in [1usize, 2, 3, 7, 100, 1008] {
            let s: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let a = w.approximation(&s);
            assert_eq!(a.len(), len, "length {len}");
            let r = w.residuals(&s);
            assert_eq!(r.len(), len);
        }
    }

    #[test]
    fn empty_input() {
        let w = HaarWavelet::new(2);
        assert!(w.approximation(&[]).is_empty());
        assert!(w.residuals(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_levels_rejected() {
        HaarWavelet::new(0);
    }

    #[test]
    fn stream_blocks_reproduce_batch_residuals_bitwise() {
        // Dyadic and non-dyadic lengths, several depths: the streamed
        // block residuals concatenated (plus the flush) must equal the
        // batch residuals exactly.
        for levels in [1usize, 3, 5] {
            for len in [1usize, 7, 64, 100, 257] {
                let w = HaarWavelet::new(levels);
                let s: Vec<f64> = (0..len)
                    .map(|i| 100.0 + (i as f64 * 0.37).sin() * 25.0 + ((i * 17) % 5) as f64)
                    .collect();
                let batch = w.residuals(&s);
                let mut stream = w.stream();
                assert_eq!(stream.block_len(), 1 << levels);
                let mut streamed = Vec::new();
                for &z in &s {
                    if let Some(block) = stream.push(z) {
                        streamed.extend(block);
                    }
                }
                streamed.extend(stream.flush());
                assert_eq!(
                    streamed, batch,
                    "levels {levels} len {len}: streamed blocks diverge from batch"
                );
                assert_eq!(stream.pending(), 0);
                assert!(stream.flush().is_empty());
            }
        }
    }
}
