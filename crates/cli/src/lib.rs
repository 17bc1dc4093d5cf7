//! `netanom` — diagnose network-wide traffic anomalies from the shell.
//!
//! This library backs the `netanom` binary; it exists as a library so
//! the subcommand implementations ([`commands`]) and the `paths.csv`
//! routing format ([`paths_csv`]) are testable and documented like every
//! other crate in the workspace.
//!
//! ```text
//! netanom simulate --dataset sprint1 --out-dir data/
//! netanom detect   --links data/links.csv [--confidence 0.999] [--train-bins N]
//! netanom diagnose --links data/links.csv --paths data/paths.csv [--method ewma] [--out report.csv]
//! netanom stream   --links data/links.csv --train-bins 1008 [--method wavelet]
//!                  [--paths data/paths.csv] [--refit-every 144] [--refit incremental] [--chunk 144]
//! netanom shard    --links data/links.csv --train-bins 1008 --shards 4 [--method subspace]
//!                  [--paths data/paths.csv] [--refit-every 144] [--chunk 144]
//! netanom serve    [--listen 127.0.0.1:9060] [--read-timeout 30] [--max-conns 1]
//! netanom eval     --list | <experiment-id>... [--out DIR]
//! netanom --list-methods
//! ```
//!
//! * `simulate` exports one of the canned paper datasets as CSV (link
//!   measurements, flow paths, and exact ground truth) — both a demo and
//!   a format reference for your own exports.
//! * `detect` runs detection only: it needs nothing but link byte counts
//!   (the SNMP-collectable input the paper emphasizes).
//! * `diagnose` adds identification and quantification, which require
//!   the routing information (`paths.csv`: `flow,links` with
//!   `;`-separated link indices per flow).
//! * `stream` is the online path: chunked ingestion through the
//!   streaming engine with optional periodic refits.
//! * `shard` is the sharded online path: the link set is partitioned
//!   round-robin into `--shards K` shards, each ingesting its own column
//!   slice, with per-shard method state merged into the global model at
//!   every refit — bitwise the same detections as `stream`.
//! * `diagnose`, `stream`, and `shard` accept `--method NAME` to run
//!   any registered detection backend — the subspace method (default)
//!   or one of the per-link temporal comparators — through the same
//!   machinery; `netanom --list-methods` enumerates them, and an
//!   unknown name errors with the valid set.
//! * `shard`, `tracker`, and `worker` accept
//!   `--partition round-robin|per-pop|explicit`: round-robin (the
//!   default) splits links cyclically over the shard count, `per-pop`
//!   groups links by the `--dataset` topology's PoPs, and `explicit`
//!   reads a `shard,links` CSV (`--partition-file`). Every process of a
//!   distributed deployment must name the same partition — a
//!   disagreeing worker is rejected at the join handshake.
//! * `serve` is the persistent daemon: a newline-framed session
//!   protocol over stdin/stdout or `--listen` TCP, with per-session
//!   engine configurations, bounded ingest queues, `alarm` events,
//!   bitwise `checkpoint`/`restore`, and a `stats` verb (see the
//!   `netanom-serve` crate docs for the protocol grammar).
//! * `eval` lists or reruns the paper's tables/figures and the
//!   deployment scenarios (`netanom-eval`'s experiment registry; this
//!   verb is its only front end).
//!
//! # The `paths.csv` format
//!
//! ```
//! let paths = vec![vec![3], vec![0, 4, 7]];
//! let csv = netanom_cli::paths_csv::serialize(&paths);
//! assert!(csv.starts_with("flow,links\n"));
//! assert_eq!(netanom_cli::paths_csv::parse(&csv).unwrap(), paths);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod paths_csv;
