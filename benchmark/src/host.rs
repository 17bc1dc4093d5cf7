//! The host header every results file carries: enough to tell whether
//! two ledgers were measured on comparable machines and builds.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Worker threads the child is given (`RAYON_NUM_THREADS`): every core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().replace('\n', "; "))
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Civil date `YYYY-MM-DD` (UTC) of a Unix timestamp.
pub fn civil_date(unix_secs: u64) -> String {
    // Days-to-civil, after Howard Hinnant's `civil_from_days`.
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

pub fn today() -> String {
    civil_date(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    )
}

/// Host, build and load at the start of a ledger run. `bin` is the
/// release binary under test, `repo` the checkout it was built from.
pub fn header(bin: &Path, repo: &Path) -> Json {
    Json::obj([
        ("date", Json::str(today())),
        ("nproc", Json::Num(threads() as f64)),
        ("cpu", Json::str(cpu_model())),
        // Second line: the GEMM kernel tier dispatched and how it was chosen.
        (
            "netanom_version",
            Json::str(first_line_of(&bin.to_string_lossy(), &["--version"], repo)),
        ),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["--version"], repo)),
        ),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"], repo)),
        ),
        ("rayon_num_threads", Json::Num(threads() as f64)),
        (
            "loadavg",
            Json::str(
                fs::read_to_string("/proc/loadavg")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_of_known_timestamps() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_553_600), "2026-09-28");
        assert_eq!(civil_date(1_798_761_599), "2026-12-31");
    }
}
