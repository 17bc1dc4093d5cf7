//! End-to-end laps: drive the release binary from this one process,
//! tracing off, and time what a user of it would see.
//!
//! Both drivers are closed loops with one client: `stream`/`shard` read
//! a file as fast as they can, and the `serve` client sends the next
//! `obs` line only after the previous reply — callers of the daemon
//! wait for `ok`.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// What one run of the binary gave.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Spawn → engine fitted: the first stdout line of `stream`/`shard`
    /// (printed once the model is trained), the `fit` event of `serve`.
    pub setup_s: f64,
    /// Spawn → exit.
    pub run_s: f64,
    /// Last sampled `VmHWM` of the child.
    pub peak_rss_kb: u64,
    /// User plus system time of the child, from `/proc/<pid>/stat`.
    pub cpu_s: f64,
    /// Whether the child exited with code 0.
    pub exit_ok: bool,
    /// Alarm payload rows in output order (no header, no `alarm s`).
    pub alarms: Vec<String>,
    /// `serve` only: write of a post-fit `obs` → its reply, µs.
    pub reply_us: Vec<f64>,
    /// `serve` only: the same latency for the rows that trigger a
    /// refit, ms.
    pub stall_ms: Vec<f64>,
    /// `serve` only: rows answered `busy`.
    pub busy: u64,
    /// `serve` only: rows answered `err`.
    pub errs: u64,
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;
/// The sampler's period: at most 20 Hz.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(state, utime + stime in ticks)` of a process.
fn stat_of(pid: u32) -> Option<(char, u64)> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((state, utime + stime))
}

/// Run `body` — the conversation with the child, which fills in what it
/// saw and must read the child's output to its end — while a second
/// thread samples the child's `VmHWM`; then wait for the child to become
/// a zombie, read its final CPU time, reap it, and fill in the rest of
/// the lap.
fn sampled(
    mut child: Child,
    started: Instant,
    body: impl FnOnce(&mut Child, &mut Lap) -> io::Result<()>,
) -> io::Result<Lap> {
    let child = &mut child;
    let mut lap = Lap::default();
    let pid = child.id();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut hwm = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    hwm = kb;
                }
                thread::park_timeout(SAMPLE_EVERY);
            }
            hwm
        });
        let out = body(child, &mut lap);
        if out.is_err() {
            // Whatever went wrong, do not wait on a child that waits on us.
            let _ = child.kill();
        }
        // A zombie keeps its CPU totals until reaped; its memory map,
        // and with it VmHWM, is already gone.
        let mut ticks = 0u64;
        for _ in 0..2000 {
            match stat_of(pid) {
                Some((state, t)) => {
                    ticks = t;
                    if state == 'Z' {
                        break;
                    }
                }
                None => break,
            }
            thread::sleep(Duration::from_micros(100));
        }
        let status = child.wait();
        lap.run_s = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        sampler.thread().unpark();
        lap.peak_rss_kb = sampler.join().expect("the sampler does not panic");
        lap.cpu_s = ticks as f64 / TICKS_PER_S;
        lap.exit_ok = status?.success();
        out
    })?;
    Ok(lap)
}

fn spawn(
    bin: &Path,
    args: &[String],
    threads: usize,
    stderr_log: &Path,
    stdin: Stdio,
) -> io::Result<(Child, Instant)> {
    let log = File::create(stderr_log)?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()?;
    Ok((child, started))
}

/// One lap of `netanom stream` or `netanom shard`.
pub fn stream_lap(
    bin: &Path,
    args: &[String],
    threads: usize,
    stderr_log: &Path,
) -> io::Result<Lap> {
    let (child, started) = spawn(bin, args, threads, stderr_log, Stdio::null())?;
    sampled(child, started, |child, lap| {
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut header = String::new();
        out.read_line(&mut header)?;
        lap.setup_s = started.elapsed().as_secs_f64();
        let mut body = String::new();
        out.read_to_string(&mut body)?;
        lap.alarms = body.lines().map(str::to_string).collect();
        Ok(())
    })
}

/// The request lines of one serve conversation, built once per
/// workload so laps only write them.
pub struct ServeScript {
    pub open: String,
    /// One `obs s <row>` line per bin of `links.csv`, training first.
    pub obs: Vec<String>,
    pub train_bins: usize,
    pub refit_every: Option<usize>,
}

impl ServeScript {
    pub fn load(
        links_csv: &Path,
        open: String,
        train_bins: usize,
        refit_every: Option<usize>,
    ) -> io::Result<Self> {
        let text = fs::read_to_string(links_csv)?;
        Ok(ServeScript {
            open: format!("{open}\n"),
            obs: text
                .lines()
                .skip(1)
                .map(|row| format!("obs s {row}\n"))
                .collect(),
            train_bins,
            refit_every,
        })
    }

    /// Whether the `i`-th `obs` line (0-based, training included) makes
    /// the engine refit before it answers.
    pub fn triggers_refit(&self, i: usize) -> bool {
        match self.refit_every {
            Some(k) => i >= self.train_bins && (i + 1 - self.train_bins).is_multiple_of(k),
            None => false,
        }
    }
}

/// How a request was answered.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok,
    Busy,
    Err,
}

/// Send one request line and read event lines up to its reply.
fn exchange(
    to: &mut impl Write,
    from: &mut impl BufRead,
    request: &str,
    line: &mut String,
    mut event: impl FnMut(&str),
) -> io::Result<Reply> {
    to.write_all(request.as_bytes())?;
    loop {
        line.clear();
        if from.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed its output",
            ));
        }
        let text = line.trim_end();
        match text.split(' ').next() {
            Some("ok") => return Ok(Reply::Ok),
            Some("busy") => return Ok(Reply::Busy),
            Some("err") => return Ok(Reply::Err),
            _ => event(text),
        }
    }
}

/// One lap of `netanom serve` over stdio: one session, one `obs` line
/// per bin, the next line sent only after the reply.
pub fn serve_lap(
    bin: &Path,
    script: &ServeScript,
    threads: usize,
    stderr_log: &Path,
) -> io::Result<Lap> {
    let (child, started) = spawn(
        bin,
        &["serve".to_string()],
        threads,
        stderr_log,
        Stdio::piped(),
    )?;
    sampled(child, started, |child, lap| {
        let mut to = child.stdin.take().expect("stdin is piped");
        let mut from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let mut setup_s = None;
        if exchange(&mut to, &mut from, &script.open, &mut line, |_| ())? != Reply::Ok {
            lap.errs += 1;
        }
        for (i, obs) in script.obs.iter().enumerate() {
            let sent = Instant::now();
            let reply = exchange(&mut to, &mut from, obs, &mut line, |event| {
                if let Some(row) = event.strip_prefix("alarm s ") {
                    lap.alarms.push(row.to_string());
                } else if event.starts_with("fit s ") {
                    setup_s = Some(started.elapsed().as_secs_f64());
                }
            })?;
            let waited = sent.elapsed().as_secs_f64();
            match reply {
                Reply::Ok => {}
                Reply::Busy => lap.busy += 1,
                Reply::Err => lap.errs += 1,
            }
            if i >= script.train_bins {
                lap.reply_us.push(waited * 1e6);
                if script.triggers_refit(i) {
                    lap.stall_ms.push(waited * 1e3);
                }
            }
        }
        exchange(&mut to, &mut from, "quit\n", &mut line, |_| ())?;
        drop(to);
        // The daemon exits after `ok bye`; read to its end of output.
        io::copy(&mut from, &mut io::sink())?;
        lap.setup_s = setup_s.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "the session never reported a fit",
            )
        })?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_rows_are_every_kth_arrival_after_training() {
        let script = ServeScript {
            open: String::new(),
            obs: Vec::new(),
            train_bins: 10,
            refit_every: Some(4),
        };
        let hits: Vec<usize> = (0..30).filter(|&i| script.triggers_refit(i)).collect();
        assert_eq!(hits, [13, 17, 21, 25, 29]);
        let never = ServeScript {
            refit_every: None,
            ..script
        };
        assert!(!(0..30).any(|i| never.triggers_refit(i)));
    }

    #[test]
    fn own_process_has_memory_and_cpu_readings() {
        let pid = std::process::id();
        assert!(vm_hwm_kb(pid).unwrap() > 0);
        // The line is the main thread's, which sleeps while tests run.
        let (state, _ticks) = stat_of(pid).unwrap();
        assert!(matches!(state, 'R' | 'S' | 'D'), "state {state}");
    }

    #[test]
    fn exchange_collects_events_until_the_reply() {
        let mut sent = Vec::new();
        let mut from =
            io::Cursor::new("fit s method=subspace\nalarm s 7,1e3\nok obs s queued=0\nok next\n");
        let mut events = Vec::new();
        let mut line = String::new();
        let reply = exchange(&mut sent, &mut from, "obs s 1,2\n", &mut line, |e| {
            events.push(e.to_string())
        })
        .unwrap();
        assert_eq!(reply, Reply::Ok);
        assert_eq!(sent, b"obs s 1,2\n");
        assert_eq!(events, ["fit s method=subspace", "alarm s 7,1e3"]);
        let mut from = io::Cursor::new("busy s queued=4096 capacity=4096\n");
        assert_eq!(
            exchange(&mut sent, &mut from, "x\n", &mut line, |_| ()).unwrap(),
            Reply::Busy
        );
        let mut from = io::Cursor::new("");
        assert!(exchange(&mut sent, &mut from, "x\n", &mut line, |_| ()).is_err());
    }
}
