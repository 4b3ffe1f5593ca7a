//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <loops_cold|loopfree_warm|serve_fresh> --seed N
//!           --seconds S --trace <0|1> [--nka PATH] [--out DIR]
//! ```
//!
//! Runs one seeded workload against the public API for `S` seconds,
//! checks every answer against its by-construction expectation, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! runs the traced variant and reports the per-layer metrics. See
//! `perfbench/README.md` for the workloads and the metric map.

mod check;
mod gen;
mod inproc;
#[cfg(test)]
mod selftest;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub nka: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut nka = PathBuf::from(".bench_build/release/nka");
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                seconds = Some(Duration::from_secs_f64(s.clamp(0.1, 120.0)));
            }
            "--trace" => trace = Some(value == "1"),
            "--nka" => nka = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        nka,
        out,
    })
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-query latencies, grouped into chunks of `chunk` consecutive
/// queries. The figures are medians over chunks of each chunk's own
/// statistic, so a burst of outside load on the machine moves one chunk
/// rather than the result; with a single chunk they are whole-run figures.
pub struct Latencies {
    chunk: usize,
    pub count: u64,
    pub sum_s: f64,
    chunks: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn new(chunk: usize) -> Latencies {
        Latencies {
            chunk,
            count: 0,
            sum_s: 0.0,
            chunks: Vec::new(),
        }
    }

    pub fn push(&mut self, d: Duration) {
        let us = d.as_secs_f64() * 1e6;
        self.count += 1;
        self.sum_s += us / 1e6;
        match self.chunks.last_mut() {
            Some(last) if last.len() < self.chunk => last.push(us),
            _ => self.chunks.push(vec![us]),
        }
    }

    /// Takes over `other`'s chunks (another connection of the same run).
    pub fn merge(&mut self, other: Latencies) {
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.chunks.extend(other.chunks);
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s * 1e6 / self.count as f64
        }
    }

    /// `(p50 µs, tail µs, queries per busy second)`, each the median over
    /// full chunks (a trailing partial chunk counts only when it is the
    /// only one).
    pub fn summary(&self, tail_q: f64) -> (f64, f64, f64) {
        let full: Vec<&Vec<f64>> = self
            .chunks
            .iter()
            .filter(|c| c.len() == self.chunk)
            .collect();
        let chunks = if full.is_empty() {
            self.chunks.iter().collect()
        } else {
            full
        };
        let (mut p50, mut tail, mut qps) = (Vec::new(), Vec::new(), Vec::new());
        for c in chunks {
            let mut v = c.clone();
            let busy_s: f64 = v.iter().sum::<f64>() / 1e6;
            v.sort_by(f64::total_cmp);
            p50.push(quantile(&v, 0.5));
            tail.push(quantile(&v, tail_q));
            qps.push(v.len() as f64 / busy_s);
        }
        (median(&p50), median(&tail), median(&qps))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "loops_cold" => inproc::run(&args, inproc::Workload::LoopsCold),
        "loopfree_warm" => inproc::run(&args, inproc::Workload::LoopFreeWarm),
        "serve_fresh" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(1)
        }
    }
}
