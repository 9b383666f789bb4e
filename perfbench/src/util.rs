//! Shared pieces: the seeded generator, order statistics, digests, host
//! facts and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and every commit.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over bytes: the digest of simulated statistics.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Linear-interpolated percentile `p` (0..=100) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail of a latency sample at percentile `p`, chosen per workload as
/// the highest of 75, 90 and 95 that keeps at least ten samples beyond it
/// at the run length the benchmark uses, so every run reports the same
/// percentile. Should a run fall short, the highest percentile with ten
/// samples beyond it is used instead. Returns `(percentile, value)`.
pub fn tail(values: &[f64], p: f64) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let p = if n * (1.0 - p / 100.0) >= 10.0 {
        p
    } else {
        (100.0 * (1.0 - 10.0 / n)).max(50.0)
    };
    (p, percentile(&v, p))
}

/// What [`probe`] takes on the reference host. Timings of the plate and
/// console workloads are reported at this host speed: each is scaled by
/// `PROBE_REF_MS` over the probes taken around it.
pub const PROBE_REF_MS: f64 = 1.6;

/// A fixed host-speed probe, independent of the program under test: a
/// streamed vector update and ordered-map churn with small allocations,
/// the mix of work the simulator does. Returns its wall time in ms.
///
/// Other tenants of a shared host slow whole stretches of a run by a
/// third or more; a probe taken next to each measurement slows with it,
/// so the ratio of the two keeps the program's own cost.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut v: Vec<f64> = (0..32_768).map(|i| i as f64).collect();
    let mut map = BTreeMap::new();
    let mut rng = Rng::new(7, 7);
    let mut acc = 0.0;
    for round in 0..8u64 {
        for x in v.iter_mut() {
            *x = *x * 0.999_999 + 0.5;
            acc += *x;
        }
        for _ in 0..4096 {
            let k = rng.next_u64() % 65_536;
            map.insert(k, vec![round; 4]);
            if let Some(e) = map.range(k..).next().map(|(k, _)| *k) {
                map.remove(&e);
            }
        }
    }
    std::hint::black_box((acc, map.len()));
    ms_since(t)
}

/// What [`net_probe`] takes on the reference host; `serve_mix` latencies
/// are reported at this host speed.
pub const NET_PROBE_REF_MS: f64 = 0.125;

/// A fixed probe of the host's connection path, independent of the
/// program under test: 16 loopback TCP round trips of 64 bytes, each
/// served by a freshly spawned thread, as a server with a thread per
/// connection serves them. Returns the median round trip in ms, or `None`
/// if any round trip fails.
pub fn net_probe() -> Option<f64> {
    use std::io::{Read, Write};
    const TRIPS: usize = 16;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let server = std::thread::spawn(move || {
        for stream in listener.incoming().take(TRIPS) {
            let Ok(mut stream) = stream else { continue };
            let handler = std::thread::spawn(move || {
                let mut buf = [0u8; 64];
                if stream.read_exact(&mut buf).is_ok() {
                    let _ = stream.write_all(&buf);
                }
            });
            let _ = handler.join();
        }
    });
    let trips = (0..TRIPS)
        .map(|_| {
            let t = Instant::now();
            let mut c = std::net::TcpStream::connect(addr).ok()?;
            let mut buf = [7u8; 64];
            c.write_all(&buf).ok()?;
            c.read_exact(&mut buf).ok()?;
            Some(ms_since(t))
        })
        .collect::<Option<Vec<f64>>>()?;
    // After a failed trip the listener may wait for a connection that
    // never comes; it is left to end with the process.
    let _ = server.join();
    Some(median(&trips))
}

/// The median of several probes.
pub fn probe_median(n: usize) -> f64 {
    let p: Vec<f64> = (0..n).map(|_| probe()).collect();
    median(&p)
}

/// Latency samples, each with the host-speed probe taken just before it.
#[derive(Default)]
pub struct Samples {
    pub lat_ms: Vec<f64>,
    pub probe_ms: Vec<f64>,
}

impl Samples {
    /// Probe, then time `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.probe_ms.push(probe());
        let t = Instant::now();
        let r = f();
        self.lat_ms.push(ms_since(t));
        r
    }

    /// The latencies at the reference host speed, each scaled by the
    /// median of the five probes around it.
    pub fn normalized(&self) -> Vec<f64> {
        let n = self.probe_ms.len();
        (0..n)
            .map(|i| {
                let window = &self.probe_ms[i.saturating_sub(2)..(i + 3).min(n)];
                self.lat_ms[i] * PROBE_REF_MS / median(window)
            })
            .collect()
    }
}

/// The end-to-end metrics of a workload that repeats one round of
/// scenarios: throughput, median and tail latency at the reference host
/// speed, set-up time, and the peak memory read when the timed loop ended
/// (before the output checks, which are not part of the workload).
pub fn latency_metrics(
    samples: &Samples,
    tail_p: f64,
    setup: &[f64],
    rss_mb: f64,
    out: &mut Outcome,
) {
    let norm = samples.normalized();
    let (p, tail) = self::tail(&norm, tail_p);
    println!(
        "# raw (unscaled) over {} samples: p50 {:.4} ms, p{p} {:.4} ms, median probe {:.4} ms",
        norm.len(),
        median(&samples.lat_ms),
        self::tail(&samples.lat_ms, p).1,
        median(&samples.probe_ms)
    );
    println!("# scenario_tail_ms is p{p} over {} samples", norm.len());
    let m = &mut out.metrics;
    m.put("setup_s", median(setup));
    m.put(
        "scenarios_per_s",
        norm.len() as f64 / (norm.iter().sum::<f64>() / 1e3),
    );
    m.put("scenario_p50_ms", median(&norm));
    m.put("scenario_tail_ms", tail);
    m.put("peak_rss_mb", rss_mb);
}

/// Time `f` in seconds at the reference host speed, probing before and
/// after it.
pub fn time_setup<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let before = probe_median(5);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    let after = probe_median(5);
    (secs * PROBE_REF_MS * 2.0 / (before + after), r)
}

/// Generator self-test: the same seed gives the same inputs and another
/// seed other inputs. Returns the inputs for `seed`.
pub fn self_test<T: PartialEq>(generate: impl Fn(u64) -> T, seed: u64, out: &mut Outcome) -> T {
    let inputs = generate(seed);
    if generate(seed) != inputs {
        out.problem("generator: the same seed gave different inputs".into());
    }
    if generate(seed.wrapping_add(1)) == inputs {
        out.problem("generator: another seed gave the same inputs".into());
    }
    inputs
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, as `git rev-parse HEAD` reads it in the working
/// directory (not above it), or "unknown" outside a git checkout.
pub fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Measured values by metric name; units come from `BENCHMARK.json`.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// The result line the benchmark ends with. A metric that is not a finite
/// number is written as `null` (`main` marks such a run incorrect).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let number = |v: f64| {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    };
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), number(*value)),
                ("unit".to_string(), Value::Str(unit.clone())),
            ];
            (name.clone(), Value::Obj(entry))
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON tree of finite numbers serializes")
}

/// Outcome of one workload invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failures of checks that are not single operations (replica
    /// identity, span coverage, generator self-test).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }
}
