//! The `serve_mix` workload: an open loop of independent tenants against
//! an in-process `fem2_serve::start` server.
//!
//! The server starts on a fresh data directory with no quotas and at most
//! `nproc` workers. One sender thread sends a seeded mix at a few fixed
//! offered rates, in a fixed order, timing each request from its due time;
//! one poller thread (period at most 1 ms, polls counted as load) sees cold
//! jobs finish and fetches their results. The registry is never reset
//! during a run.
//!
//! The traced run repeats the HTTP pass and then replays the same request
//! sequence in-process through the server's stations: `JobSpec::parse`,
//! `JobSpec::verify`, `content_hash`, `Registry::lookup`, `cost_report`,
//! `effective_budget` + `execute_with_budget`, `Registry::record_result`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use fem2_serve::client::request;
use fem2_serve::{JobSpec, Registry, RunStatus, ServeOptions, ServerHandle};
use serde_json::Value;

use crate::trace::Tracer;
use crate::util::{self, Outcome, Rng};
use crate::Args;

/// The latency limit `serve.slo_rps` holds the tail of a rate step to.
pub const SLO_MS: f64 = 100.0;

/// Offered rates in the order they run, with each step's share of the
/// run. The first is the nominal rate the end-to-end latencies are taken
/// at.
///
/// Every request and poll is one connection the server closes first, so
/// each leaves a TIME_WAIT entry on the host for a minute; once tens of
/// thousands pile up, connecting slows down for every later run on the
/// host. The rates keep a run to about 4,500 connections.
const STEPS: [(f64, f64); 3] = [(50.0, 0.7), (100.0, 0.15), (200.0, 0.15)];

/// Steps run in windows of about this many seconds. Between windows the
/// sender lets the server drain and probes the idle host's connection
/// path ([`util::net_probe`]); every latency of a window is scaled by the
/// probes on either side of it.
const WINDOW_S: f64 = 2.0;

/// The tail percentile of a rate step.
const TAIL_P: f64 = 90.0;

/// Pre-warmed plate specs the hits re-send.
const WARM: usize = 6;

/// Longest a cold job may take before it counts as timed out.
const COLD_TIMEOUT: Duration = Duration::from_secs(30);

/// Load generator threads: the sender and the poller.
pub const GENERATOR_THREADS: usize = 2;

pub fn server_workers() -> usize {
    util::nproc()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    /// A pre-warmed spec re-sent with permuted keys: 200, cached.
    Hit(usize),
    /// A distinct plate of `n × n` points: 201, then done.
    Cold(usize),
    /// A deadlocking script: 422.
    Reject,
    /// A malformed body: 400.
    Malformed,
}

impl Class {
    fn status(self) -> u16 {
        match self {
            Class::Hit(_) => 200,
            Class::Cold(_) => 201,
            Class::Reject => 422,
            Class::Malformed => 400,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Req {
    /// Due time from the start of the request's window.
    due: Duration,
    step: usize,
    window: usize,
    class: Class,
    body: String,
}

/// Grid sides of the pre-warmed specs; the seed picks their `seed`
/// fields, so the cache keys differ from seed to seed.
const WARM_SIZES: [usize; WARM] = [8, 11, 14, 17, 20, 24];

fn warm_body(seed: u64, i: usize) -> String {
    let n = WARM_SIZES[i];
    format!("{{\"nx\":{n},\"ny\":{n},\"seed\":{}}}", warm_seed(seed, i))
}

fn warm_seed(seed: u64, i: usize) -> u64 {
    (seed << 8) | i as u64
}

/// A warm spec spelled differently: keys in seeded order, sometimes with
/// an explicit default or another display name. Resolves to the same
/// content hash.
fn hit_body(rng: &mut Rng, seed: u64, i: usize) -> String {
    let n = WARM_SIZES[i];
    let mut keys = vec![
        format!("\"nx\":{n}"),
        format!("\"ny\":{n}"),
        format!("\"seed\":{}", warm_seed(seed, i)),
    ];
    if rng.range(0, 1) == 1 {
        keys.push("\"tol\":1e-6".into());
    }
    if rng.range(0, 1) == 1 {
        keys.push(format!("\"name\":\"tenant-{}\"", rng.range(0, 999)));
    }
    rng.shuffle(&mut keys);
    format!("{{{}}}", keys.join(","))
}

fn reject_body(rng: &mut Rng) -> String {
    let a = format!("east{}", rng.range(0, 99));
    let b = format!("west{}", rng.range(0, 99));
    let w = rng.range(4, 64);
    format!(
        "{{\"kind\":\"script\",\"ops\":[\
         {{\"op\":\"initiate\",\"task\":\"{a}\"}},{{\"op\":\"initiate\",\"task\":\"{b}\"}},\
         {{\"op\":\"window_open\",\"task\":\"{a}\",\"window\":\"halo\"}},\
         {{\"op\":\"window_open\",\"task\":\"{b}\",\"window\":\"halo\"}},\
         {{\"op\":\"window_send\",\"from\":\"{a}\",\"to\":\"{b}\",\"window\":\"halo\",\"words\":{w}}},\
         {{\"op\":\"window_send\",\"from\":\"{b}\",\"to\":\"{a}\",\"window\":\"halo\",\"words\":{w}}},\
         {{\"op\":\"window_recv\",\"task\":\"{b}\",\"from\":\"{a}\",\"window\":\"halo\"}},\
         {{\"op\":\"window_recv\",\"task\":\"{a}\",\"from\":\"{b}\",\"window\":\"halo\"}},\
         {{\"op\":\"window_close\",\"task\":\"{a}\",\"window\":\"halo\"}},\
         {{\"op\":\"window_close\",\"task\":\"{b}\",\"window\":\"halo\"}},\
         {{\"op\":\"terminate\",\"task\":\"{a}\"}},{{\"op\":\"terminate\",\"task\":\"{b}\"}}]}}"
    )
}

const MALFORMED: [&str; 6] = [
    "{\"nx\":",
    "{\"nx\":\"ten\",\"ny\":10}",
    "{\"nx\":1,\"ny\":1}",
    "{\"kind\":\"mesh\",\"nx\":8}",
    "not json at all",
    "{\"kind\":\"script\",\"ops\":[]}",
];

/// The seeded request schedule at each step's fixed rate. Every window
/// holds the same mix, shuffled: 50% hits (spread over the warm specs),
/// 30% cold plates (sides spread evenly over 8..=24), 10%
/// deadlocks and 10% malformed bodies, so windows and seeds ask for the
/// same work.
fn schedule(seed: u64, seconds: f64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 5);
    let mut reqs = Vec::new();
    let mut cold_seq = 0u64;
    let mut window = 0;
    for (step, (rate, share)) in STEPS.iter().enumerate() {
        let len = seconds * share;
        let windows = ((len / WINDOW_S).round() as usize).max(1);
        let count = (rate * len / windows as f64).round() as usize;
        for _ in 0..windows {
            let mut deck: Vec<u8> = (0..count).map(|k| (k * 10 / count.max(1)) as u8).collect();
            rng.shuffle(&mut deck);
            let colds = deck.iter().filter(|c| (5..=7).contains(*c)).count();
            let mut sizes: Vec<usize> = (0..colds).map(|c| 8 + c * 17 / colds.max(1)).collect();
            rng.shuffle(&mut sizes);
            for (k, card) in deck.into_iter().enumerate() {
                let due = Duration::from_secs_f64(k as f64 / rate);
                let (class, body) = match card {
                    0..=4 => {
                        let i = k % WARM;
                        (Class::Hit(i), hit_body(&mut rng, seed, i))
                    }
                    5..=7 => {
                        let n = sizes.pop().unwrap_or(16);
                        cold_seq += 1;
                        // Distinct from every warm spec and every other cold one.
                        let s = (seed << 24) ^ (1 << 23) ^ cold_seq;
                        (
                            Class::Cold(n),
                            format!("{{\"nx\":{n},\"ny\":{n},\"seed\":{s}}}"),
                        )
                    }
                    8 => (Class::Reject, reject_body(&mut rng)),
                    _ => (Class::Malformed, rng.pick(&MALFORMED).to_string()),
                };
                reqs.push(Req {
                    due,
                    step,
                    window,
                    class,
                    body,
                });
            }
            window += 1;
        }
    }
    reqs
}

/// What one request saw.
#[derive(Clone, Default)]
struct Seen {
    status: u16,
    /// Due time to completion.
    latency_ms: f64,
    late_ms: f64,
    post_rtt_ms: f64,
    /// POST answered to the poller seeing the job done (cold only).
    queue_wait_ms: f64,
    result_rtt_ms: f64,
    polls: u64,
    /// Host-speed scale applied to the latency.
    scale: f64,
    id: Option<u64>,
    /// The content hash the server answered with.
    hash: Option<String>,
    /// The outcome document (cold only; hits are fetched after the run).
    outcome: Option<Value>,
    error: Option<String>,
}

fn field_u64(v: &Value, name: &str) -> Option<u64> {
    match v.get_field(name) {
        Ok(Value::UInt(u)) => Some(*u),
        _ => None,
    }
}

fn field_str<'v>(v: &'v Value, name: &str) -> Option<&'v str> {
    match v.get_field(name) {
        Ok(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Poll a job until it settles, at most every `period`; returns the
/// outcome and the number of polls.
fn poll_result(addr: SocketAddr, id: u64, period: Duration) -> Result<(Value, u64), String> {
    let deadline = Instant::now() + COLD_TIMEOUT;
    let mut polls = 0;
    loop {
        polls += 1;
        let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), None)?;
        let v = serde_json::parse_value(&body).map_err(|e| format!("job {id}: {e}"))?;
        match (code, field_str(&v, "status")) {
            (200, Some("done")) => break,
            (200, Some("queued" | "running")) => {}
            _ => return Err(format!("job {id}: {code} {body}")),
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} timed out"));
        }
        thread::sleep(period);
    }
    Ok((fetch_outcome(addr, id)?, polls))
}

fn fetch_outcome(addr: SocketAddr, id: u64) -> Result<Value, String> {
    let (code, body) = request(addr, "GET", &format!("/jobs/{id}/result"), None)?;
    if code != 200 {
        return Err(format!("result of job {id}: {code} {body}"));
    }
    let v = serde_json::parse_value(&body).map_err(|e| format!("result of job {id}: {e}"))?;
    v.get_field("outcome").cloned().map_err(|e| e.to_string())
}

/// A fresh server, warmed with the warm specs. Returns the handle, the
/// warmed outcomes and the data directory.
fn start_warm(dir: &Path, seed: u64) -> Result<(ServerHandle, Vec<Value>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut opts = ServeOptions::new(dir.to_path_buf());
    opts.workers = server_workers();
    let server = fem2_serve::start(&opts)?;
    let addr = server.addr();
    let mut outcomes = Vec::new();
    for i in 0..WARM {
        let (code, body) = request(addr, "POST", "/jobs", Some(&warm_body(seed, i)))?;
        let v = serde_json::parse_value(&body).map_err(|e| e.to_string())?;
        let id = field_u64(&v, "id").ok_or_else(|| format!("warm POST: {code} {body}"))?;
        outcomes.push(poll_result(addr, id, Duration::from_millis(1))?.0);
    }
    Ok((server, outcomes))
}

/// The open loop: the sender on this thread, the poller on another.
fn http_pass(addr: SocketAddr, reqs: &[Req]) -> Vec<Seen> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, u64)>();
    let settled_colds = AtomicUsize::new(0);
    let settled = &settled_colds;
    let mut probes = Vec::new();
    let (mut seen, cold) = thread::scope(|s| {
        let poller = s.spawn(move || {
            let mut done: Vec<(usize, Seen)> = Vec::new();
            // (request index, due instant, POST answered, job id, polls)
            let mut pending: Vec<(usize, Instant, Instant, u64, u64)> = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                if pending.is_empty() {
                    match rx.recv() {
                        Ok((i, due, posted, id)) => pending.push((i, due, posted, id, 0)),
                        Err(_) => open = false,
                    }
                }
                loop {
                    match rx.try_recv() {
                        Ok((i, due, posted, id)) => pending.push((i, due, posted, id, 0)),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let sweep = Instant::now();
                let mut k = 0;
                while k < pending.len() {
                    let (i, due, posted, id, polls) = pending[k];
                    let mut seen = Seen {
                        polls: polls + 1,
                        ..Seen::default()
                    };
                    let settled_now = match request(addr, "GET", &format!("/jobs/{id}"), None) {
                        Ok((200, body)) => match serde_json::parse_value(&body)
                            .ok()
                            .as_ref()
                            .and_then(|v| field_str(v, "status").map(str::to_string))
                            .as_deref()
                        {
                            Some("done") => {
                                let seen_done = Instant::now();
                                match fetch_outcome(addr, id) {
                                    Ok(v) => seen.outcome = Some(v),
                                    Err(e) => seen.error = Some(e),
                                }
                                let end = Instant::now();
                                seen.queue_wait_ms = (seen_done - posted).as_secs_f64() * 1e3;
                                seen.result_rtt_ms = (end - seen_done).as_secs_f64() * 1e3;
                                seen.latency_ms = (end - due).as_secs_f64() * 1e3;
                                true
                            }
                            Some("queued" | "running") if due.elapsed() < COLD_TIMEOUT => false,
                            other => {
                                seen.error = Some(format!("job {id} ended as {other:?}"));
                                true
                            }
                        },
                        Ok((code, body)) => {
                            seen.error = Some(format!("job {id}: {code} {body}"));
                            true
                        }
                        Err(e) => {
                            seen.error = Some(e);
                            true
                        }
                    };
                    if settled_now {
                        done.push((i, seen));
                        pending.swap_remove(k);
                        settled.fetch_add(1, Ordering::SeqCst);
                    } else {
                        pending[k].4 += 1;
                        k += 1;
                    }
                }
                if !pending.is_empty() {
                    let period = Duration::from_millis(1);
                    if let Some(rest) = period.checked_sub(sweep.elapsed()) {
                        thread::sleep(rest);
                    }
                }
            }
            done
        });

        let mut seen = vec![Seen::default(); reqs.len()];
        let mut sent_colds = 0;
        let mut window = usize::MAX;
        let mut start = Instant::now();
        for (i, r) in reqs.iter().enumerate() {
            if r.window != window {
                drain(settled, sent_colds, &mut probes);
                window = r.window;
                start = Instant::now();
            }
            let due = start + r.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let sent = Instant::now();
            let res = request(addr, "POST", "/jobs", Some(&r.body));
            let answered = Instant::now();
            let s = &mut seen[i];
            s.late_ms = (sent - due).as_secs_f64() * 1e3;
            s.post_rtt_ms = (answered - sent).as_secs_f64() * 1e3;
            s.latency_ms = (answered - due).as_secs_f64() * 1e3;
            match res {
                Ok((code, body)) => {
                    s.status = code;
                    let v = serde_json::parse_value(&body).ok();
                    s.id = v.as_ref().and_then(|v| field_u64(v, "id"));
                    s.hash = v
                        .as_ref()
                        .and_then(|v| field_str(v, "hash").map(str::to_string));
                    if let (Class::Cold(_), 201, Some(id)) = (r.class, code, s.id) {
                        // The poller owns the rest of this request.
                        if tx.send((i, due, answered, id)).is_ok() {
                            sent_colds += 1;
                        }
                    }
                }
                Err(e) => s.error = Some(e),
            }
        }
        drain(settled, sent_colds, &mut probes);
        drop(tx);
        let cold = poller.join().expect("the poller thread does not panic");
        (seen, cold)
    });
    for (r, s) in reqs.iter().zip(seen.iter_mut()) {
        s.scale = util::NET_PROBE_REF_MS * 2.0 / (probes[r.window] + probes[r.window + 1]);
    }

    for (i, c) in cold {
        let s = &mut seen[i];
        s.polls = c.polls;
        s.queue_wait_ms = c.queue_wait_ms;
        s.result_rtt_ms = c.result_rtt_ms;
        s.latency_ms = c.latency_ms;
        s.outcome = c.outcome;
        s.error = c.error.or(s.error.take());
    }
    seen
}

/// Wait until the poller has settled every cold job sent so far, then
/// probe the idle host (NaN if the probe fails).
fn drain(settled: &AtomicUsize, sent: usize, probes: &mut Vec<f64>) {
    let deadline = Instant::now() + COLD_TIMEOUT;
    while settled.load(Ordering::SeqCst) < sent && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let net: Option<Vec<f64>> = (0..3).map(|_| util::net_probe()).collect();
    probes.push(net.map_or(f64::NAN, |n| util::median(&n)));
}

/// The outcome `JobSpec::execute` gives in-process, as it reads after a
/// JSON round trip.
fn expected_outcome(body: &str) -> Option<Value> {
    let spec = JobSpec::parse(body).ok()?;
    let text = serde_json::to_string(&spec.execute().value).ok()?;
    serde_json::parse_value(&text).ok()
}

/// Check every request against its class, outside the timed region.
///
/// A hit must name its warm spec's content hash, the key of the record it
/// is served from; the first hit of each warm spec also has its result
/// fetched and compared with the warmed outcome (one fetch per record
/// keeps the connections the check opens, see [`STEPS`], few).
fn check(
    addr: SocketAddr,
    seed: u64,
    reqs: &[Req],
    seen: &[Seen],
    warmed: &[Value],
    out: &mut Outcome,
) {
    let mut expected: BTreeMap<usize, Option<Value>> = BTreeMap::new();
    let warm_hashes: Vec<Option<String>> = (0..WARM)
        .map(|i| {
            JobSpec::parse(&warm_body(seed, i))
                .ok()
                .map(|s| s.content_hash())
        })
        .collect();
    let mut fetched = [false; WARM];
    for (r, s) in reqs.iter().zip(seen) {
        let mut ok = s.status == r.class.status() && s.error.is_none();
        match r.class {
            Class::Hit(i) => {
                ok &= s.hash.is_some() && s.hash == warm_hashes[i];
                if !std::mem::replace(&mut fetched[i], true) {
                    let got = s.id.and_then(|id| fetch_outcome(addr, id).ok());
                    ok &= got.as_ref() == Some(&warmed[i]);
                }
            }
            Class::Cold(n) => {
                let want = expected
                    .entry(n)
                    .or_insert_with(|| expected_outcome(&r.body));
                ok &= want.is_some() && s.outcome == *want;
            }
            Class::Reject | Class::Malformed => {}
        }
        out.check(ok, || {
            format!(
                "{:?} answered {} ({:?}) for {}",
                r.class, s.status, s.error, r.body
            )
        });
    }
}

fn stats(addr: SocketAddr) -> Value {
    request(addr, "GET", "/stats", None)
        .ok()
        .and_then(|(_, body)| serde_json::parse_value(&body).ok())
        .unwrap_or(Value::Null)
}

/// Latency figures of one rate step, over all its requests pooled, each
/// latency scaled by its window's connection probes.
struct StepFigures {
    /// Requests per second of request time, as the other workloads count
    /// scenarios per second of scenario time.
    per_s: f64,
    p50: f64,
    tail_p: f64,
    tail: f64,
    cold_p50: f64,
    max_late: f64,
    samples: usize,
}

fn step_figures(reqs: &[Req], seen: &[Seen], step: usize) -> StepFigures {
    let mut all = Vec::new();
    let mut cold = Vec::new();
    let mut max_late = 0.0f64;
    for (r, s) in reqs.iter().zip(seen) {
        if r.step != step {
            continue;
        }
        // A failed request misses any latency limit.
        let l = if s.error.is_some() || s.status != r.class.status() {
            f64::INFINITY
        } else {
            s.latency_ms * s.scale
        };
        all.push(l);
        if matches!(r.class, Class::Cold(_)) {
            cold.push(l);
        }
        max_late = max_late.max(s.late_ms);
    }
    let (tail_p, tail) = util::tail(&all, TAIL_P);
    StepFigures {
        per_s: all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
        p50: util::median(&all),
        tail_p,
        tail,
        cold_p50: util::median(&cold),
        max_late,
        samples: all.len(),
    }
}

/// The highest offered rate whose tail meets [`SLO_MS`] while the sender
/// keeps to its schedule (no growing backlog); 0 when none does. The top
/// step (200 requests/s) lies below the server's knee, so this reads 200
/// on a healthy server: it can show a regression, not a gain.
fn slo_rps(figures: &[StepFigures]) -> f64 {
    STEPS
        .iter()
        .zip(figures)
        .filter(|(_, f)| f.tail <= SLO_MS && f.max_late <= SLO_MS)
        .map(|((rate, _), _)| *rate)
        .fold(0.0, f64::max)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let reqs = util::self_test(|seed| schedule(seed, args.seconds), args.seed, &mut out);
    let root = PathBuf::from(".bench_run").join(format!("serve-{}", std::process::id()));

    // Set-up: start a server on a fresh directory and warm its cache,
    // seven times (a set-up takes about 20 ms); the last server takes the
    // load.
    let mut setup = Vec::new();
    let mut live = None;
    for k in 0..7 {
        let (secs, started) =
            util::time_setup(|| start_warm(&root.join(format!("data{k}")), args.seed));
        match started {
            Ok(s) => {
                setup.push(secs);
                live = Some(s);
            }
            Err(e) => {
                out.problem(format!("server set-up: {e}"));
                return out;
            }
        }
    }
    let Some((server, warmed)) = live else {
        return out;
    };
    let addr = server.addr();
    let seen = http_pass(addr, &reqs);
    if seen.iter().any(|s| !s.scale.is_finite()) {
        out.problem("the connection probe between windows failed".into());
    }
    let rss_mb = util::peak_rss_mb();
    let st = stats(addr);
    check(addr, args.seed, &reqs, &seen, &warmed, &mut out);
    server.stop();

    let figures: Vec<StepFigures> = (0..STEPS.len())
        .map(|k| step_figures(&reqs, &seen, k))
        .collect();
    for (k, f) in figures.iter().enumerate() {
        println!(
            "# step {} rps: {} samples, {:.3} requests per second of request time, p50 {:.3} ms, p{} {:.3} ms, cold p50 {:.3} ms, max lateness {:.3} ms",
            STEPS[k].0, f.samples, f.per_s, f.p50, f.tail_p, f.tail, f.cold_p50, f.max_late
        );
    }
    let nominal = &figures[0];
    let mut digest = util::Digest::new();
    for (r, s) in reqs.iter().zip(&seen) {
        digest.write(format!("{:?} {} ", r.class, s.status).as_bytes());
        if let Some(o) = &s.outcome {
            digest.write(serde_json::to_string(o).unwrap_or_default().as_bytes());
        }
    }
    println!(
        "# digest serve_mix {} over {} requests; scenario_tail_ms is p{} over {} samples at {} rps",
        digest.hex(),
        reqs.len(),
        nominal.tail_p,
        nominal.samples,
        STEPS[0].0
    );

    if args.trace {
        let median_of = |f: fn(&Seen) -> f64, cold_only: bool| {
            let v: Vec<f64> = reqs
                .iter()
                .zip(&seen)
                .filter(|(r, _)| !cold_only || matches!(r.class, Class::Cold(_)))
                .map(|(_, s)| f(s))
                .collect();
            util::median(&v)
        };
        let m = &mut out.metrics;
        m.put("serve.p50_ms", nominal.p50);
        m.put("serve.tail_ms", nominal.tail);
        m.put("serve.cold_p50_ms", nominal.cold_p50);
        m.put("serve.slo_rps", slo_rps(&figures));
        m.put("serve.post_rtt_ms", median_of(|s| s.post_rtt_ms, false));
        m.put("serve.queue_wait_ms", median_of(|s| s.queue_wait_ms, true));
        m.put("serve.result_rtt_ms", median_of(|s| s.result_rtt_ms, true));
        m.put("serve.polls_per_cold", median_of(|s| s.polls as f64, true));
        let lates: Vec<f64> = seen.iter().map(|s| s.late_ms).collect();
        m.put("serve.late_ms", util::tail(&lates, 99.0).1);
        for key in ["sims_run", "cache_hits", "shed", "registry_runs"] {
            let v = st.get_field(key).ok().and_then(|v| match v {
                Value::UInt(u) => Some(*u as f64),
                _ => None,
            });
            m.put(&format!("serve.{key}"), v.unwrap_or(0.0));
        }
        let plate_posts = reqs
            .iter()
            .filter(|r| matches!(r.class, Class::Hit(_) | Class::Cold(_)))
            .count();
        let hits = reqs
            .iter()
            .filter(|r| matches!(r.class, Class::Hit(_)))
            .count();
        m.put("serve.hit_ratio", hits as f64 / plate_posts.max(1) as f64);
        replay_traced(args, &root, &reqs, &seen, &warmed, &mut out);
    } else {
        out.metrics.put("setup_s", util::median(&setup));
        out.metrics.put("scenarios_per_s", nominal.per_s);
        out.metrics.put("scenario_p50_ms", nominal.p50);
        out.metrics.put("scenario_tail_ms", nominal.tail);
        out.metrics.put("peak_rss_mb", rss_mb);
        crate::host_line(args, 1);
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// What the station replay answers for one body.
#[derive(PartialEq, Debug)]
enum Answer {
    Status(u16),
    Outcome(Value),
}

/// Replay the request sequence through the server's stations on a fresh
/// registry. With the tracer on, each station is a span.
fn replay(dir: &Path, seed: u64, reqs: &[Req], t: &mut Tracer) -> Result<Vec<Answer>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut registry = Registry::open(dir)?;
    let slack_percent = ServeOptions::new(dir.to_path_buf()).budget_slack_percent;
    let mut answer = |t: &mut Tracer, body: &str| -> Result<Answer, String> {
        let spec = match t.span("serve.parse", |_| JobSpec::parse(body)) {
            Ok(s) => s,
            Err(_) => return Ok(Answer::Status(400)),
        };
        let report = t.span("verify.check", |_| spec.verify());
        if report.blocks(spec.allow_warnings()) {
            return Ok(Answer::Status(422));
        }
        let hash = t.span("serve.hash", |_| spec.content_hash());
        if let Some(rec) = t.span("serve.lookup", |_| registry.lookup(&hash).cloned()) {
            return Ok(Answer::Outcome(rec.outcome));
        }
        let JobSpec::Plate(plate) = &spec else {
            return Err("a script passed verification".into());
        };
        let cost = t.span("verify.cost", |_| spec.cost_report());
        let started = Instant::now();
        let outcome = t.span("serve.run", |_| {
            let (budget, _) = plate.effective_budget(&cost, slack_percent);
            spec.execute_with_budget(budget)
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        t.span("serve.registry_write", |_| {
            registry
                .record_result(&spec, RunStatus::Ok, Some(&outcome), None, None, wall_ns, 1)
                .map(|_| ())
        })?;
        Ok(Answer::Outcome(outcome.value))
    };
    t.span("serve.warm", |t| {
        for i in 0..WARM {
            answer(t, &warm_body(seed, i))?;
        }
        Ok::<(), String>(())
    })?;
    let mut answers = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        t.run = i as u32;
        answers.push(t.span("serve.request", |t| answer(t, &r.body))?);
    }
    Ok(answers)
}

fn replay_traced(
    args: &Args,
    root: &Path,
    reqs: &[Req],
    seen: &[Seen],
    warmed: &[Value],
    out: &mut Outcome,
) {
    let mut off = Tracer::new(false);
    let (untraced_s, plain) =
        util::time_setup(|| replay(&root.join("replay-untraced"), args.seed, reqs, &mut off));
    let mut t = Tracer::new(true);
    let (traced_s, traced) =
        util::time_setup(|| replay(&root.join("replay-traced"), args.seed, reqs, &mut t));
    let (answers, plain) = match (traced, plain) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.problem(format!("station replay: {e}"));
            return;
        }
    };
    // Replica identity: the replay answers every request as the server
    // did over HTTP, traced or not.
    let round_trip = |v: &Value| {
        serde_json::to_string(v)
            .ok()
            .and_then(|text| serde_json::parse_value(&text).ok())
    };
    for (i, ((r, s), a)) in reqs.iter().zip(seen).zip(&answers).enumerate() {
        let ok = match (r.class, a) {
            (Class::Hit(w), Answer::Outcome(v)) => {
                s.status == 200 && round_trip(v).as_ref() == Some(&warmed[w])
            }
            (Class::Cold(_), Answer::Outcome(v)) => s.outcome == round_trip(v),
            (_, Answer::Status(code)) => *code == s.status,
            _ => false,
        } && plain[i] == *a;
        out.check(ok, || {
            format!("replay of request {i} ({:?}) answered {a:?}", r.class)
        });
    }
    let agg = t.aggregate();
    for name in [
        "serve.parse",
        "serve.hash",
        "serve.lookup",
        "serve.run",
        "serve.registry_write",
        "verify.check",
        "verify.cost",
    ] {
        let ms = agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6);
        out.metrics.put(&format!("{name}_ms"), ms);
    }
    crate::finish_trace(
        args,
        &t,
        "serve.request",
        out,
        traced_s * 1e3,
        untraced_s * 1e3,
    );
}
