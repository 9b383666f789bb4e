//! The plate workloads: `plate_crossbar` (E1 scenario analysis on the
//! default 4×8 crossbar) and `plate_1024` (128-task plates on 1024-cluster
//! torus and fat-tree machines).
//!
//! Both time `PlateScenario::try_run`, the public verify-then-simulate
//! entry point. The traced run replays the same plates through an
//! instrumented copy of `PlateScenario::run` and `plate_cg` made of the
//! same public `NaVm` calls, and checks the copy against the public path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fem2_core::scenario::{ASSEMBLY_PROFILE_PER_ELEMENT, STRESS_PROFILE_PER_ELEMENT};
use fem2_core::{plate_cg, PlateScenario, ScenarioReport};
use fem2_machine::{MachineConfig, RunBudget, Topology};
use fem2_navm::{ArrayId, NaVm};
use fem2_par::Pool;

use crate::trace::Tracer;
use crate::util::{self, Digest, Outcome, Rng, Samples};
use crate::Args;

/// One generated plate.
#[derive(Clone, Debug, PartialEq)]
pub struct Plate {
    pub nx: usize,
    pub ny: usize,
    pub tasks: u32,
    pub tol: f64,
    pub machine: MachineConfig,
}

impl Plate {
    pub fn scenario(&self) -> PlateScenario {
        let mut s = PlateScenario::square(self.nx, self.machine.clone());
        s.ny = self.ny;
        s.tasks = self.tasks;
        s.tol = self.tol;
        s
    }

    fn topology(&self) -> &'static str {
        self.machine.topology.name()
    }
}

/// `plate_crossbar`: one plate per size class from 16 to 128 points a
/// side, on the default machine. Each plate is one point longer in one
/// direction; the seed picks which direction and the order of the plates,
/// so seeds differ in their inputs but not in the work they ask for.
pub fn gen_crossbar(seed: u64) -> Vec<Plate> {
    let mut rng = Rng::new(seed, 1);
    let mut plates: Vec<Plate> = [16usize, 24, 32, 48, 64, 96, 128]
        .iter()
        .map(|&n| {
            let (nx, ny) = if rng.range(0, 1) == 0 {
                (n, n + 1)
            } else {
                (n + 1, n)
            };
            let machine = MachineConfig::fem2_default();
            Plate {
                nx,
                ny,
                tasks: machine.total_workers().max(1),
                tol: 1e-6,
                machine,
            }
        })
        .collect();
    rng.shuffle(&mut plates);
    plates
}

/// `plate_1024`: n = 32 and n = 48 plates of 128 tasks on a 32×32 torus
/// and a radix-32 fat tree of 1024 clusters, in seeded order. The n = 32
/// fat-tree plate runs twice a round: with five plates a round, the
/// median and the tail fall inside one plate class, not between two.
pub fn gen_1024(seed: u64) -> Vec<Plate> {
    let mut rng = Rng::new(seed, 2);
    let torus = Topology::Torus { dims: vec![32, 32] };
    let fat_tree = Topology::FatTree { radix: 32 };
    let mut plates: Vec<Plate> = [
        (32, torus.clone()),
        (32, fat_tree.clone()),
        (32, fat_tree.clone()),
        (48, torus),
        (48, fat_tree),
    ]
    .into_iter()
    .map(|(n, topology)| Plate {
        nx: n,
        ny: n,
        tasks: 128,
        tol: 1e-6,
        machine: MachineConfig::clustered(1024, 2, topology),
    })
    .collect();
    rng.shuffle(&mut plates);
    plates
}

/// The simulated statistics a digest and a repeat comparison cover.
fn summary(r: &ScenarioReport) -> String {
    let phases: Vec<String> = r.phases.iter().map(|(n, c)| format!("{n}:{c:?}")).collect();
    format!(
        "n={} cycles={} events={} iters={} res={:016x} conv={} msgs={} words={} flops={} peak={} mem={} links={} clusters={} phases=[{}]",
        r.unknowns,
        r.elapsed,
        r.engine_events,
        r.iterations,
        r.residual.to_bits(),
        r.converged,
        r.total_messages,
        r.total_words_moved,
        r.total_flops,
        r.peak_memory_words,
        r.total_memory_words,
        r.alloc_link_records,
        r.alloc_cluster_records,
        phases.join(";")
    )
}

/// Native-plane `plate_cg` on the same grid: iterations, residual, x.
fn native_cg(pool: &Arc<Pool>, p: &Plate) -> (usize, f64, Vec<f64>) {
    let s = p.scenario();
    let mut vm = NaVm::native(Arc::clone(pool), p.tasks);
    let (iters, res, x) = plate_cg(&mut vm, s.nx, s.ny, s.tol, s.max_iters);
    (iters, res, vm.snapshot(x))
}

pub fn run(args: &Args, generate: fn(u64) -> Vec<Plate>, name: &str) -> Outcome {
    let mut out = Outcome::new();
    let plates = &util::self_test(generate, args.seed, &mut out)[..];
    let scenarios: Vec<PlateScenario> = plates.iter().map(Plate::scenario).collect();

    // Set-up: build the scenarios and warm the code paths with one round,
    // several times; the median is reported.
    let setup: Vec<f64> = (0..3)
        .map(|_| {
            util::time_setup(|| {
                let s: Vec<PlateScenario> = plates.iter().map(Plate::scenario).collect();
                std::hint::black_box(run_round(&s, &mut Samples::default()));
            })
            .0
        })
        .collect();
    if args.trace {
        traced(args, plates, &scenarios, &mut out);
    } else {
        untraced(args, plates, &scenarios, name, &setup, &mut out);
    }
    out
}

/// Run every plate once through the public path; `None` marks a plate
/// the verifier rejected.
fn run_round(scenarios: &[PlateScenario], samples: &mut Samples) -> Vec<Option<ScenarioReport>> {
    scenarios
        .iter()
        .map(|s| samples.time(|| s.try_run().ok()))
        .collect()
}

/// Output checks shared by both modes: each plate the verifier let
/// through converged, and its iterations and residual bits equal the
/// native-plane `plate_cg`. Returns the native solutions for the replica
/// guard.
fn check_native(
    plates: &[Plate],
    first: &[Option<ScenarioReport>],
    out: &mut Outcome,
) -> Vec<Vec<f64>> {
    let pool = Arc::new(Pool::new(util::nproc()));
    plates
        .iter()
        .zip(first)
        .map(|(p, r)| {
            let (iters, res, x) = native_cg(&pool, p);
            if let Some(r) = r {
                let ok = r.converged
                    && r.iterations == iters
                    && r.residual.to_bits() == res.to_bits();
                out.check(ok, || {
                    format!(
                        "plate {}x{} on {}: converged={} iterations {} vs native {}, residual {:e} vs {:e}",
                        p.nx, p.ny, p.topology(), r.converged, r.iterations, iters, r.residual, res
                    )
                });
            }
            x
        })
        .collect()
}

fn untraced(
    args: &Args,
    plates: &[Plate],
    scenarios: &[PlateScenario],
    name: &str,
    setup: &[f64],
    out: &mut Outcome,
) {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut samples = Samples::default();
    let first = run_round(scenarios, &mut samples);
    let first_sum: Vec<Option<String>> = first.iter().map(|r| r.as_ref().map(summary)).collect();
    let mut events = first.iter().flatten().map(|r| r.engine_events).sum::<u64>();
    let mut rounds = 1;
    while start.elapsed() < budget {
        let again = run_round(scenarios, &mut samples);
        rounds += 1;
        // Outside the timed region: every repeat must simulate the same
        // statistics bit for bit.
        for (r, f) in again.iter().zip(&first_sum) {
            out.check(r.as_ref().map(summary) == *f, || {
                "a repeated plate changed its statistics".into()
            });
            events += r.as_ref().map_or(0, |r| r.engine_events);
        }
    }
    let rss_mb = util::peak_rss_mb();
    for (r, p) in first.iter().zip(plates) {
        out.check(r.is_some(), || {
            format!("plate {}x{} rejected by verify", p.nx, p.ny)
        });
    }
    check_native(plates, &first, out);

    let mut digest = Digest::new();
    for s in first_sum.iter().flatten() {
        digest.write(s.as_bytes());
        digest.write(b"\n");
    }
    println!(
        "# digest {name} {} over {} scenarios x {rounds} rounds",
        digest.hex(),
        first_sum.len(),
    );
    let host_s: f64 = samples.lat_ms.iter().sum::<f64>() / 1e3;
    println!("# sim_events_per_s {} (unscaled)", events as f64 / host_s);
    // Seven plates a round put p95 inside the largest plate's class; five
    // put p75 inside the second largest.
    let tail_p = if plates.len() == 7 { 95.0 } else { 75.0 };
    util::latency_metrics(&samples, tail_p, setup, rss_mb, out);
    crate::host_line(args, rounds);
}

/// What the replica reports, read from the `Machine` after each run.
struct Replica {
    iterations: usize,
    residual: f64,
    elapsed: u64,
    events: u64,
    messages: u64,
    packets: u64,
    rerouted: u64,
    words: u64,
    link_records: u64,
    cluster_records: u64,
    max_link_busy: u64,
    x: Vec<f64>,
}

/// `plate_cg`, one span per `NaVm` call.
fn replica_cg(
    vm: &mut NaVm,
    t: &mut Tracer,
    nx: usize,
    ny: usize,
    tol: f64,
    max_iters: usize,
) -> (usize, f64, ArrayId) {
    let n = nx * ny;
    let b = t.span("navm.vector", |_| vm.vector(n));
    t.span("navm.fill", |_| vm.fill(b, |_, _| 1.0));
    let x = t.span("navm.vector", |_| vm.vector(n));
    let r = t.span("navm.vector", |_| vm.vector(n));
    t.span("navm.copy", |_| vm.copy(b, r));
    let p = t.span("navm.vector", |_| vm.vector(n));
    t.span("navm.copy", |_| vm.copy(r, p));
    let ap = t.span("navm.vector", |_| vm.vector(n));
    let mut rr = t.span("navm.inner", |_| vm.inner(r, r));
    let target = tol * rr.sqrt();
    let mut iters = 0;
    let mut res = rr.sqrt();
    while iters < max_iters && res > target && vm.budget_exceeded().is_none() {
        t.span("navm.stencil5", |_| vm.stencil5(p, ap, nx, ny));
        let pap = t.span("navm.inner", |_| vm.inner(p, ap));
        if pap <= 0.0 {
            break;
        }
        let alpha = rr / pap;
        t.span("navm.axpy", |_| vm.axpy(alpha, p, x));
        t.span("navm.axpy", |_| vm.axpy(-alpha, ap, r));
        let rr_new = t.span("navm.inner", |_| vm.inner(r, r));
        res = rr_new.sqrt();
        let beta = rr_new / rr;
        rr = rr_new;
        t.span("navm.xpby", |_| vm.xpby(r, beta, p));
        iters += 1;
    }
    (iters, res, x)
}

/// `PlateScenario::try_run` rebuilt from public calls, with spans.
fn replica(s: &PlateScenario, t: &mut Tracer) -> Option<Replica> {
    t.span("plate.run", |t| {
        let report = t.span("verify.check", |_| s.verify());
        if report.blocks(s.allow_warnings) {
            return None;
        }
        let mut vm = t.span("navm.setup", |_| {
            let mut vm = NaVm::simulated(s.machine.clone(), s.tasks);
            vm.set_trace(s.trace.clone());
            vm.set_budget(RunBudget::unlimited());
            vm.phase("assembly");
            vm
        });
        let elements = (s.nx - 1).max(1) * (s.ny - 1).max(1);
        let pardo = |vm: &mut NaVm, profile: fem2_navm::WorkProfile| {
            let stmts: Vec<_> = vm
                .tasks()
                .iter()
                .map(|task| {
                    let share = vm.tasks().share(elements, task).len() as u64;
                    (task, profile.scaled(share))
                })
                .collect();
            vm.pardo(&stmts);
        };
        t.span("navm.pardo", |_| {
            pardo(&mut vm, ASSEMBLY_PROFILE_PER_ELEMENT)
        });
        t.span("navm.setup", |_| vm.phase("solve"));
        let (iterations, residual, x) = replica_cg(&mut vm, t, s.nx, s.ny, s.tol, s.max_iters);
        t.span("navm.setup", |_| vm.phase("stress"));
        t.span("navm.pardo", |_| pardo(&mut vm, STRESS_PROFILE_PER_ELEMENT));
        t.span("navm.teardown", |_| {
            let elapsed = vm.elapsed();
            let m = vm.machine().expect("simulated plane");
            let out = Replica {
                iterations,
                residual,
                elapsed,
                events: m.events,
                messages: m.network.messages,
                packets: m.network.packets,
                rerouted: m.network.rerouted_packets,
                words: m.network.total_words_moved(),
                link_records: m.network.allocated_link_records() as u64,
                cluster_records: m.allocated_cluster_records() as u64,
                max_link_busy: m.network.max_link_busy(),
                x: vm.snapshot(x),
            };
            drop(vm);
            Some(out)
        })
    })
}

const NAVM_OPS: [&str; 9] = [
    "setup", "pardo", "vector", "fill", "copy", "inner", "axpy", "xpby", "stencil5",
];

/// The traced run: rounds of the replica alternate with rounds of the
/// untraced public path for `--seconds`; per-layer times are per round.
fn traced(args: &Args, plates: &[Plate], scenarios: &[PlateScenario], out: &mut Outcome) {
    // The untraced public path over the same plates: the reference the
    // replica must match, and the wall its overhead is measured against.
    let mut samples = Samples::default();
    let public = run_round(scenarios, &mut samples);
    let native_x = check_native(plates, &public, out);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut t = Tracer::new(true);
    let mut replica_samples = Samples::default();
    // Counts of one round, read after each replica run; every round
    // repeats them exactly.
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut ns_per_topo: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut rounds = 0u32;
    loop {
        for (i, (p, s)) in plates.iter().zip(scenarios).enumerate() {
            t.run = rounds * plates.len() as u32 + i as u32;
            let navm_before = t.total_ns("navm.");
            let rep = replica_samples.time(|| replica(s, &mut t));
            let navm_ns = t.total_ns("navm.") - navm_before;
            let same = match (&rep, &public[i]) {
                (Some(rep), Some(public)) => {
                    rep.iterations == public.iterations
                        && rep.elapsed == public.elapsed
                        && rep.events == public.engine_events
                        && rep.messages == public.total_messages
                        && rep.words == public.total_words_moved
                        && rep.residual.to_bits() == public.residual.to_bits()
                        && rep.x.len() == native_x[i].len()
                        && rep
                            .x
                            .iter()
                            .zip(&native_x[i])
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                }
                _ => false,
            };
            out.check(same, || {
                format!(
                    "replica identity: plate {}x{} on {} differs from the public path",
                    p.nx,
                    p.ny,
                    p.topology()
                )
            });
            let Some(rep) = rep else { continue };
            let e = ns_per_topo.entry(p.topology()).or_default();
            e.0 += navm_ns;
            e.1 += rep.events;
            if rounds == 0 {
                for (name, v) in [
                    ("machine.events", rep.events),
                    ("machine.sim_cycles", rep.elapsed),
                    ("machine.messages", rep.messages),
                    ("machine.packets", rep.packets),
                    ("machine.rerouted_packets", rep.rerouted),
                    ("machine.words_moved", rep.words),
                    ("machine.alloc_links", rep.link_records),
                    ("machine.alloc_clusters", rep.cluster_records),
                    ("navm.cg_iterations", rep.iterations as u64),
                ] {
                    *counts.entry(name).or_default() += v as f64;
                }
                let busy = counts.entry("machine.max_link_busy").or_default();
                *busy = busy.max(rep.max_link_busy as f64);
            }
        }
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
        run_round(scenarios, &mut samples);
    }
    for (name, v) in counts {
        out.metrics.put(name, v);
    }
    let per_round = f64::from(rounds);
    let agg = t.aggregate();
    let ms = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e6 / per_round)
    };
    for op in NAVM_OPS {
        let key = format!("navm.{op}");
        out.metrics.put(&format!("{key}_ms"), ms(&key));
        let calls = agg.get(key.as_str()).map_or(0, |a| a.calls);
        out.metrics
            .put(&format!("{key}_calls"), calls as f64 / per_round);
    }
    out.metrics.put("navm.teardown_ms", ms("navm.teardown"));
    out.metrics.put("verify.check_ms", ms("verify.check"));
    for topo in ["crossbar", "torus", "fattree"] {
        let v = ns_per_topo
            .get(topo)
            .map_or(0.0, |(ns, ev)| *ns as f64 / (*ev).max(1) as f64);
        out.metrics.put(&format!("machine.{topo}.ns_per_event"), v);
    }
    let events = out.metrics.0.get("machine.events").copied().unwrap_or(0.0);
    let public_s = samples.lat_ms.iter().sum::<f64>() / 1e3;
    out.metrics
        .put("sim_events_per_s", events * per_round / public_s);
    println!("# traced {rounds} rounds; per-layer times are per round");
    crate::finish_trace(
        args,
        &t,
        "plate.run",
        out,
        replica_samples.normalized().iter().sum(),
        samples.normalized().iter().sum(),
    );
}
