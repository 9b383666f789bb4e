//! The `console_solve` workload: seeded `appvm::Session` scripts that
//! define a model, generate a grid, fix an edge, load a node, solve with
//! SKYLINE, CG or PCG, then run STRESSES and STORE.
//!
//! The traced run executes each script line through `Session::exec`
//! except SOLVE, which runs a copy of `StructuralModel::analyze` built
//! from public `fem` calls inside the `appvm.solve` span and installs its
//! analysis in the session's workspace, so STRESSES and STORE see it.

use std::time::{Duration, Instant};

use fem2_appvm::command::{self, Command};
use fem2_appvm::{Database, Session};
use fem2_fem::solver::{self, IterControls, SolveLog};
use fem2_fem::stress::all_stresses;
use fem2_fem::{assemble, Analysis, SolverChoice, StructuralModel};

use crate::trace::Tracer;
use crate::util::{self, Digest, Outcome, Rng, Samples};
use crate::Args;

/// One generated console session.
#[derive(Clone, Debug, PartialEq)]
pub struct Script {
    pub lines: Vec<String>,
}

impl Script {
    fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// One session per grid class, seven classes from 24 to 64 cells a side
/// (an odd count, so the median falls inside a class); the solver rotates
/// over SKYLINE, CG and PCG by class. A steel plate fixed on its left edge
/// takes one load on its right edge. The seed picks the order of the
/// sessions, the load and which of two mirror-image nodes carries it, so
/// seeds differ in their inputs but hardly in the work they ask for.
pub fn generate(seed: u64) -> Vec<Script> {
    let mut rng = Rng::new(seed, 3);
    let solvers = ["SKYLINE", "CG", "PCG"];
    let mut scripts: Vec<Script> = [
        (24usize, 25usize),
        (32, 33),
        (40, 41),
        (48, 49),
        (56, 55),
        (60, 61),
        (64, 63),
    ]
    .iter()
    .enumerate()
    .map(|(k, &(nx, ny))| {
        let j = if rng.range(0, 1) == 0 {
            ny / 4
        } else {
            ny - ny / 4
        };
        let node = j * (nx + 1) + nx;
        let fy = -(rng.range(500, 1500) as f64);
        Script {
            lines: vec![
                format!("DEFINE MODEL s{k}"),
                format!("GENERATE GRID {nx} {ny}"),
                "MATERIAL STEEL".into(),
                "FIX EDGE LEFT".into(),
                "LOADSET tip".into(),
                format!("LOAD NODE {node} 0 {fy}"),
                format!("SOLVE WITH {}", solvers[k % solvers.len()]),
                "STRESSES".into(),
                "STORE".into(),
            ],
        }
    })
    .collect();
    rng.shuffle(&mut scripts);
    scripts
}

/// Run one script through the public console path.
fn public_session(db: &Database, s: &Script) -> Result<Analysis, String> {
    let mut session = Session::new(db.clone());
    session.run_script(&s.text()).map_err(|e| e.to_string())?;
    session
        .workspace
        .last_analysis
        .take()
        .ok_or_else(|| "no analysis after SOLVE".to_string())
}

fn same_analysis(a: &Analysis, b: &Analysis) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.log.iterations == b.log.iterations
        && a.log.residual.to_bits() == b.log.residual.to_bits()
        && a.log.converged == b.log.converged
        && bits(&a.displacements) == bits(&b.displacements)
        && a.stresses.len() == b.stresses.len()
        && a.stresses.iter().zip(&b.stresses).all(|(p, q)| {
            p.sx.to_bits() == q.sx.to_bits()
                && p.sy.to_bits() == q.sy.to_bits()
                && p.txy.to_bits() == q.txy.to_bits()
        })
}

fn analysis_summary(a: &Analysis) -> String {
    let mut d = Digest::new();
    for x in &a.displacements {
        d.write(&x.to_bits().to_le_bytes());
    }
    format!(
        "iters={} res={:016x} conv={} dofs={} u={}",
        a.log.iterations,
        a.log.residual.to_bits(),
        a.log.converged,
        a.displacements.len(),
        d.hex()
    )
}

/// Counts the replica reads off the `fem` calls it makes.
#[derive(Default)]
struct FemCounts {
    cg_iterations: u64,
    nnz: u64,
    /// Bytes a CG solve streams, computed from nnz and vector lengths.
    cg_bytes: u64,
}

/// `StructuralModel::analyze` rebuilt from public `fem` calls, with spans.
fn replica_analyze(
    m: &StructuralModel,
    load_set: usize,
    choice: SolverChoice,
    t: &mut Tracer,
    counts: &mut FemCounts,
) -> Result<Analysis, String> {
    t.span("fem.validate", |_| m.validate())?;
    let ls = m
        .load_sets
        .get(load_set)
        .ok_or_else(|| format!("no load set {load_set}"))?;
    let k = t.span("fem.assemble", |_| assemble(&m.mesh, &m.material));
    let (kr, fr, free) = t.span("fem.submatrix", |_| {
        let f_full = ls.to_vector(m.dof_count());
        let free = m.constraints.free_dofs(m.dof_count());
        let kr = k.submatrix(&free);
        let fr = m.constraints.restrict(&f_full);
        (kr, fr, free)
    });
    drop(free);
    counts.nnz += kr.nnz() as u64;
    let ctl = IterControls {
        rel_tol: 1e-8,
        max_iter: 100_000,
    };
    let (ur, log) = match choice {
        SolverChoice::Skyline => {
            let x = t.span("fem.skyline", |_| solver::skyline::solve(&kr, &fr))?;
            let res = t.span("fem.residual", |_| solver::residual_norm(&kr, &x, &fr));
            let n = kr.order() as u64;
            (
                x,
                SolveLog {
                    iterations: 1,
                    residual: res,
                    converged: true,
                    flops: n * n,
                },
            )
        }
        SolverChoice::Cg { tol } | SolverChoice::PreconditionedCg { tol } => {
            let pcg = matches!(choice, SolverChoice::PreconditionedCg { .. });
            let ctl = IterControls {
                rel_tol: tol,
                ..ctl
            };
            let name = if pcg { "fem.pcg" } else { "fem.cg" };
            let (x, log) = t.span(name, |_| solver::cg::solve(&kr, &fr, ctl, pcg));
            let n = kr.order() as u64;
            // Per iteration: the matrix (value and column index per
            // nonzero, one row pointer per row), the gathered operand, and
            // about ten streamed vectors (two dots, two updates, a norm,
            // the search-direction update, plus the diagonal for PCG).
            let per_iter = 16 * kr.nnz() as u64
                + 8 * kr.nnz() as u64
                + 8 * n
                + 8 * n * if pcg { 13 } else { 10 };
            counts.cg_iterations += log.iterations as u64;
            counts.cg_bytes += per_iter * log.iterations as u64;
            (x, log)
        }
        other => return Err(format!("the console workload does not generate {other:?}")),
    };
    if !log.converged {
        return Err(format!(
            "solver did not converge: {} iterations, residual {:.3e}",
            log.iterations, log.residual
        ));
    }
    t.span("fem.stress", |_| {
        let u = m.constraints.expand(&ur, m.dof_count());
        let stresses = all_stresses(&m.mesh, &m.material, &u);
        Ok(Analysis {
            displacements: u,
            stresses,
            log,
        })
    })
}

/// The span a console line is recorded under.
fn line_span(line: &str) -> &'static str {
    match line.split_whitespace().next().unwrap_or("") {
        "DEFINE" => "appvm.define",
        "GENERATE" => "appvm.generate",
        "STRESSES" => "appvm.stresses",
        "STORE" => "appvm.store",
        _ => "appvm.edit",
    }
}

/// One session through the console, with SOLVE replaced by the replica.
fn replica_session(
    db: &Database,
    s: &Script,
    t: &mut Tracer,
    counts: &mut FemCounts,
) -> Result<Analysis, String> {
    t.span("console.session", |t| {
        let mut session = t.span("appvm.define", |_| Session::new(db.clone()));
        for line in &s.lines {
            let parsed = command::parse(line).map_err(|e| e.0)?;
            if let Some(Command::Solve { solver, .. }) = parsed {
                t.span("appvm.solve", |t| {
                    let idx = session
                        .workspace
                        .current_load_set
                        .ok_or("no load set selected")?;
                    let m = session.workspace.model()?;
                    let a = replica_analyze(m, idx, solver, t, counts)?;
                    session.workspace.last_analysis = Some(a);
                    Ok::<(), String>(())
                })?;
            } else {
                t.span(line_span(line), |_| session.exec(line))
                    .map_err(|e| e.to_string())?;
            }
        }
        session
            .workspace
            .last_analysis
            .take()
            .ok_or_else(|| "no analysis after SOLVE".to_string())
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let scripts = util::self_test(generate, args.seed, &mut out);
    // Set-up: open the shared model database and warm the code paths with
    // one round, several times; the median is reported.
    let mut db = Database::in_memory();
    let setup: Vec<f64> = (0..3)
        .map(|_| {
            util::time_setup(|| {
                db = Database::in_memory();
                for s in &scripts {
                    std::hint::black_box(public_session(&db, s).is_ok());
                }
            })
            .0
        })
        .collect();

    // The public path once: the reference for repeats and the replica.
    let mut samples = Samples::default();
    let round = |samples: &mut Samples| -> Vec<Result<Analysis, String>> {
        scripts
            .iter()
            .map(|s| samples.time(|| public_session(&db, s)))
            .collect()
    };
    let first = round(&mut samples);

    // Fem replica check, outside the timed region: every solve reached
    // tolerance and the replica of `analyze` matches it bit for bit. The
    // traced run repeats replica rounds, alternating with public rounds,
    // for `--seconds`; per-layer times are per round.
    let mut t = Tracer::new(args.trace);
    let mut counts = FemCounts::default();
    let replica_db = Database::in_memory();
    let mut replica_samples = Samples::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        for (i, (s, r)) in scripts.iter().zip(&first).enumerate() {
            t.run = rounds * scripts.len() as u32 + i as u32;
            let rep = replica_samples.time(|| replica_session(&replica_db, s, &mut t, &mut counts));
            let ok = match (r, &rep) {
                (Ok(a), Ok(b)) => a.log.converged && same_analysis(a, b),
                _ => false,
            };
            out.check(ok, || {
                format!(
                    "session {i} ({}): public {:?} vs replica {:?}",
                    s.lines[1],
                    r.as_ref().map(analysis_summary),
                    rep.as_ref().map(analysis_summary)
                )
            });
        }
        rounds += 1;
        if !args.trace || start.elapsed() >= budget {
            break;
        }
        round(&mut samples);
    }

    if args.trace {
        let per_round = f64::from(rounds);
        let agg = t.aggregate();
        let ms = |name: &str| {
            agg.get(name)
                .map_or(0.0, |a| a.total_ns as f64 / 1e6 / per_round)
        };
        for name in [
            "fem.assemble",
            "fem.submatrix",
            "fem.skyline",
            "fem.cg",
            "fem.pcg",
            "fem.residual",
            "fem.stress",
            "appvm.generate",
            "appvm.solve",
            "appvm.stresses",
            "appvm.store",
        ] {
            out.metrics.put(&format!("{name}_ms"), ms(name));
        }
        out.metrics.put(
            "appvm.solve_self_ms",
            agg.get("appvm.solve")
                .map_or(0.0, |a| a.self_ns as f64 / 1e6 / per_round),
        );
        out.metrics
            .put("fem.cg_iterations", counts.cg_iterations as f64 / per_round);
        out.metrics.put("fem.nnz", counts.nnz as f64 / per_round);
        out.metrics
            .put("fem.cg_bytes", counts.cg_bytes as f64 / per_round);
        println!("# traced {rounds} rounds; per-layer times are per round");
        crate::finish_trace(
            args,
            &t,
            "console.session",
            &mut out,
            replica_samples.normalized().iter().sum(),
            samples.normalized().iter().sum(),
        );
        return out;
    }

    let start = Instant::now();
    let first_sum: Vec<Option<String>> = first
        .iter()
        .map(|r| r.as_ref().ok().map(analysis_summary))
        .collect();
    let mut rounds = 1u64;
    while start.elapsed() < budget {
        let again = round(&mut samples);
        rounds += 1;
        for (r, f) in again.iter().zip(&first_sum) {
            let same = r.as_ref().ok().map(analysis_summary) == *f;
            out.check(same, || "a repeated session changed its result".into());
        }
    }
    let rss_mb = util::peak_rss_mb();
    let mut digest = Digest::new();
    for s in first_sum.iter().flatten() {
        digest.write(s.as_bytes());
        digest.write(b"\n");
    }
    println!(
        "# digest console_solve {} over {} sessions x {rounds} rounds",
        digest.hex(),
        scripts.len(),
    );
    util::latency_metrics(&samples, 90.0, &setup, rss_mb, &mut out);
    crate::host_line(args, rounds);
    out
}
