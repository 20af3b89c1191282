//! One benchmark for the whole stack. See `README.md` for what it
//! measures and why; `../BENCHMARK.json` declares it to the driver.
//!
//! ```text
//! xorbas_benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--smoke]
//! xorbas_benchmark --summarize DIR        medians and quartiles of the runs in DIR
//! xorbas_benchmark --compare A.json B.json   exit 1 if an end-to-end metric differs
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of an untraced run, the per-layer metrics of a traced one.

#![forbid(unsafe_code)]

mod cluster;
mod codec;
mod gen;
mod hostspeed;
mod json;
mod layers;
mod report;
mod schema;
mod stats;
mod trace;
mod workloads;

use json::Value;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Ctx, Outcome, Sizes};

const USAGE: &str =
    "usage: xorbas_benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--smoke]
       xorbas_benchmark --summarize DIR
       xorbas_benchmark --compare A.json B.json";

/// The VLDB 2013 proceedings date, as everywhere else in this repository.
const DEFAULT_SEED: u64 = 20130826;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Mode {
    Run(Args),
    Summarize(String),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if schema::workload(&name).is_none() {
                    let known: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds_given = true;
            }
            // The driver passes `--trace 0` or `--trace 1`; by hand a
            // bare `--trace` turns tracing on.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--summarize" => return Ok(Mode::Summarize(value("--summarize")?)),
            "--compare" => {
                let a = value("--compare")?;
                return Ok(Mode::Compare(a, value("--compare")?));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.6;
    }
    Ok(Mode::Run(args))
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::new(args.smoke),
        trace: args.trace,
        tracer: trace::Tracer::new(false),
        speed: hostspeed::HostSpeed::new(),
    };
    let mut out = match name {
        "put_stream" => workloads::put_stream::run(&mut ctx),
        "read_mix" => workloads::read_mix::run(&mut ctx),
        "repair_drain" => workloads::repair_drain::run(&mut ctx),
        "codec_stream" => workloads::codec_stream::run(&mut ctx),
        "sim_warehouse" => workloads::sim::run_warehouse(&mut ctx),
        "sim_serving" => workloads::sim::run_serving(&mut ctx),
        other => Err(format!("unknown workload {other}")),
    }?;
    ctx.speed.sample();
    let factor = ctx.speed.factor();
    out.e2e = out.e2e.at_nominal_speed(factor);
    out.layer("host.speed_factor", factor);
    out.notes.push(format!(
        "host at {factor:.3} of its nominal speed; end-to-end times are scaled to nominal, per-layer metrics are as measured"
    ));
    if args.trace {
        layers::run(name, &mut ctx, &mut out)?;
        out.layer("trace.spans", ctx.tracer.spans().len() as f64);
        let dir = cluster::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, ctx.tracer.to_json(name))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.notes.push(format!(
            "{} spans written to {}; self time by span name:",
            ctx.tracer.spans().len(),
            path.display()
        ));
        for (span, secs, count) in ctx.tracer.self_time_by_name() {
            out.notes
                .push(format!("  {span:<36} {secs:>10.4} s self in {count} spans"));
        }
    }
    Ok(out)
}

/// The metrics of the result line: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one (0 where this
/// workload gave the layer nothing to do).
fn metrics_of(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        schema::PER_LAYER
            .iter()
            .map(|m| {
                let value = out
                    .layers
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        schema::END_TO_END
            .iter()
            .zip(out.e2e.values())
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    }
}

fn result_value(out: &Outcome, trace: bool) -> Value {
    let metrics = metrics_of(out, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            let row = json::object(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.to_owned())),
            ]);
            (name.to_owned(), row)
        })
        .collect();
    json::object(vec![
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn print_report(name: &str, args: &Args, out: &Outcome) {
    println!(
        "== {name}  seed {}  {} s measured  trace {}{}",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        if args.smoke {
            "  SMOKE (numbers mean nothing)"
        } else {
            ""
        }
    );
    if let Some(w) = schema::workload(name) {
        println!("   why: {}", w.why);
    }
    for note in &out.notes {
        println!("   {note}");
    }
    println!(
        "   operations attempted {}  failed {}",
        out.attempted, out.failed
    );
    let values = metrics_of(out, args.trace);
    if args.trace {
        for (m, (_, value, unit)) in schema::PER_LAYER.iter().zip(values) {
            // Skip the layers this workload leaves idle (reported as 0).
            if out.layers.iter().any(|(n, _)| *n == m.name) {
                // A few rows (the tracer's, the host's speed) are declared
                // once and reported by every workload.
                let declared = if m.on == name {
                    String::new()
                } else {
                    format!(" (declared for {})", m.on)
                };
                println!(
                    "   {:<44} {value:>16.6} {unit:<7} {} is better; should move {}{declared}",
                    m.name,
                    m.better.as_str(),
                    m.moves
                );
            }
        }
    } else {
        for (m, (_, value, unit)) in schema::END_TO_END.iter().zip(values) {
            println!(
                "   {:<44} {value:>16.6} {unit:<7} {} is better; may worsen by {}%",
                m.name,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => schema::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in names {
        let out = run_workload(name, args)?;
        print_report(name, args, &out);
        all_correct &= out.failed == 0;
        results.push((name.to_owned(), result_value(&out, args.trace)));
    }
    // One workload: the contract's result object. All of them: one
    // document keyed by workload.
    match results.as_slice() {
        [(_, only)] if args.workload.is_some() => println!("{only}"),
        _ => println!("{}", json::object(vec![("workloads", Value::Obj(results))])),
    }
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|mode| match mode {
        Mode::Run(args) => run(&args),
        Mode::Summarize(dir) => report::summarize(Path::new(&dir)).map(|doc| {
            println!("{doc}");
            true
        }),
        Mode::Compare(a, b) => {
            let (lines, same) = report::compare(&read_json(&a)?, &read_json(&b)?)?;
            for line in lines {
                println!("{line}");
            }
            Ok(same)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xorbas_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
