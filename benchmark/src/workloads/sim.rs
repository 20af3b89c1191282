//! `sim_warehouse` and `sim_serving`: the researcher's view — host
//! seconds per simulated day, with the simulated results unchanged.
//!
//! `sim_warehouse` runs the 3000-node warehouse scenario for RS(10,4)
//! (the primary operation) and LRC(10,6,5) (the second). Why it exists:
//! it is the repair and flow-settlement path of `sim::{engine, network,
//! hdfs}`, where event cost grows with the backlog of lost blocks.
//!
//! `sim_serving` runs the 60-node serving scenario — a week of Zipf
//! client reads over frequent transient failures — for LRC (primary)
//! and RS (second). Why it exists: the same engine used differently:
//! the per-read hot path, `sim::workload` and percentile bookkeeping do
//! the work while the repair path is nearly idle, so a gain on one of
//! the two workloads should leave the other where it was.
//!
//! Scenario seeds are fixed: the runs must reproduce pinned event and
//! repair counts, and every run of a scenario must equal the first one
//! field by field. Set-up is a short warm-up run of the same scenario;
//! loading the namespace is part of every timed run, because a user of
//! the simulator pays it on every run.

use super::{Ctx, EndToEnd, Outcome, Samples, Tally};
use crate::trace::NO_PARENT;
use std::time::Instant;
use xorbas_core::CodeSpec;
use xorbas_sim::{run_scale_scenario, ScaleScenario, ScenarioRun};

const SCENARIO_SEED: u64 = 2013;
const WAREHOUSE_DAYS: usize = 40;

/// One code's runs of one scenario.
struct Lane {
    scenario: ScaleScenario,
    first: Option<ScenarioRun>,
    wall_ms: Samples,
}

impl Lane {
    fn new(scenario: ScaleScenario) -> Self {
        Self {
            scenario,
            first: None,
            wall_ms: Samples::default(),
        }
    }

    /// One timed run; it must equal the lane's first run.
    fn run(&mut self, ctx: &mut Ctx, name: &'static str, op: u64, traced: bool, tally: &mut Tally) {
        let span = ctx.tracer.begin(name, NO_PARENT, op);
        let t = Instant::now();
        let run = run_scale_scenario(&self.scenario, SCENARIO_SEED);
        self.wall_ms.push(traced, t);
        ctx.tracer.end(span);
        match &self.first {
            None => self.first = Some(run),
            Some(first) => tally.check(same_results(first, &run), || {
                format!("{name}: a rerun under the same seed differs:\n{first:?}\n{run:?}")
            }),
        }
    }

    fn first(&self) -> &ScenarioRun {
        self.first.as_ref().expect("every lane runs at least once")
    }

    fn events_per_s(&self) -> f64 {
        self.first().events_processed as f64 / (self.wall_ms.p50() / 1e3)
    }
}

/// Field-by-field equality minus the wall clock. Compared through
/// `Debug` so a `NaN` field (probes off) equals itself.
fn same_results(a: &ScenarioRun, b: &ScenarioRun) -> bool {
    let strip = |r: &ScenarioRun| {
        let mut r = r.clone();
        r.wall_secs = 0.0;
        format!("{r:?}")
    };
    strip(a) == strip(b)
}

/// Runs cycles of {warm-up, primary run, second run} until `--seconds`
/// of timed runs have passed, and at least twice, so every scenario is
/// checked against a rerun of itself.
fn cycles(
    ctx: &mut Ctx,
    warmup: &ScaleScenario,
    primary: (&'static str, &mut Lane),
    second: (&'static str, &mut Lane),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut setup_s = Vec::new();
    let mut op = 0u64;
    let mut cycle = 0usize;
    let min_cycles = 2 + usize::from(ctx.trace);
    loop {
        let traced = ctx.traced_cycle(cycle);
        ctx.tracer.set_on(traced);
        ctx.speed.sample();
        let t = Instant::now();
        std::hint::black_box(run_scale_scenario(warmup, SCENARIO_SEED));
        setup_s.push(t.elapsed().as_secs_f64());
        ctx.speed.sample();
        op += 1;
        primary.1.run(ctx, primary.0, op, traced, tally);
        op += 1;
        second.1.run(ctx, second.0, op, traced, tally);
        cycle += 1;
        let timed = primary.1.wall_ms.total_s() + second.1.wall_ms.total_s();
        if cycle >= min_cycles && timed >= ctx.seconds {
            return setup_s;
        }
    }
}

fn days_per_s(days: usize, lanes: [&Lane; 2]) -> f64 {
    let runs: usize = lanes.iter().map(|l| l.wall_ms.len()).sum();
    let secs: f64 = lanes.iter().map(|l| l.wall_ms.total_s()).sum();
    (runs * days) as f64 / secs
}

pub fn run_warehouse(ctx: &mut Ctx) -> Result<Outcome, String> {
    let days = ctx.sizes.pick(WAREHOUSE_DAYS, 2);
    let scenario = |code| {
        let mut sc = ScaleScenario::warehouse_year(code);
        sc.days = days;
        sc
    };
    let mut warmup = scenario(CodeSpec::LRC_10_6_5);
    warmup.days = ctx.sizes.pick(8, 1);
    let mut rs = Lane::new(scenario(CodeSpec::RS_10_4));
    let mut lrc = Lane::new(scenario(CodeSpec::LRC_10_6_5));
    let mut tally = Tally::default();
    let setup_s = cycles(
        ctx,
        &warmup,
        ("scenario.warehouse.rs_10_4", &mut rs),
        ("scenario.warehouse.lrc_10_6_5", &mut lrc),
        &mut tally,
    );

    let (r, l) = (rs.first(), lrc.first());
    if !ctx.sizes.smoke {
        for (run, events, repaired) in [(r, PIN_RS.0, PIN_RS.1), (l, PIN_LRC.0, PIN_LRC.1)] {
            tally.check(
                run.events_processed == events && run.blocks_repaired == repaired,
                || {
                    format!(
                        "{}: {} events and {} blocks repaired, pinned {events} and {repaired}",
                        run.scheme, run.events_processed, run.blocks_repaired
                    )
                },
            );
        }
    }
    tally.check(r.data_loss_stripes == 0 && l.data_loss_stripes == 0, || {
        "a warehouse run lost data".into()
    });
    let blocks_read = r.blocks_read_per_lost_block * r.blocks_lost as f64
        + l.blocks_read_per_lost_block * l.blocks_lost as f64;
    let rate = days_per_s(days, [&rs, &lrc]);
    let mut out = Outcome {
        attempted: tally.attempted + (rs.wall_ms.len() + lrc.wall_ms.len()) as u64,
        failed: tally.failed,
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: rs.wall_ms.p50(),
            alt_p50_ms: lrc.wall_ms.p50(),
            work_per_s: rate,
            io_amp: blocks_read / (r.blocks_lost + l.blocks_lost) as f64,
        },
        ..Outcome::default()
    };
    out.layer("sim_days_per_s", rate);
    out.layer("sim.events_per_s.rs_10_4", rs.events_per_s());
    out.layer("sim.events_per_s.lrc_10_6_5", lrc.events_per_s());
    out.layer("sim.events.rs_10_4", r.events_processed as f64);
    out.layer("sim.events.lrc_10_6_5", l.events_processed as f64);
    out.layer(
        "sim.blocks_read_per_lost_block.rs_10_4",
        r.blocks_read_per_lost_block,
    );
    out.layer(
        "sim.blocks_read_per_lost_block.lrc_10_6_5",
        l.blocks_read_per_lost_block,
    );
    out.layer("trace.overhead_share", rs.wall_ms.overhead_share());
    out.notes.push(format!(
        "{days} simulated days, 3000 nodes, {} failures; {} RS and {} LRC runs, all equal field by field",
        r.failures_injected,
        rs.wall_ms.len(),
        lrc.wall_ms.len()
    ));
    Ok(out)
}

/// `(events processed, blocks repaired)` of the 40-day warehouse runs
/// under `SCENARIO_SEED`: the simulated results a faster simulator must
/// not change.
const PIN_RS: (u64, u64) = (790_368, 52_653);
const PIN_LRC: (u64, u64) = (373_325, 52_771);

pub fn run_serving(ctx: &mut Ctx) -> Result<Outcome, String> {
    let scenario = |code| {
        let mut sc = ScaleScenario::serving_mode(code);
        if ctx.sizes.smoke {
            sc.days = 1;
        }
        sc
    };
    let mut warmup = scenario(CodeSpec::LRC_10_6_5);
    warmup.days = ctx.sizes.pick(2, 1);
    let mut lrc = Lane::new(scenario(CodeSpec::LRC_10_6_5));
    let mut rs = Lane::new(scenario(CodeSpec::RS_10_4));
    let days = lrc.scenario.days;
    let mut tally = Tally::default();
    let setup_s = cycles(
        ctx,
        &warmup,
        ("scenario.serving.lrc_10_6_5", &mut lrc),
        ("scenario.serving.rs_10_4", &mut rs),
        &mut tally,
    );

    let serving = |lane: &Lane| {
        lane.first()
            .serving
            .ok_or_else(|| "a serving run reported no serving summary".to_owned())
    };
    let (l, r) = (serving(&lrc)?, serving(&rs)?);
    tally.check(l.failed_reads == 0 && r.failed_reads == 0, || {
        format!(
            "simulated reads failed: LRC {}, RS {}",
            l.failed_reads, r.failed_reads
        )
    });
    tally.check(l.direct_ms.min == l.direct_ms.max, || {
        "the simulator's healthy-path read latency is no longer a constant: report its percentiles".into()
    });
    let read_bytes = lrc.scenario.workload.map_or(0.0, |w| w.read_bytes as f64);
    let fetched =
        |s: &xorbas_sim::ServingSummary| s.direct_bytes + s.degraded_bytes + s.fixer_wait_bytes;
    let returned = |s: &xorbas_sim::ServingSummary| {
        (s.direct_reads + s.degraded_light + s.degraded_heavy + s.fixer_wait_reads) as f64
            * read_bytes
    };
    let rate = days_per_s(days, [&lrc, &rs]);
    let reads = (l.reads_issued * lrc.wall_ms.len() as u64
        + r.reads_issued * rs.wall_ms.len() as u64) as f64;
    let mut out = Outcome {
        attempted: tally.attempted + (rs.wall_ms.len() + lrc.wall_ms.len()) as u64,
        failed: tally.failed,
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: lrc.wall_ms.p50(),
            alt_p50_ms: rs.wall_ms.p50(),
            work_per_s: rate,
            io_amp: (fetched(&l) + fetched(&r)) / (returned(&l) + returned(&r)),
        },
        ..Outcome::default()
    };
    out.layer("sim_days_per_s", rate);
    out.layer(
        "sim.serving_reads_per_s",
        reads / (lrc.wall_ms.total_s() + rs.wall_ms.total_s()),
    );
    out.layer("sim.serving_events_per_s.lrc", lrc.events_per_s());
    out.layer("sim.serving_events_per_s.rs", rs.events_per_s());
    out.layer("sim.serving_degraded_fraction", l.degraded_fraction);
    // The healthy path models no queueing, so its latency is one
    // modelled constant; it is reported as that, never as a "tail".
    out.layer("sim.serving_direct_ms", l.direct_ms.p50);
    out.layer("trace.overhead_share", lrc.wall_ms.overhead_share());
    out.notes.push(format!(
        "{days} simulated days, 60 nodes, {} reads per LRC run; {} LRC and {} RS runs, all equal field by field",
        l.reads_issued,
        lrc.wall_ms.len(),
        rs.wall_ms.len()
    ));
    Ok(out)
}
