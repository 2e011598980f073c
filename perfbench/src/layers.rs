//! Per-layer metrics of a traced run.
//!
//! Three sources: the spans recorded around each layer call in the
//! traced phases, the program's own counters, and short loops over a
//! layer's public hot functions run between phases (outside every timed
//! pass) on the run's own route, deployments, journal and world.

use std::hint::black_box;
use std::time::{Duration, Instant};

use wheels_apps::gaming::GamingRun;
use wheels_apps::link::{ConstantLink, LinkState};
use wheels_apps::video::VideoRun;
use wheels_core::analysis::view::DatasetView;
use wheels_core::checkpoint;
use wheels_core::column::wcd;
use wheels_core::records::Dataset;
use wheels_experiments::{registry, run_by_id};
use wheels_radio::channel::LinkChannel;
use wheels_radio::linkbudget::BeamProfile;
use wheels_radio::tech::Technology;
use wheels_ran::operator::Operator;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{PollCtx, RanSession};
use wheels_serve::protocol::parse_request;
use wheels_serve::query;
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime};
use wheels_sim_core::units::{DataRate, Distance, Speed};
use wheels_transport::tcp::CubicFlow;

use crate::checks::{ensure, step, Outcome};
use crate::loadgen::{us, Reply, Sample};
use crate::mix::Kind;
use crate::pipeline::{
    p50_us, windowed_p99_us, Batch, Compute, Durable, Live, Metrics, Run, LATENCY_LIMIT_US,
};
use crate::stats::{median, quantile};
use crate::trace::{self, Span};

/// Spans whose self time is reported as `self.<name>_s`.
pub const SELF_SPANS: [&str; 16] = [
    "batch",
    "campaign.run",
    "view.build",
    "world.assemble",
    "experiments.report",
    "wcd.encode",
    "campaign.journalled",
    "checkpoint.tear",
    "campaign.resume",
    "serve.first_answer",
    "serve.catchup",
    "serve.table1",
    "live",
    "checkpoint.append",
    "serve.ingest_wait",
    "steady",
];

/// Mean cost of one call in ns over `n` calls of `f`.
fn per_call_ns(n: u32, mut f: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layers that need the batch pass's output: the simulator's hot
/// functions, the experiments one by one, WCD1 decoding.
pub fn after_batch(run: &Run, b: &Batch) -> Outcome<Metrics> {
    let mut l = Metrics::default();
    let campaign = run.campaign;
    let route = &campaign.route;
    let end_km = route.total().as_km();
    let rng = SimRng::seed(run.cfg.seed).split("perfbench/layers");

    // A backlogged-downlink session of each operator, driven along the
    // route at highway speed, polled every 100 ms of simulated time.
    let mut sessions: Vec<RanSession> = Operator::ALL
        .iter()
        .map(|&op| {
            RanSession::new(
                campaign.deployment(op),
                TrafficDemand::BackloggedDownlink,
                rng.split(op.label()),
            )
        })
        .collect();
    let mut t = SimTime::from_hours(30);
    let mut odo_m = 1_000.0f64;
    let poll_ns = per_call_ns(150_000, |i| {
        let s = &mut sessions[i as usize % 3];
        if i % 3 == 0 {
            t += SimDuration::from_millis(100);
            odo_m = (odo_m + 3.0) % (end_km * 1e3);
        }
        let odo = Distance::from_m(odo_m);
        black_box(s.poll(
            t,
            PollCtx {
                odo,
                speed: Speed::from_mph(65.0),
                zone: route.zone_at(odo),
                tz: route.timezone_at(odo),
            },
        ));
    });
    l.put("ran.session_poll_ns", poll_ns, "ns");

    let mut r = rng.split("radio");
    let mut ch = LinkChannel::new(Technology::Nr5gMid, BeamProfile::neutral(), &mut r);
    let dist: Vec<Distance> = (0..1024)
        .map(|_| Distance::from_m(r.uniform(50.0, 3_000.0)))
        .collect();
    let ns = per_call_ns(1_000_000, |i| {
        black_box(ch.sample(
            &mut r,
            black_box(dist[i as usize % dist.len()]),
            Distance::from_m(15.0),
            500,
            Speed::from_mph(65.0),
        ));
    });
    l.put("radio.channel_sample_ns", ns, "ns");

    let mut flow = CubicFlow::new();
    let rates: Vec<DataRate> = (0..1024)
        .map(|_| DataRate::from_mbps(r.uniform(1.0, 400.0)))
        .collect();
    let ns = per_call_ns(2_000_000, |i| {
        black_box(flow.advance(10.0, black_box(rates[i as usize % rates.len()]), 60.0));
    });
    l.put("transport.cubic_advance_ns", ns, "ns");

    let ns = per_call_ns(2_000_000, |i| {
        let km = (f64::from(i) * 37.7) % end_km;
        black_box(route.zone_at(black_box(Distance::from_km(km))));
    });
    l.put("geo.zone_at_ns", ns, "ns");

    let start = SimTime::from_hours(30);
    let ns = per_call_ns(40, |_| {
        black_box(VideoRun::execute(
            &mut ConstantLink(LinkState::best_static()),
            start,
        ));
    });
    l.put("apps.video_execute_us", ns / 1e3, "us");
    let ns = per_call_ns(40, |_| {
        black_box(GamingRun::execute(
            &mut ConstantLink(LinkState::best_static()),
            start,
        ));
    });
    l.put("apps.gaming_execute_us", ns / 1e3, "us");

    l.put(
        "campaign.peak_resident",
        b.merge.peak_resident as f64,
        "count",
    );

    // Sequential, after the report warmed the view's memos.
    for (id, _, _) in registry() {
        let t = Instant::now();
        let text = run_by_id(&b.world, id);
        let took = t.elapsed();
        ensure(
            "experiments.run_by_id",
            text.is_some_and(|s| !s.is_empty()),
            || format!("{id} gave no text"),
        )?;
        l.put(format!("experiments.{id}_ms"), ms(took), "ms");
    }

    let t = Instant::now();
    let decoded = step("wcd.decode", wcd::decode(&b.image))?;
    l.put("wcd.decode_s", t.elapsed().as_secs_f64(), "s");
    black_box(decoded);
    l.put("wcd.bytes", b.image.len() as f64, "bytes");
    Ok(l)
}

/// Layers that need the durable pass's journal and counters.
pub fn after_durable(run: &Run, d: &Durable) -> Outcome<Metrics> {
    let mut l = Metrics::default();
    let m = &d.metrics;
    l.put(
        "campaign.tests_completed",
        m.tests_completed.get() as f64,
        "count",
    );
    l.put(
        "campaign.tests_retried",
        m.tests_retried.get() as f64,
        "count",
    );
    l.put("campaign.tests_lost", m.tests_lost.get() as f64, "count");
    l.put(
        "campaign.samples_planned",
        m.samples_planned.get() as f64,
        "count",
    );
    l.put(
        "campaign.samples_recorded",
        m.samples_recorded.get() as f64,
        "count",
    );
    l.put(
        "campaign.samples_lost",
        m.samples_lost.get() as f64,
        "count",
    );
    let planned = m.samples_planned.get().max(1) as f64;
    l.put(
        "campaign.salvage_ratio",
        m.samples_recorded.get() as f64 / planned,
        "frac",
    );
    l.put(
        "checkpoint.journal_bytes",
        m.journal.bytes_appended.get() as f64,
        "bytes",
    );
    l.put(
        "checkpoint.frames",
        m.journal.frames_appended.get() as f64,
        "count",
    );
    l.put(
        "checkpoint.torn_bytes_truncated",
        d.torn_bytes as f64,
        "bytes",
    );

    let mut frames = 0usize;
    let t = Instant::now();
    step(
        "checkpoint.decode",
        checkpoint::tail(&d.dir, &run.fp, |_, rec| {
            frames += 1;
            black_box(rec);
            Ok(())
        }),
    )?;
    l.put("checkpoint.decode_s", t.elapsed().as_secs_f64(), "s");
    ensure("checkpoint.decode_frames", frames == run.fp.jobs, || {
        format!("decoded {frames} frames of {}", run.fp.jobs)
    })?;

    // Each ingest as the tail sink delivers it, then the first and a
    // repeated throughput CDF over the grown view.
    let mut view = DatasetView::new(Dataset::default());
    let (mut ingest, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    step(
        "view.ingest",
        checkpoint::tail(&d.dir, &run.fp, |_, rec| {
            let t = Instant::now();
            view.ingest_shard(rec);
            ingest.push(ms(t.elapsed()));
            let t = Instant::now();
            black_box(view.tput_cdf(None, None, None).len());
            cold.push(us(t.elapsed()));
            let t = Instant::now();
            black_box(view.tput_cdf(None, None, None).len());
            warm.push(us(t.elapsed()));
            Ok(())
        }),
    )?;
    l.put(
        "view.ingest_ms.p50",
        quantile(&mut ingest, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    l.put(
        "view.ingest_ms.max",
        quantile(&mut ingest, 1.0).unwrap_or(f64::NAN),
        "ms",
    );
    l.put("view.cdf_cold_us", median(&cold).unwrap_or(f64::NAN), "us");
    l.put("view.cdf_warm_us", median(&warm).unwrap_or(f64::NAN), "us");
    Ok(l)
}

/// Span-derived, serve and generator metrics, after the live phases.
pub fn after_run(c: &Compute, live: &Live, spans: &[Span], overhead: f64) -> Outcome<Metrics> {
    let mut l = Metrics::default();
    let secs = |name: &str| trace::total(spans, name).as_secs_f64();
    l.put("campaign.run_s", secs("campaign.run"), "s");
    l.put("view.build_s", secs("view.build"), "s");
    l.put("experiments.report_s", secs("experiments.report"), "s");
    l.put("wcd.encode_s", secs("wcd.encode"), "s");
    l.put("serve.catchup_s", c.durable.times.catchup_s, "s");
    let mut lags: Vec<f64> = live.lags.iter().copied().map(ms).collect();
    l.put(
        "serve.ingest_lag_p50_ms",
        quantile(&mut lags, 0.5).unwrap_or(f64::NAN),
        "ms",
    );

    let mut appends: Vec<f64> = live.appends.iter().copied().map(ms).collect();
    l.put(
        "checkpoint.append_ms.p50",
        quantile(&mut appends, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    l.put(
        "checkpoint.append_ms.max",
        quantile(&mut appends, 1.0).unwrap_or(f64::NAN),
        "ms",
    );

    // Parse and respond costs of each distinct request, on the offline
    // world over the same journal the server followed.
    let world = &c.durable.reference;
    let mix = &live.mix;
    const REPS: u32 = 200;
    let parse_ns = per_call_ns(REPS * mix.lines.len() as u32, |i| {
        black_box(
            parse_request(black_box(
                mix.lines[i as usize % mix.lines.len()].trim_end(),
            ))
            .ok(),
        );
    });
    l.put("serve.parse_us", parse_ns / 1e3, "us");
    let respond_us: Vec<f64> = mix
        .requests
        .iter()
        .map(|req| per_call_ns(REPS, |_| drop(black_box(query::respond(world, req)))) / 1e3)
        .collect();
    for kind in Kind::ALL {
        let per: Vec<f64> = (0..respond_us.len())
            .filter(|&i| mix.kinds[i] == kind)
            .map(|i| respond_us[i])
            .collect();
        l.put(
            format!("serve.respond_us.{}", kind.label()),
            median(&per).unwrap_or(f64::NAN),
            "us",
        );
    }
    // Round trip minus respond: socket, queue and lock wait.
    let mut wait: Vec<f64> = live
        .samples_live
        .iter()
        .filter(|s| s.reply == Reply::Ok)
        .map(|s| (us(s.done - s.sent) - respond_us[usize::from(s.req)]).max(0.0))
        .collect();
    l.put(
        "serve.wait_us.p50",
        quantile(&mut wait, 0.5).unwrap_or(f64::NAN),
        "us",
    );
    l.put(
        "serve.wait_us.p99",
        quantile(&mut wait, 0.99).unwrap_or(f64::NAN),
        "us",
    );

    let all: Vec<&Sample> = live
        .samples_live
        .iter()
        .chain(&live.samples_steady)
        .collect();
    let count = |f: &dyn Fn(Reply) -> bool| all.iter().filter(|s| f(s.reply)).count() as f64;
    let sent = all.len() as f64;
    l.put("serve.busy", count(&|r| r == Reply::Busy), "count");
    l.put(
        "serve.errors",
        count(&|r| matches!(r, Reply::Error | Reply::Malformed | Reply::Broken)),
        "count",
    );
    l.put("serve.timeouts", count(&|r| r == Reply::Timeout), "count");
    l.put(
        "serve.query_fail_frac",
        count(&|r| r != Reply::Ok) / sent.max(1.0),
        "frac",
    );
    // Per-layer, not end-to-end: on a shared 2-vCPU host, query latency
    // follows how fast the host wakes an idle vCPU more than anything the
    // program does, and swings far beyond any bound from run to run.
    l.put("serve.live_p50_us", p50_us(&live.samples_live), "us");
    l.put("serve.steady_p50_us", p50_us(&live.samples_steady), "us");
    l.put(
        "serve.live_p99_us",
        windowed_p99_us(&live.samples_live),
        "us",
    );
    l.put(
        "serve.steady_p99_us",
        windowed_p99_us(&live.samples_steady),
        "us",
    );
    let over = all
        .iter()
        .filter(|s| s.latency_us() > LATENCY_LIMIT_US)
        .count() as f64;
    l.put("serve.limit_miss_frac", over / sent.max(1.0), "frac");
    let mut late: Vec<f64> = all.iter().map(|s| s.late_us()).collect();
    l.put(
        "loadgen.late_p99_us",
        quantile(&mut late, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    l.put("loadgen.sent", sent, "count");
    l.put("loadgen.answered", count(&Reply::answered), "count");

    let self_times = trace::self_times(spans);
    for name in SELF_SPANS {
        let s = self_times.get(name).copied().unwrap_or_default();
        l.put(format!("self.{name}_s"), s.as_secs_f64(), "s");
    }
    l.put("trace.overhead_frac", overhead, "frac");
    Ok(l)
}
