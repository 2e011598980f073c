//! The measured pipeline. Every run goes through the same three phases,
//! each driven only through the crates' public APIs:
//!
//! - **batch**, the researcher's path: campaign → `DatasetView` → the
//!   report over every registered experiment → WCD1 image. No journal.
//! - **durable**, the crash-safe path: journalled campaign with faults →
//!   a torn journal → resume → a cold server's first complete answer.
//! - **live**, the operator's path: the durable journal's shards are
//!   appended again at a fixed interval to a journal that a server tails,
//!   while an open-loop generator queries it; then the same load runs
//!   against the idle, caught-up server.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig, CampaignMetrics, MergeStats};
use wheels_core::checkpoint::{self, Fingerprint, Journal};
use wheels_core::column::{wcd, ColumnarDataset};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::{Dataset, ShardRecords};
use wheels_experiments::world::{Scale, World};
use wheels_experiments::{registry, render_report};
use wheels_serve::protocol::Request;
use wheels_serve::query;
use wheels_serve::server::{self, JournalSpec, ServeOptions, ServerHandle};
use wheels_sim_core::rng::SimRng;

use crate::calib::{Calibrator, REFERENCE};
use crate::checks::{self, ensure, step, wait_for, Failure, Outcome};
use crate::layers;
use crate::loadgen::{self, Reply, Sample, Schedule};
use crate::mix::Mix;
use crate::scratch::Scratch;
use crate::stats::{median, quantile};
use crate::trace::{self, SpanId, Tracer, ROOT};

/// Campaign worker threads and server workers: the host has two cores.
pub const THREADS: usize = 2;

/// The p99 latency limit for served queries.
pub const LATENCY_LIMIT_US: f64 = 10_000.0;

/// A run is invalid when the generator's own lateness p90 exceeds this,
/// two inter-arrival times of a connection: the generator then ran
/// behind its schedule, not just through a few host hiccups.
pub const GENERATOR_LATE_LIMIT_US: f64 = 1_000.0;

/// Requests per latency window: ten beyond each window's p99. At the
/// offered rate a window lasts one live append interval.
pub const WINDOW: usize = 1000;

/// Deadline of any single wait for the program.
const STEP_DEADLINE: Duration = Duration::from_secs(60);

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 2] = ["standard", "quick"];

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    pub scale: Scale,
    /// Campaign seed; also seeds the query mix and the tear.
    pub seed: u64,
    /// Set-ups per group. One group runs at the start of a run and one
    /// before each round; the median of all of them is reported.
    pub setup_reps: usize,
    /// Rounds of batch and durable passes per run; medians are reported.
    pub reps: usize,
    /// Time between live journal appends.
    pub live_interval: Duration,
    /// Length of the steady query phase.
    pub steady: Duration,
    /// Offered query load, requests per second.
    pub rate: f64,
    /// Parent of the run's scratch directory.
    pub work_dir: PathBuf,
}

impl Config {
    /// The configuration of a named workload; `seconds` sets the
    /// steady phase.
    pub fn workload(name: &str, seed: u64, seconds: u64, work_dir: PathBuf) -> Option<Config> {
        let (scale, reps) = match name {
            "standard" => (Scale::Standard, 3),
            "quick" => (Scale::Quick, 4),
            _ => return None,
        };
        Some(Config {
            scale,
            seed,
            setup_reps: 5,
            reps,
            live_interval: Duration::from_millis(250),
            steady: Duration::from_secs(seconds),
            rate: 4000.0,
            work_dir,
        })
    }

    fn campaign_config(&self, faults: FaultConfig) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            threads: Some(THREADS),
            merge_window: None,
            faults,
            ..self.scale.config()
        }
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: pipeline steps plus requests sent.
    pub attempted: u64,
    /// Requests without a correct answer.
    pub failed: u64,
    pub end_to_end: Metrics,
    /// Filled by traced runs only.
    pub per_layer: Metrics,
    pub spans: Vec<trace::Span>,
}

/// Run the pipeline once under `cfg`. A traced run first times the
/// batch and durable phases untraced, then runs every phase traced plus
/// the per-layer loops; it reports per-layer metrics only.
pub fn run(cfg: &Config, traced: bool) -> Outcome<Report> {
    let mut scratch = step("scratch.create", Scratch::new(&cfg.work_dir))?;
    let cal = Calibrator::new();
    let (campaign, mut setups) = time_setups(&cal, cfg);
    let mut run = Run {
        cfg,
        campaign: &campaign,
        cal: &cal,
        fp: campaign.fingerprint(&cfg.campaign_config(FaultConfig::demo())),
        scratch: &mut scratch,
        tracer: Tracer::off(),
        layers: Metrics::default(),
    };
    let mut rep = Report::default();

    // A traced run brackets its traced pass with two untraced ones, so
    // that warm-up does not read as tracing overhead.
    let mut untraced = Vec::new();
    if traced {
        let c = run.compute(1)?;
        run.scratch.release(&c.durable.dir);
        rep.attempted += c.steps;
        untraced.push(c.timed_s);
        run.tracer = Tracer::on();
    }
    let c = run.compute(if traced { 1 } else { cfg.reps })?;
    rep.attempted += c.steps;
    setups.extend(&c.setup_s);
    if traced {
        let traced_tracer = std::mem::replace(&mut run.tracer, Tracer::off());
        let again = run.compute(1)?;
        run.scratch.release(&again.durable.dir);
        rep.attempted += again.steps;
        untraced.push(again.timed_s);
        run.tracer = traced_tracer;
    }
    let live = run.live(ROOT, &c.durable)?;
    let samples = || live.samples_live.iter().chain(&live.samples_steady);
    rep.attempted += (live.appends.len() + samples().count()) as u64;
    rep.failed = samples().filter(|s| s.reply != Reply::Ok).count() as u64;

    let e = &mut rep.end_to_end;
    let times = |f: fn(&DurableTimes) -> f64| med(&c.times.iter().map(f).collect::<Vec<_>>());
    e.put("setup_s", med(&setups), "s");
    e.put("peak_rss_mb", c.peak_rss_mb, "MB");
    e.put("batch_s", med(&c.batch_s), "s");
    e.put("journalled_run_s", times(|t| t.journalled_s), "s");
    e.put("resume_s", times(|t| t.resume_s), "s");
    e.put("first_answer_s", times(|t| t.first_answer_s), "s");
    e.put("journal_mb", c.durable.journal_bytes as f64 / 1e6, "MB");
    let sent = samples().count() as f64;
    e.put(
        "query_ok_frac",
        (sent - rep.failed as f64) / sent.max(1.0),
        "frac",
    );

    let cal_ms: Vec<f64> = cal.seen().iter().map(|d| d.as_secs_f64() * 1e3).collect();
    eprintln!(
        "host calibration: median {:.1} ms over {} samples; end-to-end times are scaled to {} ms",
        med(&cal_ms),
        cal_ms.len(),
        REFERENCE.as_millis()
    );
    if traced {
        let spans = run.tracer.spans();
        let overhead = c.timed_s / med(&untraced) - 1.0;
        let last = layers::after_run(&c, &live, &spans, overhead)?;
        rep.per_layer = std::mem::take(&mut run.layers);
        rep.per_layer.0.extend(last.0);
        rep.per_layer.put("host.calibration_ms", med(&cal_ms), "ms");
        rep.spans = spans;
    }
    Ok(rep)
}

/// Build the campaign `cfg.setup_reps` times between two calibrations.
/// Returns the last build and each build's time, scaled to the reference
/// host speed.
fn time_setups(cal: &Calibrator, cfg: &Config) -> (Campaign, Vec<f64>) {
    let ((campaign, setups), scale) = cal.bracket(|| {
        let mut setups = Vec::with_capacity(cfg.setup_reps);
        let mut built = None;
        for _ in 0..cfg.setup_reps.max(1) {
            let t = Instant::now();
            built = Some(Campaign::standard(cfg.seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        (built.expect("at least one set-up"), setups)
    });
    (campaign, setups.into_iter().map(|s| s * scale).collect())
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Peak resident set of this process so far, from `/proc/self/status`.
pub fn read_peak_rss_mb() -> Outcome<f64> {
    let status = step(
        "peak_rss.read",
        std::fs::read_to_string("/proc/self/status"),
    )?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| Failure::Error {
            step: "peak_rss.read".to_string(),
            detail: "no VmHWM line".to_string(),
        })?;
    Ok(kb * 1024.0 / 1e6)
}

/// State shared by the phases of one run.
pub struct Run<'a> {
    pub cfg: &'a Config,
    pub campaign: &'a Campaign,
    /// Scales end-to-end times to the reference host speed.
    cal: &'a Calibrator,
    /// Identity of the durable phase's journal.
    pub fp: Fingerprint,
    scratch: &'a mut Scratch,
    pub tracer: Tracer,
    /// Per-layer metrics gathered between phases of a traced run.
    layers: Metrics,
}

/// The batch and durable passes of a run.
pub struct Compute {
    /// Sum of the timed steps of all passes (`batch_s` and the three
    /// end-to-end times in `times`).
    pub timed_s: f64,
    /// Set-up times of the groups run before each round, scaled.
    pub setup_s: Vec<f64>,
    /// Batch and durable times of each round, scaled to the reference
    /// host speed.
    pub batch_s: Vec<f64>,
    pub times: Vec<DurableTimes>,
    /// The last durable pass, whose journal the live phase replays.
    pub durable: Durable,
    /// Peak resident set after the first round. Later rounds start from
    /// whatever heap earlier ones left behind, which varies run to run.
    pub peak_rss_mb: f64,
    /// Pipeline steps run.
    pub steps: u64,
}

/// Output of one batch pass.
pub struct Batch {
    /// Inputs to report and image, scaled to the reference host speed.
    pub secs: f64,
    pub world: World,
    pub image: Vec<u8>,
    pub merge: MergeStats,
}

/// Timings of one durable pass. The three end-to-end times are scaled
/// to the reference host speed; the catch-up, a per-layer time, is not.
#[derive(Debug, Clone, Copy)]
pub struct DurableTimes {
    pub journalled_s: f64,
    pub resume_s: f64,
    pub first_answer_s: f64,
    pub catchup_s: f64,
}

/// Output of one durable pass.
pub struct Durable {
    pub dir: PathBuf,
    /// The offline world over this pass's complete journal, which every
    /// served answer is checked against. Frames land in completion order,
    /// which varies with thread timing, and float totals depend on ingest
    /// order, so each pass needs its own.
    pub reference: World,
    pub times: DurableTimes,
    pub journal_bytes: u64,
    pub torn_bytes: u64,
    pub metrics: CampaignMetrics,
}

/// Output of the live and steady phases.
pub struct Live {
    pub appends: Vec<Duration>,
    pub lags: Vec<Duration>,
    pub samples_live: Vec<Sample>,
    pub samples_steady: Vec<Sample>,
    pub mix: Mix,
}

/// Median latency (µs from due) of a phase's requests.
pub fn p50_us(samples: &[Sample]) -> f64 {
    let mut all: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    quantile(&mut all, 0.5).unwrap_or(f64::NAN)
}

/// A phase's p99 latency (µs from due): the median over [`WINDOW`]-request
/// windows of each window's p99, so that a pause of the whole host in one
/// window does not decide the phase's tail.
pub fn windowed_p99_us(samples: &[Sample]) -> f64 {
    let all: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    let windows: Vec<f64> = all
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW || all.len() < WINDOW)
        .filter_map(|w| quantile(&mut w.to_vec(), 0.99))
        .collect();
    med(&windows)
}

/// A started server that is shut down however the run ends.
struct Server(Option<ServerHandle>);

impl Server {
    fn start(base: World, dir: &Path, fp: &Fingerprint) -> Outcome<Server> {
        let opts = ServeOptions {
            workers: THREADS,
            poll_ms: 1,
            io_timeout_ms: 10_000,
            max_inflight: 8,
            drain_secs: 2,
        };
        let spec = JournalSpec {
            dir: dir.to_path_buf(),
            fingerprint: fp.clone(),
        };
        let h = step(
            "serve.start",
            server::start(base, spec, "127.0.0.1:0", opts),
        )?;
        Ok(Server(Some(h)))
    }

    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("server is running until stopped")
    }

    fn stop(mut self) -> Outcome<()> {
        let h = self.0.take().expect("server is running until stopped");
        step("serve.shutdown", h.shutdown()).map(drop)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            let _ = h.shutdown();
        }
    }
}

/// An empty world for a server to replay into, built before any timer.
fn empty_world(cfg: &Config) -> World {
    World::from_view(cfg.scale, cfg.seed, DatasetView::new(Dataset::default()))
}

impl Run<'_> {
    /// `reps` rounds of a group of set-ups, a batch pass and a durable
    /// pass. Interleaving spreads each phase's samples over the whole
    /// run, so a slow spell of the shared host lands in one sample of
    /// each, not in all samples of one. Traced runs also measure the per-layer loops that need a
    /// pass's output, outside the timed passes.
    pub fn compute(&mut self, reps: usize) -> Outcome<Compute> {
        let reps = reps.max(1);
        let mut timed_s = 0.0;
        let mut setup_s = Vec::new();
        let mut batch_s = Vec::with_capacity(reps);
        let mut times = Vec::with_capacity(reps);
        let mut last: Option<Durable> = None;
        let mut peak_rss_mb = None;
        for _ in 0..reps {
            setup_s.extend(time_setups(self.cal, self.cfg).1);
            let b = self.batch(ROOT)?;
            timed_s += b.secs;
            batch_s.push(b.secs);
            if self.tracer.enabled() {
                let m = layers::after_batch(self, &b)?;
                self.layers.0.extend(m.0);
            }
            drop(b);
            if let Some(prev) = last.take() {
                self.scratch.release(&prev.dir);
            }
            let d = self.durable(ROOT)?;
            let t = d.times;
            timed_s += t.journalled_s + t.resume_s + t.first_answer_s;
            times.push(t);
            last = Some(d);
            if peak_rss_mb.is_none() {
                peak_rss_mb = Some(read_peak_rss_mb()?);
            }
        }
        let durable = last.expect("at least one durable pass");
        if self.tracer.enabled() {
            let m = layers::after_durable(self, &durable)?;
            self.layers.0.extend(m.0);
        }
        Ok(Compute {
            timed_s,
            setup_s,
            batch_s,
            times,
            durable,
            peak_rss_mb: peak_rss_mb.expect("at least one round"),
            steps: 5 * reps as u64,
        })
    }

    /// The batch phase, timed from inputs to report and WCD1 image.
    pub fn batch(&self, parent: SpanId) -> Outcome<Batch> {
        let cfg = self.cfg;
        let ccfg = cfg.campaign_config(FaultConfig::default());
        let exps = registry();
        let tr = &self.tracer;
        let ((world, report, image, merge), secs) = self.cal.timed(|| {
            tr.span("batch", parent, |id| {
                let (ds, merge) =
                    tr.span("campaign.run", id, |_| self.campaign.run_with_stats(&ccfg));
                let view = tr.span("view.build", id, |_| DatasetView::new(ds));
                let world = tr.span("world.assemble", id, |_| {
                    World::from_view(cfg.scale, cfg.seed, view)
                });
                let report = tr.span("experiments.report", id, |_| {
                    render_report(&world, &exps, Some(THREADS))
                });
                let image = tr.span("wcd.encode", id, |_| wcd::encode(world.view().columns()));
                (world, report, image, merge)
            })
        });
        checks::audit_conservation(world.dataset())?;
        checks::report_sections(&report, exps.len())?;
        checks::wcd_roundtrip(&image)?;
        Ok(Batch {
            secs,
            world,
            image,
            merge,
        })
    }

    /// The durable phase: journalled run, tear, resume, cold first answer.
    pub fn durable(&mut self, parent: SpanId) -> Outcome<Durable> {
        let cfg = self.cfg;
        let ccfg = cfg.campaign_config(FaultConfig::demo());
        let dir = step("scratch.durable", self.scratch.fresh("durable"))?;
        let path = Journal::file_path(&dir);
        let metrics = CampaignMetrics::default();
        let tr = &self.tracer;

        let (journalled, journalled_s) = self.cal.timed(|| {
            tr.span("campaign.journalled", parent, |_| {
                self.campaign
                    .run_checkpointed_observed(&ccfg, &dir, false, &metrics)
            })
        });
        let (journalled, _) = step("campaign.journalled", journalled)?;
        let journal_bytes = step("journal.size", std::fs::metadata(&path))?.len();

        let torn_bytes = tr.span("checkpoint.tear", parent, |_| tear(&dir, cfg.seed))?;

        let (resumed, resume_s) = self.cal.timed(|| {
            tr.span("campaign.resume", parent, |_| {
                self.campaign.run_checkpointed(&ccfg, &dir, true)
            })
        });
        let resumed = step("campaign.resume", resumed)?;
        let after = step("journal.size", std::fs::metadata(&path))?.len();
        ensure("durable.tear_truncated", after == journal_bytes, || {
            format!("journal is {after} bytes after resume, {journal_bytes} before the tear")
        })?;
        checks::audit_conservation(&resumed)?;
        let a = wcd::encode(&ColumnarDataset::from_rows(&journalled));
        let b = wcd::encode(&ColumnarDataset::from_rows(&resumed));
        ensure("durable.resume_identity", a == b, || {
            format!(
                "resumed dataset encodes to {} bytes, journalled run to {}",
                b.len(),
                a.len()
            )
        })?;
        drop((journalled, resumed, a, b));

        let (view, _) = step(
            "reference.from_journal",
            DatasetView::from_journal(&dir, &self.fp),
        )?;
        let reference = World::from_view(cfg.scale, cfg.seed, view);
        let want = query::respond(&reference, &Request::Table1);
        let base = empty_world(cfg);
        let jobs = self.fp.jobs;
        let (first, first_answer_s) = self.cal.timed(|| {
            let t = Instant::now();
            tr.span("serve.first_answer", parent, |id| {
                let server = Server::start(base, &dir, &self.fp)?;
                tr.span("serve.catchup", id, |_| {
                    wait_for(
                        "durable.serve_catchup",
                        STEP_DEADLINE,
                        Duration::from_micros(100),
                        || server.handle().shards_ingested() >= jobs,
                    )
                })?;
                let catchup = t.elapsed().as_secs_f64();
                let answer = tr.span("serve.table1", id, |_| {
                    loadgen::ask(server.handle().addr(), "{\"cmd\":\"table1\"}\n")
                })?;
                Ok::<_, Failure>((server, answer, catchup))
            })
        });
        let (server, answer, catchup) = first?;
        server.stop()?;
        checks::answer_matches("durable.table1_identity", &answer, &want)?;

        Ok(Durable {
            dir,
            reference,
            times: DurableTimes {
                journalled_s,
                resume_s,
                first_answer_s,
                catchup_s: catchup,
            },
            journal_bytes,
            torn_bytes,
            metrics,
        })
    }

    /// The live and steady phases over the shards of `d`'s journal.
    pub fn live(&mut self, parent: SpanId, d: &Durable) -> Outcome<Live> {
        let cfg = self.cfg;
        let mut shards: Vec<(usize, ShardRecords)> = Vec::with_capacity(self.fp.jobs);
        step(
            "live.collect_shards",
            checkpoint::tail(&d.dir, &self.fp, |i, rec| {
                shards.push((i, rec));
                Ok(())
            }),
        )?;
        let mix = Mix::new(cfg.seed);
        let answers: Vec<String> = mix
            .requests
            .iter()
            .map(|r| query::respond(&d.reference, r))
            .collect();
        let live_dir = step("scratch.live", self.scratch.fresh("live"))?;
        let server = Server::start(empty_world(cfg), &live_dir, &self.fp)?;
        let addr = server.handle().addr();
        let mut journal = step("live.journal_create", Journal::create(&live_dir, &self.fp))?;
        wait_for(
            "live.attach",
            STEP_DEADLINE,
            Duration::from_millis(1),
            || server.handle().journal_offset().is_some(),
        )?;

        let tr = &self.tracer;
        let n = shards.len();
        let interval = cfg.live_interval;
        let live_len = interval * u32::try_from(n).expect("a small plan");
        let start = Instant::now() + Duration::from_millis(50);
        let sched = Schedule {
            addr,
            lines: &mix.lines,
            expect: None,
            seq: &mix.seq,
            rate: cfg.rate,
            start,
            slots: (cfg.rate * live_len.as_secs_f64()) as usize,
        };
        let (live_id, ran) = tr.span("live", parent, |id| {
            let ran = loadgen::run(&sched, || {
                loadgen::tighten_timer_slack();
                let mut appends = Vec::with_capacity(n);
                let mut lags = Vec::with_capacity(n);
                for (k, (job, rec)) in shards.iter().enumerate() {
                    let slot = u32::try_from(k).expect("a small plan");
                    loadgen::sleep_until(start + interval * slot + interval / 4);
                    let t = Instant::now();
                    let framed = tr.span("checkpoint.append", id, |_| journal.append(*job, rec));
                    let appended = Instant::now();
                    step("live.append", framed)?;
                    appends.push(appended - t);
                    let seen = tr.span("serve.ingest_wait", id, |_| {
                        wait_for(
                            &format!("live.ingest shard {k}"),
                            STEP_DEADLINE,
                            Duration::from_micros(50),
                            || server.handle().shards_ingested() > k,
                        )
                    })?;
                    lags.push(seen - appended);
                }
                Ok((appends, lags))
            });
            (id, ran)
        });
        let (samples_live, (appends, lags)) = ran?;
        drop(shards);
        for s in &samples_live {
            tr.record("request", live_id, s.sent, s.done);
        }
        ensure_replies_ok("serve.live_replies_ok", &samples_live)?;

        // Fill the memos the last ingest re-armed before timing the
        // steady phase, and check every distinct answer once.
        for (line, want) in mix.lines.iter().zip(&answers) {
            let got = loadgen::ask(addr, line)?;
            checks::answer_matches("serve.steady_answer_identity", &got, want)?;
        }
        let sched = Schedule {
            expect: Some(&answers),
            start: Instant::now() + Duration::from_millis(20),
            slots: (cfg.rate * cfg.steady.as_secs_f64()) as usize,
            ..sched
        };
        let (steady_id, ran) =
            tr.span("steady", parent, |id| (id, loadgen::run(&sched, || Ok(()))));
        let (samples_steady, ()) = ran?;
        for s in &samples_steady {
            tr.record("request", steady_id, s.sent, s.done);
        }
        server.stop()?;
        ensure_replies_ok("serve.steady_replies_ok", &samples_steady)?;
        let mismatched = samples_steady
            .iter()
            .filter(|s| s.reply == Reply::Mismatch)
            .count();
        ensure("serve.steady_answer_identity", mismatched == 0, || {
            format!("{mismatched} steady answers differ from the offline answers")
        })?;
        let mut late: Vec<f64> = samples_live
            .iter()
            .chain(&samples_steady)
            .map(Sample::late_us)
            .collect();
        let late_p90 = quantile(&mut late, 0.9).unwrap_or(0.0);
        ensure(
            "loadgen.on_schedule",
            late_p90 <= GENERATOR_LATE_LIMIT_US,
            || format!("generator lateness p90 {late_p90:.0} us > {GENERATOR_LATE_LIMIT_US} us"),
        )?;
        self.scratch.release(&live_dir);
        Ok(Live {
            appends,
            lags,
            samples_live,
            samples_steady,
            mix,
        })
    }
}

/// Every reply that arrived is `{"ok":true…`.
fn ensure_replies_ok(name: &'static str, samples: &[Sample]) -> Outcome<()> {
    let bad = samples
        .iter()
        .filter(|s| s.reply.answered() && !matches!(s.reply, Reply::Ok | Reply::Mismatch))
        .map(|s| s.reply)
        .collect::<Vec<_>>();
    ensure(name, bad.is_empty(), || {
        format!("{} replies were not ok, first: {:?}", bad.len(), bad[0])
    })
}

/// Tear the journal in `dir` like a crash mid-append: append a prefix of
/// one of its valid frames. The frame and the prefix length come from
/// `seed`. Returns the number of bytes appended.
fn tear(dir: &Path, seed: u64) -> Outcome<u64> {
    let ends = step("tear.frame_ends", checkpoint::frame_ends(dir))?;
    ensure("durable.tear_frames", ends.len() >= 2, || {
        format!("the journal has {} frame boundaries", ends.len())
    })?;
    let mut rng = SimRng::seed(seed).split("perfbench/tear");
    let k = rng.uniform_u64(0, ends.len() as u64 - 1) as usize;
    let (from, to) = (ends[k], ends[k + 1]);
    let cut = rng.uniform_u64(1, to - from);
    let path = Journal::file_path(dir);
    let io = || -> std::io::Result<()> {
        let mut f = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut prefix = vec![0u8; usize::try_from(cut).expect("frame fits in memory")];
        f.seek(SeekFrom::Start(from))?;
        f.read_exact(&mut prefix)?;
        f.write_all(&prefix)?;
        f.sync_all()
    };
    step("tear.append", io())?;
    Ok(cut)
}
