//! The end-to-end run: set-up, cold plans, then warm requests through the
//! public pipeline — `Backend::plan` → `Plan::bind` →
//! `Instance::{place, execute, read}`, or `ServingEngine::submit` →
//! `Ticket::wait` — with every output checked against the independent
//! reference outside the timed span.

use crate::metrics::Values;
use crate::stats::{fastest, percentile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    self, KeyClass, PlanSpec, RequestKey, ServeMix, SharedBackend, Sizes, Workload,
};
use distal::prelude::*;
use distal::serve::EngineStats;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Requests per key that run before timing starts and are discarded.
pub const WARMUP_PER_KEY: usize = 5;
/// The timed section is cut into this many rounds.
pub const ROUNDS: usize = 8;
/// `throughput_rps` is taken over this many consecutive request cycles
/// of a client (one cycle visits every key of a direct workload once; on
/// `serve_mix` it is four hot requests and one cold one).
const THROUGHPUT_CYCLES: usize = 3;
/// A batch of uncached plans sweeps the plan keys at most this often.
const MAX_SWEEPS_PER_BATCH: usize = 64;
/// A burst gives up once this many operations have failed, instead of
/// retrying a broken pipeline until the driver's time limit.
const MAX_FAILURES: u64 = 64;

/// Operations attempted and failed: errored plans and requests, outputs
/// that miss the reference, reports that do not repeat.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn failure_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// An optional tracer plus the request id its spans should carry.
pub type Trace<'a> = Option<(&'a Tracer, u64)>;

fn spanned<R>(
    trace: Trace<'_>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match trace {
        Some((tracer, request)) => tracer.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// What one request produced.
pub struct Served {
    pub start: Instant,
    pub latency_s: f64,
    pub report: Report,
    pub verified: bool,
}

/// One request with the plan already held: `bind → place → execute →
/// read`, timed as a whole; the output is verified after the clock stops.
pub fn request(
    plan: &dyn Plan,
    key: &RequestKey,
    set: usize,
    trace: Trace<'_>,
) -> Result<Served, BackendError> {
    let input = &key.inputs[set % key.inputs.len()];
    let start = Instant::now();
    let (report, output) = spanned(trace, "request", None, |req| {
        let mut instance = spanned(trace, "core.plan.bind", req, |_| plan.bind(&input.bindings))?;
        let mut report = spanned(trace, "core.instance.place", req, |_| instance.place())?;
        let executed = spanned(trace, "core.instance.execute", req, |_| instance.execute())?;
        let output = spanned(trace, "core.instance.read", req, |_| {
            instance.read(key.output)
        })?;
        report.merge(&executed);
        Ok::<_, BackendError>((report, output))
    })?;
    let latency_s = start.elapsed().as_secs_f64();
    Ok(Served {
        start,
        latency_s,
        report,
        verified: input.samples.check(&output),
    })
}

/// What the plan would cost on the modelled cluster: the model's own
/// prediction where the report carries one beside a measured wall clock,
/// else the headline (which is then itself simulated or α-β).
pub fn modeled_s(report: &Report) -> f64 {
    report.modeled_s.unwrap_or(report.critical_path_s)
}

/// Checks that a key's deterministic report fields repeat exactly.
#[derive(Clone, Debug, Default)]
pub struct Repeats {
    first: Vec<Option<(u64, f64)>>,
}

impl Repeats {
    pub fn new(keys: usize) -> Self {
        Repeats {
            first: vec![None; keys],
        }
    }

    /// True when `report` agrees with the first report seen for `key`.
    pub fn check(&mut self, key: usize, report: &Report) -> bool {
        let now = (report.bytes_moved, modeled_s(report));
        match self.first[key] {
            None => {
                self.first[key] = Some(now);
                true
            }
            Some((bytes, modeled)) => {
                bytes == now.0 && (modeled - now.1).abs() <= 1e-9 * modeled.abs()
            }
        }
    }

    /// `(Σ bytes_moved, Σ modelled seconds)` over the keys seen.
    pub fn totals(&self) -> (f64, f64) {
        self.first
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(b, m), (bytes, modeled)| {
                (b + *bytes as f64, m + modeled)
            })
    }
}

/// One timed set-up: builds the workload — problems, generated inputs,
/// reference samples — and, for `serve_mix`, starts and stops an engine.
pub fn setup(name: &str, seed: u64, sizes: &Sizes, nproc: usize) -> Option<(Workload, f64)> {
    let start = Instant::now();
    let workload = workloads::build(name, seed, sizes, nproc)?;
    if let Some(mix) = &workload.serve {
        engine_for(&workload, mix).shutdown();
    }
    Some((workload, start.elapsed().as_secs_f64()))
}

/// One batch of uncached `Backend::plan` calls: every plan key, swept
/// until `budget_s` is spent (at least one sweep, at most
/// `MAX_SWEEPS_PER_BATCH`). Appends each key's times to `times`.
pub fn plan_batch(plans: &[PlanSpec], budget_s: f64, times: &mut [Vec<f64>], tally: &mut Tally) {
    let began = Instant::now();
    for sweep in 0..MAX_SWEEPS_PER_BATCH {
        if sweep > 0 && began.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        for (spec, samples) in plans.iter().zip(times.iter_mut()) {
            let start = Instant::now();
            let planned = spec.backend.plan(&spec.problem, &spec.schedule);
            samples.push(start.elapsed().as_secs_f64());
            let clean = match &planned {
                Ok(plan) => !plan.diagnostics().iter().any(|d| d.is_error()),
                Err(_) => false,
            };
            tally.record(clean, || match planned {
                Ok(_) => format!("plan '{}' carries error diagnostics", spec.label),
                Err(e) => format!("plan '{}': {e}", spec.label),
            });
        }
    }
}

/// One verified request of the timed section.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Which closed-loop client sent it (0 on direct workloads).
    pub client: usize,
    /// Index into `Workload::keys`.
    pub key: usize,
    /// When the reply arrived, in seconds since the loop started.
    pub end_s: f64,
    pub latency_s: f64,
}

/// The samples of one round of the timed section, in order of completion.
pub type Round = Vec<Sample>;

impl Sample {
    fn of(client: usize, key: usize, served: &Served, epoch: Instant) -> Sample {
        Sample {
            client,
            key,
            end_s: served.start.duration_since(epoch).as_secs_f64() + served.latency_s,
            latency_s: served.latency_s,
        }
    }
}

/// The latency a quiet host would show for the request at quantile `q`.
///
/// Every request is given its key's *floor* — the fastest verified
/// request to that key in the run — and the quantile is taken over the
/// requests. Requests to one key cost the same, so what separates two of
/// them is the host; the other tenants of a shared host only ever slow a
/// request down, and the fastest one is the one they disturbed least.
/// The floor moves with the program and hardly with the neighbours,
/// where a plain percentile over the run moves with both. On a one-key
/// workload every quantile is that key's floor; on `serve_mix` the median
/// is a hot key's floor and the 90th percentile a cold key's.
pub fn quiet_latency_s(rounds: &[Round], q: f64) -> f64 {
    let mut floors: BTreeMap<usize, f64> = BTreeMap::new();
    for sample in rounds.iter().flatten() {
        let floor = floors.entry(sample.key).or_insert(f64::INFINITY);
        *floor = floor.min(sample.latency_s);
    }
    let per_request: Vec<f64> = rounds.iter().flatten().map(|s| floors[&s.key]).collect();
    percentile(&per_request, q)
}

/// The throughput of the quietest stretch of the run, for the reason
/// [`quiet_latency_s`] gives: every client's highest rate of completions
/// over `window` of its consecutive requests within one round, summed
/// over the clients. `window` is a whole number of request cycles, so
/// every stretch holds the same mix of keys. A round in which a client
/// completed fewer than `window + 1` requests is taken whole.
pub fn quiet_throughput_rps(rounds: &[Round], window: usize) -> f64 {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for round in rounds {
        let mut ends: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for sample in round {
            ends.entry(sample.client).or_default().push(sample.end_s);
        }
        for (client, ends) in ends.into_iter().filter(|(_, e)| e.len() >= 2) {
            let w = window.clamp(1, ends.len() - 1);
            let span_s = ends
                .iter()
                .zip(&ends[w..])
                .map(|(first, last)| last - first)
                .fold(f64::INFINITY, f64::min);
            let rate = w as f64 / span_s.max(f64::MIN_POSITIVE);
            let slot = best.entry(client).or_default();
            *slot = slot.max(rate);
        }
    }
    best.values().sum()
}

/// Warm direct requests with the plans held: round-robin over the keys,
/// cycling their input sets, continuing across bursts.
pub struct DirectLoop<'a> {
    keys: &'a [RequestKey],
    plans: Vec<Box<dyn Plan>>,
    sent: usize,
    epoch: Instant,
}

impl<'a> DirectLoop<'a> {
    /// Plans every key once and sends the discarded warm-up requests.
    pub fn start(keys: &'a [RequestKey]) -> Result<Self, BackendError> {
        let plans = keys
            .iter()
            .map(|k| k.plan.backend.plan(&k.plan.problem, &k.plan.schedule))
            .collect::<Result<Vec<_>, _>>()?;
        for (key, plan) in keys.iter().zip(&plans) {
            for r in 0..WARMUP_PER_KEY {
                let _ = request(plan.as_ref(), key, r, None);
            }
        }
        Ok(DirectLoop {
            keys,
            plans,
            sent: 0,
            epoch: Instant::now(),
        })
    }

    /// The next request in the round-robin, traced when `tracer` is given.
    pub fn next(
        &mut self,
        tracer: Option<&Tracer>,
        repeats: &mut Repeats,
        tally: &mut Tally,
    ) -> Option<Served> {
        let (r, keys) = (self.sent, self.keys);
        self.sent += 1;
        let k = r % keys.len();
        let trace = tracer.map(|t| (t, r as u64 + 1));
        match request(self.plans[k].as_ref(), &keys[k], r / keys.len(), trace) {
            Ok(served) => {
                let ok = served.verified && repeats.check(k, &served.report);
                tally.record(ok, || {
                    format!(
                        "request {r} to '{}': verified={} (the report must also repeat)",
                        keys[k].plan.label, served.verified
                    )
                });
                ok.then_some(served)
            }
            Err(e) => {
                tally.record(false, || {
                    format!("request {r} to '{}': {e}", keys[k].plan.label)
                });
                None
            }
        }
    }

    /// One round: requests until `seconds` of request time are spent, and
    /// at least `min_requests` of them.
    pub fn round(
        &mut self,
        seconds: f64,
        min_requests: usize,
        repeats: &mut Repeats,
        tally: &mut Tally,
    ) -> Round {
        let mut round = Round::new();
        let mut spent_s = 0.0;
        while round.len() < min_requests || spent_s < seconds {
            let key = self.sent % self.keys.len();
            let Some(served) = self.next(None, repeats, tally) else {
                if tally.failed > MAX_FAILURES {
                    break;
                }
                continue;
            };
            spent_s += served.latency_s;
            round.push(Sample::of(0, key, &served, self.epoch));
        }
        round
    }
}

pub fn start_engine(
    backend: &SharedBackend,
    workers: usize,
    cache_capacity: usize,
) -> ServingEngine {
    ServingEngine::with_arc(
        Arc::clone(backend),
        ServeConfig {
            workers,
            cache_capacity,
            // One LRU over the whole capacity: with the default 8 shards a
            // shard holds 2 plans, and whether a hot key survives then
            // depends on which keys happen to share its shard.
            cache_shards: 1,
            ..ServeConfig::default()
        },
    )
}

fn engine_for(workload: &Workload, mix: &ServeMix) -> ServingEngine {
    start_engine(
        &workload.keys[0].plan.backend,
        mix.clients,
        mix.cache_capacity,
    )
}

/// One `submit → wait`, verified after the clock stops. The request is
/// assembled (operands cloned) before the clock starts.
pub fn serve_one(
    engine: &ServingEngine,
    key: &RequestKey,
    set: usize,
) -> Result<Served, BackendError> {
    let input = &key.inputs[set % key.inputs.len()];
    let req = ServeRequest {
        problem: Arc::clone(&key.plan.problem),
        schedule: key.plan.schedule.clone(),
        bindings: input.bindings.clone(),
        read: vec![key.output.to_string()],
    };
    let start = Instant::now();
    let response = engine.submit(req).wait()?;
    let latency_s = start.elapsed().as_secs_f64();
    let verified = response
        .outputs
        .get(key.output)
        .is_some_and(|out| input.samples.check(out));
    Ok(Served {
        start,
        latency_s,
        report: response.report,
        verified,
    })
}

/// One closed-loop client sample.
struct ServeSample {
    client: usize,
    key: usize,
    served: Result<Served, BackendError>,
}

/// `serve_mix`'s closed loop: `mix.clients` client threads, each with one
/// outstanding request, follow [`ServeMix::pick`]; every client's request
/// counter continues across bursts. Hot keys are warmed through the engine
/// first; cold keys stay cold by construction.
pub struct ServeLoop<'a> {
    workload: &'a Workload,
    mix: &'a ServeMix,
    engine: ServingEngine,
    sent: Vec<usize>,
    epoch: Instant,
    /// Engine counters when the warm-up ended.
    pub before: EngineStats,
}

impl<'a> ServeLoop<'a> {
    pub fn start(workload: &'a Workload, mix: &'a ServeMix) -> Self {
        let engine = engine_for(workload, mix);
        for key in workload.keys.iter().filter(|k| k.class == KeyClass::Hot) {
            for r in 0..WARMUP_PER_KEY {
                let _ = serve_one(&engine, key, r);
            }
        }
        ServeLoop {
            workload,
            mix,
            before: engine.stats(),
            engine,
            sent: vec![0; mix.clients],
            epoch: Instant::now(),
        }
    }

    /// One round: the closed loop runs for `seconds` (and until every
    /// client has sent `min_requests` in this round); the replies are
    /// folded into the tally and the repeat check, and the verified ones
    /// returned in order of completion.
    pub fn round(
        &mut self,
        seconds: f64,
        min_requests: usize,
        tracer: Option<&Tracer>,
        repeats: &mut Repeats,
        tally: &mut Tally,
    ) -> Round {
        let keys = &self.workload.keys;
        let mut round = Round::new();
        for sample in self.burst(seconds, min_requests, tracer) {
            let label = &keys[sample.key].plan.label;
            match &sample.served {
                Ok(served) => {
                    let ok = served.verified && repeats.check(sample.key, &served.report);
                    tally.record(ok, || {
                        format!("served '{label}': verified={}", served.verified)
                    });
                    if ok {
                        round.push(Sample::of(sample.client, sample.key, served, self.epoch));
                    }
                }
                Err(e) => tally.record(false, || format!("served '{label}': {e}")),
            }
        }
        round.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        round
    }

    fn burst(
        &mut self,
        seconds: f64,
        min_requests: usize,
        tracer: Option<&Tracer>,
    ) -> Vec<ServeSample> {
        let (keys, mix, engine) = (&self.workload.keys, self.mix, &self.engine);
        let barrier = Barrier::new(mix.clients + 1);
        std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .sent
                .iter_mut()
                .enumerate()
                .map(|(c, sent)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        barrier.wait();
                        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                        while mine.len() < min_requests || Instant::now() < deadline {
                            let (k, set) = mix.pick(c, *sent);
                            let name = match keys[k].class {
                                KeyClass::Hot => "serve.engine.hit",
                                KeyClass::Cold => "serve.engine.miss",
                            };
                            let trace = tracer.map(|t| (t, (*sent * mix.clients + c) as u64 + 1));
                            let served =
                                spanned(trace, name, None, |_| serve_one(engine, &keys[k], set));
                            *sent += 1;
                            mine.push(ServeSample {
                                client: c,
                                key: k,
                                served,
                            });
                        }
                        mine
                    })
                })
                .collect();
            barrier.wait();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("serving client panicked"))
                .collect()
        })
    }

    /// Stops the engine and returns its final counters.
    pub fn finish(self) -> EngineStats {
        self.engine.shutdown()
    }
}

/// The result of one untraced run.
pub struct EndToEnd {
    pub values: Values,
    pub tally: Tally,
    /// Sample counts and sizes, for the human-readable header.
    pub notes: Vec<String>,
}

/// The untraced run: every end-to-end metric of one workload.
///
/// After set-up the timed section runs [`ROUNDS`] rounds. A round sets
/// up once more, plans every plan key afresh (whenever plan time is behind
/// its share of the run) and then sends warm requests, so every kind of
/// measurement is spread over the whole run instead of one of them
/// landing in a slow spell of the host.
pub fn run(name: &str, seed: u64, seconds: f64, sizes: &Sizes, nproc: usize) -> Option<EndToEnd> {
    let (workload, first_setup_s) = setup(name, seed, sizes, nproc)?;
    let mut setup_times = vec![first_setup_s];
    let mut tally = Tally::default();
    let mut notes = vec![format!("sizes: {}", workload.sizes)];
    let mut repeats = Repeats::new(workload.keys.len());
    let mut plan_times: Vec<Vec<f64>> = vec![Vec::new(); workload.plans.len()];
    let mut rounds: Vec<Round> = Vec::new();

    let plan_total_s = seconds * workload.plan_share;
    let round_s = (seconds - plan_total_s) / ROUNDS as f64;
    let window = THROUGHPUT_CYCLES * workload.cycle();
    let mut plan_spent_s = 0.0;
    let mut direct = None;
    let mut serving = None;
    match &workload.serve {
        Some(mix) => serving = Some((ServeLoop::start(&workload, mix), mix)),
        None => match DirectLoop::start(&workload.keys) {
            Ok(started) => direct = Some(started),
            Err(e) => tally.record(false, || format!("holding plans: {e}")),
        },
    }
    for round in 0..ROUNDS {
        // Set-up is repeated (and the copy dropped) in every round, so that
        // its samples are spread over the run like those of plans and requests.
        setup_times.extend(setup(name, seed, sizes, nproc).map(|(_, s)| s));
        let plan_due_s = plan_total_s * (round + 1) as f64 / ROUNDS as f64;
        if plan_spent_s < plan_due_s {
            let began = Instant::now();
            plan_batch(
                &workload.plans,
                plan_due_s - plan_spent_s,
                &mut plan_times,
                &mut tally,
            );
            plan_spent_s += began.elapsed().as_secs_f64();
        }
        if let Some(requests) = &mut direct {
            rounds.push(requests.round(round_s, window + 1, &mut repeats, &mut tally));
        }
        if let Some((requests, mix)) = &mut serving {
            // The first round visits every cold key once, however slow the
            // host: `comm_bytes` then always covers the whole key set.
            let min = if round == 0 {
                mix.requests_per_rotation()
            } else {
                window + 1
            };
            rounds.push(requests.round(round_s, min, None, &mut repeats, &mut tally));
        }
    }
    if let Some((requests, _)) = serving {
        requests.finish();
    }

    let samples: usize = rounds.iter().map(Vec::len).sum();
    notes.push(format!("setup_s: fastest of {} set-ups", setup_times.len()));
    notes.push(format!(
        "cold_plan_ms: {} plan keys x {} uncached plans each, sum of each key's fastest",
        workload.plans.len(),
        plan_times.first().map_or(0, Vec::len)
    ));
    notes.push(format!(
        "request_p50_ms/request_p90_ms: {samples} verified requests in {ROUNDS} rounds after \
         {WARMUP_PER_KEY} discarded warm-up requests per key; quantiles over the requests of \
         their key's fastest request"
    ));
    notes.push(format!(
        "throughput_rps: every client's fastest {window} consecutive requests of any round, \
         summed over {} client(s)",
        workload.serve.as_ref().map_or(1, |mix| mix.clients)
    ));

    let mut values = Values::default();
    values.set("setup_s", fastest(&setup_times));
    values.set(
        "cold_plan_ms",
        plan_times.iter().map(|t| fastest(t)).sum::<f64>() * 1e3,
    );
    values.set("request_p50_ms", quiet_latency_s(&rounds, 0.5) * 1e3);
    values.set("request_p90_ms", quiet_latency_s(&rounds, 0.9) * 1e3);
    values.set("throughput_rps", quiet_throughput_rps(&rounds, window));
    values.set("comm_bytes", repeats.totals().0);
    Some(EndToEnd {
        values,
        tally,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_that_does_not_repeat_is_caught() {
        let mut repeats = Repeats::new(2);
        let mut report = Report::empty("spmd", Provenance::Modeled);
        report.bytes_moved = 4096;
        report.critical_path_s = 1.5e-3;
        assert!(repeats.check(0, &report));
        assert!(repeats.check(0, &report));
        // Another key has its own baseline.
        let mut other = report.clone();
        other.bytes_moved = 1;
        assert!(repeats.check(1, &other));
        assert_eq!(repeats.totals(), (4097.0, 3e-3));
        // One byte more, or a different modelled makespan, is a failure.
        other.bytes_moved = 2;
        assert!(!repeats.check(1, &other));
        report.critical_path_s = 1.6e-3;
        assert!(!repeats.check(0, &report));
        // A measured headline beside an unchanged model still repeats.
        report.modeled_s = Some(1.5e-3);
        report.critical_path_s = 0.25;
        assert!(repeats.check(0, &report));
    }

    fn sample(key: usize, end_s: f64, latency_s: f64) -> Sample {
        Sample {
            client: 0,
            key,
            end_s,
            latency_s,
        }
    }

    #[test]
    fn quiet_latency_is_a_quantile_over_requests_of_their_keys_floor() {
        // Key 0 (hot): 8 requests, floor 10 ms. Key 1 (cold): 2 requests,
        // floor 60 ms. A disturbed request (the 35 ms one) moves nothing.
        let mut round: Round = (0..8)
            .map(|i| sample(0, i as f64, 0.010 + 1e-4 * i as f64))
            .collect();
        round[3].latency_s = 0.035;
        let rounds = [round, vec![sample(1, 9.0, 0.080), sample(1, 10.0, 0.060)]];
        assert_eq!(quiet_latency_s(&rounds, 0.5), 0.010);
        assert_eq!(quiet_latency_s(&rounds, 0.9), 0.060);
        // A one-key workload shows that key's floor at every quantile.
        assert_eq!(quiet_latency_s(&rounds[..1], 0.9), 0.010);
        assert_eq!(quiet_latency_s(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_throughput_is_the_fastest_stretch_of_one_round() {
        // Completions 1 s apart, except one stretch of three 0.1 s apart.
        let ends = [1.0, 2.0, 3.0, 3.1, 3.2, 3.3, 4.3, 5.3];
        let round: Round = ends.iter().map(|&e| sample(0, e, 0.1)).collect();
        let rps = quiet_throughput_rps(std::slice::from_ref(&round), 3);
        assert!((rps - 10.0).abs() < 1e-9, "{rps}");
        // A window never spans two rounds, and a short round is taken whole.
        let split = [round[..4].to_vec(), round[4..].to_vec()];
        let rps = quiet_throughput_rps(&split, 5);
        assert!((rps - 3.0 / 2.1).abs() < 1e-9, "{rps}");
        assert_eq!(quiet_throughput_rps(&[vec![sample(0, 1.0, 0.1)]], 3), 0.0);
        // Two clients: each one's own fastest stretch, summed, even when
        // the two stretches lie in different rounds.
        let second = |s: &Sample| Sample {
            client: 1,
            end_s: s.end_s * 2.0,
            ..*s
        };
        let mut both = split.to_vec();
        both[1].extend(round.iter().map(second));
        let rps = quiet_throughput_rps(&both, 3);
        assert!((rps - (3.0 / 2.1 + 5.0)).abs() < 1e-9, "{rps}");
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        tally.record(true, || unreachable!());
        tally.record(false, || "expected in this test".into());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failure_share(), 0.5);
        assert_eq!(Tally::default().failure_share(), 0.0);
    }
}
