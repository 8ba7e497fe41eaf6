//! One run of one workload: repeat the workload for the measuring time,
//! keep the repetitions the host did not disturb, check the outputs and
//! fold everything into the metrics `BENCHMARK.json` names.

use crate::fabric;
use crate::meter::steal_s;
use crate::node::{Kind, Recorder};
use crate::scenario::{self, Outcome, Rep, Setup, Trace};
use crate::spec::{self, Workload};
use crate::stats::median;
use std::time::Instant;

/// A repetition is discarded and re-run when the hypervisor withheld
/// more than this share of its elapsed time.
const STEAL_LIMIT: f64 = 0.05;
const STEAL_RETRIES: usize = 2;
/// Set-up is timed at least this often per run, by setting up again
/// without running, because a repetition sets up only once.
const SETUP_SAMPLES: usize = 9;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Measuring time: repetitions start while less than this has passed.
    pub seconds: f64,
    /// Alternate untraced and traced repetitions and report the
    /// per-layer metrics beside the end-to-end ones.
    pub traced: bool,
    /// Repetitions of each kind however short `seconds` is. Two let the
    /// run check that the outcome repeats exactly.
    pub min_reps: usize,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    /// Why not, one line each.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<(&'static str, f64)>,
    /// No repetition ran undisturbed: the timings are not to be trusted.
    pub unresolved: bool,
    pub reps: usize,
    /// Largest steal share among the repetitions kept.
    pub steal_share: f64,
    /// Lowest and highest `cpu_s` among the repetitions kept.
    pub cpu_range_s: (f64, f64),
    pub wall_s: f64,
}

struct Timed {
    rep: Rep,
    steal_share: f64,
}

fn one_rep(workload: &Workload, seed: u64, traced: bool) -> Timed {
    let started = Instant::now();
    let steal0 = steal_s();
    let rep = match &workload.kind {
        spec::Kind::Simulated(s) => scenario::run(s, seed, traced),
        spec::Kind::Fabric(f) => fabric::run(f, seed, traced),
    };
    let stolen = steal_s().zip(steal0).map_or(0.0, |(a, b)| a - b);
    Timed {
        rep,
        steal_share: stolen / started.elapsed().as_secs_f64(),
    }
}

fn time_setup(workload: &Workload, seed: u64) -> Setup {
    match &workload.kind {
        spec::Kind::Simulated(s) => scenario::time_setup(s, seed),
        spec::Kind::Fabric(f) => fabric::time_setup(f, seed),
    }
}

/// Run `workload` for `options.seconds`.
pub fn run(workload: &Workload, options: &Options) -> RunResult {
    let started = Instant::now();
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut disturbed: Vec<Timed> = Vec::new();
    let mut longest_rep_s: f64 = 0.0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let short = untraced.len() < options.min_reps
            || (options.traced && traced.len() < options.min_reps);
        // Another repetition starts only if at least half of it fits.
        if !short && elapsed + longest_rep_s / 2.0 > options.seconds {
            break;
        }
        let trace_next = options.traced && traced.len() < untraced.len();
        let rep_started = Instant::now();
        let timed = one_rep(workload, options.seed, trace_next);
        longest_rep_s = longest_rep_s.max(rep_started.elapsed().as_secs_f64());
        if timed.steal_share > STEAL_LIMIT && disturbed.len() < STEAL_RETRIES {
            disturbed.push(timed);
        } else if trace_next {
            traced.push(timed);
        } else {
            untraced.push(timed);
        }
    }
    // Disturbed repetitions beyond the retries count only when nothing
    // clean ran; then they are all there is, and the run says so.
    for kept in [&mut untraced, &mut traced] {
        if kept.iter().any(|t| t.steal_share <= STEAL_LIMIT) {
            let (clean, dirty) = std::mem::take(kept)
                .into_iter()
                .partition(|t| t.steal_share <= STEAL_LIMIT);
            *kept = clean;
            disturbed.extend::<Vec<Timed>>(dirty);
        }
    }
    let unresolved = untraced.iter().any(|t| t.steal_share > STEAL_LIMIT);

    let mut setups: Vec<Setup> = untraced.iter().map(|t| t.rep.setup).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(time_setup(workload, options.seed));
    }

    let mut problems = Vec::new();
    let first = &untraced[0].rep.outcome;
    for (k, t) in untraced.iter().chain(&traced).chain(&disturbed).enumerate() {
        if t.rep.outcome != *first {
            problems.push(format!(
                "repetition {k} computed a different outcome: {:?} vs {first:?}",
                t.rep.outcome
            ));
        }
    }
    check_outcome(workload, first, &mut problems);

    // Interference from the host only ever adds CPU time, so the least
    // disturbed repetition is the steadiest estimate of what the work
    // costs: on `ron-196` the minima of ten runs spread 2 %, their
    // medians 7 %.
    let cpu: Vec<f64> = untraced.iter().map(|t| t.rep.cost.cpu_s).collect();
    let cpu_s = cpu.iter().copied().fold(f64::INFINITY, f64::min);
    let end_to_end = end_to_end(&untraced, &setups, cpu_s);
    let per_layer = if options.traced {
        // The least disturbed traced repetition stands for the run.
        let typical = traced
            .iter()
            .min_by(|a, b| {
                let (a, b) = (a.rep.cost.cpu_s, b.rep.cost.cpu_s);
                a.partial_cmp(&b).expect("cpu times are finite")
            })
            .expect("at least one traced repetition");
        let overhead = typical.rep.cost.cpu_s / cpu_s - 1.0;
        per_layer(workload, &typical.rep, overhead, &mut problems)
    } else {
        Vec::new()
    };
    for (name, value) in end_to_end.iter().chain(&per_layer) {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }

    RunResult {
        correct: problems.is_empty(),
        problems,
        attempted: first.attempted,
        failed: first.failed,
        end_to_end,
        per_layer,
        unresolved,
        reps: untraced.len() + traced.len(),
        steal_share: untraced
            .iter()
            .chain(&traced)
            .map(|t| t.steal_share)
            .fold(0.0, f64::max),
        cpu_range_s: (cpu_s, cpu.iter().copied().fold(0.0, f64::max)),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// The output checks that do not depend on timing.
fn check_outcome(workload: &Workload, o: &Outcome, problems: &mut Vec<String>) {
    if o.coverage < 0.99 {
        problems.push(format!("steady coverage {:.4} < 0.99", o.coverage));
    }
    if !(o.mean_stretch >= 1.0 - 1e-9 && o.mean_stretch <= workload.max_stretch) {
        problems.push(format!(
            "mean stretch {:.4} outside [1, {}]",
            o.mean_stretch, workload.max_stretch
        ));
    }
    let row_bound = 6.0 * (workload.n() as f64).sqrt() + 16.0;
    if o.rows_held_max as f64 > row_bound {
        problems.push(format!(
            "a node holds {} rows > 6√n + 16 = {row_bound:.0}",
            o.rows_held_max
        ));
    }
    if let spec::Kind::Simulated(s) = &workload.kind {
        if s.faults.is_some() && s.swim && o.detect_s.is_none() {
            problems.push("crashed nodes still in a live view when the partition began".into());
        }
        if s.faults.is_some() && !s.swim && o.recovery_s.is_none() {
            problems.push("cross-partition routes not restored by the end of the run".into());
        }
    }
}

fn end_to_end(untraced: &[Timed], setups: &[Setup], cpu_s: f64) -> Vec<(&'static str, f64)> {
    let over = |f: fn(&Rep) -> f64| median(&untraced.iter().map(|t| f(&t.rep)).collect::<Vec<_>>());
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let outcome = &untraced[0].rep.outcome;
    const MB: f64 = 1e6;
    let values = [
        ("setup_s", median(&setup_s)),
        ("cpu_s", cpu_s),
        ("alloc_count", over(|r| r.cost.allocs as f64)),
        ("alloc_mb", over(|r| r.cost.alloc_bytes as f64 / MB)),
        ("peak_heap_mb", over(|r| r.cost.peak_bytes as f64 / MB)),
        ("ctrl_bytes_per_node_s", outcome.ctrl_bytes_per_node_s),
        ("coverage", outcome.coverage),
        ("mean_stretch", outcome.mean_stretch),
    ];
    in_spec_order(spec::END_TO_END, &values)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Where the traced phase went. Every nanosecond lands in exactly one
/// place: a callback span, the fabric's codec and read timers, or one
/// of the two remainders here.
#[derive(Debug, PartialEq)]
struct Ledger {
    /// `run_until` time with the callbacks and the tracer taken out.
    netsim_self_s: f64,
    /// What tracing itself cost: the codec-only decodes and the
    /// recorder's bookkeeping in a simulation; on the fabric, where the
    /// calls are made bare, the benchmark's own loop around them.
    tracer_s: f64,
    /// All parts added up again; equals the phase unless a remainder
    /// would have been negative.
    sum_s: f64,
}

fn ledger(trace: &Trace, fabric: bool) -> Ledger {
    let rec = &trace.recorder;
    let callbacks_s: f64 = rec.spans.iter().map(|s| secs(s.ns)).sum();
    let decode_s: f64 = rec.spans.iter().map(|s| secs(s.decode_ns)).sum();
    if fabric {
        let timed = callbacks_s + decode_s + secs(trace.encode_ns) + trace.read_wall_s;
        let tracer_s = (trace.run_wall_s - timed).max(0.0);
        Ledger {
            netsim_self_s: 0.0,
            tracer_s,
            sum_s: timed + tracer_s,
        }
    } else {
        let tracer_s = decode_s + secs(rec.bookkeeping_ns);
        let netsim_self_s = (trace.run_wall_s - callbacks_s - tracer_s).max(0.0);
        Ledger {
            netsim_self_s,
            tracer_s,
            sum_s: netsim_self_s + callbacks_s + tracer_s,
        }
    }
}

fn per_layer(
    workload: &Workload,
    rep: &Rep,
    trace_overhead_share: f64,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let trace = rep.trace.as_ref().expect("a traced repetition");
    let o = &rep.outcome;
    let rec: &Recorder = &trace.recorder;
    let span = |k: Kind| rec.spans[k as usize];
    let fabric = matches!(workload.kind, spec::Kind::Fabric(_));

    let Ledger {
        netsim_self_s,
        tracer_s,
        sum_s,
    } = ledger(trace, fabric);
    if (sum_s - trace.run_wall_s).abs() > 0.01 * trace.run_wall_s {
        problems.push(format!(
            "per-layer times sum to {sum_s:.3} s of a {:.3} s phase",
            trace.run_wall_s
        ));
    }

    // The simulator drives callbacks through the overlay; on the fabric
    // the benchmark calls the router bare, so there the overlay (and
    // with it the simulator's callback counts) saw nothing.
    let idle = Recorder::default();
    let overlay = if fabric { &idle } else { rec };
    let envelope = |k: Kind| overlay.spans[k as usize];
    let time = |k: Kind| secs(envelope(k).ns);
    let calls = |k: Kind| envelope(k).calls as f64;
    let bytes = |k: Kind| envelope(k).bytes as f64;
    let timers = [
        Kind::TimerProbe,
        Kind::TimerRouting,
        Kind::TimerSwim,
        Kind::TimerOther,
    ];
    let timer_fires: u64 = timers.iter().map(|&k| envelope(k).calls).sum();
    let silent_timers: u64 = timers.iter().map(|&k| envelope(k).silent).sum();
    let packets = [
        Kind::PacketProbe,
        Kind::PacketLinkState,
        Kind::PacketRec,
        Kind::PacketSwim,
        Kind::PacketView,
    ];
    let deliveries: u64 = packets.iter().map(|&k| envelope(k).calls).sum();
    let callbacks: u64 = overlay.spans.iter().map(|s| s.calls).sum();
    let sends: u64 = overlay.spans.iter().map(|s| s.sends).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // A callback's time net of the decode it starts with, the latter
    // taken from the codec-only decode of the same frames. A bare call
    // on the fabric has no decode inside it to take out.
    let net = |k: Kind| {
        let inside = if fabric { 0 } else { span(k).decode_ns };
        secs(span(k).ns.saturating_sub(inside))
    };

    let ls_frames = [
        Kind::PacketProbe,
        Kind::PacketLinkState,
        Kind::PacketRec,
        Kind::PacketView,
    ];
    let ls_decode_s: f64 = ls_frames.iter().map(|&k| secs(span(k).decode_ns)).sum();
    let ls_decode_frames: u64 = ls_frames.iter().map(|&k| span(k).calls).sum();
    let ls_decode_bytes: u64 = ls_frames.iter().map(|&k| span(k).bytes).sum();

    // Routes not restored by the end of the run read as the whole
    // horizon: never is the worst recovery, not the best.
    let heal_horizon_s = match &workload.kind {
        spec::Kind::Simulated(s) => s.faults.map(|f| s.end_s - f.heal_at_s),
        spec::Kind::Fabric(_) => None,
    };
    let fleet = &trace.fleet;
    let counter = |component: &str, name: &str| fleet.counter_total(component, name) as f64;
    let queue_depth = fleet.histogram_total("netsim", "event_queue_depth");
    let tick = span(Kind::TimerRouting);

    let values = [
        ("netsim.events", o.events as f64),
        ("netsim.self_s", netsim_self_s),
        (
            "netsim.self_ns_per_event",
            ratio(netsim_self_s * 1e9, o.events as f64),
        ),
        ("netsim.timer_fires", timer_fires as f64),
        ("netsim.deliveries", deliveries as f64),
        (
            "netsim.stale_timer_share",
            ratio(silent_timers as f64, timer_fires as f64),
        ),
        ("netsim.queue_depth_p50", queue_depth.quantile(0.5) as f64),
        ("netsim.queue_depth_max", queue_depth.max as f64),
        (
            "netsim.drops.link_down",
            counter("netsim", "drop_link_down"),
        ),
        (
            "netsim.drops.unreachable",
            counter("netsim", "drop_unreachable"),
        ),
        ("netsim.drops.loss", counter("netsim", "drop_loss")),
        (
            "netsim.drops.queue_overflow",
            counter("netsim", "drop_queue_overflow"),
        ),
        (
            "netsim.drops.receiver_down",
            counter("netsim", "drop_receiver_down"),
        ),
        ("overlay.on_start_s", time(Kind::Start)),
        ("overlay.on_timer.probe_s", time(Kind::TimerProbe)),
        ("overlay.on_timer.probe_calls", calls(Kind::TimerProbe)),
        ("overlay.on_timer.routing_s", time(Kind::TimerRouting)),
        ("overlay.on_timer.routing_calls", calls(Kind::TimerRouting)),
        ("overlay.on_timer.swim_s", time(Kind::TimerSwim)),
        ("overlay.on_timer.swim_calls", calls(Kind::TimerSwim)),
        ("overlay.on_timer.other_s", time(Kind::TimerOther)),
        ("overlay.on_timer.other_calls", calls(Kind::TimerOther)),
        ("overlay.on_packet.probe_s", time(Kind::PacketProbe)),
        ("overlay.on_packet.probe_calls", calls(Kind::PacketProbe)),
        ("overlay.on_packet.probe_bytes", bytes(Kind::PacketProbe)),
        ("overlay.on_packet.linkstate_s", time(Kind::PacketLinkState)),
        (
            "overlay.on_packet.linkstate_calls",
            calls(Kind::PacketLinkState),
        ),
        (
            "overlay.on_packet.linkstate_bytes",
            bytes(Kind::PacketLinkState),
        ),
        ("overlay.on_packet.rec_s", time(Kind::PacketRec)),
        ("overlay.on_packet.rec_calls", calls(Kind::PacketRec)),
        ("overlay.on_packet.rec_bytes", bytes(Kind::PacketRec)),
        ("overlay.on_packet.swim_s", time(Kind::PacketSwim)),
        ("overlay.on_packet.swim_calls", calls(Kind::PacketSwim)),
        ("overlay.on_packet.swim_bytes", bytes(Kind::PacketSwim)),
        ("overlay.on_packet.view_s", time(Kind::PacketView)),
        ("overlay.on_packet.view_calls", calls(Kind::PacketView)),
        ("overlay.on_packet.view_bytes", bytes(Kind::PacketView)),
        (
            "overlay.sends_per_call",
            ratio(sends as f64, callbacks as f64),
        ),
        ("overlay.view_installs", rec.view_installs as f64),
        ("linkstate.wire.decode_s", ls_decode_s),
        (
            "linkstate.wire.decode_ns_per_frame",
            ratio(ls_decode_s * 1e9, ls_decode_frames as f64),
        ),
        ("linkstate.wire.decode_bytes", ls_decode_bytes as f64),
        ("linkstate.wire.encode_s", secs(trace.encode_ns)),
        ("linkstate.store.rows_held_max", o.rows_held_max as f64),
        ("linkstate.store.entries_max", o.entries_max as f64),
        (
            "linkstate.store.rows_merged",
            counter("linkstate", "rows_merged"),
        ),
        (
            "linkstate.store.rows_evicted",
            counter("linkstate", "rows_evicted"),
        ),
        ("routing.tick_s", secs(tick.ns)),
        (
            "routing.tick_ns_per_call",
            ratio(tick.ns as f64, tick.calls as f64),
        ),
        ("routing.on_message.linkstate_s", net(Kind::PacketLinkState)),
        ("routing.on_message.rec_s", net(Kind::PacketRec)),
        ("routing.lookup_s", trace.read_wall_s),
        ("routing.lookup_ns", trace.lookup_ns),
        ("routing.prober.poll_s", secs(span(Kind::TimerProbe).ns)),
        ("routing.prober.reply_s", net(Kind::PacketProbe)),
        ("routing.bytes_per_node_s", o.routing_bytes_per_node_s),
        ("routing.probe_bytes_per_node_s", o.probe_bytes_per_node_s),
        (
            "routing.detours_committed",
            fleet.histogram_total("routing", "detour_hops").count as f64,
        ),
        (
            "routing.routes_retracted",
            counter("routing", "routes_retracted"),
        ),
        (
            "routing.recovery_s",
            o.recovery_s.or(heal_horizon_s).unwrap_or(0.0),
        ),
        ("routing.end_coverage", o.end_coverage.unwrap_or(0.0)),
        ("membership.swim.timer_s", secs(span(Kind::TimerSwim).ns)),
        ("membership.swim.packet_s", net(Kind::PacketSwim)),
        (
            "membership.wire.decode_s",
            secs(span(Kind::PacketSwim).decode_ns),
        ),
        (
            "membership.view_changes",
            (ratio(rec.view_installs as f64, workload.n() as f64) - 1.0).max(0.0),
        ),
        ("membership.bytes_per_node_s", o.membership_bytes_per_node_s),
        (
            "membership.sync_rounds",
            counter("membership", "sync_digest_rounds") + counter("membership", "sync_full_pushes"),
        ),
        ("membership.detect_s", o.detect_s.unwrap_or(0.0)),
        ("quorum.grid_build_us", trace.grid_build_us),
        ("topology.generate_s", rep.setup.topology_s),
        ("topology.schedule_s", rep.setup.schedule_s),
        ("telemetry.fleet_snapshot_s", trace.fleet_snapshot_s),
        ("telemetry.tracer_s", tracer_s),
        ("telemetry.trace_overhead_share", trace_overhead_share),
    ];
    in_spec_order(spec::PER_LAYER, &values)
}

/// `values`, which this file writes in the order `spec` lists them;
/// a name out of place is a bug here.
fn in_spec_order(
    spec: &'static [spec::Metric],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    assert!(
        spec.iter().map(|m| m.name).eq(values.iter().map(|v| v.0)),
        "metric table and computed values differ"
    );
    values.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_telemetry::Snapshot;

    fn trace(run_wall_s: f64) -> Trace {
        let mut recorder = Recorder::default();
        recorder.spans[Kind::TimerRouting as usize].ns = 400_000_000;
        recorder.spans[Kind::PacketLinkState as usize].ns = 200_000_000;
        recorder.spans[Kind::PacketLinkState as usize].decode_ns = 50_000_000;
        recorder.bookkeeping_ns = 25_000_000;
        Trace {
            recorder,
            run_wall_s,
            fleet: Snapshot::default(),
            fleet_snapshot_s: 0.0,
            grid_build_us: 0.0,
            encode_ns: 100_000_000,
            lookup_ns: 0.0,
            read_wall_s: 0.125,
        }
    }

    #[test]
    fn simulated_ledger_leaves_netsim_what_callbacks_and_tracer_do_not_take() {
        let l = ledger(&trace(1.0), false);
        assert!((l.tracer_s - 0.075).abs() < 1e-12);
        assert!((l.netsim_self_s - (1.0 - 0.6 - 0.075)).abs() < 1e-12);
        assert!((l.sum_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fabric_ledger_gives_the_untimed_rest_to_the_tracer() {
        let l = ledger(&trace(1.0), true);
        assert_eq!(l.netsim_self_s, 0.0);
        // 0.6 callbacks + 0.05 decode + 0.1 encode + 0.125 reads timed.
        assert!((l.tracer_s - 0.125).abs() < 1e-12);
        assert!((l.sum_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overfull_ledger_shows_in_the_sum() {
        // Spans that claim more than the phase lasted must not hide
        // behind a clamped remainder.
        let l = ledger(&trace(0.5), false);
        assert_eq!(l.netsim_self_s, 0.0);
        assert!(l.sum_s > 0.5 * 1.01);
    }

    /// The whole path on a quarter-size workload of each kind: outputs
    /// check out, traced and untraced agree, and layers a workload does
    /// not touch read zero.
    #[test]
    fn quarter_size_workloads_run_correct_and_attribute_layers() {
        let options = Options {
            seed: 1,
            seconds: 0.0,
            traced: true,
            min_reps: 1,
        };
        for name in ["ron-196", "fabric-1024"] {
            let workload = Workload::find(name).unwrap().quartered();
            let result = run(&workload, &options);
            assert!(result.correct, "{name}: {:?}", result.problems);
            assert_eq!(result.failed, 0);
            let names: Vec<&str> = result.per_layer.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            let get = |metric: &str| {
                result
                    .per_layer
                    .iter()
                    .find(|(n, _)| *n == metric)
                    .unwrap()
                    .1
            };
            assert_eq!(get("membership.swim.timer_s"), 0.0, "{name}");
            assert_eq!(get("membership.bytes_per_node_s"), 0.0, "{name}");
            if name == "fabric-1024" {
                assert_eq!(get("netsim.events"), 0.0);
                assert_eq!(get("overlay.on_timer.routing_s"), 0.0);
                assert!(get("routing.tick_s") > 0.0 && get("linkstate.wire.encode_s") > 0.0);
            } else {
                assert!(get("netsim.events") > 0.0 && get("netsim.self_s") > 0.0);
                assert_eq!(get("linkstate.wire.encode_s"), 0.0);
            }
        }
    }
}
