//! Host-time benchmark of the EMERALDS reproduction.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           [--fingerprints <file>] [--spans-out <file>]
//! perfbench --record-fingerprints <file>
//! ```
//!
//! One process runs one workload on one thread. The untraced pass
//! builds, runs and checks items until `--seconds` have passed (and at
//! least one whole pool of items has run), timing each item's build
//! and run separately. With `--trace 1` the time is split: the
//! untraced pass takes half, then a traced pass re-runs the same items
//! with spans around every call into the measured crates and reports
//! the per-layer numbers. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::{self_times, Recorder};
use workloads::{c, Counts, ExecSplit, Workload, SCHEDULERS};

/// The seed whose per-item fingerprints are stored with the benchmark.
const DEFAULT_SEED: u64 = 1;

/// A pass stops adding items after this long even when a pool is not
/// complete, so both passes of a traced run end inside three minutes.
const HARD_CAP_S: f64 = 80.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: Option<PathBuf>,
    spans_out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Record(PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    if let Some(path) = kv.remove("--record-fingerprints") {
        return Ok(Command::Record(path.into()));
    }
    let name = kv.remove("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload {name}; known: {}",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let seed = kv
        .remove("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = kv
        .remove("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= HARD_CAP_S) {
        return Err(format!("--seconds must be in (0, {HARD_CAP_S}]"));
    }
    let trace = match kv.remove("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let fingerprints = kv.remove("--fingerprints").map(PathBuf::from);
    let spans_out = kv.remove("--spans-out").map(PathBuf::from);
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        fingerprints,
        spans_out,
    }))
}

/// True when the measured crates were built with the wall-clock
/// profiler: an armed span then records a hit.
fn profiler_compiled_in() -> bool {
    use emeralds_sim::profile::{arm, disarm, reset, snapshot, HotSpot, Subsystem};
    arm();
    {
        let _span = HotSpot::enter(Subsystem::Dispatch);
    }
    disarm();
    let hit = snapshot().row(Subsystem::Dispatch).hits > 0;
    reset();
    hit
}

/// Host times of one item.
struct Sample {
    build_ns: u64,
    run_ns: u64,
    /// Build, run, checks and teardown.
    item_ns: u64,
}

/// Everything one pass measured. Per item it keeps only the three
/// times, so the harness's own memory barely grows with run length.
struct Pass {
    samples: Vec<Sample>,
    /// Counters of the first run of each pool item.
    first: Vec<Counts>,
    /// Counters and executive splits summed over every item.
    totals: Counts,
    exec: ExecSplit,
    failed: usize,
    /// The first few failures, one line each.
    failures: Vec<String>,
    /// `VmHWM` once every pool item has run: the items' peak footprint,
    /// before the per-item time log of a long run adds to it.
    pool_rss_mb: f64,
    rec: Recorder,
}

/// How long a pass runs: until a time has passed (and one whole pool
/// ran), or for an exact number of items.
enum Budget {
    Seconds(f64),
    Items(usize),
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Builds, runs and checks items in pool order until the budget is
/// spent. An item fails on a broken invariant, on a fingerprint that
/// differs from `expected`, or on counters that differ from another
/// run of the same pool item: `reference` when given, else this
/// pass's own first run of it.
fn run_pass(
    w: Workload,
    seed: u64,
    budget: Budget,
    mut rec: Recorder,
    expected: Option<&[u64]>,
    reference: Option<&[Counts]>,
) -> Pass {
    let pool = w.pool_len();
    let start = Instant::now();
    let mut pass = Pass {
        samples: Vec::new(),
        first: Vec::with_capacity(pool),
        totals: Counts::default(),
        exec: ExecSplit::default(),
        failed: 0,
        failures: Vec::new(),
        pool_rss_mb: 0.0,
        rec: Recorder::off(),
    };
    loop {
        let i = pass.samples.len();
        let elapsed = start.elapsed().as_secs_f64();
        let more = match budget {
            Budget::Seconds(s) => i < pool || elapsed < s,
            Budget::Items(n) => i < n,
        };
        if !more || elapsed >= HARD_CAP_S {
            break;
        }
        let p = i % pool;
        rec.set_item(i as u32);
        let root = rec.open("item", None);
        let t0 = Instant::now();
        let bs = rec.open("build", root);
        let mut built = workloads::build(w, seed, p, &mut rec, bs);
        rec.close(bs);
        let t1 = Instant::now();
        let util = workloads::run(&mut built, w, &mut rec, root);
        let t2 = Instant::now();
        let cs = rec.open("check", root);
        let mut out = workloads::check(&built, w, p, &util);
        rec.close(cs);
        let ts = rec.open("teardown", root);
        drop(built);
        rec.close(ts);
        let t3 = Instant::now();
        rec.close(root);

        if let Some(exp) = expected {
            let fp = out.counts.fingerprint();
            if exp[p] != fp {
                out.failures.push(format!(
                    "fingerprint {fp:016x} differs from the recorded {:016x}",
                    exp[p]
                ));
            }
        }
        let earlier = reference.map(|r| &r[p]).or(pass.first.get(p));
        if earlier.is_some_and(|e| *e != out.counts) {
            out.failures
                .push(format!("counters differ from another run of pool item {p}"));
        }
        if !out.failures.is_empty() {
            pass.failed += 1;
            if pass.failures.len() < 5 {
                pass.failures
                    .push(format!("item {i} (pool {p}): {}", out.failures.join("; ")));
            }
        }
        if i < pool {
            pass.first.push(out.counts);
        }
        pass.totals.add(&out.counts);
        pass.exec.add(&out.exec);
        pass.samples.push(Sample {
            build_ns: ns(t1 - t0),
            run_ns: ns(t2 - t1),
            item_ns: ns(t3 - t0),
        });
        if i + 1 == pool {
            pass.pool_rss_mb = peak_rss_mb();
        }
    }
    pass.rec = rec;
    pass
}

/// Reads `workload index fingerprint` lines.
fn load_fingerprints(path: &PathBuf, w: Workload) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut fps = vec![None; w.pool_len()];
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("malformed fingerprint line: {line}");
        if f.len() != 3 {
            return Err(bad());
        }
        if f[0] != w.name() {
            continue;
        }
        let idx: usize = f[1].parse().map_err(|_| bad())?;
        let fp = u64::from_str_radix(f[2], 16).map_err(|_| bad())?;
        *fps.get_mut(idx).ok_or_else(bad)? = Some(fp);
    }
    fps.into_iter().collect::<Option<Vec<u64>>>().ok_or(format!(
        "{} lacks fingerprints for {}",
        path.display(),
        w.name()
    ))
}

/// Runs one pool of every workload at the default seed and writes the
/// fingerprints; refuses if any item fails its invariants.
fn record_fingerprints(path: &PathBuf) -> Result<(), String> {
    let mut text = format!(
        "# Per-item fingerprints of the exact virtual counters at seed {DEFAULT_SEED}.\n\
         # Regenerate: perfbench --record-fingerprints <this file>\n"
    );
    for w in Workload::ALL {
        let pass = run_pass(
            w,
            DEFAULT_SEED,
            Budget::Items(w.pool_len()),
            Recorder::off(),
            None,
            None,
        );
        if let Some(f) = pass.failures.first() {
            return Err(format!("{}: {f}", w.name()));
        }
        for (i, counts) in pass.first.iter().enumerate() {
            writeln!(text, "{} {i} {:016x}", w.name(), counts.fingerprint())
                .expect("writing to a String");
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `VmHWM` of this process in MB (0 where `/proc` does not report it).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Ordered `name -> (value, unit)` list printed as metrics.
type Metrics = Vec<(String, f64, &'static str)>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sum(samples: &[Sample], f: impl Fn(&Sample) -> u64) -> u64 {
    samples.iter().map(f).sum()
}

/// End-to-end metrics of the untraced pass.
fn end_to_end(w: Workload, pass: &Pass) -> Result<Metrics, String> {
    let items = &pass.samples;
    let run_ms: Vec<f64> = items.iter().map(|r| r.run_ns as f64 / 1e6).collect();
    let run_s = sum(items, |r| r.run_ns) as f64 / 1e9;
    let p90 = stats::tail_quantile(&run_ms, 0.9)
        .map_err(|beyond| format!("p90 over {} items has {beyond} beyond it", items.len()))?;
    // Set-up: the build time of one whole mix of items, median over
    // the complete mixes of the run.
    let setup: Vec<f64> = items
        .chunks_exact(w.mix_len())
        .map(|mix| sum(mix, |r| r.build_ns) as f64 / 1e9)
        .collect();
    Ok(vec![
        ("items_per_s".into(), items.len() as f64 / run_s, "1/s"),
        ("item_ms_p50".into(), stats::median(&run_ms), "ms"),
        ("item_ms_p90".into(), p90, "ms"),
        ("setup_s".into(), stats::median(&setup), "s"),
        ("peak_rss_mb".into(), pass.pool_rss_mb, "MB"),
    ])
}

/// Per-layer metrics: exact counts over the untraced pass's first
/// pool, times and shares from the traced pass.
fn per_layer(untraced: &Pass, traced: &Pass) -> Metrics {
    let mut n = Counts::default();
    for counts in &untraced.first {
        n.add(counts);
    }
    let t = &traced.samples;
    let spans = traced.rec.spans();
    let span_median = |name: &str, scale: f64| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / scale)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    };
    let tc = |i: usize| traced.totals.0[i];
    // Bus shares and ratios describe flat clusters only (a topology's
    // broadcast fan-out would read as more deliveries than sends).
    let flat = |den: u64| if n.0[c::BARRIERS] > 0 { den } else { 0 };
    let e = &traced.exec;
    let advance = e.inner_wall_ns - e.inner_exchange_ns;

    let mut m: Metrics = vec![
        (
            "core.ns_per_ctxsw".into(),
            ratio(sum(t, |r| r.run_ns), tc(c::CTX_SWITCHES)),
            "ns",
        ),
        ("core.build_us".into(), span_median("try_build", 1e3), "us"),
    ];
    let counts = |m: &mut Metrics, layer: &str, list: &[(&str, usize)]| {
        for &(name, i) in list {
            m.push((format!("{layer}.{name}"), n.0[i] as f64, "count"));
        }
    };
    counts(
        &mut m,
        "core",
        &[
            ("ctx_switches", c::CTX_SWITCHES),
            ("jobs", c::JOBS),
            ("select_calls", c::SELECT_CALLS),
            ("select_evals", c::SELECT_EVALS),
            ("timer_arms", c::TIMER_ARMS),
            ("sem_acquired", c::SEM_ACQUIRED),
            ("sem_fast_acquires", c::SEM_FAST_ACQUIRES),
            ("trace_events", c::TRACE_EVENTS),
        ],
    );
    m.extend([
        (
            "bus.exchange_frac".into(),
            ratio(e.bus_exchange_ns, e.bus_wall_ns),
            "ratio",
        ),
        (
            "bus.exchange_ns_per_frame".into(),
            ratio(e.bus_exchange_ns, tc(c::FRAMES_SENT)),
            "ns",
        ),
        (
            "bus.advance_ns_per_barrier".into(),
            ratio(e.bus_wall_ns - e.bus_exchange_ns, tc(c::BARRIERS)),
            "ns",
        ),
        (
            "bus.utilization".into(),
            ratio(n.0[c::BUS_BUSY_NS], flat(n.0[c::SIM_NS])),
            "ratio",
        ),
        (
            "bus.useful_frac".into(),
            ratio(
                n.0[c::FRAMES_DELIVERED],
                flat(n.0[c::FRAMES_SENT] + n.0[c::RETRANSMISSIONS]),
            ),
            "ratio",
        ),
    ]);
    counts(
        &mut m,
        "bus",
        &[
            ("barriers", c::BARRIERS),
            ("frames_sent", c::FRAMES_SENT),
            ("frames_delivered", c::FRAMES_DELIVERED),
            ("retransmissions", c::RETRANSMISSIONS),
            ("error_frames", c::ERROR_FRAMES),
            ("bus_off_events", c::BUS_OFF_EVENTS),
            ("state_overwrites", c::STATE_OVERWRITES),
        ],
    );
    m.extend([
        (
            "topo.advance_frac".into(),
            ratio(advance, e.topo_wall_ns),
            "ratio",
        ),
        (
            "topo.segment_exchange_frac".into(),
            ratio(e.inner_exchange_ns, e.topo_wall_ns),
            "ratio",
        ),
        (
            "topo.gateway_frac".into(),
            ratio(e.gateway_ns, e.topo_wall_ns),
            "ratio",
        ),
        (
            "topo.route_build_us".into(),
            span_median("route_build", 1e3),
            "us",
        ),
    ]);
    counts(
        &mut m,
        "topo",
        &[
            ("outer_barriers", c::OUTER_BARRIERS),
            ("inner_barriers", c::INNER_BARRIERS),
            ("gateway_forwarded", c::GATEWAY_FORWARDED),
            ("reroutes", c::REROUTES),
            ("no_route_drops", c::NO_ROUTE_DROPS),
            ("bcast_fanout", c::BCAST_FANOUT),
        ],
    );
    for (_, name) in SCHEDULERS {
        m.push((
            format!("sched.breakdown_ms.{name}"),
            span_median(name, 1e6),
            "ms",
        ));
    }
    counts(&mut m, "sched", &[("tasks_analysed", c::TASKS_ANALYSED)]);

    // Residual: item time no child span covers (the harness's own
    // work between calls), as a share of item time.
    let own = self_times(spans);
    let (mut item_ns, mut covered_ns) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(&own) {
        if s.parent.is_none() {
            item_ns += s.duration_ns();
        } else {
            covered_ns += o;
        }
    }
    // Over the items both passes ran (the traced pass stops short only
    // at the time cap).
    let both = t.len().min(untraced.samples.len());
    let untraced_ns = sum(&untraced.samples[..both], |r| r.item_ns);
    m.extend([
        (
            "trace.residual_frac".into(),
            (item_ns as f64 - covered_ns as f64) / item_ns as f64,
            "ratio",
        ),
        (
            "trace.overhead_frac".into(),
            (sum(&t[..both], |r| r.item_ns) as f64 - untraced_ns as f64) / untraced_ns as f64,
            "ratio",
        ),
    ]);
    m
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints a pass's first failures and returns how many items failed.
fn report_failures(label: &str, pass: &Pass) -> usize {
    for f in &pass.failures {
        println!("FAIL {label} {f}");
    }
    pass.failed
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let expected = match (&args.fingerprints, args.seed == DEFAULT_SEED) {
        (Some(path), true) => Some(load_fingerprints(path, w)?),
        _ => None,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers=1 pool={} mix={} debug_assertions={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.pool_len(),
        w.mix_len(),
        cfg!(debug_assertions)
    );
    println!(
        "fingerprints: {}",
        if expected.is_some() {
            "checked against the recorded default-seed values"
        } else {
            "not recorded for this seed; items checked by their invariants"
        }
    );
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_pass(
        w,
        args.seed,
        Budget::Seconds(untraced_s),
        Recorder::off(),
        expected.as_deref(),
        None,
    );
    let n = untraced.samples.len();
    if n < w.pool_len() {
        return Err(format!(
            "only {n} items inside the {HARD_CAP_S} s cap; a run needs a whole pool of {}",
            w.pool_len()
        ));
    }
    let mut attempted = n;
    let mut failed = report_failures("untraced", &untraced);
    let metrics = if args.trace {
        // The same items again, with spans; every item's counters must
        // match its untraced run exactly.
        let traced = run_pass(
            w,
            args.seed,
            Budget::Items(n),
            Recorder::on(),
            expected.as_deref(),
            Some(&untraced.first),
        );
        attempted += traced.samples.len();
        failed += report_failures("traced", &traced);
        if let Some(path) = &args.spans_out {
            let write = || -> std::io::Result<()> {
                let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
                traced.rec.write_tsv(&mut f)?;
                std::io::Write::flush(&mut f)
            };
            write().map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "spans: {} written to {}",
                traced.rec.spans().len(),
                path.display()
            );
        }
        per_layer(&untraced, &traced)
    } else {
        let m = end_to_end(w, &untraced)?;
        let run_ms = sum(&untraced.samples, |r| r.run_ns) as f64 / 1e6;
        match w.horizon() {
            Some(h) => println!(
                "metric sim_ms_per_wall_ms {} ratio (items_per_s x {} ms horizon / 1000)",
                n as f64 * h.as_ms_f64() / run_ms,
                h.as_ms_f64()
            ),
            None => println!(
                "metric tasksets_per_s {} 1/s (= items_per_s)",
                n as f64 * 1e3 / run_ms
            ),
        }
        m
    };
    println!(
        "metric failed_frac {} ratio ({failed} of {attempted} items)",
        failed as f64 / attempted as f64
    );
    println!("wait: barrier wait is not reported; at workers = 1 nothing waits at a barrier");
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    Ok(json_line(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if profiler_compiled_in() {
        eprintln!("perfbench: refusing to run: emeralds-sim was built with wall-profile");
        return ExitCode::from(2);
    }
    let result = match cmd {
        Command::Record(path) => record_fingerprints(&path)
            .map(|()| format!("fingerprints written to {}", path.display())),
        Command::Run(args) => run(&args),
    };
    match result {
        Ok(last) => {
            println!("{last}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_fingerprint_fails_the_item() {
        let w = Workload::KernelBoards;
        let run = |expected: Option<&[u64]>| {
            run_pass(w, 3, Budget::Items(2), Recorder::off(), expected, None)
        };
        let clean = run(None);
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        let mut expected: Vec<u64> = clean.first.iter().map(Counts::fingerprint).collect();
        expected.resize(w.pool_len(), 0);
        assert_eq!(run(Some(&expected)).failed, 0);
        expected[1] ^= 1;
        let checked = run(Some(&expected));
        assert_eq!(checked.failed, 1);
        assert!(checked.failures[0].starts_with("item 1 (pool 1): fingerprint"));
    }

    #[test]
    fn differing_counters_fail_the_item() {
        let w = Workload::KernelBoards;
        let clean = run_pass(w, 3, Budget::Items(2), Recorder::off(), None, None);
        let mut reference = clean.first.clone();
        reference[0].0[c::JOBS] += 1;
        let checked = run_pass(
            w,
            3,
            Budget::Items(2),
            Recorder::off(),
            None,
            Some(&reference),
        );
        assert_eq!(checked.failed, 1);
        assert!(checked.failures[0].contains("counters differ"));
    }

    #[test]
    fn traced_items_have_build_run_and_check_children() {
        let pass = run_pass(
            Workload::AnalysisSweep,
            3,
            Budget::Items(1),
            Recorder::on(),
            None,
            None,
        );
        let names: Vec<&str> = pass.rec.spans().iter().map(|s| s.name).collect();
        for want in ["item", "build", "run", "csd4", "rm", "check", "teardown"] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload bus_traffic --trace 2")).is_err());
        assert!(parse_args(&args("--workload bus_traffic --bogus 1")).is_err());
        assert!(matches!(
            parse_args(&args(
                "--workload bus_traffic --seed 4 --seconds 2 --trace 1"
            )),
            Ok(Command::Run(Args {
                seed: 4,
                trace: true,
                ..
            }))
        ));
    }
}
