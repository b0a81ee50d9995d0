//! The command line: the contract's single-run entry point, `run`, `compare` and
//! `self-test`.

use crate::common::Checks;
use crate::metrics::Metric;
use crate::script::{Path, Size, Workload, WIRE_DEPLOYMENTS, WORKLOADS};
use crate::{compare, engine_run, host, json, metrics, oracle, trace, wire_run};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// How one run is carried out.
pub struct RunOptions {
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set up once only (traced and smoke runs do not report `setup_s`).
    pub single_setup: bool,
    /// Forge one answer before it is digested — the oracle must then reject the run.
    pub flip_one_answer: bool,
}

impl RunOptions {
    /// Set-ups a run performs so that `setup_s` is a median and not one sample:
    /// three, or as many as fit in a second when one is quick (at most nine).
    /// Decided once the first set-up has been timed; until then, the minimum.
    pub fn setup_count(&self, first_setup_s: Option<f64>) -> usize {
        match first_setup_s {
            _ if self.single_setup => 1,
            None => 3,
            Some(first) => ((1.0 / first).ceil() as usize).clamp(3, 9),
        }
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
    /// The host conditions the run met — what undoes the speed compensation.
    pub host_note: String,
}

impl RunResult {
    /// The result line of the benchmark contract.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What a harness handed back, whichever path the workload takes.
enum Outcome {
    Engine(engine_run::EngineOutcome),
    Wire(wire_run::WireOutcome),
}

/// Runs one workload once: the harness, then the oracle, then (traced) the layer
/// decomposition.
pub fn run_workload(w: &Workload, opts: &RunOptions) -> RunResult {
    let origin = Instant::now();
    let mut checks = Checks::default();
    let outcome = match w.path {
        Path::Engine => Outcome::Engine(engine_run::run(w, opts, &mut checks)),
        Path::Wire { .. } => Outcome::Wire(wire_run::run(w, opts, &mut checks)),
    };
    let measured = match &outcome {
        Outcome::Engine(out) => out.measured.clone(),
        Outcome::Wire(out) => out.measured.clone(),
    };
    let twins = oracle::solo_twins(w);
    checks.require(measured.digest == twins.digest, || {
        format!(
            "answers {:?} differ from the solo twin's {:?}",
            measured.digest, twins.digest
        )
    });
    let layers = opts.trace.then(|| match outcome {
        Outcome::Engine(out) => metrics::engine_layers(w, out, origin, &mut checks),
        Outcome::Wire(out) => metrics::wire_layers(w, out, &twins, origin, &mut checks),
    });
    checks.require(measured.failed == 0, || {
        format!(
            "{} of {} operations failed",
            measured.failed, measured.attempted
        )
    });
    let metrics = match layers {
        None => metrics::end_to_end(&measured),
        Some((metrics, spans)) => {
            let path = format!("bench/out/trace_{}.json", w.name);
            match trace::write_json(std::path::Path::new(&path), w.name, &spans) {
                Ok(()) => eprintln!("{}: {} spans written to {path}", w.name, spans.len()),
                Err(e) => checks.require(false, || format!("cannot write {path}: {e}")),
            }
            metrics
        }
    };
    let nominal = metrics::AtNominalSpeed::of(&measured);
    let host_note = format!(
        "host ran at {:.3}x the nominal kernel time, CPU share {:.3}, raw median tick {:.4} ms ({} measured ticks)",
        nominal.median_speed(),
        nominal.cpu_share,
        crate::stats::median_ns(&measured.tick_ns, 1e6),
        measured.tick_ns.len()
    );
    RunResult {
        host_note,
        correct: checks.passed(),
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        metrics,
        failures: checks.failures,
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Command-line flags as `--name value` pairs plus bare switches and positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// `switches` are the flags that take no value; every other `--flag` takes one.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut args = Self {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
            } else if switches.contains(&arg.as_str()) {
                args.flags.push((arg.clone(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.flags.push((arg.clone(), Some(value.clone())));
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got `{v}`")),
        }
    }
}

/// The contract entry point: one workload, one run, the result as the last line.
fn single_run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["--smoke", "--flip-one-answer"])?;
    let name = args
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let seed = args.number("--seed", 1)?;
    let size = if args.has("--smoke") {
        Size::Smoke
    } else {
        Size::Seconds(args.number("--seconds", 10)?)
    };
    let trace = args.number("--trace", 0)? != 0;
    let w = Workload::named(name, seed, size).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; there are {}",
            WORKLOADS.join(", ")
        )
    })?;
    let opts = RunOptions {
        trace,
        single_setup: trace || size == Size::Smoke,
        flip_one_answer: args.has("--flip-one-answer"),
    };
    let result = run_workload(&w, &opts);
    eprintln!("{name}: {}", result.host_note);
    for failure in &result.failures {
        eprintln!("{name}: CHECK FAILED: {failure}");
    }
    println!("{}", result.to_json());
    Ok(exit_code(result.correct))
}

/// Runs `workload` in a fresh child process (so `peak_rss_mb` is its own) and parses
/// the result line.  `Err` carries the child's failure.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    extra: &[&str],
) -> Result<json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no result line".to_string())
        .and_then(json::Json::parse);
    for note in stderr.lines() {
        println!("# {note}");
    }
    match parsed {
        Ok(result) if output.status.success() => Ok(result),
        Ok(_) => Err(format!("{workload} failed its checks:\n{stderr}")),
        Err(e) => Err(format!("{workload} printed no result ({e}):\n{stderr}")),
    }
}

/// `run`: every selected workload in its own child, `--sets` times; prints
/// `workload metric value unit`, writes the result files, and with two or more sets
/// compares the first against the last.
fn run_command(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["--all", "--smoke", "--trace"])?;
    let workloads: Vec<&str> = match args.value("--workload") {
        Some(name) => vec![name],
        None if args.has("--all") => WORKLOADS.to_vec(),
        None => return Err("run needs --all or --workload <name>".to_string()),
    };
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", 10)?;
    let sets = args.number("--sets", 1)?.max(1);
    let trace = args.has("--trace");
    let extra: Vec<&str> = if args.has("--smoke") {
        vec!["--smoke"]
    } else {
        Vec::new()
    };
    let stem = args.value("--out").unwrap_or(if trace {
        "bench/out/trace"
    } else {
        "bench/out/run"
    });

    let host = host::Fingerprint::read();
    println!("# host: {host}");
    println!(
        "# load: closed loop, lock-step ticks; wire workloads use {n} client threads/connections, {} wire workers, {n} fleet threads (nproc = {})",
        wire_run::WIRE_WORKERS,
        host.nproc,
        n = WIRE_DEPLOYMENTS
    );
    println!(
        "# seed {seed}, --seconds {seconds}{}, {}",
        if extra.is_empty() {
            ""
        } else {
            " (smoke size)"
        },
        if trace {
            "traced pass: per-layer metrics"
        } else {
            "untraced pass: end-to-end metrics"
        }
    );

    let mut ok = true;
    let mut files = Vec::new();
    for set in 1..=sets {
        let mut results = Vec::new();
        for &workload in &workloads {
            match run_child(workload, seed, seconds, trace, &extra) {
                Ok(result) => {
                    let number = |of: &json::Json, key: &str| {
                        of.get(key).and_then(json::Json::as_f64).unwrap_or(0.0)
                    };
                    let (samples, failed) =
                        (number(&result, "attempted"), number(&result, "failed"));
                    for (name, metric) in
                        result.get("metrics").map_or(&[][..], json::Json::as_object)
                    {
                        let unit = metric
                            .get("unit")
                            .and_then(json::Json::as_str)
                            .unwrap_or("");
                        println!("{workload} {name} {} {unit}", number(metric, "value"));
                    }
                    if !trace {
                        println!("{workload} failed_ops_share {} ratio ({failed} of {samples} operations)", failed / samples.max(1.0));
                    }
                    results.push((workload, result));
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        let path = format!("{stem}.set{set}.json");
        compare::write_result_file(&path, &host, seed, seconds, &results)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# set {set} of {sets} written to {path}");
        files.push(path);
    }
    if ok && !trace && files.len() >= 2 {
        ok = compare::compare_files(&files[0], &files[files.len() - 1], args.value("--spec"))?;
    }
    Ok(exit_code(ok))
}

/// `self-test`: the command must exit non-zero when a single answer is wrong.
fn self_test() -> Result<ExitCode, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        let clean = run_child(workload, 1, 10, false, &["--smoke"]);
        let forged = run_child(workload, 1, 10, false, &["--smoke", "--flip-one-answer"]);
        let verdict = match (&clean, &forged) {
            (Ok(_), Err(_)) => "ok",
            (Err(_), _) => "FAIL (the clean run did not pass)",
            (_, Ok(_)) => "FAIL (a flipped answer went unnoticed)",
        };
        println!("self-test {workload}: clean run passes, flipped answer is rejected: {verdict}");
        ok &= verdict == "ok";
    }
    Ok(exit_code(ok))
}

/// The whole command line; `main` is this and nothing else.
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => run_command(&raw[1..]),
        Some("compare") => Args::parse(&raw[1..], &[]).and_then(|args| match args.positional.as_slice() {
            [a, b] => compare::compare_files(a, b, args.value("--spec"))
                .map(exit_code),
            _ => Err("compare takes two result files".to_string()),
        }),
        Some("self-test") => self_test(),
        Some(flag) if flag.starts_with("--") => single_run(&raw),
        _ => Err("usage: kspot-benchmark (run --all | compare <a.json> <b.json> | self-test | --workload <name> --seed <n> --seconds <s> --trace <0|1>)".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("kspot-benchmark: {e}");
        ExitCode::from(2)
    })
}
