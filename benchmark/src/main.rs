//! `rvsim-benchmark`: the repository benchmark.
//!
//! Drives a spawned `rvsim-cli serve` over loopback HTTP the way the paper's
//! users drive the web simulator, on one of four workloads, and prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) by name
//! with its unit.  The last line of stdout is one JSON object with the
//! result.  See `README.md` beside this crate.
//!
//! ```text
//! rvsim-benchmark --workload <batch|gui_step|gui_refresh|time_travel>
//!                 [--seed N] [--seconds N] [--trace 0|1]
//! ```

mod client;
mod gen;
mod http;
mod load;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use client::{Client, Server};
use gen::{poisson_schedule, Inputs, Rng, Size};
use load::{Stop, Tally};
use report::{Metric, END_TO_END, PHASES, PRESETS};
use stats::Histogram;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Clock, Recorder, Span};
use workload::Workload;

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Which round a latency percentile is reported from, as a quantile over the
/// rounds (the second fastest of 20).  Other tenants only ever add time: on
/// a shared two-core virtual machine the host ran for seconds to minutes at
/// a time at about 60% of its speed.  A round it left alone reads the
/// program's own latency, and one freak round cannot set the result.
const ROUND_QUANTILE: f64 = 0.1;
/// Closed-loop warm-up at the start of each round, as a share of the
/// round's measured time.
const WARMUP_SHARE: f64 = 0.08;
/// A traced run follows each round's latency window with a capacity trial
/// this long, as a share of the round's measured time.
const CAPACITY_SHARE: f64 = 0.4;
/// Batch loops run one sweep over the presets per this many seconds of the
/// round's measured time, rounded: fixed work, so the mix of presets in a
/// round and the sessions each server sees do not depend on the host's
/// speed.
const BATCH_SWEEP_S: f64 = 0.5;
/// Load connections (and threads) during a measured window.
const CONNECTIONS: usize = 2;

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rvsim-cli` binary to serve with.
    pub server_exe: PathBuf,
    /// Where a traced run writes `trace-<workload>.ndjson`.
    pub trace_dir: PathBuf,
    pub size: Size,
}

const USAGE: &str = "usage: rvsim-benchmark --workload <batch|gui_step|gui_refresh|time_travel> \
                     [--seed N] [--seconds N] [--trace 0|1]";

impl Config {
    /// Parse the command line.  `rvsim-cli` is expected beside this
    /// executable, which is where a Cargo build of the repository puts it.
    fn from_args(args: &[String]) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, DEFAULT_SECONDS, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|_| format!("bad --seed\n{USAGE}"))?,
                "--seconds" => {
                    seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds\n{USAGE}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                    };
                }
                _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
            }
        }
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let bin_dir = exe.parent().ok_or("executable has no directory")?;
        let target_dir = bin_dir.parent().unwrap_or(bin_dir);
        Ok(Config {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            seconds,
            trace,
            server_exe: bin_dir.join("rvsim-cli"),
            trace_dir: target_dir.join("rvsim-benchmark"),
            size: Size::FULL,
        })
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Pooled tallies of one phase.
#[derive(Debug, Default)]
struct Pool {
    late_us: Vec<f64>,
    ops: u64,
    failed: u64,
}

impl Pool {
    fn add(&mut self, tallies: &[Tally]) {
        for t in tallies {
            self.late_us.extend(&t.late_us);
            self.ops += t.ops;
            self.failed += t.failed;
            for e in &t.errors {
                eprintln!("rvsim-benchmark: operation failed: {e}");
            }
        }
    }
}

/// What a traced run gathers across its rounds.
#[derive(Debug, Default)]
struct Ledger {
    spans: Vec<Span>,
    wire_us: Vec<f64>,
    /// Server phase histograms over the measured windows, in
    /// [`report::PHASES`] order.
    phases: Vec<Histogram>,
    /// Handler time from the exact `rvsim_endpoint_seconds` sums.
    handler_us: f64,
    server_cpu_s: f64,
    client_cpu_s: f64,
}

/// Closed-loop operations per second of one trial: per connection,
/// completed operations over the time to its last completion, summed.
fn rate(tallies: &[Tally]) -> Result<f64, String> {
    tallies
        .iter()
        .map(|t| match t.ops - t.failed {
            0 => Err("no operation completed".to_string()),
            served => Ok(served as f64 / t.busy_s),
        })
        .sum()
}

/// Run one workload end to end.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let workload = config.workload;
    let inputs = Inputs::generate(config.seed, &config.size);
    let clock = Clock::start();
    let name = workload.op_name();
    let round_s = config.seconds / config.size.rounds as f64;
    // Each purpose draws from its own block of streams, one stream per round
    // (per round and connection for the open-loop schedules).
    let seed_for = |phase: u64| Rng::new(config.seed, phase).next_u64();
    let stop = |s: f64| match workload {
        Workload::Batch => Stop::Sweeps((s / BATCH_SWEEP_S).round().max(1.0) as u64),
        _ => Stop::After(secs(s)),
    };

    let mut setup_s = Vec::new();
    // Latency percentiles of each round; see [`ROUND_QUANTILE`].
    let (mut p50_ms, mut p90_ms) = (Vec::new(), Vec::new());
    let (mut latency, mut capacity) = (Pool::default(), Pool::default());
    let (mut round_capacity, mut peak_rss_mb) = (Vec::new(), Vec::new());
    let (mut checks, mut check_failures) = (0, Vec::new());
    let mut cells = Vec::new();
    let mut ledger =
        Ledger { phases: vec![Histogram::default(); PHASES.len()], ..Ledger::default() };
    // Each round starts a fresh server and sets it up again, so one server
    // process's memory layout and scheduling luck, and the program phase its
    // sessions drift into under load, weigh on one round only.
    for round in 0..config.size.rounds {
        let r = round as u64;
        // Request ids stay unique across the run's servers, so the spans
        // file's parent links are unambiguous.
        let tag = |t: usize| (1 + round * (CONNECTIONS + 1) + t) as u64;
        let start = Instant::now();
        let server = Server::spawn(&config.server_exe, config.trace)?;
        let mut ctl = Client::new(server.addr, Recorder::new(clock, false, tag(0)));
        let mut setup = workload.build(&mut ctl, &inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let (n, failures) = workload.capture(&mut ctl, &mut setup, &inputs, &cells)?;
        (checks, cells) = (checks + n, setup.cells.clone());
        check_failures.extend(failures);

        let mut clients: Vec<Client> = (1..=CONNECTIONS)
            .map(|t| Client::new(server.addr, Recorder::new(clock, false, tag(t))))
            .collect();
        // Each connection owns its sessions, so per-session expectations
        // never race.  Batch connections cycle through the presets instead:
        // a batch operation creates its own sessions.
        let owned: Vec<Vec<usize>> = match workload {
            Workload::Batch => vec![(0..PRESETS.len()).collect(); CONNECTIONS],
            _ => {
                let ages: Vec<u64> = setup.sessions.iter().map(|s| s.age).collect();
                gen::deal_sessions(&ages, CONNECTIONS, &mut Rng::new(config.seed, 3))
            }
        };
        let op = |client: &mut Client, session: usize| workload.op(client, &setup, session);

        if workload != Workload::Batch {
            let warmup = stop(round_s * WARMUP_SHARE);
            load::closed_loop(&mut clients, &owned, warmup, seed_for(1_000 + r), name, &op);
        }
        // A traced run scrapes the server's metrics and reads both
        // processes' CPU time around the measured windows.
        let before = match config.trace {
            true => Some((
                ctl.get("/metrics")?,
                stats::cpu_seconds(server.pid())?,
                stats::cpu_seconds(std::process::id())?,
            )),
            false => None,
        };

        // Latency window, the round's measured time: the open loop, or one
        // user in whole sweeps.  Spans cover the latency windows only: the
        // capacity trials would multiply the spans file tenfold and tell
        // nothing new.
        clients.iter_mut().for_each(|c| c.rec.tracing = config.trace);
        let tallies = match workload.open_rate() {
            Some(rate) => {
                let schedules = owned
                    .iter()
                    .enumerate()
                    .map(|(t, mine)| {
                        let mut rng =
                            Rng::new(config.seed, 2_000 + r * CONNECTIONS as u64 + t as u64);
                        poisson_schedule(&mut rng, rate / CONNECTIONS as f64, round_s, mine)
                    })
                    .collect();
                load::open_loop(&mut clients, schedules, name, secs(5.0 + round_s), &op)
            }
            None => {
                let window = stop(round_s);
                load::closed_loop(
                    &mut clients[..1],
                    &owned[..1],
                    window,
                    seed_for(3_000 + r),
                    name,
                    &op,
                )
            }
        };
        clients.iter_mut().for_each(|c| c.rec.tracing = false);
        latency.add(&tallies);
        let mut lat_us: Vec<f64> = tallies.iter().flat_map(|t| t.lat_us.iter().copied()).collect();
        if lat_us.is_empty() {
            return Err("no operation completed".into());
        }
        lat_us.sort_by(f64::total_cmp);
        p50_ms.push(stats::percentile(&lat_us, 0.5) / 1e3);
        p90_ms.push(stats::percentile(&lat_us, 0.9) / 1e3);
        if let Some((metrics_before, server_cpu_s, client_cpu_s)) = before {
            for client in &mut clients {
                ledger.spans.append(&mut client.rec.spans);
            }
            let journal = ctl.get("/admin/trace?n=4096")?;
            ledger.wire_us.extend(trace::join_server_events(&mut ledger.spans, &journal, &clock));

            // Capacity trial, traced runs only: a closed loop on every
            // connection.  Its rate moved by a fifth between identical runs
            // on a shared two-core host, too much to carry a bound.
            let trial = stop(round_s * CAPACITY_SHARE);
            let tallies =
                load::closed_loop(&mut clients, &owned, trial, seed_for(4_000 + r), name, &op);
            round_capacity.push(rate(&tallies)?);
            capacity.add(&tallies);

            ledger.server_cpu_s += stats::cpu_seconds(server.pid())? - server_cpu_s;
            ledger.client_cpu_s += stats::cpu_seconds(std::process::id())? - client_cpu_s;
            let (phases, handler_us) = server_deltas(&metrics_before, &ctl.get("/metrics")?)?;
            ledger.phases.iter_mut().zip(&phases).for_each(|(sum, delta)| sum.add(delta));
            ledger.handler_us += handler_us;
        }
        peak_rss_mb.push(stats::peak_rss_mib(server.pid())?);
        let (n, failures) = workload.final_check(&mut ctl, &setup)?;
        checks += n;
        check_failures.extend(failures);
    }
    for failure in &check_failures {
        eprintln!("rvsim-benchmark: check failed: {failure}");
    }

    let measured_ops = latency.ops + capacity.ops;
    let attempted = measured_ops + checks;
    let failed = latency.failed + capacity.failed + check_failures.len() as u64;
    let lat_p50_ms = stats::percentile_of(&p50_ms, ROUND_QUANTILE);
    eprintln!(
        "rvsim-benchmark: {} latency samples over {} s in {} rounds, {} operations measured",
        latency.ops - latency.failed,
        config.seconds,
        config.size.rounds,
        measured_ops
    );

    let metrics = if config.trace {
        // The probes' tag follows every round's tags.
        let mut rec =
            Recorder::new(clock, true, (1 + config.size.rounds * (CONNECTIONS + 1)) as u64);
        let mut values = probes::run(&mut rec, &inputs, &config.size)?;
        ledger.spans.append(&mut rec.spans);
        let ops = measured_ops as f64;
        for (phase, hist) in PHASES.iter().zip(&ledger.phases) {
            values.push((format!("net.phase.{phase}.p50_us"), hist.quantile_us(0.5)));
            values.push((format!("net.phase.{phase}.p99_us"), hist.quantile_us(0.99)));
        }
        let wire_us = &ledger.wire_us;
        values.extend([
            ("net.endpoint.us_per_op".into(), ledger.handler_us / ops),
            ("net.wire_us".into(), if wire_us.is_empty() { 0.0 } else { stats::median(wire_us) }),
            ("server.cpu_us_per_op".into(), ledger.server_cpu_s * 1e6 / ops),
            ("client.cpu_us_per_op".into(), ledger.client_cpu_s * 1e6 / ops),
            ("client.late_p99_ms".into(), stats::percentile_of(&latency.late_us, 0.99) / 1e3),
            ("trace.lat_p50_ms".into(), lat_p50_ms),
            ("trace.capacity_ops_s".into(), stats::median(&round_capacity)),
            ("trace.joined_requests".into(), wire_us.len() as f64),
        ]);
        let path = config.trace_dir.join(format!("trace-{}.ndjson", workload.name()));
        trace::write_ndjson(&path, &ledger.spans)?;
        eprintln!("rvsim-benchmark: {} spans written to {}", ledger.spans.len(), path.display());
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                value
                    .map(|value| Metric { name: name.clone(), unit, value })
                    .ok_or(format!("metric {name} was not measured"))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let values = [
            stats::median(&setup_s),
            lat_p50_ms,
            stats::percentile_of(&p90_ms, ROUND_QUANTILE),
            stats::median(&peak_rss_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name: name.into(), unit, value })
            .collect()
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", m.name));
    }
    Ok(Outcome { attempted, failed, metrics })
}

/// What one server's `/metrics` gained between two scrapes: the phase
/// histograms, in [`report::PHASES`] order, and the handler time summed
/// over every endpoint.
fn server_deltas(before: &str, after: &str) -> Result<(Vec<Histogram>, f64), String> {
    let phases_before = stats::histograms(before, "rvsim_request_phase_seconds", "phase")?;
    let phases_after = stats::histograms(after, "rvsim_request_phase_seconds", "phase")?;
    let series = |list: &[(String, Histogram)], phase: &str| {
        list.iter().find(|(p, _)| p == phase).map(|(_, h)| h.clone()).unwrap_or_default()
    };
    let phases = PHASES
        .iter()
        .map(|phase| series(&phases_after, phase).since(&series(&phases_before, phase)))
        .collect();
    let handler_us = |text: &str| -> Result<f64, String> {
        let endpoints = stats::histograms(text, "rvsim_endpoint_seconds", "endpoint")?;
        Ok(endpoints.iter().map(|(_, h)| h.sum_us).sum())
    };
    Ok((phases, handler_us(after)? - handler_us(before)?))
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            for metric in &outcome.metrics {
                println!("{}", report::metric_line(metric));
            }
            let correct = outcome.failed == 0;
            println!(
                "{}",
                report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("rvsim-benchmark: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rvsim-cli` from the same Cargo target directory as this test.
    fn server_exe() -> Option<PathBuf> {
        let exe = std::env::current_exe().ok()?;
        let target = exe.parent()?.parent()?.parent()?;
        ["debug", "release"]
            .iter()
            .map(|profile| target.join(profile).join("rvsim-cli"))
            .find(|p| p.is_file())
    }

    #[test]
    fn every_workload_runs_clean_at_test_size() {
        let Some(server_exe) = server_exe() else {
            eprintln!(
                "skipping: no rvsim-cli beside the test executable (build the repository first)"
            );
            return;
        };
        let trace_dir =
            std::env::temp_dir().join(format!("rvsim-benchmark-test-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let config = Config {
                    workload,
                    seed: 1,
                    seconds: 0.25,
                    trace,
                    server_exe: server_exe.clone(),
                    trace_dir: trace_dir.clone(),
                    size: Size::TEST,
                };
                let outcome = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert_eq!(outcome.failed, 0, "{} failed operations", workload.name());
                assert!(outcome.attempted > 0);
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
                let expected: Vec<String> = if trace {
                    report::per_layer().into_iter().map(|(n, _)| n).collect()
                } else {
                    END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
                };
                assert_eq!(names, expected);
            }
        }
        let spans =
            std::fs::read_to_string(trace_dir.join("trace-gui_step.ndjson")).expect("spans file");
        assert!(spans.lines().any(|l| l.contains("\"name\":\"server.handler\"")));
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn arguments_parse() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let config = Config::from_args(&args(&[
            "--workload",
            "time_travel",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (config.workload, config.seed, config.seconds, config.trace),
            (Workload::TimeTravel, 9, 3.0, true)
        );
        assert_eq!(Config::from_args(&args(&["--workload", "batch"])).unwrap().seed, 1);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "batch", "--trace", "yes"],
            &["--workload", "batch", "--extra"],
        ] {
            assert!(Config::from_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
