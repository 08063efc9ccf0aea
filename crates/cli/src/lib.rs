//! # rvsim-cli — batch benchmarking interface
//!
//! The paper's CLI (§II-E) lets advanced users run large programs in a batch
//! fashion: it takes an assembly (or C) source file and an architecture
//! description in JSON, plus options for the entry point, memory contents,
//! output verbosity and output format (text or JSON).  The original CLI
//! connects to the simulation server over HTTP; this reproduction runs the
//! simulator in-process, which preserves the user-visible behaviour (same
//! inputs, same reports) without the network hop.

#![warn(missing_docs)]

use rvsim_cc::OptLevel;
use rvsim_core::{ArchitectureConfig, HaltReason, Simulator};
use rvsim_mem::MemorySettings;

/// Output format of the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text report.
    #[default]
    Text,
    /// JSON statistics object.
    Json,
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// Path to the program source (assembly, or C with `--c`).
    pub program_path: String,
    /// Path to the architecture JSON (optional — defaults when omitted).
    pub arch_path: Option<String>,
    /// Treat the program as C and compile it first.
    pub compile_c: bool,
    /// Optimization level for C compilation.
    pub opt_level: OptLevel,
    /// Entry label.
    pub entry: Option<String>,
    /// CSV file with memory arrays (the Memory Settings window's export).
    pub memory_csv: Option<String>,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Output format.
    pub format: OutputFormat,
    /// Print the debug log after the run.
    pub verbose: bool,
    /// Dump a memory range after the run: `(address, length)`.
    pub dump_memory: Option<(u64, usize)>,
}

/// Usage string printed on `--help` or argument errors.
pub const USAGE: &str = "\
rvsim-cli — batch interface to the superscalar RISC-V simulator

USAGE:
    rvsim-cli --program <FILE> [--arch <FILE.json>] [OPTIONS]

OPTIONS:
    --program <FILE>        assembly source file (mandatory)
    --arch <FILE>           architecture description in JSON
    --c                     treat the program as C and compile it first
    --opt <0|1|2|3>         C optimization level (default 0)
    --entry <LABEL>         entry point label (default: main or first instruction)
    --memory <FILE.csv>     memory arrays in CSV form (name,type,index,value)
    --max-cycles <N>        cycle budget (default 10000000)
    --format <text|json>    output format (default text)
    --dump-memory <ADDR,LEN>  hex-dump LEN bytes at ADDR after the run
    --verbose               also print the cycle-stamped debug log
    --help                  show this help
";

impl CliOptions {
    /// Parse command-line arguments (without the executable name).
    pub fn parse(args: &[String]) -> Result<CliOptions, String> {
        let mut options = CliOptions { max_cycles: 10_000_000, ..Default::default() };
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--program" => options.program_path = value(&mut i, "--program")?,
                "--arch" => options.arch_path = Some(value(&mut i, "--arch")?),
                "--c" => options.compile_c = true,
                "--opt" => {
                    let v = value(&mut i, "--opt")?;
                    options.opt_level = OptLevel::parse(&v)
                        .ok_or_else(|| format!("invalid optimization level `{v}`"))?;
                }
                "--entry" => options.entry = Some(value(&mut i, "--entry")?),
                "--memory" => options.memory_csv = Some(value(&mut i, "--memory")?),
                "--max-cycles" => {
                    let v = value(&mut i, "--max-cycles")?;
                    options.max_cycles =
                        v.parse().map_err(|_| format!("invalid cycle budget `{v}`"))?;
                }
                "--format" => {
                    let v = value(&mut i, "--format")?;
                    options.format = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                }
                "--dump-memory" => {
                    let v = value(&mut i, "--dump-memory")?;
                    let (addr, len) = v
                        .split_once(',')
                        .ok_or_else(|| "expected ADDR,LEN for --dump-memory".to_string())?;
                    let addr = parse_u64(addr).ok_or_else(|| format!("bad address `{addr}`"))?;
                    let len: usize =
                        len.trim().parse().map_err(|_| format!("bad length `{len}`"))?;
                    options.dump_memory = Some((addr, len));
                }
                "--verbose" => options.verbose = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
            }
            i += 1;
        }
        if options.program_path.is_empty() {
            return Err(format!("--program is mandatory\n\n{USAGE}"));
        }
        Ok(options)
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

// ---------------------------------------------------------------------------
// `cosim` subcommand: differential co-simulation against the reference ISS.
// ---------------------------------------------------------------------------

/// Usage string of the `cosim` subcommand.
pub const COSIM_USAGE: &str = "\
rvsim-cli cosim — differential co-simulation of random programs
               (superscalar pipeline vs in-order reference ISS)

USAGE:
    rvsim-cli cosim [OPTIONS]

OPTIONS:
    --programs <N>          random programs to co-simulate (default 200)
    --seed <N>              batch seed; each program's own seed is derived
                            from it and printed on divergence (default 42)
    --program-seed <N>      replay ONE program from the per-program generator
                            seed a divergence report printed (bypasses the
                            batch-seed derivation; --programs is ignored)
    --arch <FILE>           architecture description in JSON; without it the
                            batch runs on the scalar, default 2-wide AND
                            4-wide / deep-ROB (wide-4) presets, plus one
                            D-heavy generator batch on the default machine
    --instructions <N>      random items per loop body (default 32; use the
                            value printed in the report when replaying)
    --dfp                   enable D-extension (double-precision) mixes in
                            the generator (replay flag for the D-heavy
                            batch; printed in its divergence reports)
    --max-cycles <N>        pipeline cycle budget per program (default 200000)
    --format <text|json>    output format (default text)
    --inject-fault <M[:X]>  deliberately corrupt ISS results for mnemonic M
                            (XOR destination bits with hex X, default 1) to
                            demonstrate that divergences are caught
    --help                  show this help

Each program runs with memory-settings load/store latencies derived from its
program seed (1-8 cycles each), so a batch also sweeps non-default memory
configurations; --program-seed re-derives the same timings on replay.

Exit status is 1 when any divergence (or generator error) is found, when a
replayed program is inconclusive, or when a batch matches nothing; the
report contains a shrunk minimal reproducer per divergence.
";

/// Parsed options of the `cosim` subcommand.
#[derive(Debug, Clone)]
pub struct CosimCliOptions {
    /// Number of random programs.
    pub programs: usize,
    /// Batch seed.
    pub seed: u64,
    /// Replay a single program directly from its generator seed (as printed
    /// in a divergence report) instead of running a batch.
    pub program_seed: Option<u64>,
    /// Path to the architecture JSON (optional).
    pub arch_path: Option<String>,
    /// Random items per generated loop body.
    pub instructions: usize,
    /// Enable D-extension mixes in the generator (`GenOptions::dp_ops`).
    pub dfp: bool,
    /// Pipeline cycle budget per program.
    pub max_cycles: u64,
    /// Output format.
    pub format: OutputFormat,
    /// Deliberate ISS fault: `mnemonic[:xor-bits-hex]`.
    pub inject_fault: Option<String>,
}

impl Default for CosimCliOptions {
    fn default() -> Self {
        CosimCliOptions {
            programs: 200,
            seed: 42,
            program_seed: None,
            arch_path: None,
            instructions: 32,
            dfp: false,
            max_cycles: 200_000,
            format: OutputFormat::Text,
            inject_fault: None,
        }
    }
}

impl CosimCliOptions {
    /// Parse the arguments following the `cosim` subcommand word.
    pub fn parse(args: &[String]) -> Result<CosimCliOptions, String> {
        let mut options = CosimCliOptions::default();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--programs" => {
                    let v = value(&mut i, "--programs")?;
                    options.programs =
                        v.parse().map_err(|_| format!("invalid program count `{v}`"))?;
                }
                "--seed" => {
                    let v = value(&mut i, "--seed")?;
                    options.seed = parse_u64(&v).ok_or_else(|| format!("invalid seed `{v}`"))?;
                }
                "--program-seed" => {
                    let v = value(&mut i, "--program-seed")?;
                    options.program_seed =
                        Some(parse_u64(&v).ok_or_else(|| format!("invalid seed `{v}`"))?);
                }
                "--arch" => options.arch_path = Some(value(&mut i, "--arch")?),
                "--instructions" => {
                    let v = value(&mut i, "--instructions")?;
                    options.instructions =
                        v.parse().map_err(|_| format!("invalid instruction count `{v}`"))?;
                }
                "--dfp" => options.dfp = true,
                "--max-cycles" => {
                    let v = value(&mut i, "--max-cycles")?;
                    options.max_cycles =
                        v.parse().map_err(|_| format!("invalid cycle budget `{v}`"))?;
                }
                "--format" => {
                    let v = value(&mut i, "--format")?;
                    options.format = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                }
                "--inject-fault" => options.inject_fault = Some(value(&mut i, "--inject-fault")?),
                "--help" | "-h" => return Err(COSIM_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{COSIM_USAGE}")),
            }
            i += 1;
        }
        if options.programs == 0 {
            return Err("--programs must be at least 1".to_string());
        }
        Ok(options)
    }
}

// ---------------------------------------------------------------------------
// `serve` subcommand: the TCP/HTTP network front end.
// ---------------------------------------------------------------------------

/// Usage string of the `serve` subcommand.
pub const SERVE_USAGE: &str = "\
rvsim-cli serve — run the simulation server behind the rvsim-net
               HTTP/1.1 front end (POST /api, GET /metrics, GET /healthz)

USAGE:
    rvsim-cli serve --tcp [OPTIONS]

OPTIONS:
    --tcp                   serve over TCP (mandatory: the only transport)
    --router <A:P[,A:P..]>  run as a router tier instead of a simulation
                            node: consistent-hash sessions across the given
                            backend addresses, proxy the protocol, aggregate
                            /metrics, and accept POST /admin/drain
    --addr <IP:PORT>        bind address (default 127.0.0.1:8911; port 0
                            picks a free port, printed at startup)
    --event-loops <N>       event-loop threads; each carries a share of all
                            connections on one epoll instance (default 2)
    --dispatch-workers <N>  worker threads executing POST /api requests
                            (default 4)
    --max-connections <N>   live-connection cap; beyond it new connections
                            are answered 503 and closed (default 16384)
    --pending <N>           parsed requests that may queue for a dispatch
                            worker before 503s are served (default 1024)
    --no-compress           serve plain JSON payloads (flag byte 0)
    --idle-ttl <SECONDS>    evict sessions idle for this long (default: no
                            eviction); the sweep runs on the housekeeping tick
    --housekeeping-ms <N>   housekeeping-tick cadence in milliseconds
                            (default 1000).  On a backend the tick drives
                            idle eviction and the checkpoint sweep; on a
                            router it drives the health probes, so a smaller
                            value detects a dead backend sooner
    --state-dir <DIR>       checkpoint sessions to RVSE envelope files in DIR
                            (created if missing): periodic sweeps, spill
                            instead of destroy on idle eviction, recovery of
                            every checkpoint at boot.  Not valid with --router
    --checkpoint-interval <SECONDS>
                            cadence of the periodic checkpoint sweep
                            (default 5; 0 sweeps on every housekeeping tick;
                            needs --state-dir)
    --checkpoint-dirty-cycles <N>
                            also checkpoint a session synchronously once it
                            runs N cycles past its last checkpoint (default
                            0 = periodic sweeps only; needs --state-dir)
    --slow-request-us <N>   journal any request whose end-to-end time
                            reaches N microseconds (default 100000 = 100 ms;
                            0 journals every request).  The journal is read
                            back with GET /admin/trace or `rvsim-cli tail`
    --help                  show this help

The protocol endpoint is POST /api with a JSON request body; the response
body is the encoded payload (one flag byte, then plain or LZSS-compressed
JSON — the same wire format rvsim_server::decode_response parses).
";

/// Parsed options of the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeCliOptions {
    /// Serve over TCP (must be set; reserves room for future transports).
    pub tcp: bool,
    /// Bind address.
    pub addr: String,
    /// Event-loop threads.
    pub event_loops: usize,
    /// Dispatch worker threads.
    pub dispatch_workers: usize,
    /// Live-connection cap.
    pub max_connections: usize,
    /// Pending-dispatch queue bound.
    pub pending: usize,
    /// Compress response payloads.
    pub compress: bool,
    /// Idle-session TTL in seconds (`None` disables eviction).
    pub idle_ttl_seconds: Option<u64>,
    /// Housekeeping-tick cadence in milliseconds (eviction + checkpoint
    /// sweeps on a backend, health probes on a router).
    pub housekeeping_ms: u64,
    /// Router mode: backend addresses to consistent-hash sessions across
    /// (empty = run a simulation node, not a router).
    pub router_backends: Vec<std::net::SocketAddr>,
    /// Checkpoint directory (`None` disables durability).
    pub state_dir: Option<String>,
    /// Periodic checkpoint-sweep cadence in seconds (0 = every tick).
    pub checkpoint_interval_seconds: f64,
    /// Dirty-cycle checkpoint threshold (0 = periodic sweeps only).
    pub checkpoint_dirty_cycles: u64,
    /// Slow-request journaling threshold in microseconds (0 journals every
    /// request).
    pub slow_request_us: u64,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        ServeCliOptions {
            tcp: false,
            addr: "127.0.0.1:8911".to_string(),
            event_loops: 2,
            dispatch_workers: 4,
            max_connections: 16 * 1024,
            pending: 1024,
            compress: true,
            idle_ttl_seconds: None,
            housekeeping_ms: 1000,
            router_backends: Vec::new(),
            state_dir: None,
            checkpoint_interval_seconds: 5.0,
            checkpoint_dirty_cycles: 0,
            slow_request_us: rvsim_obs::DEFAULT_SLOW_REQUEST_US,
        }
    }
}

impl ServeCliOptions {
    /// Parse the arguments following the `serve` subcommand word.
    pub fn parse(args: &[String]) -> Result<ServeCliOptions, String> {
        let mut options = ServeCliOptions::default();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--tcp" => options.tcp = true,
                "--addr" => options.addr = value(&mut i, "--addr")?,
                "--event-loops" => {
                    let v = value(&mut i, "--event-loops")?;
                    options.event_loops = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid event-loop count `{v}`"))?;
                }
                "--dispatch-workers" => {
                    let v = value(&mut i, "--dispatch-workers")?;
                    options.dispatch_workers = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid worker count `{v}`"))?;
                }
                "--max-connections" => {
                    let v = value(&mut i, "--max-connections")?;
                    options.max_connections = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid connection cap `{v}`"))?;
                }
                "--pending" => {
                    let v = value(&mut i, "--pending")?;
                    options.pending = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid queue bound `{v}`"))?;
                }
                "--no-compress" => options.compress = false,
                "--router" => {
                    let v = value(&mut i, "--router")?;
                    options.router_backends = v
                        .split(',')
                        .map(|part| {
                            part.trim()
                                .parse::<std::net::SocketAddr>()
                                .map_err(|_| format!("invalid backend address `{part}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if options.router_backends.is_empty() {
                        return Err("--router needs at least one backend".to_string());
                    }
                }
                "--idle-ttl" => {
                    let v = value(&mut i, "--idle-ttl")?;
                    options.idle_ttl_seconds =
                        Some(v.parse().map_err(|_| format!("invalid TTL `{v}`"))?);
                }
                "--housekeeping-ms" => {
                    let v = value(&mut i, "--housekeeping-ms")?;
                    options.housekeeping_ms = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid housekeeping cadence `{v}`"))?;
                }
                "--state-dir" => options.state_dir = Some(value(&mut i, "--state-dir")?),
                "--checkpoint-interval" => {
                    let v = value(&mut i, "--checkpoint-interval")?;
                    options.checkpoint_interval_seconds = v
                        .parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                        .ok_or_else(|| format!("invalid checkpoint interval `{v}`"))?;
                }
                "--checkpoint-dirty-cycles" => {
                    let v = value(&mut i, "--checkpoint-dirty-cycles")?;
                    options.checkpoint_dirty_cycles =
                        v.parse().map_err(|_| format!("invalid cycle threshold `{v}`"))?;
                }
                "--slow-request-us" => {
                    let v = value(&mut i, "--slow-request-us")?;
                    options.slow_request_us =
                        v.parse().map_err(|_| format!("invalid slow-request threshold `{v}`"))?;
                }
                "--help" | "-h" => return Err(SERVE_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{SERVE_USAGE}")),
            }
            i += 1;
        }
        if !options.tcp {
            return Err(format!("serve requires --tcp\n\n{SERVE_USAGE}"));
        }
        if options.state_dir.is_some() && !options.router_backends.is_empty() {
            return Err(format!(
                "--state-dir is a backend option; a router holds no sessions\n\n{SERVE_USAGE}"
            ));
        }
        Ok(options)
    }
}

/// Start the network front end described by `options`: a simulation node,
/// or — with `--router` — a router tier over the given backends.  Returns
/// the running server (the binary parks on it until killed; tests shut it
/// down).
pub fn start_serve(options: &ServeCliOptions) -> Result<rvsim_net::NetServer, String> {
    let net_config = rvsim_net::NetConfig {
        addr: options.addr.clone(),
        event_loops: options.event_loops,
        dispatch_workers: options.dispatch_workers,
        max_connections: options.max_connections,
        pending_dispatch: options.pending,
        housekeeping_interval: std::time::Duration::from_millis(options.housekeeping_ms),
        slow_request_us: options.slow_request_us,
        ..rvsim_net::NetConfig::default()
    };
    if !options.router_backends.is_empty() {
        let router = rvsim_net::Router::new(options.router_backends.clone());
        return rvsim_net::NetServer::start_with_handler(std::sync::Arc::new(router), net_config)
            .map_err(|e| format!("cannot bind `{}`: {e}", options.addr));
    }
    let deployment = rvsim_server::DeploymentConfig {
        mode: rvsim_server::DeploymentMode::Direct,
        compress_responses: options.compress,
        idle_session_ttl_seconds: options.idle_ttl_seconds,
    };
    let server = match &options.state_dir {
        Some(dir) => {
            let checkpoints = rvsim_server::CheckpointConfig {
                state_dir: std::path::PathBuf::from(dir),
                interval: std::time::Duration::from_secs_f64(options.checkpoint_interval_seconds),
                dirty_cycles: options.checkpoint_dirty_cycles,
            };
            let server = rvsim_server::SimulationServer::with_checkpoints(deployment, checkpoints)
                .map_err(|e| format!("cannot open state dir `{dir}`: {e}"))?;
            let (_, failures) = server.recover_checkpoints();
            for (session, error) in &failures {
                eprintln!("warning: session {session} refused to restore: {error}");
            }
            server
        }
        None => rvsim_server::SimulationServer::new(deployment),
    };
    rvsim_net::NetServer::start(server, net_config)
        .map_err(|e| format!("cannot bind `{}`: {e}", options.addr))
}

// ---------------------------------------------------------------------------
// `chaos` subcommand: deterministic fault-injecting TCP proxy.
// ---------------------------------------------------------------------------

/// Usage string of the `chaos` subcommand.
pub const CHAOS_USAGE: &str = "\
rvsim-cli chaos — deterministic fault-injecting TCP proxy: put it between
               a client (or router) and a backend to rehearse crashes

USAGE:
    rvsim-cli chaos --upstream <IP:PORT> [OPTIONS]

OPTIONS:
    --upstream <IP:PORT>    backend to proxy to (mandatory)
    --listen <IP:PORT>      listen address (default 127.0.0.1:0 — a free
                            port, printed at startup)
    --seed <N>              fault-stream seed; the same seed injects the
                            same fault on the same connection index, every
                            run (default 0)
    --reset <P>             probability a connection is reset before any
                            byte is proxied (default 0)
    --truncate <P>          probability a response stream is cut after a
                            random prefix inside the first KiB (default 0)
    --delay <P>             probability each proxied chunk is delayed
                            (default 0)
    --max-delay-ms <N>      upper bound of one injected delay (default 50)
    --help                  show this help

Faults are drawn per accepted connection from seed and connection index
only, so a failing sequence replays exactly under the same seed.
";

/// Parsed options of the `chaos` subcommand.
#[derive(Debug, Clone)]
pub struct ChaosCliOptions {
    /// Backend to proxy to.
    pub upstream: std::net::SocketAddr,
    /// Listen address.
    pub listen: String,
    /// Fault-stream seed.
    pub seed: u64,
    /// Connection-reset probability.
    pub reset_probability: f64,
    /// Response-truncation probability.
    pub truncate_probability: f64,
    /// Per-chunk delay probability.
    pub delay_probability: f64,
    /// Upper bound of one injected delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosCliOptions {
    /// Parse the arguments following the `chaos` subcommand word.
    pub fn parse(args: &[String]) -> Result<ChaosCliOptions, String> {
        let mut upstream = None;
        let mut options = ChaosCliOptions {
            upstream: "127.0.0.1:0".parse().expect("literal address"),
            listen: "127.0.0.1:0".to_string(),
            seed: 0,
            reset_probability: 0.0,
            truncate_probability: 0.0,
            delay_probability: 0.0,
            max_delay_ms: 50,
        };
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        let probability = |v: String, flag: &str| -> Result<f64, String> {
            v.parse()
                .ok()
                .filter(|p: &f64| p.is_finite() && (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("invalid probability `{v}` for {flag} (want 0..=1)"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--upstream" => {
                    let v = value(&mut i, "--upstream")?;
                    upstream =
                        Some(v.parse().map_err(|_| format!("invalid upstream address `{v}`"))?);
                }
                "--listen" => options.listen = value(&mut i, "--listen")?,
                "--seed" => {
                    let v = value(&mut i, "--seed")?;
                    options.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
                }
                "--reset" => {
                    options.reset_probability = probability(value(&mut i, "--reset")?, "--reset")?;
                }
                "--truncate" => {
                    options.truncate_probability =
                        probability(value(&mut i, "--truncate")?, "--truncate")?;
                }
                "--delay" => {
                    options.delay_probability = probability(value(&mut i, "--delay")?, "--delay")?;
                }
                "--max-delay-ms" => {
                    let v = value(&mut i, "--max-delay-ms")?;
                    options.max_delay_ms =
                        v.parse().map_err(|_| format!("invalid delay bound `{v}`"))?;
                }
                "--help" | "-h" => return Err(CHAOS_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{CHAOS_USAGE}")),
            }
            i += 1;
        }
        options.upstream =
            upstream.ok_or_else(|| format!("--upstream is mandatory\n\n{CHAOS_USAGE}"))?;
        Ok(options)
    }
}

/// Start the chaos proxy described by `options`.  Returns the running proxy
/// (the binary parks on it until killed; tests shut it down).
pub fn start_chaos(options: &ChaosCliOptions) -> Result<rvsim_net::ChaosProxy, String> {
    let config = rvsim_net::ChaosConfig {
        listen: options.listen.clone(),
        upstream: options.upstream,
        seed: options.seed,
        reset_probability: options.reset_probability,
        truncate_probability: options.truncate_probability,
        delay_probability: options.delay_probability,
        max_delay_ms: options.max_delay_ms,
    };
    rvsim_net::ChaosProxy::start(config)
        .map_err(|e| format!("cannot bind `{}`: {e}", options.listen))
}

// ---------------------------------------------------------------------------
// `drain` subcommand: live-migrate a backend's sessions off through a router.
// ---------------------------------------------------------------------------

/// Usage string of the `drain` subcommand.
pub const DRAIN_USAGE: &str = "\
rvsim-cli drain — live-drain one backend of a running router tier
               (serialize every session on it, restore each on its new
                ring owner, flip the ring; clients only see latency)

USAGE:
    rvsim-cli drain --router <IP:PORT> --backend <N>

OPTIONS:
    --router <IP:PORT>      address of the router front end (mandatory)
    --backend <N>           index of the backend to drain, in the order the
                            router was started with (mandatory)
    --format <text|json>    output format (default text)
    --help                  show this help

Exit status is 1 when the drain is refused (unknown backend, already
draining, last backend standing) or any session fails to migrate.
";

/// Parsed options of the `drain` subcommand.
#[derive(Debug, Clone)]
pub struct DrainCliOptions {
    /// Router front-end address.
    pub router: std::net::SocketAddr,
    /// Backend index to drain.
    pub backend: usize,
    /// Output format.
    pub format: OutputFormat,
}

impl DrainCliOptions {
    /// Parse the arguments following the `drain` subcommand word.
    pub fn parse(args: &[String]) -> Result<DrainCliOptions, String> {
        let mut router = None;
        let mut backend = None;
        let mut format = OutputFormat::Text;
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--router" => {
                    let v = value(&mut i, "--router")?;
                    router = Some(v.parse().map_err(|_| format!("invalid router address `{v}`"))?);
                }
                "--backend" => {
                    let v = value(&mut i, "--backend")?;
                    backend = Some(v.parse().map_err(|_| format!("invalid backend index `{v}`"))?);
                }
                "--format" => {
                    let v = value(&mut i, "--format")?;
                    format = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                }
                "--help" | "-h" => return Err(DRAIN_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{DRAIN_USAGE}")),
            }
            i += 1;
        }
        Ok(DrainCliOptions {
            router: router.ok_or_else(|| format!("--router is mandatory\n\n{DRAIN_USAGE}"))?,
            backend: backend.ok_or_else(|| format!("--backend is mandatory\n\n{DRAIN_USAGE}"))?,
            format,
        })
    }
}

/// Run the `drain` subcommand: POST the drain order to the router and render
/// its report.  A refused drain or a failed migration is an `Err`.
pub fn run_drain(options: &DrainCliOptions) -> Result<String, String> {
    let body = format!(r#"{{"backend":{}}}"#, options.backend);
    let (status, response) = rvsim_net::http_post(
        options.router,
        "/admin/drain",
        body.as_bytes(),
        std::time::Duration::from_secs(120),
    )
    .map_err(|e| format!("cannot reach router at {}: {e}", options.router))?;
    if status != 200 {
        return Err(format!(
            "drain refused ({status}): {}",
            String::from_utf8_lossy(&response).trim()
        ));
    }
    let report: rvsim_net::DrainReport =
        serde_json::from_slice(&response).map_err(|e| format!("unparseable drain report: {e}"))?;
    let text = match options.format {
        OutputFormat::Json => {
            let mut out = serde_json::to_string_pretty(&report).expect("drain report serializes");
            out.push('\n');
            out
        }
        OutputFormat::Text => {
            let mut out = format!(
                "drained backend {}: {}/{} sessions migrated\n",
                report.backend, report.migrated, report.sessions
            );
            for (session, error) in &report.failed {
                out.push_str(&format!("  session {session} FAILED: {error}\n"));
            }
            out
        }
    };
    if report.failed.is_empty() {
        Ok(text)
    } else {
        Err(text)
    }
}

// ---------------------------------------------------------------------------
// `loadgen` subcommand: closed-loop cached-GetState load against a front end.
// ---------------------------------------------------------------------------

/// Usage string of the `loadgen` subcommand.
pub const LOADGEN_USAGE: &str = "\
rvsim-cli loadgen — closed-loop cached-GetState load against a running
               front end (a simulation node or a router tier)

USAGE:
    rvsim-cli loadgen --addr <IP:PORT> [OPTIONS]

OPTIONS:
    --addr <IP:PORT>        front end to drive (mandatory)
    --sessions <N>          sessions to create and cycle over (default 8)
    --threads <N>           concurrent client connections (default 4)
    --seconds <F>           measurement window (default 5)
    --error-budget <RATIO>  tolerate errors up to this error ratio,
                            errors / (requests + errors) — for chaos runs
                            where a bounded burst is the expected outcome
                            (default 0: any error fails)
    --format <text|json>    output format (default text)
    --help                  show this help

Creates the sessions, steps each once to warm the serve cache, then hammers
GetState over every connection until the window closes.  Exit status is 1
when the error ratio exceeds the budget — the loadgen doubles as the
router-smoke and chaos-smoke check in CI.
";

/// Parsed options of the `loadgen` subcommand.
#[derive(Debug, Clone)]
pub struct LoadgenCliOptions {
    /// Front-end address to drive.
    pub addr: std::net::SocketAddr,
    /// Sessions to create.
    pub sessions: usize,
    /// Concurrent client connections.
    pub threads: usize,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Largest tolerated error ratio (`errors / (requests + errors)`).
    pub error_budget: f64,
    /// Output format.
    pub format: OutputFormat,
}

impl LoadgenCliOptions {
    /// Parse the arguments following the `loadgen` subcommand word.
    pub fn parse(args: &[String]) -> Result<LoadgenCliOptions, String> {
        let mut addr = None;
        let mut error_budget = 0.0f64;
        let mut options = (8usize, 4usize, 5.0f64, OutputFormat::Text);
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--addr" => {
                    let v = value(&mut i, "--addr")?;
                    addr = Some(v.parse().map_err(|_| format!("invalid address `{v}`"))?);
                }
                "--sessions" => {
                    let v = value(&mut i, "--sessions")?;
                    options.0 = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid session count `{v}`"))?;
                }
                "--threads" => {
                    let v = value(&mut i, "--threads")?;
                    options.1 = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count `{v}`"))?;
                }
                "--seconds" => {
                    let v = value(&mut i, "--seconds")?;
                    options.2 = v
                        .parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && *f > 0.0)
                        .ok_or_else(|| format!("invalid window `{v}`"))?;
                }
                "--error-budget" => {
                    let v = value(&mut i, "--error-budget")?;
                    error_budget = v
                        .parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && (0.0..=1.0).contains(f))
                        .ok_or_else(|| format!("invalid error budget `{v}` (want 0..=1)"))?;
                }
                "--format" => {
                    let v = value(&mut i, "--format")?;
                    options.3 = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                }
                "--help" | "-h" => return Err(LOADGEN_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{LOADGEN_USAGE}")),
            }
            i += 1;
        }
        Ok(LoadgenCliOptions {
            addr: addr.ok_or_else(|| format!("--addr is mandatory\n\n{LOADGEN_USAGE}"))?,
            sessions: options.0,
            threads: options.1,
            seconds: options.2,
            error_budget,
            format: options.3,
        })
    }
}

/// Run the `loadgen` subcommand.  Any failed request is an `Err` so the
/// binary exits non-zero.
pub fn run_loadgen(options: &LoadgenCliOptions) -> Result<String, String> {
    let ids = rvsim_loadgen::create_sessions(
        options.addr,
        &rvsim_loadgen::sample_program_loop(),
        std::iter::repeat_n(None, options.sessions),
    )?;
    let report = rvsim_loadgen::run(
        options.addr,
        &rvsim_loadgen::Load {
            connections: options.threads,
            pacing: rvsim_loadgen::Pacing::ClosedLoop,
            mix: rvsim_loadgen::Mix::GetState(ids),
            duration: std::time::Duration::from_secs_f64(options.seconds),
        },
    );
    let text = match options.format {
        OutputFormat::Json => {
            let value = serde_json::json!({
                "sessions": options.sessions,
                "threads": options.threads,
                "requests": report.requests,
                "errors": report.errors,
                "error_ratio": report.error_ratio(),
                "errors_by_second": report.errors_by_second,
                "wall_seconds": report.wall_seconds,
                "requests_per_second": report.rps(),
            });
            let mut out = serde_json::to_string_pretty(&value).expect("report serializes");
            out.push('\n');
            out
        }
        OutputFormat::Text => format!(
            "{} requests in {:.2}s over {} connections × {} sessions: {:.0} req/s, {} errors \
             (ratio {:.4}, budget {:.4})\n",
            report.requests,
            report.wall_seconds,
            options.threads,
            options.sessions,
            report.rps(),
            report.errors,
            report.error_ratio(),
            options.error_budget
        ),
    };
    if report.error_ratio() <= options.error_budget {
        Ok(text)
    } else {
        Err(text)
    }
}

// ---------------------------------------------------------------------------
// `tail` / `top` subcommands: the observability read side.  `tail` follows
// the in-memory event journal through GET /admin/trace; `top` polls
// GET /metrics and renders a live dashboard from the parsed exposition.
// ---------------------------------------------------------------------------

/// Usage string of the `tail` subcommand.
pub const TAIL_USAGE: &str = "\
rvsim-cli tail — follow the event journal of a running front end
               (GET /admin/trace, NDJSON, one event per line)

USAGE:
    rvsim-cli tail --addr <IP:PORT> [OPTIONS]

OPTIONS:
    --addr <IP:PORT>        front end to follow (mandatory; a simulation
                            node or a router — each has its own journal)
    --n <N>                 newest events to fetch per poll (default 256)
    --min-us <N>            only events whose duration reached N
                            microseconds; events without a duration pass
                            only when the filter is 0 (default 0)
    --interval-ms <N>       poll cadence in milliseconds (default 1000)
    --once                  print one batch and exit instead of following
    --help                  show this help

Each line is one JSON event with a monotone `seq`; the follower remembers
the highest sequence printed and emits only newer events, so a quiet
journal prints nothing.  Per-request events appear when a request was slow
(see `serve --slow-request-us`) or failed; connection, checkpoint, breaker
and failover events are always journaled.
";

/// Parsed options of the `tail` subcommand.
#[derive(Debug, Clone)]
pub struct TailCliOptions {
    /// Front-end address to follow.
    pub addr: std::net::SocketAddr,
    /// Newest events to fetch per poll.
    pub n: usize,
    /// Duration filter in microseconds.
    pub min_us: u64,
    /// Poll cadence in milliseconds.
    pub interval_ms: u64,
    /// Print one batch and exit.
    pub once: bool,
}

impl TailCliOptions {
    /// Parse the arguments following the `tail` subcommand word.
    pub fn parse(args: &[String]) -> Result<TailCliOptions, String> {
        let mut addr = None;
        let (mut n, mut min_us, mut interval_ms, mut once) = (256usize, 0u64, 1000u64, false);
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--addr" => {
                    let v = value(&mut i, "--addr")?;
                    addr = Some(v.parse().map_err(|_| format!("invalid address `{v}`"))?);
                }
                "--n" => {
                    let v = value(&mut i, "--n")?;
                    n = v
                        .parse()
                        .ok()
                        .filter(|&x| x > 0)
                        .ok_or_else(|| format!("invalid event count `{v}`"))?;
                }
                "--min-us" => {
                    let v = value(&mut i, "--min-us")?;
                    min_us = v.parse().map_err(|_| format!("invalid duration filter `{v}`"))?;
                }
                "--interval-ms" => {
                    let v = value(&mut i, "--interval-ms")?;
                    interval_ms = v
                        .parse()
                        .ok()
                        .filter(|&x| x > 0)
                        .ok_or_else(|| format!("invalid poll cadence `{v}`"))?;
                }
                "--once" => once = true,
                "--help" | "-h" => return Err(TAIL_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{TAIL_USAGE}")),
            }
            i += 1;
        }
        Ok(TailCliOptions {
            addr: addr.ok_or_else(|| format!("--addr is mandatory\n\n{TAIL_USAGE}"))?,
            n,
            min_us,
            interval_ms,
            once,
        })
    }
}

/// Fetch one `/admin/trace` page and keep only events newer than
/// `last_seq`.  Returns the fresh NDJSON lines (oldest first) and the new
/// high-water mark.
pub fn tail_fetch(
    addr: std::net::SocketAddr,
    n: usize,
    min_us: u64,
    last_seq: Option<u64>,
) -> Result<(Vec<String>, Option<u64>), String> {
    let target = format!("/admin/trace?n={n}&min_us={min_us}");
    let (status, body) = rvsim_net::http_get(addr, &target, std::time::Duration::from_secs(10))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {target} answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let mut high = last_seq;
    let mut fresh = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let seq = trace_line_seq(line).ok_or_else(|| format!("unparseable trace line `{line}`"))?;
        if last_seq.is_none_or(|printed| seq > printed) {
            fresh.push(line.to_string());
        }
        high = Some(high.map_or(seq, |h| h.max(seq)));
    }
    Ok((fresh, high))
}

/// The `seq` field of one NDJSON trace line.
fn trace_line_seq(line: &str) -> Option<u64> {
    let value: serde_json::Value = serde_json::from_str(line).ok()?;
    value.get("seq")?.as_u64()
}

/// Run the `tail` subcommand: poll the journal and print events newer than
/// the last poll, forever (or once with `--once`).
pub fn run_tail(options: &TailCliOptions) -> Result<(), String> {
    let mut last_seq = None;
    loop {
        let (lines, high) = tail_fetch(options.addr, options.n, options.min_us, last_seq)?;
        for line in &lines {
            println!("{line}");
        }
        last_seq = high;
        if options.once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

/// Usage string of the `top` subcommand.
pub const TOP_USAGE: &str = "\
rvsim-cli top — live terminal dashboard over a running front end's
               GET /metrics (Prometheus 0.0.4 text exposition)

USAGE:
    rvsim-cli top --addr <IP:PORT> [OPTIONS]

OPTIONS:
    --addr <IP:PORT>        front end to watch (mandatory; a simulation
                            node shows endpoint and phase tables, a router
                            additionally shows per-backend upstream health)
    --interval-ms <N>       refresh cadence in milliseconds (default 1000)
    --once                  print one frame and exit — doubles as the CI
                            exposition check: the poll fails (exit 1) when
                            the scrape is not valid 0.0.4 exposition
    --help                  show this help

The request rate is the rvsim_http_requests_total delta between frames
(first frame: lifetime average).  Latency quantiles are estimated from the
cumulative histogram buckets in the exposition itself, so `top` sees
exactly what any Prometheus scraper would.
";

/// Parsed options of the `top` subcommand.
#[derive(Debug, Clone)]
pub struct TopCliOptions {
    /// Front-end address to watch.
    pub addr: std::net::SocketAddr,
    /// Refresh cadence in milliseconds.
    pub interval_ms: u64,
    /// Print one frame and exit.
    pub once: bool,
}

impl TopCliOptions {
    /// Parse the arguments following the `top` subcommand word.
    pub fn parse(args: &[String]) -> Result<TopCliOptions, String> {
        let mut addr = None;
        let (mut interval_ms, mut once) = (1000u64, false);
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--addr" => {
                    let v = value(&mut i, "--addr")?;
                    addr = Some(v.parse().map_err(|_| format!("invalid address `{v}`"))?);
                }
                "--interval-ms" => {
                    let v = value(&mut i, "--interval-ms")?;
                    interval_ms = v
                        .parse()
                        .ok()
                        .filter(|&x| x > 0)
                        .ok_or_else(|| format!("invalid refresh cadence `{v}`"))?;
                }
                "--once" => once = true,
                "--help" | "-h" => return Err(TOP_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{TOP_USAGE}")),
            }
            i += 1;
        }
        Ok(TopCliOptions {
            addr: addr.ok_or_else(|| format!("--addr is mandatory\n\n{TOP_USAGE}"))?,
            interval_ms,
            once,
        })
    }
}

/// Scrape and validate one exposition from `addr`'s `/metrics`.
pub fn fetch_metrics(addr: std::net::SocketAddr) -> Result<Vec<rvsim_obs::MetricFamily>, String> {
    let (status, body) = rvsim_net::http_get(addr, "/metrics", std::time::Duration::from_secs(10))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|_| "metrics body is not UTF-8".to_string())?;
    rvsim_obs::validate_exposition(&text).map_err(|e| format!("invalid exposition: {e}"))
}

/// The value of the first sample named exactly `name` (the bare-series
/// form counters and gauges use), across all families.
fn metric_value(families: &[rvsim_obs::MetricFamily], name: &str) -> Option<f64> {
    families
        .iter()
        .flat_map(|f| &f.samples)
        .find(|s| s.name == name && s.labels.iter().all(|(k, _)| k == "le"))
        .map(|s| s.value)
}

/// Estimate quantile `q` of the histogram family `family`, over the series
/// whose labels include every `(key, value)` in `labels`.  Works from the
/// cumulative `_bucket` samples exactly as a Prometheus `histogram_quantile`
/// would: linear interpolation inside the winning bucket, the lower bound
/// for the `+Inf` bucket.  Returns the unit the exposition uses (seconds).
pub fn parsed_histogram_quantile(
    family: &rvsim_obs::MetricFamily,
    labels: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let bucket_name = format!("{}_bucket", family.name);
    let mut buckets: Vec<(f64, f64)> = family
        .samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter(|s| labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are never NaN"));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total).max(1.0);
    let (mut lower_bound, mut below) = (0.0, 0.0);
    for &(bound, cumulative) in &buckets {
        if rank <= cumulative {
            if bound.is_infinite() {
                return Some(lower_bound);
            }
            let in_bucket = (cumulative - below).max(1.0);
            return Some(lower_bound + (rank - below) / in_bucket * (bound - lower_bound));
        }
        (lower_bound, below) = (bound, cumulative);
    }
    Some(lower_bound)
}

/// The `_count` of the histogram series in `family` matching `labels`.
fn histogram_count(family: &rvsim_obs::MetricFamily, labels: &[(&str, &str)]) -> f64 {
    let count_name = format!("{}_count", family.name);
    family
        .samples
        .iter()
        .find(|s| s.name == count_name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map_or(0.0, |s| s.value)
}

/// Distinct values of `label` across a histogram family's `_count` series,
/// in exposition order — the row keys of a dashboard table.
fn histogram_label_values(family: &rvsim_obs::MetricFamily, label: &str) -> Vec<String> {
    let count_name = format!("{}_count", family.name);
    let mut values = Vec::new();
    for sample in family.samples.iter().filter(|s| s.name == count_name) {
        if let Some(v) = sample.label(label) {
            if !values.iter().any(|seen| seen == v) {
                values.push(v.to_string());
            }
        }
    }
    values
}

/// Append one labeled histogram family as a `count / p50 / p99` table.
fn render_histogram_table(
    out: &mut String,
    families: &[rvsim_obs::MetricFamily],
    family_name: &str,
    label: &str,
    heading: &str,
) {
    let Some(family) = families.iter().find(|f| f.name == family_name) else {
        return;
    };
    let rows = histogram_label_values(family, label);
    if rows.is_empty() {
        return;
    }
    out.push_str(&format!(
        "\n  {heading:<14} {:>12}  {:>10}  {:>10}\n",
        "count", "p50 ms", "p99 ms"
    ));
    for row in rows {
        let selector = [(label, row.as_str())];
        let count = histogram_count(family, &selector);
        let p50 = parsed_histogram_quantile(family, &selector, 0.50).unwrap_or(0.0);
        let p99 = parsed_histogram_quantile(family, &selector, 0.99).unwrap_or(0.0);
        out.push_str(&format!(
            "  {row:<14} {count:>12.0}  {:>10.3}  {:>10.3}\n",
            p50 * 1e3,
            p99 * 1e3
        ));
    }
}

/// Render one dashboard frame from a validated exposition.
/// `requests_per_second` comes from the caller's counter delta; `None`
/// prints `-`.
pub fn render_top(
    addr: &str,
    families: &[rvsim_obs::MetricFamily],
    requests_per_second: Option<f64>,
) -> String {
    let value = |name: &str| metric_value(families, name);
    let mut out = format!("rvsim top — {addr}\n");
    let uptime = value("rvsim_uptime_seconds").unwrap_or(0.0);
    let rate = requests_per_second.map_or("-".to_string(), |r| format!("{r:.0}"));
    out.push_str(&format!(
        "  uptime {uptime:.0}s   requests {:.0} ({rate} req/s)   errors {:.0}   open conns {:.0}\n",
        value("rvsim_http_requests_total").unwrap_or(0.0),
        value("rvsim_http_errors_total").unwrap_or(0.0),
        value("rvsim_connections_open").unwrap_or(0.0),
    ));
    out.push_str(&format!(
        "  accepted {:.0}   rejected {:.0}   dispatch rejected {:.0}   journal events {:.0}\n",
        value("rvsim_connections_accepted_total").unwrap_or(0.0),
        value("rvsim_connections_rejected_total").unwrap_or(0.0),
        value("rvsim_dispatch_rejected_total").unwrap_or(0.0),
        value("rvsim_journal_events_total").unwrap_or(0.0),
    ));
    if let Some(live) =
        value("rvsim_sessions_live").or_else(|| value("rvsim_upstream_sessions_live"))
    {
        out.push_str(&format!(
            "  sessions {live:.0}   evicted {:.0}   shared GetState {:.0}\n",
            value("rvsim_sessions_evicted_total")
                .or_else(|| value("rvsim_upstream_sessions_evicted_total"))
                .unwrap_or(0.0),
            value("rvsim_getstate_shared_total")
                .or_else(|| value("rvsim_upstream_getstate_shared_total"))
                .unwrap_or(0.0),
        ));
    }
    if let Some(backends) = value("rvsim_router_backends") {
        // Every upstream hop, failed or not, lands in its backend's latency
        // histogram, so the hop count is the sum of the series' `_count`s.
        let forwarded: f64 = families
            .iter()
            .find(|f| f.name == "rvsim_router_upstream_seconds")
            .map_or(0.0, |family| {
                histogram_label_values(family, "backend")
                    .iter()
                    .map(|backend| histogram_count(family, &[("backend", backend)]))
                    .sum()
            });
        out.push_str(&format!(
            "  router: {:.0}/{backends:.0} backends alive, {forwarded:.0} forwarded, \
             {:.0} upstream errors, {:.0} sessions recovered\n",
            value("rvsim_router_backends_alive").unwrap_or(0.0),
            value("rvsim_router_upstream_errors_total").unwrap_or(0.0),
            value("rvsim_router_sessions_recovered_total").unwrap_or(0.0),
        ));
    }
    render_histogram_table(&mut out, families, "rvsim_request_phase_seconds", "phase", "phase");
    render_histogram_table(&mut out, families, "rvsim_endpoint_seconds", "endpoint", "endpoint");
    render_histogram_table(
        &mut out,
        families,
        "rvsim_upstream_endpoint_seconds",
        "endpoint",
        "endpoint",
    );
    render_histogram_table(
        &mut out,
        families,
        "rvsim_router_upstream_seconds",
        "backend",
        "backend",
    );
    out
}

/// Run the `top` subcommand: scrape, validate, render, repeat — or render
/// one frame with `--once` (the CI exposition check).
pub fn run_top(options: &TopCliOptions) -> Result<(), String> {
    let mut previous: Option<(std::time::Instant, f64)> = None;
    loop {
        let families = fetch_metrics(options.addr)?;
        let now = std::time::Instant::now();
        let total = metric_value(&families, "rvsim_http_requests_total").unwrap_or(0.0);
        let rate = match previous {
            Some((then, before)) => {
                let dt = now.duration_since(then).as_secs_f64();
                (dt > 0.0).then(|| (total - before).max(0.0) / dt)
            }
            None => metric_value(&families, "rvsim_uptime_seconds")
                .filter(|&uptime| uptime > 0.0)
                .map(|uptime| total / uptime),
        };
        previous = Some((now, total));
        let frame = render_top(&options.addr.to_string(), &families, rate);
        if options.once {
            print!("{frame}");
            return Ok(());
        }
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

fn parse_fault(spec: &str) -> Result<rvsim_iss::InjectedFault, String> {
    let (mnemonic, bits) = match spec.split_once(':') {
        Some((m, x)) => {
            let hex = x.trim().trim_start_matches("0x");
            let bits = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("invalid fault bits `{x}` (expected hex)"))?;
            (m, bits)
        }
        None => (spec, 1),
    };
    if mnemonic.trim().is_empty() {
        return Err("fault mnemonic must not be empty".to_string());
    }
    Ok(rvsim_iss::InjectedFault { mnemonic: mnemonic.trim().to_string(), xor_bits: bits })
}

/// Resolve the configurations a cosim invocation covers: a custom `--arch`
/// file runs alone; by default the batch co-verifies the single-issue
/// scalar preset, the default 2-wide machine every plain user gets, and the
/// 4-wide / deep-ROB `wide-4` preset — the machines the benchmark's `batch`
/// workload runs on.
fn cosim_configs(options: &CosimCliOptions) -> Result<Vec<ArchitectureConfig>, String> {
    match &options.arch_path {
        Some(path) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            Ok(vec![ArchitectureConfig::from_json(&json)?])
        }
        None => Ok(vec![
            ArchitectureConfig::scalar(),
            ArchitectureConfig::default(),
            ArchitectureConfig::wide(),
        ]),
    }
}

fn cosim_harness(
    config: &ArchitectureConfig,
    options: &CosimCliOptions,
) -> Result<rvsim_iss::Cosim, String> {
    let mut harness = rvsim_iss::Cosim::new(config.clone());
    harness.max_cycles = options.max_cycles;
    harness.max_steps = options.max_cycles;
    if let Some(spec) = &options.inject_fault {
        harness.fault = Some(parse_fault(spec)?);
    }
    Ok(harness)
}

/// Run the `cosim` subcommand.  Returns the report text; divergences (and
/// generator errors) on any configuration are returned as `Err` so the
/// binary exits non-zero.
pub fn run_cosim(options: &CosimCliOptions) -> Result<String, String> {
    let configs = cosim_configs(options)?;
    let gen = rvsim_iss::GenOptions {
        body_instructions: options.instructions,
        dp_ops: options.dfp,
        ..Default::default()
    };

    // Replay mode: one exact program from a printed per-program seed.
    if let Some(program_seed) = options.program_seed {
        return run_cosim_replay(&configs, options, program_seed, &gen);
    }

    // The batch matrix: every configuration with the base generator, plus —
    // in the default (no --arch) run, unless the base generator is already
    // D-enabled — one D-heavy batch on the default machine, so the
    // double-precision paths stay differentially covered by default.
    let mut entries: Vec<(String, ArchitectureConfig, rvsim_iss::GenOptions)> =
        configs.iter().map(|c| (c.name.clone(), c.clone(), gen.clone())).collect();
    if options.arch_path.is_none() && !options.dfp {
        let d_gen = rvsim_iss::GenOptions {
            body_instructions: options.instructions,
            ..rvsim_iss::GenOptions::d_heavy()
        };
        let config = ArchitectureConfig::default();
        entries.push((format!("{}+dfp", config.name), config, d_gen));
    }

    let mut reports: Vec<(String, rvsim_iss::BatchReport)> = Vec::new();
    let mut all_ok = true;
    for (label, config, gen) in &entries {
        let harness = cosim_harness(config, options)?;
        let report = harness.run_batch(options.seed, options.programs, gen);
        // A batch that matched nothing (every program inconclusive) provides
        // no differential coverage; fail loudly instead of letting CI go
        // green.
        all_ok &= report.divergences.is_empty() && report.errors.is_empty() && report.matched > 0;
        reports.push((label.clone(), report));
    }

    let text = match options.format {
        OutputFormat::Text => {
            let mut out = String::new();
            for (name, report) in &reports {
                out.push_str(&format!("[{name}] "));
                out.push_str(&report.render_text());
                if !out.ends_with('\n') {
                    out.push('\n');
                }
            }
            out
        }
        OutputFormat::Json => {
            let configs_json: Vec<serde_json::Value> = reports
                .iter()
                .map(|(name, report)| serde_json::json!({ "config": name, "report": report }))
                .collect();
            let value = serde_json::json!({
                "batch_seed": options.seed,
                "programs": options.programs,
                "configs": configs_json,
            });
            let mut out = serde_json::to_string_pretty(&value).expect("batch report serializes");
            out.push('\n');
            out
        }
    };
    if all_ok {
        Ok(text)
    } else {
        Err(text)
    }
}

fn run_cosim_replay(
    configs: &[ArchitectureConfig],
    options: &CosimCliOptions,
    program_seed: u64,
    gen: &rvsim_iss::GenOptions,
) -> Result<String, String> {
    let source = rvsim_iss::generate_program(program_seed, gen);
    let mut all_match = true;
    let mut texts = Vec::new();
    let mut jsons = Vec::new();

    for config in configs {
        // Replay under the same seed-derived memory timings the batch used,
        // so a printed seed reproduces the exact run.
        let harness =
            cosim_harness(config, options)?.with_timings(rvsim_iss::timings_for_seed(program_seed));
        let name = config.name.as_str();
        let outcome = harness.run_source(&source)?;

        // Shrink first so both output formats can include the reproducer.
        let shrunk = match &outcome {
            rvsim_iss::CosimOutcome::Divergence(divergence) => Some(
                harness.shrink(&source).unwrap_or_else(|| (source.clone(), (**divergence).clone())),
            ),
            _ => None,
        };

        match &outcome {
            rvsim_iss::CosimOutcome::Match { retired } => {
                texts.push(format!(
                    "[{name}] cosim replay: program seed {program_seed} matches ({retired} \
                     instructions co-verified)\n"
                ));
                jsons.push(serde_json::json!({
                    "config": name,
                    "outcome": "match",
                    "retired": retired,
                }));
            }
            rvsim_iss::CosimOutcome::Inconclusive { reason } => {
                all_match = false;
                texts.push(format!(
                    "[{name}] cosim replay: program seed {program_seed} inconclusive: {reason} \
                     (raise --max-cycles)\n"
                ));
                jsons.push(serde_json::json!({
                    "config": name,
                    "outcome": "inconclusive",
                    "reason": reason,
                }));
            }
            rvsim_iss::CosimOutcome::Divergence(divergence) => {
                all_match = false;
                let (shrunk_program, shrunk_div) = shrunk.as_ref().expect("shrunk above");
                texts.push(format!(
                    "[{name}] cosim replay: program seed {program_seed} diverges:\n{}\n\
                     --- shrunk reproducer ({}) ---\n{}",
                    divergence.report, shrunk_div.summary, shrunk_program
                ));
                jsons.push(serde_json::json!({
                    "config": name,
                    "outcome": "divergence",
                    "divergence": divergence,
                    "shrunk_program": shrunk_program,
                    "shrunk_summary": shrunk_div.summary,
                }));
            }
        }
    }

    let text = match options.format {
        OutputFormat::Json => {
            let value = serde_json::json!({
                "mode": "replay",
                "program_seed": program_seed,
                "configs": jsons,
            });
            let mut out = serde_json::to_string_pretty(&value).expect("replay report serializes");
            out.push('\n');
            out
        }
        OutputFormat::Text => texts.concat(),
    };
    if all_match {
        Ok(text)
    } else {
        Err(text)
    }
}

/// Run the CLI against already-loaded inputs (program source + optional
/// architecture JSON + optional memory CSV).  Returns the report text.
pub fn run_with_sources(
    options: &CliOptions,
    program_source: &str,
    arch_json: Option<&str>,
    memory_csv: Option<&str>,
) -> Result<String, String> {
    let config = match arch_json {
        Some(json) => ArchitectureConfig::from_json(json)?,
        None => ArchitectureConfig::default(),
    };

    // Optional C compilation step.
    let assembly = if options.compile_c {
        let output = rvsim_cc::compile(program_source, options.opt_level).map_err(|errors| {
            errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n")
        })?;
        output.assembly
    } else {
        program_source.to_string()
    };

    let memory_settings = match memory_csv {
        Some(csv) => MemorySettings::from_csv(csv)?,
        None => MemorySettings::new(),
    };

    let mut simulator = Simulator::from_assembly_with_memory(&assembly, &config, memory_settings)?;
    if let Some(entry) = &options.entry {
        let mut program = simulator.program().clone();
        if !program.set_entry(entry) {
            return Err(format!("entry label `{entry}` not found"));
        }
        simulator = Simulator::with_memory(program, &config, MemorySettings::new())?;
    }

    let result = simulator.run(options.max_cycles)?;
    let stats = simulator.statistics();

    let mut out = String::new();
    match options.format {
        OutputFormat::Json => {
            let value = serde_json::json!({
                "halt": halt_name(&result.halt),
                "cycles": result.cycles,
                "registers": {
                    "a0": simulator.int_register(10),
                    "a1": simulator.int_register(11),
                },
                "statistics": stats,
            });
            out.push_str(&serde_json::to_string_pretty(&value).expect("stats serialize"));
            out.push('\n');
        }
        OutputFormat::Text => {
            out.push_str(&format!("architecture:           {}\n", config.name));
            out.push_str(&format!("halt reason:            {}\n", halt_name(&result.halt)));
            out.push_str(&format!("a0 (return value):      {}\n", simulator.int_register(10)));
            out.push_str(&stats.report());
        }
    }

    if let Some((addr, len)) = options.dump_memory {
        out.push_str("--- memory dump ---\n");
        out.push_str(&simulator.memory().memory().hex_dump(addr, len));
    }
    if options.verbose {
        out.push_str("--- debug log ---\n");
        for entry in simulator.log().entries() {
            out.push_str(&format!("[{:>8}] {}\n", entry.cycle, entry.event));
        }
    }
    Ok(out)
}

/// Run the CLI by reading the files referenced in `options`.
pub fn run(options: &CliOptions) -> Result<String, String> {
    let program = std::fs::read_to_string(&options.program_path)
        .map_err(|e| format!("cannot read `{}`: {e}", options.program_path))?;
    let arch = match &options.arch_path {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?)
        }
        None => None,
    };
    let memory = match &options.memory_csv {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?)
        }
        None => None,
    };
    run_with_sources(options, &program, arch.as_deref(), memory.as_deref())
}

fn halt_name(halt: &HaltReason) -> String {
    match halt {
        HaltReason::PipelineEmpty => "pipeline empty".to_string(),
        HaltReason::MainReturned => "main returned".to_string(),
        HaltReason::Exception(e) => format!("exception: {e}"),
        HaltReason::MaxCyclesReached => "cycle budget exhausted".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 10
loop:
    addi t0, t0, 2
    addi t1, t1, -1
    bnez t1, loop
    mv   a0, t0
    ret
";

    #[test]
    fn parse_full_argument_set() {
        let o = CliOptions::parse(&args(&[
            "--program",
            "prog.s",
            "--arch",
            "arch.json",
            "--entry",
            "start",
            "--max-cycles",
            "5000",
            "--format",
            "json",
            "--verbose",
            "--memory",
            "mem.csv",
            "--dump-memory",
            "0x1000,64",
        ]))
        .unwrap();
        assert_eq!(o.program_path, "prog.s");
        assert_eq!(o.arch_path.as_deref(), Some("arch.json"));
        assert_eq!(o.entry.as_deref(), Some("start"));
        assert_eq!(o.max_cycles, 5000);
        assert_eq!(o.format, OutputFormat::Json);
        assert!(o.verbose);
        assert_eq!(o.memory_csv.as_deref(), Some("mem.csv"));
        assert_eq!(o.dump_memory, Some((0x1000, 64)));
    }

    #[test]
    fn parse_errors() {
        assert!(CliOptions::parse(&args(&[])).is_err());
        assert!(CliOptions::parse(&args(&["--program"])).is_err());
        assert!(CliOptions::parse(&args(&["--program", "x.s", "--format", "xml"])).is_err());
        assert!(CliOptions::parse(&args(&["--program", "x.s", "--wat"])).is_err());
        assert!(CliOptions::parse(&args(&["--help"])).is_err());
        assert!(CliOptions::parse(&args(&["--program", "x.s", "--opt", "9"])).is_err());
        assert!(CliOptions::parse(&args(&["--program", "x.s", "--dump-memory", "12"])).is_err());
    }

    #[test]
    fn text_report_contains_statistics() {
        let options =
            CliOptions { program_path: "prog.s".into(), max_cycles: 100_000, ..Default::default() };
        let out = run_with_sources(&options, PROGRAM, None, None).unwrap();
        assert!(out.contains("a0 (return value):      20"));
        assert!(out.contains("IPC:"));
        assert!(out.contains("dynamic instruction mix"));
    }

    #[test]
    fn json_report_is_valid_json() {
        let options = CliOptions {
            program_path: "prog.s".into(),
            max_cycles: 100_000,
            format: OutputFormat::Json,
            ..Default::default()
        };
        let out = run_with_sources(&options, PROGRAM, None, None).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["registers"]["a0"], 20);
        assert_eq!(value["halt"], "main returned");
        assert!(value["statistics"]["committed"].as_u64().unwrap() > 20);
    }

    #[test]
    fn custom_architecture_json_is_honoured() {
        let mut config = ArchitectureConfig::scalar();
        config.name = "cli-test-arch".into();
        let options =
            CliOptions { program_path: "prog.s".into(), max_cycles: 100_000, ..Default::default() };
        let out = run_with_sources(&options, PROGRAM, Some(&config.to_json()), None).unwrap();
        assert!(out.contains("cli-test-arch"));
        assert!(run_with_sources(&options, PROGRAM, Some("{broken"), None).is_err());
    }

    #[test]
    fn c_compilation_path() {
        let options = CliOptions {
            program_path: "prog.c".into(),
            compile_c: true,
            opt_level: OptLevel::O2,
            max_cycles: 1_000_000,
            ..Default::default()
        };
        let source =
            "int main(void) { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }";
        let out = run_with_sources(&options, source, None, None).unwrap();
        assert!(out.contains("a0 (return value):      55"));
        let bad = run_with_sources(&options, "int main(void) { return 1 + ; }", None, None);
        assert!(bad.is_err());
    }

    #[test]
    fn memory_csv_arrays_are_available() {
        let options =
            CliOptions { program_path: "prog.s".into(), max_cycles: 100_000, ..Default::default() };
        let program = "
main:
    la   t0, input
    lw   a0, 0(t0)
    lw   a1, 4(t0)
    add  a0, a0, a1
    ret
";
        let csv = "name,type,index,value\ninput,word,0,11\ninput,word,1,31\n";
        let out = run_with_sources(&options, program, None, Some(csv)).unwrap();
        assert!(out.contains("a0 (return value):      42"));
    }

    #[test]
    fn memory_dump_and_verbose_log() {
        let options = CliOptions {
            program_path: "prog.s".into(),
            max_cycles: 100_000,
            dump_memory: Some((0, 16)),
            verbose: true,
            ..Default::default()
        };
        let out = run_with_sources(&options, PROGRAM, None, None).unwrap();
        assert!(out.contains("--- memory dump ---"));
        assert!(out.contains("--- debug log ---"));
        assert!(out.contains("simulation finished"));
    }

    #[test]
    fn cosim_options_parse() {
        let o = CosimCliOptions::parse(&args(&[
            "--programs",
            "50",
            "--seed",
            "0x2a",
            "--instructions",
            "24",
            "--max-cycles",
            "90000",
            "--format",
            "json",
            "--inject-fault",
            "xor:0x10",
        ]))
        .unwrap();
        assert_eq!(o.programs, 50);
        assert_eq!(o.seed, 42);
        assert_eq!(o.instructions, 24);
        assert_eq!(o.max_cycles, 90_000);
        assert_eq!(o.format, OutputFormat::Json);
        assert_eq!(o.inject_fault.as_deref(), Some("xor:0x10"));

        let defaults = CosimCliOptions::parse(&args(&[])).unwrap();
        assert_eq!(defaults.programs, 200);
        assert_eq!(defaults.seed, 42);
        assert!(!defaults.dfp);
        assert!(CosimCliOptions::parse(&args(&["--dfp"])).unwrap().dfp);

        assert!(CosimCliOptions::parse(&args(&["--programs", "0"])).is_err());
        assert!(CosimCliOptions::parse(&args(&["--bogus"])).is_err());
        assert!(CosimCliOptions::parse(&args(&["--help"])).unwrap_err().contains("cosim"));
    }

    #[test]
    fn serve_options_parse() {
        assert!(ServeCliOptions::parse(&args(&[])).is_err(), "--tcp is mandatory");
        assert!(ServeCliOptions::parse(&args(&["--help"])).unwrap_err().contains("serve"));
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--bogus"])).is_err());
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--event-loops", "0"])).is_err());
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--dispatch-workers", "0"])).is_err());
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--max-connections", "0"])).is_err());
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--idle-ttl", "x"])).is_err());

        let o = ServeCliOptions::parse(&args(&[
            "--tcp",
            "--addr",
            "127.0.0.1:0",
            "--event-loops",
            "1",
            "--dispatch-workers",
            "8",
            "--max-connections",
            "500",
            "--pending",
            "16",
            "--no-compress",
            "--idle-ttl",
            "30",
        ]))
        .unwrap();
        assert!(o.tcp);
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.event_loops, 1);
        assert_eq!(o.dispatch_workers, 8);
        assert_eq!(o.max_connections, 500);
        assert_eq!(o.pending, 16);
        assert!(!o.compress);
        assert_eq!(o.idle_ttl_seconds, Some(30));
        assert_eq!(o.state_dir, None, "durability is opt-in");
        assert_eq!(o.housekeeping_ms, 1000, "default tick is one second");

        let hk = ServeCliOptions::parse(&args(&["--tcp", "--housekeeping-ms", "250"])).unwrap();
        assert_eq!(hk.housekeeping_ms, 250);
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--housekeeping-ms", "0"])).is_err());

        let d = ServeCliOptions::parse(&args(&[
            "--tcp",
            "--state-dir",
            "/tmp/rvsim-state",
            "--checkpoint-interval",
            "0.5",
            "--checkpoint-dirty-cycles",
            "1000",
        ]))
        .unwrap();
        assert_eq!(d.state_dir.as_deref(), Some("/tmp/rvsim-state"));
        assert!((d.checkpoint_interval_seconds - 0.5).abs() < 1e-12);
        assert_eq!(d.checkpoint_dirty_cycles, 1000);
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--checkpoint-interval", "-1"])).is_err());
        assert!(
            ServeCliOptions::parse(&args(&["--tcp", "--checkpoint-dirty-cycles", "x"])).is_err()
        );
        let router_with_state = ServeCliOptions::parse(&args(&[
            "--tcp",
            "--router",
            "127.0.0.1:1",
            "--state-dir",
            "/tmp/x",
        ]));
        assert!(router_with_state.is_err(), "a router holds no sessions to checkpoint");

        let defaults = ServeCliOptions::parse(&args(&["--tcp"])).unwrap();
        assert_eq!(defaults.slow_request_us, rvsim_obs::DEFAULT_SLOW_REQUEST_US);
        let slow = ServeCliOptions::parse(&args(&["--tcp", "--slow-request-us", "0"])).unwrap();
        assert_eq!(slow.slow_request_us, 0, "0 journals every request");
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--slow-request-us", "x"])).is_err());
    }

    #[test]
    fn chaos_options_parse() {
        assert!(ChaosCliOptions::parse(&args(&[])).is_err(), "--upstream is mandatory");
        assert!(ChaosCliOptions::parse(&args(&["--help"])).unwrap_err().contains("chaos"));
        assert!(ChaosCliOptions::parse(&args(&["--upstream", "nope"])).is_err());
        assert!(
            ChaosCliOptions::parse(&args(&["--upstream", "127.0.0.1:1", "--reset", "2"])).is_err()
        );
        assert!(ChaosCliOptions::parse(&args(&["--upstream", "127.0.0.1:1", "--delay", "-0.5"]))
            .is_err());

        let o = ChaosCliOptions::parse(&args(&[
            "--upstream",
            "127.0.0.1:9000",
            "--listen",
            "127.0.0.1:9001",
            "--seed",
            "7",
            "--reset",
            "0.25",
            "--truncate",
            "0.5",
            "--delay",
            "1",
            "--max-delay-ms",
            "20",
        ]))
        .unwrap();
        assert_eq!(o.upstream, "127.0.0.1:9000".parse().unwrap());
        assert_eq!(o.listen, "127.0.0.1:9001");
        assert_eq!(o.seed, 7);
        assert!((o.reset_probability - 0.25).abs() < 1e-12);
        assert!((o.truncate_probability - 0.5).abs() < 1e-12);
        assert!((o.delay_probability - 1.0).abs() < 1e-12);
        assert_eq!(o.max_delay_ms, 20);
    }

    #[test]
    fn serve_with_state_dir_survives_a_restart() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping durable-serve test: loopback unavailable");
            return;
        }
        let dir = std::env::temp_dir().join(format!("rvsim-cli-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeCliOptions {
            tcp: true,
            addr: "127.0.0.1:0".to_string(),
            state_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_interval_seconds: 0.0,
            ..ServeCliOptions::default()
        };

        // First life: create a session, step it, checkpoint, die.
        let first = start_serve(&options).expect("durable serve starts");
        let mut client = rvsim_net::TcpApiClient::new(first.local_addr());
        let session = match client
            .call(&rvsim_server::Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: None,
            })
            .unwrap()
        {
            rvsim_server::Response::SessionCreated { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        let stepped = client.call(&rvsim_server::Request::Step { session, cycles: 4 }).unwrap();
        assert!(matches!(stepped, rvsim_server::Response::Stepped { cycle: 4, .. }));
        assert_eq!(first.server().checkpoint_dirty_sessions(), 1);
        first.shutdown();

        // Second life on the same state dir: the session is back, at the
        // checkpointed cycle, and keeps stepping.
        let second = start_serve(&options).expect("durable serve restarts");
        assert_eq!(second.server().restored_session_count(), 1, "boot recovery re-owned it");
        let mut client = rvsim_net::TcpApiClient::new(second.local_addr());
        match client.call(&rvsim_server::Request::GetState { session }).unwrap() {
            rvsim_server::Response::State(snapshot) => assert_eq!(snapshot.cycle, 4),
            other => panic!("unexpected {other:?}"),
        }
        let stepped = client.call(&rvsim_server::Request::Step { session, cycles: 2 }).unwrap();
        assert!(matches!(stepped, rvsim_server::Response::Stepped { cycle: 6, .. }));
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_starts_a_reachable_front_end() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping serve test: loopback unavailable");
            return;
        }
        let options = ServeCliOptions {
            tcp: true,
            addr: "127.0.0.1:0".to_string(),
            ..ServeCliOptions::default()
        };
        let server = start_serve(&options).expect("serve starts");
        let mut client = rvsim_net::TcpApiClient::new(server.local_addr());
        let created = client
            .call(&rvsim_server::Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: None,
            })
            .unwrap();
        assert!(matches!(created, rvsim_server::Response::SessionCreated { .. }));
        server.shutdown();

        // A taken port reports a bind error instead of panicking.
        let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let taken = holder.local_addr().unwrap().to_string();
        let bad = ServeCliOptions { addr: taken, ..options };
        assert!(start_serve(&bad).is_err());
    }

    #[test]
    fn router_serve_drain_and_loadgen_work_end_to_end() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping router CLI test: loopback unavailable");
            return;
        }
        let backend_options = ServeCliOptions {
            tcp: true,
            addr: "127.0.0.1:0".to_string(),
            ..ServeCliOptions::default()
        };
        let b0 = start_serve(&backend_options).expect("backend 0 starts");
        let b1 = start_serve(&backend_options).expect("backend 1 starts");
        let router_options = ServeCliOptions {
            router_backends: vec![b0.local_addr(), b1.local_addr()],
            ..backend_options
        };
        let router = start_serve(&router_options).expect("router starts");
        let addr = router.local_addr();

        // The loadgen creates, warms and hammers sessions through the router.
        let loadgen = LoadgenCliOptions {
            addr,
            sessions: 6,
            threads: 2,
            seconds: 0.3,
            error_budget: 0.0,
            format: OutputFormat::Json,
        };
        let out = run_loadgen(&loadgen).expect("load run is clean");
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["errors"], 0);
        assert!(value["requests"].as_u64().unwrap() > 0);

        // Drain backend 0 through the CLI path and verify the report.
        let drain = DrainCliOptions { router: addr, backend: 0, format: OutputFormat::Json };
        let out = run_drain(&drain).expect("drain succeeds");
        let report: rvsim_net::DrainReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.backend, 0);
        assert_eq!(report.migrated, report.sessions);
        assert!(report.failed.is_empty());
        assert_eq!(b0.server().session_count(), 0, "backend 0 drained");
        assert_eq!(b1.server().session_count(), 6, "backend 1 took every session");

        // A second drain is refused and surfaces as a non-zero exit.
        assert!(run_drain(&drain).is_err());

        router.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn top_counts_every_request_a_live_router_forwarded() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping router top test: loopback unavailable");
            return;
        }
        let backend_options = ServeCliOptions {
            tcp: true,
            addr: "127.0.0.1:0".to_string(),
            ..ServeCliOptions::default()
        };
        let b0 = start_serve(&backend_options).expect("backend 0 starts");
        let b1 = start_serve(&backend_options).expect("backend 1 starts");
        let router_options = ServeCliOptions {
            router_backends: vec![b0.local_addr(), b1.local_addr()],
            ..backend_options
        };
        let router = start_serve(&router_options).expect("router starts");
        let addr = router.local_addr();

        // Three sessions, each created and stepped twice: nine requests,
        // one upstream hop each.
        let mut client = rvsim_net::TcpApiClient::new(addr);
        for _ in 0..3 {
            let session = match client
                .call(&rvsim_server::Request::CreateSession {
                    program: PROGRAM.into(),
                    architecture: None,
                    entry: None,
                    session: None,
                })
                .unwrap()
            {
                rvsim_server::Response::SessionCreated { session } => session,
                other => panic!("unexpected {other:?}"),
            };
            for _ in 0..2 {
                let r = client.call(&rvsim_server::Request::Step { session, cycles: 1 }).unwrap();
                assert!(matches!(r, rvsim_server::Response::Stepped { .. }), "{r:?}");
            }
        }

        let families = fetch_metrics(addr).expect("valid exposition");
        let frame = render_top(&addr.to_string(), &families, None);
        assert!(frame.contains("2/2 backends alive, 9 forwarded, 0 upstream errors"), "{frame}");

        router.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn tail_and_top_options_parse() {
        assert!(TailCliOptions::parse(&args(&[])).is_err(), "--addr is mandatory");
        assert!(TailCliOptions::parse(&args(&["--help"])).unwrap_err().contains("tail"));
        assert!(TailCliOptions::parse(&args(&["--addr", "nope"])).is_err());
        assert!(TailCliOptions::parse(&args(&["--addr", "127.0.0.1:1", "--n", "0"])).is_err());
        let t = TailCliOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:9000",
            "--n",
            "32",
            "--min-us",
            "500",
            "--interval-ms",
            "250",
            "--once",
        ]))
        .unwrap();
        assert_eq!(t.addr, "127.0.0.1:9000".parse().unwrap());
        assert_eq!(t.n, 32);
        assert_eq!(t.min_us, 500);
        assert_eq!(t.interval_ms, 250);
        assert!(t.once);
        let defaults = TailCliOptions::parse(&args(&["--addr", "127.0.0.1:1"])).unwrap();
        assert_eq!((defaults.n, defaults.min_us, defaults.interval_ms), (256, 0, 1000));
        assert!(!defaults.once);

        assert!(TopCliOptions::parse(&args(&[])).is_err(), "--addr is mandatory");
        assert!(TopCliOptions::parse(&args(&["--help"])).unwrap_err().contains("top"));
        assert!(
            TopCliOptions::parse(&args(&["--addr", "127.0.0.1:1", "--interval-ms", "0"])).is_err()
        );
        let o = TopCliOptions::parse(&args(&["--addr", "127.0.0.1:9000", "--once"])).unwrap();
        assert_eq!(o.addr, "127.0.0.1:9000".parse().unwrap());
        assert_eq!(o.interval_ms, 1000);
        assert!(o.once);
    }

    #[test]
    fn parsed_histogram_quantile_reads_cumulative_buckets() {
        // 10 observations: 5 in (0, 0.001], 4 in (0.001, 0.01], 1 overflow.
        let exposition = "\
# TYPE demo_seconds histogram
demo_seconds_bucket{endpoint=\"step\",le=\"0.001\"} 5
demo_seconds_bucket{endpoint=\"step\",le=\"0.01\"} 9
demo_seconds_bucket{endpoint=\"step\",le=\"+Inf\"} 10
demo_seconds_sum{endpoint=\"step\"} 0.5
demo_seconds_count{endpoint=\"step\"} 10
";
        let families = rvsim_obs::validate_exposition(exposition).unwrap();
        let family = families.iter().find(|f| f.name == "demo_seconds").unwrap();
        let selector = [("endpoint", "step")];
        assert_eq!(histogram_count(family, &selector), 10.0);
        assert_eq!(histogram_label_values(family, "endpoint"), vec!["step".to_string()]);

        // p50 lands exactly on the first bucket's upper bound (rank 5 of 5).
        let p50 = parsed_histogram_quantile(family, &selector, 0.50).unwrap();
        assert!((p50 - 0.001).abs() < 1e-9, "p50 {p50}");
        // p90 is rank 9 — the top of the second bucket.
        let p90 = parsed_histogram_quantile(family, &selector, 0.90).unwrap();
        assert!((p90 - 0.01).abs() < 1e-9, "p90 {p90}");
        // p99 falls in the +Inf bucket: clamped to the last finite bound.
        let p99 = parsed_histogram_quantile(family, &selector, 0.99).unwrap();
        assert!((p99 - 0.01).abs() < 1e-9, "p99 {p99}");
        // A selector that matches nothing yields no estimate.
        assert!(parsed_histogram_quantile(family, &[("endpoint", "nope")], 0.5).is_none());
    }

    #[test]
    fn tail_and_top_observe_a_live_front_end() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping tail/top test: loopback unavailable");
            return;
        }
        // Threshold 0: every request is journaled, so the tail sees traffic
        // without needing an artificially slow handler.
        let options = ServeCliOptions {
            tcp: true,
            addr: "127.0.0.1:0".to_string(),
            slow_request_us: 0,
            ..ServeCliOptions::default()
        };
        let server = start_serve(&options).expect("serve starts");
        let addr = server.local_addr();
        let mut client = rvsim_net::TcpApiClient::new(addr);
        let session = match client
            .call(&rvsim_server::Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: None,
            })
            .unwrap()
        {
            rvsim_server::Response::SessionCreated { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        for _ in 0..4 {
            let r = client.call(&rvsim_server::Request::Step { session, cycles: 1 }).unwrap();
            assert!(matches!(r, rvsim_server::Response::Stepped { .. }));
        }

        // First fetch sees the journaled requests; every line carries a
        // request id and the four phase timings.
        let (lines, high) = tail_fetch(addr, 256, 0, None).expect("trace fetch");
        assert!(lines.len() >= 5, "expected the five requests, got {lines:?}");
        assert!(high.is_some());
        // Threshold 0 classifies every request as "slow", so the per-request
        // events arrive under the slow_request kind.
        let request_lines: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"event\":\"slow_request\"")).collect();
        assert!(!request_lines.is_empty(), "{lines:?}");
        for line in &request_lines {
            assert!(line.contains("\"request_id\":\""), "{line}");
            assert!(line.contains("\"phases_us\":{"), "{line}");
        }
        // Sequences are strictly increasing within one fetch.
        let seqs: Vec<u64> = lines.iter().map(|l| trace_line_seq(l).unwrap()).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        // The next poll never reprints: only events newer than the high-water
        // mark appear (the poll's own connection open/close — polling is
        // itself journaled traffic — but none of the already-seen requests).
        let (fresh, resumed) = tail_fetch(addr, 256, 0, high).expect("second fetch");
        assert!(
            fresh.iter().all(|l| trace_line_seq(l).unwrap() > high.unwrap()),
            "reprinted an old event: {fresh:?}"
        );
        assert!(
            !fresh.iter().any(|l| l.contains("\"event\":\"slow_request\"")),
            "no request ran between polls, but got {fresh:?}"
        );
        assert!(resumed >= high);
        // An aggressive duration filter drops the sub-millisecond requests.
        let (slow_only, _) = tail_fetch(addr, 256, 60_000_000, None).expect("filtered fetch");
        assert!(slow_only.is_empty(), "nothing took a minute: {slow_only:?}");

        // The dashboard sees the same traffic through /metrics.
        let families = fetch_metrics(addr).expect("valid exposition");
        let frame = render_top(&addr.to_string(), &families, Some(123.0));
        assert!(frame.contains("rvsim top"), "{frame}");
        assert!(frame.contains("123 req/s"), "{frame}");
        assert!(frame.contains("endpoint"), "{frame}");
        assert!(frame.contains("step"), "{frame}");
        assert!(frame.contains("phase"), "{frame}");
        assert!(frame.contains("handler"), "{frame}");
        let endpoint_family = families.iter().find(|f| f.name == "rvsim_endpoint_seconds").unwrap();
        assert!(histogram_count(endpoint_family, &[("endpoint", "step")]) >= 4.0);
        assert!(parsed_histogram_quantile(endpoint_family, &[("endpoint", "step")], 0.99).is_some());

        server.shutdown();
    }

    #[test]
    fn router_drain_and_loadgen_options_parse() {
        let o =
            ServeCliOptions::parse(&args(&["--tcp", "--router", "127.0.0.1:9001, 127.0.0.1:9002"]))
                .unwrap();
        assert_eq!(o.router_backends.len(), 2);
        assert!(ServeCliOptions::parse(&args(&["--tcp", "--router", "nope"])).is_err());

        let d = DrainCliOptions::parse(&args(&[
            "--router",
            "127.0.0.1:9000",
            "--backend",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(d.backend, 1);
        assert_eq!(d.format, OutputFormat::Json);
        assert!(DrainCliOptions::parse(&args(&["--backend", "1"])).is_err());
        assert!(DrainCliOptions::parse(&args(&["--router", "127.0.0.1:9000"])).is_err());
        assert!(DrainCliOptions::parse(&args(&["--help"])).unwrap_err().contains("drain"));

        let l = LoadgenCliOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:9000",
            "--sessions",
            "12",
            "--threads",
            "3",
            "--seconds",
            "1.5",
        ]))
        .unwrap();
        assert_eq!((l.sessions, l.threads), (12, 3));
        assert!((l.seconds - 1.5).abs() < 1e-12);
        assert!((l.error_budget - 0.0).abs() < 1e-12, "zero tolerance by default");
        assert!(LoadgenCliOptions::parse(&args(&[])).is_err(), "--addr is mandatory");
        assert!(LoadgenCliOptions::parse(&args(&["--addr", "x", "--sessions", "0"])).is_err());
        assert!(LoadgenCliOptions::parse(&args(&["--help"])).unwrap_err().contains("loadgen"));
        let budget = LoadgenCliOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:9000",
            "--error-budget",
            "0.05",
        ]))
        .unwrap();
        assert!((budget.error_budget - 0.05).abs() < 1e-12);
        assert!(LoadgenCliOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:9000",
            "--error-budget",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            parse_fault("xor").unwrap(),
            rvsim_iss::InjectedFault { mnemonic: "xor".into(), xor_bits: 1 }
        );
        assert_eq!(
            parse_fault("addi:0x80").unwrap(),
            rvsim_iss::InjectedFault { mnemonic: "addi".into(), xor_bits: 0x80 }
        );
        assert!(parse_fault("addi:zz").is_err());
        assert!(parse_fault(":1").is_err());
    }

    #[test]
    fn cosim_batch_matches_and_injected_fault_fails() {
        let options =
            CosimCliOptions { programs: 8, seed: 42, instructions: 16, ..Default::default() };
        let out = run_cosim(&options).expect("clean batch must succeed");
        assert!(out.contains("8 programs"));
        assert!(out.contains("0 divergences"), "output:\n{out}");

        let faulty = CosimCliOptions {
            inject_fault: Some("addi".into()),
            programs: 2,
            instructions: 8,
            ..options
        };
        let report = run_cosim(&faulty).expect_err("fault must be detected");
        assert!(report.contains("shrunk reproducer"), "report:\n{report}");
        assert!(report.contains("addi"), "report:\n{report}");
    }

    #[test]
    fn cosim_replay_mode_runs_one_exact_program() {
        // Clean replay matches and exits successfully.
        let options =
            CosimCliOptions { program_seed: Some(1), instructions: 12, ..Default::default() };
        let out = run_cosim(&options).expect("clean replay succeeds");
        assert!(out.contains("program seed 1 matches"), "output:\n{out}");

        // Replay with the fault injected reproduces the divergence directly
        // from the per-program seed (no batch derivation involved).
        let faulty = CosimCliOptions { inject_fault: Some("addi".into()), ..options };
        let report = run_cosim(&faulty).expect_err("faulty replay diverges");
        assert!(report.contains("diverges"), "report:\n{report}");
        assert!(report.contains("shrunk reproducer"), "report:\n{report}");
    }

    #[test]
    fn cosim_all_inconclusive_batch_fails() {
        // A 10-cycle budget is too small for any generated program to halt
        // (the prologue alone is longer), so nothing is matched — the run
        // must not report success.
        let options =
            CosimCliOptions { programs: 3, instructions: 12, max_cycles: 10, ..Default::default() };
        let report = run_cosim(&options).expect_err("zero coverage must fail");
        assert!(report.contains("3 inconclusive"), "report:\n{report}");
    }

    #[test]
    fn cosim_json_format_is_machine_readable() {
        let options = CosimCliOptions {
            programs: 3,
            format: OutputFormat::Json,
            instructions: 12,
            ..Default::default()
        };
        let out = run_cosim(&options).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["programs"], 3);
        // The default batch covers the scalar, 2-wide and 4-wide presets
        // plus a D-heavy generator batch on the default machine.
        let configs = value["configs"].as_array().unwrap();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0]["config"], "scalar");
        assert_eq!(configs[1]["config"], "default-superscalar");
        assert_eq!(configs[2]["config"], "wide-4");
        assert_eq!(configs[3]["config"], "default-superscalar+dfp");
        assert_eq!(configs[3]["report"]["gen_dfp"], true);
        for c in configs {
            assert_eq!(c["report"]["divergences"].as_array().unwrap().len(), 0);
            assert_eq!(c["report"]["programs"], 3);
        }

        // Replay mode honours --format json too, in all outcomes.
        let replay = CosimCliOptions { program_seed: Some(5), ..options.clone() };
        let out = run_cosim(&replay).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["mode"], "replay");
        let configs = value["configs"].as_array().unwrap();
        assert_eq!(configs.len(), 3);
        assert!(configs.iter().all(|c| c["outcome"] == "match"));

        let faulty = CosimCliOptions { inject_fault: Some("addi".into()), ..replay };
        let report = run_cosim(&faulty).expect_err("fault diverges");
        let value: serde_json::Value = serde_json::from_str(&report).unwrap();
        let diverged = value["configs"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["outcome"] == "divergence")
            .expect("at least one config diverges");
        assert!(diverged["shrunk_program"].as_str().unwrap().contains("addi"));
    }

    #[test]
    fn run_reads_files_from_disk() {
        let dir = std::env::temp_dir().join(format!("rvsim-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let program_path = dir.join("prog.s");
        std::fs::write(&program_path, PROGRAM).unwrap();
        let options = CliOptions {
            program_path: program_path.to_string_lossy().into_owned(),
            max_cycles: 100_000,
            ..Default::default()
        };
        let out = run(&options).unwrap();
        assert!(out.contains("a0 (return value):      20"));
        let missing =
            CliOptions { program_path: "/nonexistent/prog.s".into(), ..Default::default() };
        assert!(run(&missing).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
