//! `rvsim-cli` binary entry point.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `rvsim-cli cosim ...` — differential co-simulation subcommand.
    if args.first().map(String::as_str) == Some("cosim") {
        let options = match rvsim_cli::CosimCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        match rvsim_cli::run_cosim(&options) {
            Ok(report) => print!("{report}"),
            Err(report) => {
                // Divergence reports go to stdout (they are the product of
                // the run); the exit code carries the failure.
                print!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }

    // `rvsim-cli serve ...` — the TCP/HTTP network front end.
    if args.first().map(String::as_str) == Some("serve") {
        let options = match rvsim_cli::ServeCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        match rvsim_cli::start_serve(&options) {
            Ok(server) => {
                if options.router_backends.is_empty() {
                    println!(
                        "rvsim-net listening on http://{} (POST /api, GET /metrics, GET /healthz)",
                        server.local_addr()
                    );
                    // After the banner: tools parse the bound address from
                    // the first stdout line.
                    if let Some(dir) = &options.state_dir {
                        println!(
                            "durable state in {dir}: {} session(s) recovered from checkpoints",
                            server.server().restored_session_count()
                        );
                    }
                } else {
                    println!(
                        "rvsim-net router listening on http://{} ({} backends; POST /api, \
                         POST /admin/drain, GET /metrics, GET /healthz)",
                        server.local_addr(),
                        options.router_backends.len()
                    );
                }
                // Serve until the process is killed; the front end's own
                // threads do all the work.
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
    }

    // `rvsim-cli chaos ...` — deterministic fault-injecting TCP proxy.
    if args.first().map(String::as_str) == Some("chaos") {
        let options = match rvsim_cli::ChaosCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        match rvsim_cli::start_chaos(&options) {
            Ok(proxy) => {
                println!(
                    "rvsim-chaos proxying http://{} -> {} (seed {}, reset {}, truncate {}, \
                     delay {} <= {}ms)",
                    proxy.local_addr(),
                    options.upstream,
                    options.seed,
                    options.reset_probability,
                    options.truncate_probability,
                    options.delay_probability,
                    options.max_delay_ms
                );
                // Proxy until the process is killed.
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
    }

    // `rvsim-cli drain ...` — live-drain one backend of a router tier.
    if args.first().map(String::as_str) == Some("drain") {
        let options = match rvsim_cli::DrainCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        match rvsim_cli::run_drain(&options) {
            Ok(report) => print!("{report}"),
            Err(report) => {
                eprintln!("{}", report.trim_end());
                std::process::exit(1);
            }
        }
        return;
    }

    // `rvsim-cli loadgen ...` — closed-loop load against a front end.
    if args.first().map(String::as_str) == Some("loadgen") {
        let options = match rvsim_cli::LoadgenCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        match rvsim_cli::run_loadgen(&options) {
            Ok(report) => print!("{report}"),
            Err(report) => {
                eprintln!("{}", report.trim_end());
                std::process::exit(1);
            }
        }
        return;
    }

    // `rvsim-cli tail ...` — follow a front end's event journal.
    if args.first().map(String::as_str) == Some("tail") {
        let options = match rvsim_cli::TailCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        if let Err(message) = rvsim_cli::run_tail(&options) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        return;
    }

    // `rvsim-cli top ...` — live metrics dashboard over a front end.
    if args.first().map(String::as_str) == Some("top") {
        let options = match rvsim_cli::TopCliOptions::parse(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        };
        if let Err(message) = rvsim_cli::run_top(&options) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        return;
    }

    let options = match rvsim_cli::CliOptions::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    match rvsim_cli::run(&options) {
        Ok(report) => print!("{report}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
