//! `repro serve` — a live simulation service on the batch machinery.
//!
//! The daemon accepts experiment requests over a Unix socket (NDJSON
//! protocol, [`protocol`]), executes them serially on the batch path's
//! sweep scheduler with a cross-request prepared-workload cache
//! ([`daemon`]), streams per-point progress frames back to the
//! client, and exposes the full Prometheus registry live over HTTP
//! ([`http`]). [`client`] is the `repro submit` / `serve --check` side.
//!
//! Simulated output stays bit-identical to the batch path: the daemon
//! changes *when* experiments run and *how* their results are observed,
//! never what they compute — the done frame's table text is byte-equal
//! to batch stdout, which the gate tests assert.

pub mod client;
pub mod daemon;
pub mod http;
pub mod protocol;

pub use daemon::{Daemon, RequestRecord, RequestState, ServeOptions, Shared};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the SIGINT/SIGTERM handler; polled by [`run_serve`].
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a clean shutdown. Uses
/// the C `signal(2)` entry point directly — the workspace is offline
/// and vendored, so no libc crate; storing to an atomic is
/// async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Run the daemon until a signal or a client `shutdown` request, then
/// flush and exit. Returns the process exit code.
pub fn run_serve(opts: ServeOptions) -> i32 {
    install_signal_handlers();
    let socket = opts.socket.clone();
    let out = opts.out.clone();
    let daemon = match Daemon::start(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: start serve daemon: {e}");
            return 1;
        }
    };
    eprintln!(
        "repro serve: listening on {} (http {}), artefacts under {}",
        socket.display(),
        daemon.shared.http_addr(),
        out.display(),
    );
    while !SIGNALLED.load(Ordering::SeqCst) && !daemon.shared.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let shared = std::sync::Arc::clone(&daemon.shared);
    if let Err(e) = daemon.shutdown_and_join() {
        eprintln!("error: flush serve artefacts: {e}");
        return 1;
    }
    let stats = shared.stats_snapshot();
    eprintln!(
        "repro serve: shut down cleanly after {}s — {} request(s) completed, {} failed, \
         {} scrape(s); events + final exposition flushed under {}",
        stats.uptime_seconds,
        stats.requests_completed,
        stats.requests_failed,
        stats.scrapes,
        out.display(),
    );
    0
}
