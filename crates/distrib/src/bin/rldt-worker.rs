//! Worker-process entry point for the multi-process execution transport.
//!
//! Spawned by the driver as `rldt-worker --worker <i> --uds <path>`;
//! everything else — handshake, blueprint construction, the
//! command/event loop — lives in the library so the binary stays a shim.
//! On a target without Unix domain sockets the runtime never spawns it,
//! and it does nothing.

fn main() {
    #[cfg(unix)]
    if let Err(e) = dist_exec::runtime::run_worker_process(std::env::args().skip(1)) {
        eprintln!("rldt-worker: {e}");
        std::process::exit(1);
    }
}
