//! What the subprocess tests share: a real `smgcn serve` replica as a
//! child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Kills the child process on drop so a panicking test never leaks
/// replica processes.
pub struct ChildGuard(pub Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `smgcn serve` on an ephemeral port and parses the bound
/// address from its startup banner. `stderr` is the child's: piped for a
/// test that reads how it died, null otherwise.
pub fn spawn_replica(
    corpus_path: &Path,
    frozen_path: &Path,
    stderr: Stdio,
) -> (ChildGuard, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smgcn"))
        .arg("serve")
        .arg("--corpus")
        .arg(corpus_path)
        .arg("--model-file")
        .arg(frozen_path)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn smgcn serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child banner");
        assert!(n > 0, "replica exited before announcing its address");
        if let Some(rest) = line.strip_prefix("serving on ") {
            let addr_text = rest.split_whitespace().next().expect("address token");
            break addr_text
                .parse::<SocketAddr>()
                .expect("parse bound address");
        }
    };
    // Drain the rest of the banner in the background so the child can
    // never block on a full stdout pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (ChildGuard(child), addr)
}
