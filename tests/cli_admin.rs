//! The CLI's admin commands against front ends that do not answer: a
//! refusal is not a report, and every admin call has a deadline.
//!
//! Drives the built `smgcn` binary against two scripted listeners — one
//! that sheds every connection the way a server at its connection cap
//! does, one that accepts and never says a word. The same binary is
//! held to its own command line: a flag a command does not read, a value
//! that does not parse and a missing required flag are errors that name
//! the flag; asking for help is not an error, and the help lists every
//! flag and every experiment `smgcn paper` runs. A training checkpoint
//! ranks exactly as the frozen file `smgcn freeze` writes from it.

use std::io::Write;
use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_repro::cluster::PoolConfig;
use smgcn_repro::serve::server::StopHandle;
use smgcn_repro::serve::Running;

const SHED: &str =
    r#"{"error":{"code":"overloaded","message":"server at connection capacity","retryable":true}}"#;

/// A front end that answers every connection with `reply` on accept,
/// or — with `None` — holds it open and never answers.
fn scripted(reply: Option<&'static str>) -> Running {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let serve = move || {
        let mut silent = Vec::new();
        for stream in listener.incoming() {
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = stream?;
            match reply {
                Some(reply) => {
                    stream.write_all(format!("{reply}\n").as_bytes())?;
                    // Closing over the unread request would reset the
                    // reply away: wait for the client to hang up.
                    let _ = std::io::copy(&mut stream, &mut std::io::sink());
                }
                None => silent.push(stream),
            }
        }
        Ok(())
    };
    Running::start(addr, StopHandle::new(stop, Some(addr)), serve).unwrap()
}

/// Runs `smgcn <args> --addr <front>`.
fn smgcn(front: &Running, args: &[&str], deadline: Duration) -> Output {
    let addr = front.addr().to_string();
    run_smgcn(&[args, &["--addr", &addr]].concat(), deadline)
}

/// Runs `smgcn <args>`; a run still going at `deadline` is killed and
/// fails the test.
fn run_smgcn(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smgcn"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start smgcn");
    let started = Instant::now();
    while child.try_wait().expect("poll smgcn").is_none() {
        if started.elapsed() > deadline {
            child.kill().expect("kill smgcn");
            panic!("smgcn {args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect smgcn output")
}

#[test]
fn a_refusal_is_an_error_not_an_empty_report() {
    let front = scripted(Some(SHED));
    for args in [&["profile"][..], &["top", "--iterations", "1"]] {
        let run = smgcn(&front, args, Duration::from_secs(10));
        let (stdout, stderr) = (
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr),
        );
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stdout}{stderr}");
        assert!(
            stderr.contains("error [overloaded]: server at connection capacity"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stdout.contains("coverage") && !stdout.contains("REPLICA"),
            "{args:?} rendered a refusal as a report: {stdout}"
        );
    }
}

#[test]
fn a_silent_front_end_costs_the_admin_timeout_not_a_hang() {
    let front = scripted(None);
    let bound = PoolConfig::default().admin_timeout + Duration::from_secs(1);
    let run = smgcn(&front, &["top", "--iterations", "1"], bound);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: no response from"), "{stderr}");
}

const QUICK: Duration = Duration::from_secs(10);

#[test]
fn a_flag_the_command_does_not_read_is_an_error() {
    let out = std::env::temp_dir().join(format!("smgcn-cli-typo-{}.tsv", std::process::id()));
    let out_arg = out.to_str().unwrap();

    // `--sclae paper --seeed 7` used to write a smoke-scale, seed-2020
    // corpus and exit 0.
    let typo = ["generate", "--out", out_arg, "--sclae", "paper"];
    let run = run_smgcn(&typo, QUICK);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("smgcn generate has no flag --sclae")
            && stderr.contains("--out, --scale, --seed"),
        "{stderr}"
    );
    assert!(!out.exists(), "a rejected command line still wrote {out:?}");
    // A flag another command reads is no more welcome here.
    let run = run_smgcn(&["generate", "--out", out_arg, "--epochs", "3"], QUICK);
    assert_eq!(run.status.code(), Some(2));
    assert!(!out.exists());
}

/// Usage on stdout, exit 0, before or after a command — and never
/// "flag --help needs a value".
#[test]
fn asking_for_help_is_not_an_error() {
    for args in [&["--help"][..], &["-h"], &["generate", "--help"]] {
        let run = run_smgcn(args, QUICK);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert_eq!(run.status.code(), Some(0), "{args:?}");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(run.stderr.is_empty(), "{args:?}");
        // The scenario list is the suite's own, not a copy of it.
        for kind in smgcn_repro::loadgen::ScenarioKind::all() {
            assert!(stdout.contains(kind.name()), "usage omits {}", kind.name());
        }
    }
}

/// A value that does not parse, or a required flag left out, is a misuse
/// that names the command and the flag, and nothing runs.
#[test]
fn a_misuse_names_its_flag_and_writes_nothing() {
    let dir = std::env::temp_dir();
    let corpus = dir.join(format!("smgcn-cli-corpus-{}.tsv", std::process::id()));
    let out = dir.join(format!("smgcn-cli-model-{}.smgt", std::process::id()));
    let (corpus_arg, out_arg) = (corpus.to_str().unwrap(), out.to_str().unwrap());
    let run = run_smgcn(&["generate", "--out", corpus_arg], QUICK);
    assert_eq!(run.status.code(), Some(0));

    let not_a_number = [
        "train", "--corpus", corpus_arg, "--out", out_arg, "--epochs", "abc",
    ];
    let missing = ["freeze", "--out", out_arg];
    for (args, error) in [
        (
            &not_a_number[..],
            r#"error: smgcn train: --epochs "abc" is not a number"#,
        ),
        (&missing, "error: smgcn freeze needs --corpus"),
    ] {
        let run = run_smgcn(args, QUICK);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(error), "{stderr}");
        assert!(!out.exists(), "a rejected command line still wrote {out:?}");
    }
    let _ = std::fs::remove_file(&corpus);
}

/// `--help` is rendered from the table the parser reads, so no entry
/// can leave out a flag its command takes.
#[test]
fn help_lists_every_flag_a_command_reads() {
    let run = run_smgcn(&["--help"], QUICK);
    let help = String::from_utf8_lossy(&run.stdout);
    let entry = |command: &str| {
        let head = format!("  smgcn {command}\n");
        let at = help
            .find(&head)
            .unwrap_or_else(|| panic!("no {command} entry"));
        let rest = &help[at..];
        rest[..rest.find("\n\n").unwrap_or(rest.len())].to_string()
    };
    for (command, flag) in [
        ("train", "--scale"),
        ("serve", "--tsdb"),
        ("route", "--tsdb"),
        ("paper", "--seeds"),
        ("paper", "--only"),
    ] {
        assert!(
            entry(command).contains(flag),
            "{command}: {}",
            entry(command)
        );
    }
    // The experiment ids are the driver's own table, not a copy of it.
    for experiment in smgcn_repro::eval::paper::TABLE {
        assert!(
            help.contains(experiment.id),
            "usage omits {}",
            experiment.id
        );
    }
}

/// `recommend` given a training checkpoint freezes it in-process and
/// prints the ranking the frozen file of the same checkpoint prints.
#[test]
fn a_training_checkpoint_ranks_as_its_frozen_file() {
    let dir = std::env::temp_dir().join(format!("smgcn-cli-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (corpus, model, frozen) = (path("corpus.tsv"), path("model.smgt"), path("frozen.smgt"));
    let slow = Duration::from_secs(120);
    let seed = ["--seed", "7"];
    for args in [
        &["generate", "--out", &corpus][..],
        &[
            "train", "--corpus", &corpus, "--out", &model, "--epochs", "1",
        ],
        &[
            "freeze",
            "--corpus",
            &corpus,
            "--model-file",
            &model,
            "--out",
            &frozen,
        ],
    ] {
        let run = run_smgcn(&[args, &seed].concat(), slow);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{args:?}: {stderr}");
    }
    let recommend = |model_file: &str| {
        let args = [
            "recommend",
            "--corpus",
            &corpus,
            "--model-file",
            model_file,
            "--symptoms",
            "kesou (cough),fare (fever)",
            "--k",
            "5",
        ];
        let run = run_smgcn(&[&args[..], &seed].concat(), slow);
        let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
        assert_eq!(run.status.code(), Some(0), "{model_file}: {stderr}");
        (String::from_utf8(run.stdout).unwrap(), stderr)
    };
    let (from_checkpoint, note) = recommend(&model);
    assert!(
        note.contains("training checkpoint given; freezing in-process"),
        "{note}"
    );
    let (from_frozen, note) = recommend(&frozen);
    assert!(note.contains("loaded frozen model"), "{note}");
    assert!(from_frozen.contains("top-5 herbs"), "{from_frozen}");
    assert_eq!(from_checkpoint, from_frozen);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `smgcn paper` refuses a seed count of zero, an experiment it does not
/// have and a scale it does not know before it prepares a corpus.
#[test]
fn a_paper_misuse_is_refused_before_any_work() {
    let out = std::env::temp_dir().join(format!("smgcn-cli-paper-{}.json", std::process::id()));
    let out_arg = out.to_str().unwrap();
    for (flags, error) in [
        (["--seeds", "0"], "error: smgcn paper: --seeds 0"),
        (
            ["--only", "table_x"],
            r#"error: smgcn paper: --only "table_x" is not an experiment"#,
        ),
        (
            ["--scale", "huge"],
            r#"error: smgcn paper: --scale "huge" is not one of smoke|paper"#,
        ),
    ] {
        let run = run_smgcn(&[&["paper", "--out", out_arg][..], &flags].concat(), QUICK);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(error), "{flags:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{flags:?} started the run");
        assert!(!out.exists(), "a rejected command line still wrote {out:?}");
    }
}
