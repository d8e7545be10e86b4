//! End-to-end tests of the `cce` binary (spawned as a real process).

use std::process::Command;

fn cce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cce"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cce-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Exports the Loan fixture once per test process. Tests run in
/// parallel, and a re-export truncating the file under a concurrent
/// reader would hand that reader a half-written CSV.
fn export_loan() -> std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let path = tmp("loan.csv");
        let out = cce()
            .args([
                "export",
                "--dataset",
                "Loan",
                "--out",
                path.to_str().unwrap(),
                "--seed",
                "42",
            ])
            .output()
            .expect("run cce export");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    })
    .clone()
}

#[test]
fn export_then_explain() {
    let path = export_loan();
    let out = cce()
        .args(["explain", "--data", path.to_str().unwrap(), "--target", "0"])
        .output()
        .expect("run cce explain");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IF "), "stdout: {stdout}");
    assert!(stdout.contains("achieved conformity"), "stdout: {stdout}");
    // The sidecar restores display names: outcomes render as words, not
    // `L0`/`L1` codes.
    assert!(
        stdout.contains("Denied") || stdout.contains("Approved"),
        "sidecar names should render: {stdout}"
    );
}

#[test]
fn explain_without_sidecar_falls_back_to_codes() {
    let path = export_loan();
    let bare = tmp("loan_bare.csv");
    std::fs::copy(&path, &bare).expect("copy csv without sidecar");
    let out = cce()
        .args(["explain", "--data", bare.to_str().unwrap(), "--target", "0"])
        .output()
        .expect("run cce explain");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Prediction='L"), "codes expected: {stdout}");
}

#[test]
fn relaxed_alpha_is_accepted() {
    let path = export_loan();
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "3",
            "--alpha",
            "0.9",
        ])
        .output()
        .expect("run cce explain");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("requested α: 0.9"), "stdout: {stdout}");
}

#[test]
fn summarize_reports_patterns() {
    let path = export_loan();
    let out = cce()
        .args([
            "summarize",
            "--data",
            path.to_str().unwrap(),
            "--max-patterns",
            "4",
        ])
        .output()
        .expect("run cce summarize");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("patterns covering"), "stdout: {stdout}");
    assert!(stdout.contains("precise"), "stdout: {stdout}");
}

#[test]
fn importance_ranks_features() {
    let path = export_loan();
    let out = cce()
        .args([
            "importance",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--permutations",
            "64",
        ])
        .output()
        .expect("run cce importance");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("context-relative importance"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("Credit"), "features named: {stdout}");
}

#[test]
fn bad_invocations_fail_with_usage() {
    for args in [
        vec!["explain"], // missing --data
        vec!["explain", "--data", "/nonexistent.csv", "--target", "0"],
        vec!["frobnicate"],        // unknown subcommand
        vec!["explain", "--data"], // flag without value
    ] {
        let out = cce().args(&args).output().expect("run cce");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
    }
}

#[test]
fn invalid_alpha_rejected() {
    let path = export_loan();
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--alpha",
            "1.5",
        ])
        .output()
        .expect("run cce explain");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("conformity bound"), "stderr: {stderr}");
}

#[test]
fn monitor_checkpoints_and_resumes() {
    let path = export_loan();
    let ckpt = tmp("monitor-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    // First run: stream everything under durability.
    let out = cce()
        .args([
            "monitor",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "64",
        ])
        .output()
        .expect("run cce monitor with checkpoints");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = String::from_utf8_lossy(&out.stdout);
    let final_line = first
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("final key line")
        .to_string();
    let names: Vec<String> = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("snap-")),
        "snapshot written: {names:?}"
    );
    // Second run resumes: the whole stream is already durable, so it
    // replays nothing new and must reach the identical final key.
    let out = cce()
        .args([
            "monitor",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "64",
            "--resume",
        ])
        .output()
        .expect("run cce monitor --resume");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let second = String::from_utf8_lossy(&out.stdout);
    assert!(second.contains("resumed epoch"), "stdout: {second}");
    assert!(
        second.contains(&final_line),
        "resumed run must reproduce the key:\nfirst: {final_line}\nsecond: {second}"
    );
}

#[test]
fn resume_without_checkpoint_dir_fails() {
    let path = export_loan();
    let out = cce()
        .args([
            "monitor",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--resume",
        ])
        .output()
        .expect("run cce monitor --resume");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume requires --checkpoint-dir"),
        "stderr: {stderr}"
    );
}

#[test]
fn explain_with_tiny_budget_reports_degradation() {
    let path = export_loan();
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--budget",
            "0",
        ])
        .output()
        .expect("run cce explain --budget");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("work budget exhausted"), "stdout: {stdout}");
}

#[test]
fn monitor_streams_checkpoints() {
    let path = export_loan();
    let out = cce()
        .args(["monitor", "--data", path.to_str().unwrap(), "--target", "0"])
        .output()
        .expect("run cce monitor");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arrivals"), "stdout: {stdout}");
    assert!(stdout.contains("final: IF"), "stdout: {stdout}");
}

#[test]
fn unknown_flags_fail_with_suggestion() {
    let path = export_loan();
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--buget",
            "100",
        ])
        .output()
        .expect("run cce explain with typo'd flag");
    assert!(!out.status.success(), "typo'd flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --buget"), "stderr: {stderr}");
    assert!(
        stderr.contains("did you mean --budget?"),
        "stderr: {stderr}"
    );

    // A flag valid for one subcommand is still rejected by another.
    let out = cce()
        .args([
            "summarize",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
        ])
        .output()
        .expect("run cce summarize with explain-only flag");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --target"), "stderr: {stderr}");
    assert!(stderr.contains("flags accepted here"), "stderr: {stderr}");

    // `cce serve` has no stripe knobs: every explain runs the kernels directly.
    let out = cce()
        .args(["serve", "--data", path.to_str().unwrap()])
        .args(["--stripe-threads", "2", "--addr", "127.0.0.1:0"])
        .output()
        .expect("run cce serve with a removed flag");
    assert!(!out.status.success(), "a removed flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --stripe-threads"),
        "stderr: {stderr}"
    );
}

#[test]
fn explain_json_snapshot() {
    let path = export_loan();
    // Complete key: the full budgeted-key shape, exact bytes.
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--json",
        ])
        .output()
        .expect("run cce explain --json");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"{"status":"complete","target":0,"alpha":1,"features":[6,3],"succinctness":2,"achieved_conformity":1}"#,
    );

    // Degraded key: ExplainStatus surfaces with spent/remaining fields.
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
            "--budget",
            "1",
            "--json",
        ])
        .output()
        .expect("run cce explain --json --budget");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stdout = stdout.trim();
    assert_eq!(
        stdout,
        r#"{"status":"degraded","spent":5093,"remaining_violators":1,"target":0,"alpha":1,"features":[6],"succinctness":1,"achieved_conformity":0.998371335504886}"#,
    );

    // Errors keep the same envelope and a nonzero exit.
    let out = cce()
        .args([
            "explain",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "999999",
            "--json",
        ])
        .output()
        .expect("run cce explain --json out of range");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""status":"error""#) && stdout.contains(r#""target":999999"#),
        "stdout: {stdout}"
    );
}

/// Raw-TCP client helper against a spawned `cce serve` child.
fn http_roundtrip(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to cce serve");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let (status, bytes) = cce_serve::http::read_response(&mut reader).expect("read serve response");
    (status, String::from_utf8_lossy(&bytes).into_owned())
}

/// Reads the child's stdout until the `listening on ADDR` line; returns
/// the address and the lines seen before it.
fn wait_for_listening(
    stdout: &mut std::io::BufReader<std::process::ChildStdout>,
) -> (String, Vec<String>) {
    use std::io::BufRead as _;
    let mut seen = Vec::new();
    loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("read serve stdout");
        assert!(n > 0, "serve exited before listening (saw {seen:?})");
        let line = line.trim().to_string();
        if let Some(addr) = line.strip_prefix("listening on ") {
            return (addr.to_string(), seen);
        }
        seen.push(line);
    }
}

#[test]
fn serve_ingest_survives_restart_with_resume() {
    let path = export_loan();
    let ckpt = tmp("serve-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let serve_args = |extra: &[&str]| {
        let mut v = vec![
            "serve".to_string(),
            "--data".into(),
            path.to_str().unwrap().into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--checkpoint-dir".into(),
            ckpt.to_str().unwrap().into(),
            "--checkpoint-every".into(),
            "4".into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // First life: ingest a handful of arrivals durably, then drain.
    let mut child = cce()
        .args(serve_args(&[]))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cce serve");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (addr, _) = wait_for_listening(&mut stdout);

    let (status, health) = http_roundtrip(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"durable\":true"), "{health}");
    let features: usize = health
        .split("\"features\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .expect("features in healthz");

    let acked = 6;
    for i in 1..=acked {
        let body = format!(
            "{{\"values\":[{}],\"prediction\":0}}",
            vec!["0"; features].join(",")
        );
        let (status, resp) = http_roundtrip(&addr, "POST", "/monitor/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains(&format!("\"n_seen\":{i}")), "{resp}");
        assert!(resp.contains("\"durable\":true"), "{resp}");
    }
    let (status, resp) = http_roundtrip(&addr, "POST", "/explain", "{\"target\":0}");
    assert_eq!(status, 200, "{resp}");

    let (status, _) = http_roundtrip(&addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    let exit = child.wait().expect("serve exits after drain");
    assert!(exit.success(), "drain must exit cleanly");

    // Second life: --resume must recover every acknowledged arrival.
    let mut child = cce()
        .args(serve_args(&["--resume"]))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("respawn cce serve --resume");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (addr, before) = wait_for_listening(&mut stdout);
    assert!(
        before.iter().any(|l| l.contains("resumed epoch")),
        "resume banner expected, saw {before:?}"
    );

    let (status, health) = http_roundtrip(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        health.contains(&format!("\"ingested\":{acked}")),
        "all acknowledged arrivals must survive the restart: {health}"
    );

    let (status, _) = http_roundtrip(&addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(child.wait().expect("serve exits").success());
}

#[test]
fn convert_then_explain_store_matches_in_ram_json() {
    let path = export_loan();
    let store = tmp("loan.pg");
    let out = cce()
        .args([
            "convert",
            "--data",
            path.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--page-size",
            "4096",
        ])
        .output()
        .expect("run cce convert");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pages"), "summary expected: {stdout}");

    // The out-of-core path must render the exact same JSON as the
    // in-RAM path — even with a 1 MiB cache forcing real page churn.
    for target in ["0", "3", "17", "299"] {
        let ram = cce()
            .args([
                "explain",
                "--data",
                path.to_str().unwrap(),
                "--target",
                target,
                "--json",
            ])
            .output()
            .expect("run in-RAM explain");
        let disk = cce()
            .args([
                "explain",
                "--store",
                store.to_str().unwrap(),
                "--target",
                target,
                "--cache-mb",
                "1",
                "--json",
            ])
            .output()
            .expect("run store explain");
        assert!(ram.status.success() && disk.status.success());
        assert_eq!(
            String::from_utf8_lossy(&ram.stdout),
            String::from_utf8_lossy(&disk.stdout),
            "target {target}"
        );
    }
}

#[test]
fn explain_store_text_mode_reports_the_page_cache() {
    let path = export_loan();
    let store = tmp("loan_text.pg");
    let out = cce()
        .args([
            "convert",
            "--data",
            path.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("run cce convert");
    assert!(out.status.success());
    let out = cce()
        .args([
            "explain",
            "--store",
            store.to_str().unwrap(),
            "--target",
            "0",
        ])
        .output()
        .expect("run store explain");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IF "), "stdout: {stdout}");
    assert!(stdout.contains("page cache:"), "stdout: {stdout}");
}

#[test]
fn explain_rejects_store_plus_data() {
    let path = export_loan();
    let out = cce()
        .args([
            "explain",
            "--store",
            "whatever.pg",
            "--data",
            path.to_str().unwrap(),
            "--target",
            "0",
        ])
        .output()
        .expect("run cce explain");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");
}

#[test]
fn explain_store_rejects_a_truncated_store() {
    let path = export_loan();
    let store = tmp("loan_trunc.pg");
    let out = cce()
        .args([
            "convert",
            "--data",
            path.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("run cce convert");
    assert!(out.status.success());
    let bytes = std::fs::read(&store).expect("read store");
    std::fs::write(&store, &bytes[..bytes.len() - 7]).expect("truncate");
    let out = cce()
        .args([
            "explain",
            "--store",
            store.to_str().unwrap(),
            "--target",
            "0",
        ])
        .output()
        .expect("run cce explain");
    assert!(!out.status.success(), "truncated store must not explain");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("opening"), "stderr: {stderr}");
}

/// A CSV code outside its sidecar's cardinality is refused at load, with
/// its line number, by `cce explain` and by `cce serve` — which must exit
/// rather than start serving a context its index cannot address.
#[test]
fn out_of_domain_csv_code_is_refused_at_load() {
    let path = export_loan();
    let bad = tmp("loan_bad_code.csv");
    let text = std::fs::read_to_string(&path).expect("read csv");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let gender = lines[0]
        .split(',')
        .position(|c| c == "Gender")
        .expect("Loan has a Gender column");
    let mut row: Vec<&str> = lines[1].split(',').collect();
    row[gender] = "9";
    lines[1] = row.join(",");
    std::fs::write(&bad, lines.join("\n") + "\n").expect("write bad csv");
    std::fs::copy(
        path.with_extension("csv.schema"),
        bad.with_extension("csv.schema"),
    )
    .expect("copy sidecar");

    let out = cce()
        .args([
            "explain",
            "--data",
            bad.to_str().unwrap(),
            "--target",
            "0",
            "--json",
        ])
        .output()
        .expect("run cce explain");
    assert!(!out.status.success(), "explain must refuse the file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");

    let mut child = cce()
        .args([
            "serve",
            "--data",
            bad.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cce serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll cce serve") {
            break status;
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cce serve started on a file with an out-of-domain code");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success(), "serve must refuse the file");
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr)
        .expect("read serve stderr");
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
}

/// `cce serve` refuses, by name, every flag its mode would ignore: the
/// engine's batcher and window flags with `--store` or
/// `--shards`, and the store's and the shards' flags with `--data`.
#[test]
fn serve_refuses_flags_its_mode_ignores() {
    let data = export_loan();
    let data = data.to_str().unwrap();
    let store = ["--store", "never-opened.pg"];
    let shards = ["--data", data, "--shards", "2"];
    let cases: Vec<(Vec<&str>, &str, &str)> = vec![
        (vec!["--window", "10"], "window", "store"),
        (vec!["--window-delta", "2"], "window-delta", "store"),
        (vec!["--max-batch", "4"], "max-batch", "store"),
        (vec!["--linger-ms", "0"], "linger-ms", "store"),
        (vec!["--threads", "2"], "threads", "store"),
        (vec!["--data", data], "data", "store"),
    ]
    .into_iter()
    .map(|(extra, flag, mode)| ([&store[..], &extra].concat(), flag, mode))
    .chain(
        [
            (vec!["--window", "10"], "window"),
            (vec!["--max-batch", "4"], "max-batch"),
            (vec!["--linger-ms", "0"], "linger-ms"),
            (vec!["--threads", "2"], "threads"),
            (vec!["--store", "x.pg"], "store"),
            (vec!["--cache-mb", "4"], "cache-mb"),
        ]
        .into_iter()
        .map(|(extra, flag)| ([&shards[..], &extra].concat(), flag, "shards")),
    )
    .chain(
        [
            (vec!["--cache-mb", "4"], "cache-mb"),
            (vec!["--chaos"], "chaos"),
            (vec!["--shard-retries", "1"], "shard-retries"),
            (vec!["--shard-deadline-ms", "50"], "shard-deadline-ms"),
            (vec!["--shard-backoff-ms", "5"], "shard-backoff-ms"),
            (vec!["--shard-hedge-ms", "5"], "shard-hedge-ms"),
        ]
        .into_iter()
        .map(|(extra, flag)| ([&["--data", data][..], &extra].concat(), flag, "data")),
    )
    .collect();
    for (args, flag, mode) in cases {
        let out = cce()
            .arg("serve")
            .args(&args)
            .args(["--addr", "127.0.0.1:0"])
            .output()
            .expect("run cce serve");
        assert!(!out.status.success(), "{args:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--{flag} does not apply to --{mode} serving")),
            "{args:?}: {stderr}"
        );
    }
}

/// Starts `cce serve <args>` on an ephemeral port; returns the child and
/// its address once it listens.
fn start_serve(args: &[&str]) -> (std::process::Child, String) {
    let mut child = cce()
        .arg("serve")
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cce serve");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (addr, _) = wait_for_listening(&mut stdout);
    (child, addr)
}

/// Drains `child` and requires a clean exit.
fn drain(mut child: std::process::Child, addr: &str) {
    let (status, _) = http_roundtrip(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(
        child.wait().expect("serve exits").success(),
        "drain exits 0"
    );
}

/// The flag sets the repository benchmark and CI start `cce serve` with
/// still start it, in every mode.
#[test]
fn serve_starts_with_the_benchmark_flag_sets() {
    let data = export_loan();
    let data = data.to_str().unwrap();
    let store = tmp("serve-flag-sets.pg");
    let out = cce()
        .args(["convert", "--data", data, "--out", store.to_str().unwrap()])
        .output()
        .expect("run cce convert");
    assert!(out.status.success());
    let ckpt = tmp("serve-flag-sets-ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let common = ["--alpha", "1", "--target", "0", "--seed", "7"];
    let modes: [Vec<&str>; 4] = [
        vec!["--data", data, "--window", "400", "--window-delta", "10"],
        vec!["--store", store.to_str().unwrap(), "--cache-mb", "4"],
        vec!["--data", data, "--shards", "2"],
        vec!["--data", data, "--checkpoint-every", "64"],
    ];
    for mode in modes {
        let _ = std::fs::remove_dir_all(ckpt);
        let args = [&mode[..], &common, &["--checkpoint-dir", ckpt]].concat();
        let (child, addr) = start_serve(&args);
        let (status, body) = http_roundtrip(&addr, "POST", "/explain", "{\"target\":1}");
        assert!(matches!(status, 200 | 409), "{mode:?}: {status} {body}");
        drain(child, &addr);
    }
}

/// Store mode is read-only and admitted like `--data`: it sheds and
/// degrades under the same thresholds, refuses ingest with 409 before the
/// WAL, and `/healthz` reports the store's rows.
#[test]
fn serve_store_mode_is_admitted_and_read_only() {
    let data = export_loan();
    let store = tmp("serve-store-mode.pg");
    let out = cce()
        .args([
            "convert",
            "--data",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("run cce convert");
    assert!(out.status.success());
    let rows = std::fs::read_to_string(&data).unwrap().lines().count() - 1;
    let store = store.to_str().unwrap();

    let (child, addr) = start_serve(&[
        "--store",
        store,
        "--shed-depth",
        "0",
        "--degrade-depth",
        "0",
    ]);
    let (status, body) = http_roundtrip(&addr, "POST", "/explain", "{\"target\":0}");
    assert_eq!(status, 429, "{body}");
    drain(child, &addr);

    let (child, addr) = start_serve(&[
        "--store",
        store,
        "--degrade-depth",
        "0",
        "--degrade-budget",
        "1",
    ]);
    let (status, body) = http_roundtrip(&addr, "POST", "/explain", "{\"target\":0}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    drain(child, &addr);

    let ckpt = tmp("serve-store-mode-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let (child, addr) =
        start_serve(&["--store", store, "--checkpoint-dir", ckpt.to_str().unwrap()]);
    let wal = |dir: &std::path::Path| -> Vec<(String, u64)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("checkpoint dir")
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    e.metadata().unwrap().len(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let before = wal(&ckpt);
    let (status, health) = http_roundtrip(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains(&format!("\"rows\":{rows},")), "{health}");
    let features = health
        .split("\"features\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse::<usize>().ok())
        .expect("features in healthz");
    let row = format!(
        "{{\"values\":[{}],\"prediction\":0}}",
        vec!["0"; features].join(",")
    );
    let (status, body) = http_roundtrip(&addr, "POST", "/monitor/ingest", &row);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("store mode is read-only"), "{body}");
    assert_eq!(
        wal(&ckpt),
        before,
        "a refused ingest leaves the WAL untouched"
    );
    let (_, health) = http_roundtrip(&addr, "GET", "/healthz", "");
    assert!(health.contains("\"ingested\":0"), "{health}");
    drain(child, &addr);
}
