//! Provenance and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::bench::Metric;
use crate::workload::{Seeds, Spec};

/// Escapes a string for a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// a non-finite value (no samples) becomes `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, with the sample count when
/// `samples` is set.
pub fn metrics_object(metrics: &[Metric], samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let extra = if samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`: the longest mount point in
/// `/proc/mounts` that prefixes its canonical path.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every file under the repository's `crates/` and its root
/// manifest and lock file, so a run outside a git checkout still names the
/// source it measured.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = crate::workload::Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.bytes(&bytes);
        }
    }
    format!("{:016x}", d.value())
}

/// The provenance block: what was measured, where and with which build.
pub fn provenance(spec: &Spec, seeds: &Seeds, store: &Path) -> String {
    let sha = command_line("git", &["rev-parse", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        concat!(
            "{{\"git_sha\": {}, \"source_digest\": {}, \"cpu\": {}, \"nproc\": {}, ",
            "\"rustc\": {}, \"profile\": {}, \"isa\": {}, ",
            "\"seeds\": {{\"run\": {}, \"data\": {}, \"queries\": {}, \"rows\": {}, \"ops\": {}}}, ",
            "\"workload\": {{\"name\": {}, \"distribution\": {}, \"n\": {}, \"dims\": {}, ",
            "\"roles\": {}, \"k\": {}, \"sync_policy\": \"Always\", \"filesystem\": {}, ",
            "\"clients\": 1, \"loop\": \"closed\"}}}}"
        ),
        sha.map_or("null".to_string(), |s| quote(&s)),
        quote(&source_digest(&root)),
        quote(&cpu_model()),
        nproc,
        quote(&rustc),
        quote(profile),
        quote(sdq_core::kernels::active().name()),
        seeds.run,
        seeds.data,
        seeds.queries,
        seeds.rows,
        seeds.ops,
        quote(spec.name),
        quote(spec.dist.label()),
        spec.n,
        spec.dims,
        quote(spec.roles),
        crate::workload::K,
        quote(&filesystem_of(store)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(0.125), "0.125");
        assert_eq!(num(f64::NAN), "null");
        let m = [Metric {
            name: "query_p50_ms".into(),
            unit: "ms",
            value: 1.5,
            samples: 9,
        }];
        assert_eq!(
            metrics_object(&m, false),
            "{\"query_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert!(metrics_object(&m, true).contains("\"samples\": 9"));
    }
}
