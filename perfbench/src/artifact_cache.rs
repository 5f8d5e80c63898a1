//! `artifact-cache`: cold start versus warm start of a session backed by
//! an on-disk artifact store. Each cycle's cold pass compiles and persists
//! the 11 zoo networks into an empty store; its warm pass is a fresh
//! session loading every stored artifact. Saves render and loads parse the
//! same JSON layer in opposite directions, at document scale (15 to 82 KB),
//! which the serve protocol's short lines never reach.
//!
//! The 668 KB alexnet-func artifact is measured per layer only, in the
//! traced run: at the parse speed this benchmark was written against, one
//! warm load of it takes 7–15 s, longer than a whole run.

use crate::host;
use crate::spans::Spans;
use crate::{stats, Metric, Report, OUT_DIR};
use scaledeep::{CacheStats, Session};
use scaledeep_compiler::artifact_io;
use scaledeep_dnn::{zoo, Network};
use scaledeep_trace::json;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The documents whose parse and render rates the traced run reports: the
/// 28 KB, 82 KB and 668 KB artifacts.
const RATE_DOCS: [&str; 3] = ["vgg-e", "googlenet", "alexnet-func"];
/// The network measured per layer only.
const LARGE_NET: &str = "alexnet-func";
const SETUP_REPS: usize = 21;

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn network(name: &str) -> Result<Network, String> {
    zoo::by_name(name).ok_or_else(|| format!("unknown network `{name}`"))
}

/// The program set-up: the networks to compile.
fn networks() -> Result<Vec<Network>, String> {
    zoo::BENCHMARK_NAMES.into_iter().map(network).collect()
}

/// Compiles every network through a fresh session on the store `dir`,
/// spanning each compile as `name` on `layer`.
fn pass(
    spans: &mut Spans,
    dir: &Path,
    nets: &[Network],
    layer: &'static str,
    name: &str,
) -> Result<Session, String> {
    let session = Session::single_precision().with_artifact_dir(dir);
    for net in nets {
        spans
            .time(layer, name, |_| session.compile(net))
            .map_err(|e| format!("{}: {e}", net.name()))?;
    }
    Ok(session)
}

/// Checks one cycle's warm pass: every load a disk hit, nothing corrupt,
/// and every artifact re-rendering byte-identically to its cold save.
fn check_warm(
    report: &mut Report,
    cycle: usize,
    dir: &Path,
    nets: &[Network],
    warm: &Session,
    cache: CacheStats,
) -> Result<(), String> {
    let all_disk_hits =
        cache.disk_hits == nets.len() as u64 && cache.misses == 0 && cache.corrupt == 0;
    report.check(all_disk_hits, || {
        format!("cycle {cycle}: the warm pass was not all disk hits ({cache:?})")
    });
    for net in nets {
        let artifact = warm.compile(net).map_err(|e| e.to_string())?;
        let path = dir.join(format!(
            "{:016x}.artifact.json",
            artifact.provenance().cache_key()
        ));
        let stored = std::fs::read_to_string(&path).map_err(io_err(&path))?;
        let same = artifact_io::to_json(&artifact).render_pretty() == stored;
        report.check(same, || {
            format!(
                "{}: the re-rendered artifact differs from the cold save",
                net.name()
            )
        });
        if cycle == 0 {
            report.digest.str(net.name());
            report.digest.str(&stored);
        }
    }
    Ok(())
}

pub fn run(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so peak memory holds one.
        nets.clear();
        let (built, took) = spans.timed("bench", "setup", |_| networks());
        nets = built?;
        report.setup_s.push(took.as_secs_f64());
    }
    let root = PathBuf::from(OUT_DIR).join(format!("store-{}-{seed}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(io_err(&root))?;
    }
    // The budget counts timed passes only; the checks between them are not
    // measured.
    let mut timed = Duration::ZERO;
    let mut cycle = 0;
    while cycle == 0 || timed < budget {
        let dir = root.join(format!("cycle{cycle}"));
        host::rotate_cpu(Some(cycle));
        let (cold, cold_took) = spans.timed("bench", "artifact.cold_start", |s| {
            pass(s, &dir, &nets, "compiler", "session.compile_store")
        });
        cold?;
        let (warm, warm_took) = spans.timed("bench", "artifact.warm_start", |s| {
            pass(s, &dir, &nets, "compiler.artifact", "session.compile_load")
        });
        let warm = warm?;
        report.alt_ms.push(cold_took.as_secs_f64() * 1e3);
        report.main_ms.push(warm_took.as_secs_f64() * 1e3);
        timed += cold_took + warm_took;
        let cache = warm.cache_stats();
        check_warm(&mut report, cycle, &dir, &nets, &warm, cache)?;
        if spans.is_on() && cycle == 0 {
            let layers = layer_probe(spans, &warm, &nets, &root.join("probe"), warm_took, cache)?;
            report.layers.extend(layers);
        }
        std::fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
        cycle += 1;
    }
    host::rotate_cpu(None);
    report.peak_rss_mb = host::peak_rss_mb();
    std::fs::remove_dir_all(&root).map_err(io_err(&root))?;
    report.work_per_s = (2 * cycle * nets.len()) as f64 / timed.as_secs_f64();
    let median_s = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN) / 1e3;
    report.named = vec![
        Metric::new("cold_start_s", median_s(&report.alt_ms), "s"),
        Metric::new("warm_start_s", median_s(&report.main_ms), "s"),
    ];
    Ok(report)
}

/// Times the layers under a warm start one call at a time: artifact save
/// and load of every network, alexnet-func's too, and JSON parse and render
/// of every stored document. `trace.json.warm_parse_share` is the parse
/// time of the warm pass's documents over the warm pass's time.
fn layer_probe(
    spans: &mut Spans,
    session: &Session,
    nets: &[Network],
    dir: &Path,
    warm: Duration,
    cache: CacheStats,
) -> Result<Vec<Metric>, String> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let large = network(LARGE_NET)?;
    let mut layers = Vec::new();
    let mut parse_secs = 0.0;
    for net in nets.iter().chain([&large]) {
        let name = net.name();
        let artifact = session.compile(net).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}.artifact.json"));
        let (saved, save) = spans.timed("compiler.artifact", "compiler.artifact.save", |_| {
            artifact_io::save(&artifact, &path)
        });
        saved.map_err(|e| e.to_string())?;
        let (loaded, load) = spans.timed("compiler.artifact", "compiler.artifact.load", |_| {
            artifact_io::load(&path)
        });
        loaded.map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(io_err(&path))?;
        let (doc, parse) = spans.timed("trace.json", "trace.json.parse", |_| json::parse(&text));
        let doc = doc?;
        let (rendered, render) =
            spans.timed("trace.json", "trace.json.render", |_| doc.render_pretty());
        if name != LARGE_NET {
            parse_secs += parse.as_secs_f64();
        }
        layers.push(Metric::new(
            format!("compiler.artifact.save_ms.{name}"),
            save.as_secs_f64() * 1e3,
            "ms",
        ));
        layers.push(Metric::new(
            format!("compiler.artifact.load_ms.{name}"),
            load.as_secs_f64() * 1e3,
            "ms",
        ));
        layers.push(Metric::new(
            format!("compiler.artifact.bytes.{name}"),
            text.len() as f64,
            "B",
        ));
        if RATE_DOCS.contains(&name) {
            layers.push(Metric::new(
                format!("trace.json.parse_mb_per_s.{name}"),
                text.len() as f64 / 1e6 / parse.as_secs_f64(),
                "MB/s",
            ));
            layers.push(Metric::new(
                format!("trace.json.render_mb_per_s.{name}"),
                rendered.len() as f64 / 1e6 / render.as_secs_f64(),
                "MB/s",
            ));
        }
    }
    layers.push(Metric::new(
        "trace.json.warm_parse_share",
        parse_secs / warm.as_secs_f64(),
        "ratio",
    ));
    layers.push(Metric::new(
        "session.disk_hits",
        cache.disk_hits as f64,
        "count",
    ));
    layers.push(Metric::new(
        "session.corrupt",
        cache.corrupt as f64,
        "count",
    ));
    std::fs::remove_dir_all(dir).map_err(io_err(dir))?;
    Ok(layers)
}
