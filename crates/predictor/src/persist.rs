//! Saving and loading trained MLP duration models.
//!
//! A serving node trains offline (§5.4: ~42 hours of profiling on the real
//! system) and loads the frozen model at start-up; §7.8 reports the model
//! occupies ≈ 14 kB. The format is a tiny self-describing text file —
//! header lines with dimensions and target scaling, then one parameter per
//! line — so the artifact is inspectable and diffable.

use crate::conformal::{ConformalModel, StratifiedConformal};
use crate::features::MAX_COLOCATED;
use crate::mlp::{Mlp, QuantileMlp};
use std::fmt::{Display, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::{FromStr, Lines};

/// Magic first line of the format.
const MAGIC: &str = "abacus-mlp-v1";

/// Magic first line of the quantile-heads format.
const QMAGIC: &str = "abacus-qmlp-v1";

/// Magic first line of the conformal-certifier format.
const CMAGIC: &str = "abacus-conf-v1";

/// Serialise a network in the layout both MLP formats share: magic, dims,
/// the quantile levels (heads format only), target scaling, then one
/// parameter per line.
fn encode(
    magic: &str,
    dims: &[usize],
    taus: Option<&[f64]>,
    (y_mean, y_std): (f64, f64),
    params: &[f64],
) -> String {
    let mut out = format!("{magic}\n{}\n", join(dims, |d| d.to_string()));
    if let Some(taus) = taus {
        out.push_str(&join(taus, |t| format!("{t:e}")));
        out.push('\n');
    }
    let _ = writeln!(out, "{y_mean:e} {y_std:e}");
    for p in params {
        let _ = writeln!(out, "{p:e}");
    }
    out
}

/// The fields of an [`encode`]d network, before model validation.
struct Decoded {
    dims: Vec<usize>,
    /// Empty for the mean-model format.
    taus: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    params: Vec<f64>,
}

/// Parse the [`encode`] layout under `magic`, with a taus line iff
/// `with_taus`.
fn decode(s: &str, magic: &str, with_taus: bool) -> Result<Decoded, String> {
    let mut lines = s.lines();
    expect_magic(&mut lines, magic)?;
    let dims = parse_line(lines.next().ok_or("missing dims line")?, "dim")?;
    let taus = if with_taus {
        parse_line(lines.next().ok_or("missing taus line")?, "tau")?
    } else {
        Vec::new()
    };
    let scaling = parse_line(lines.next().ok_or("missing scaling line")?, "scaling")?;
    let [y_mean, y_std] = scaling[..] else {
        return Err("scaling line needs y_mean and y_std".into());
    };
    let params = lines
        .map(|l| l.trim().parse().map_err(|e| format!("bad param: {e}")))
        .collect::<Result<_, String>>()?;
    Ok(Decoded {
        dims,
        taus,
        y_mean,
        y_std,
        params,
    })
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(" ")
}

fn expect_magic(lines: &mut Lines<'_>, magic: &str) -> Result<(), String> {
    match lines.next() {
        Some(l) if l == magic => Ok(()),
        other => Err(format!("bad magic: {other:?}")),
    }
}

/// Parse one whitespace-separated line of values.
fn parse_line<T: FromStr>(line: &str, what: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    line.split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("bad {what}: {e}")))
        .collect()
}

/// Serialise an MLP to a string.
pub fn to_string(mlp: &Mlp) -> String {
    encode(
        MAGIC,
        &mlp.dims(),
        None,
        mlp.target_scaling(),
        &mlp.raw_params(),
    )
}

/// Parse an MLP from the [`to_string`] format.
pub fn from_str(s: &str) -> Result<Mlp, String> {
    let d = decode(s, MAGIC, false)?;
    Mlp::from_raw(&d.dims, &d.params, d.y_mean, d.y_std)
}

/// Save to a file, creating parent directories.
pub fn save(mlp: &Mlp, path: impl AsRef<Path>) -> io::Result<()> {
    write_artifact(path.as_ref(), &to_string(mlp))
}

/// Load from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Mlp, String> {
    load_artifact(path.as_ref())
}

/// A model with a text artifact format in this module.
pub trait Artifact: Sized {
    /// Parse the artifact text; any defect is an error.
    fn parse(text: &str) -> Result<Self, String>;
}

impl Artifact for Mlp {
    fn parse(text: &str) -> Result<Self, String> {
        from_str(text)
    }
}

impl Artifact for QuantileMlp {
    fn parse(text: &str) -> Result<Self, String> {
        quantile_from_str(text)
    }
}

impl Artifact for ConformalModel {
    fn parse(text: &str) -> Result<Self, String> {
        conformal_from_str(text)
    }
}

fn load_artifact<T: Artifact>(path: &Path) -> Result<T, String> {
    T::parse(&fs::read_to_string(path).map_err(|e| e.to_string())?)
}

/// Load a cached model from `path`, falling back to `build` on *any*
/// failure — missing file, bad magic, truncation, corrupt or non-finite
/// parameters. The boolean reports whether the cache was hit, so callers
/// can log and decide whether to re-save.
pub fn load_or_else<T: Artifact>(path: impl AsRef<Path>, build: impl FnOnce() -> T) -> (T, bool) {
    match load_artifact(path.as_ref()) {
        Ok(m) => (m, true),
        Err(_) => (build(), false),
    }
}

/// Serialise quantile heads to a string: magic, dims, quantile levels,
/// target scaling, one parameter per line — the [`to_string`] layout plus
/// a taus line.
pub fn quantile_to_string(q: &QuantileMlp) -> String {
    encode(
        QMAGIC,
        &q.dims(),
        Some(q.taus()),
        q.target_scaling(),
        &q.raw_params(),
    )
}

/// Parse quantile heads from the [`quantile_to_string`] format.
pub fn quantile_from_str(s: &str) -> Result<QuantileMlp, String> {
    let d = decode(s, QMAGIC, true)?;
    QuantileMlp::from_raw(&d.dims, &d.params, d.y_mean, d.y_std, d.taus)
}

/// Save quantile heads to a file, creating parent directories.
pub fn save_quantile(q: &QuantileMlp, path: impl AsRef<Path>) -> io::Result<()> {
    write_artifact(path.as_ref(), &quantile_to_string(q))
}

/// Load quantile heads from a file.
pub fn load_quantile(path: impl AsRef<Path>) -> Result<QuantileMlp, String> {
    load_artifact(path.as_ref())
}

/// Serialise a conformal certifier to a string: magic, certification
/// alpha, the per-width-stratum calibration table (counts, one correction
/// row per stratum, the pooled row), then the embedded quantile heads in
/// the [`quantile_to_string`] layout. One self-contained artifact — the
/// certifier never loads half-matched heads and table.
pub fn conformal_to_string(model: &ConformalModel) -> String {
    let conf = model.conformal();
    let n_heads = conf.taus().len();
    let counts: Vec<usize> = (1..=MAX_COLOCATED).map(|w| conf.stratum_count(w)).collect();
    let mut out = format!(
        "{CMAGIC}\n{:e}\n{}\n",
        model.alpha(),
        join(&counts, |c| c.to_string())
    );
    let row = |f: &dyn Fn(usize) -> f64| {
        (0..n_heads)
            .map(|h| format!("{:e}", f(h)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for w in 1..=MAX_COLOCATED {
        let _ = writeln!(out, "{}", row(&|h| conf.correction(w, h)));
    }
    let _ = writeln!(out, "{}", row(&|h| conf.pooled_correction(h)));
    out.push_str(&quantile_to_string(model.heads()));
    out
}

/// Parse a conformal certifier from the [`conformal_to_string`] format.
pub fn conformal_from_str(s: &str) -> Result<ConformalModel, String> {
    let mut lines = s.lines();
    expect_magic(&mut lines, CMAGIC)?;
    let alpha: f64 = lines
        .next()
        .ok_or("missing alpha line")?
        .trim()
        .parse()
        .map_err(|e| format!("bad alpha: {e}"))?;
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(format!("alpha {alpha} outside (0, 1)"));
    }
    let counts = parse_line(lines.next().ok_or("missing counts line")?, "count")?;
    let mut corrections = Vec::with_capacity(MAX_COLOCATED);
    for w in 1..=MAX_COLOCATED {
        corrections.push(parse_line(
            lines
                .next()
                .ok_or_else(|| format!("missing correction row for width {w}"))?,
            "correction",
        )?);
    }
    let pooled = parse_line(
        lines.next().ok_or("missing pooled row")?,
        "pooled correction",
    )?;
    let rest: Vec<&str> = lines.collect();
    let heads = quantile_from_str(&rest.join("\n"))?;
    let conf = StratifiedConformal::from_parts(heads.taus().to_vec(), counts, corrections, pooled)?;
    ConformalModel::from_parts(heads, conf, alpha)
}

/// Save a conformal certifier to a file, creating parent directories.
pub fn save_conformal(model: &ConformalModel, path: impl AsRef<Path>) -> io::Result<()> {
    write_artifact(path.as_ref(), &conformal_to_string(model))
}

/// Load a conformal certifier from a file.
pub fn load_conformal(path: impl AsRef<Path>) -> Result<ConformalModel, String> {
    load_artifact(path.as_ref())
}

/// Write one artifact file, creating parent directories.
fn write_artifact(path: &Path, text: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, text)
}

/// Path of the sidecar holding the calibrated prediction-round latency for
/// the model at `model_path`: same stem, `.round_ms` extension.
pub fn round_ms_path(model_path: impl AsRef<Path>) -> PathBuf {
    model_path.as_ref().with_extension("round_ms")
}

/// Write the round-latency sidecar next to `model_path`, creating parent
/// directories.
pub fn save_round_ms(model_path: impl AsRef<Path>, round_ms: f64) -> io::Result<()> {
    write_artifact(&round_ms_path(model_path), &format!("{round_ms}\n"))
}

/// Read the round-latency sidecar next to `model_path`. `None` unless the
/// file exists and parses to a finite positive number — a corrupt sidecar
/// degrades to recalibration, never to a poisoned config.
pub fn load_round_ms(model_path: impl AsRef<Path>) -> Option<f64> {
    fs::read_to_string(round_ms_path(model_path))
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::mlp::MlpConfig;
    use crate::LatencyModel;

    fn tiny_mlp() -> Mlp {
        let mut d = Dataset::new();
        for i in 0..50 {
            let x = i as f64 / 50.0;
            d.push(vec![x, 1.0 - x], 5.0 + x);
        }
        Mlp::train(
            &d,
            &MlpConfig {
                epochs: 5,
                hidden: vec![8, 8],
                ..MlpConfig::default()
            },
        )
    }

    #[test]
    fn string_roundtrip_is_exact() {
        let mlp = tiny_mlp();
        let text = to_string(&mlp);
        let back = from_str(&text).unwrap();
        assert_eq!(back, mlp);
    }

    #[test]
    fn file_roundtrip() {
        let mlp = tiny_mlp();
        let path = std::env::temp_dir().join("abacus_persist_test/model.mlp");
        save(&mlp, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, mlp);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// Every model cache committed under `results/models` parses and
    /// writes back byte for byte, so the format serving nodes load from
    /// cannot move without a test failing.
    #[test]
    fn committed_caches_roundtrip_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/models");
        let mut checked = 0;
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "mlp") {
                let text = fs::read_to_string(&path).unwrap();
                let mlp = from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(
                    to_string(&mlp) == text,
                    "{} does not re-serialise",
                    path.display()
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 8,
            "expected the 8 committed caches, found {checked}"
        );
    }

    /// Texts that parse as numbers but describe no trained model: a NaN
    /// parameter, a non-finite mean, a non-finite or non-positive `y_std`.
    /// `scaling` is the index of `full`'s scaling line (the first
    /// parameter line follows it).
    fn poisoned(full: &str, scaling: usize) -> Vec<String> {
        let lines: Vec<&str> = full.lines().collect();
        let with = |i: usize, line: &str| {
            let mut v = lines.clone();
            v[i] = line;
            v.join("\n") + "\n"
        };
        let y_mean = lines[scaling].split_whitespace().next().unwrap();
        let mut out = vec![with(scaling + 1, "NaN"), with(scaling, "NaN 1e0")];
        for y_std in ["inf", "NaN", "0e0", "-1e0"] {
            out.push(with(scaling, &format!("{y_mean} {y_std}")));
        }
        out
    }

    /// Write each text to `path` and check that loading it misses the
    /// cache.
    fn assert_each_misses<T: Artifact + Clone>(path: &Path, texts: Vec<String>, fresh: &T) {
        for text in texts {
            std::fs::write(path, &text).unwrap();
            let (_, cached) = load_or_else(path, || fresh.clone());
            assert!(
                !cached,
                "poisoned cache loaded as a hit:\n{}",
                &text[..text.len().min(120)]
            );
        }
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(from_str("nonsense").is_err());
        let mlp = tiny_mlp();
        let mut text = to_string(&mlp);
        text.push_str("1.0\n"); // extra parameter
        assert!(from_str(&text).is_err());
        let truncated: String = to_string(&mlp)
            .lines()
            .take(5)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_str(&truncated).is_err());
    }

    #[test]
    fn model_and_sidecar_roundtrip() {
        let mlp = tiny_mlp();
        let dir = std::env::temp_dir().join("abacus_persist_sidecar_test");
        let model_path = dir.join("model.mlp");
        save(&mlp, &model_path).unwrap();
        save_round_ms(&model_path, 0.0625).unwrap();
        assert_eq!(round_ms_path(&model_path), dir.join("model.round_ms"));
        let back = load(&model_path).unwrap();
        assert_eq!(mlp.predict_one(&[0.2, 0.8]), back.predict_one(&[0.2, 0.8]));
        assert_eq!(load_round_ms(&model_path), Some(0.0625));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_sidecar_degrades_to_none() {
        let dir = std::env::temp_dir().join("abacus_persist_badsidecar_test");
        let model_path = dir.join("model.mlp");
        // Missing sidecar.
        assert_eq!(load_round_ms(&model_path), None);
        // Unparsable, non-finite and non-positive values.
        for bad in ["garbage", "NaN", "inf", "-1.5", "0"] {
            save_round_ms(&model_path, 1.0).unwrap();
            std::fs::write(round_ms_path(&model_path), bad).unwrap();
            assert_eq!(load_round_ms(&model_path), None, "sidecar {bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_else_retrains_on_missing_or_corrupt_cache() {
        let dir = std::env::temp_dir().join("abacus_persist_load_or_else_test");
        let path = dir.join("model.mlp");
        let fresh = tiny_mlp();

        // Missing cache: build runs.
        let (m, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);
        assert_eq!(m, fresh);

        // Intact cache: build must not run.
        save(&fresh, &path).unwrap();
        let (m, cached) = load_or_else(&path, || -> Mlp { unreachable!("cache was intact") });
        assert!(cached);
        assert_eq!(m, fresh);

        // Truncated cache: graceful retrain instead of a parse panic.
        let full = to_string(&fresh);
        let truncated: String = full.lines().take(8).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        // Corrupted parameter line: same.
        let corrupted = full.clone() + "not-a-number\n";
        std::fs::write(&path, corrupted).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        // Values that parse but would serve NaN or nonsense, and a
        // zero-width hidden layer with a matching (one-bias) blob.
        let mut bad = poisoned(&full, 2);
        bad.push(format!("{MAGIC}\n2 0 1\n0e0 1e0\n5e0\n"));
        assert_each_misses(&path, bad, &fresh);

        std::fs::remove_dir_all(&dir).ok();
    }

    use crate::conformal::ConformalModel;
    use crate::mlp::QuantileMlp;
    use workload::SeededRng;

    fn tiny_certifier() -> ConformalModel {
        let mut rng = SeededRng::new(13);
        let mut d = Dataset::new();
        for _ in 0..300 {
            let x = rng.f64();
            let y = 5.0 + 3.0 * x + 0.5 * rng.normal();
            d.push(vec![x, 1.0 - x], y.max(0.1));
        }
        let mut split_rng = SeededRng::new(2);
        let (fit, calib) = d.split(0.7, &mut split_rng);
        let heads = QuantileMlp::train(
            &fit,
            &MlpConfig {
                epochs: 5,
                hidden: vec![8, 8],
                ..MlpConfig::default()
            },
            &crate::conformal::CERT_TAUS,
        );
        ConformalModel::calibrate(heads, &calib, 0.05)
    }

    #[test]
    fn quantile_roundtrip_is_exact() {
        let cert = tiny_certifier();
        let q = cert.heads();
        let back = quantile_from_str(&quantile_to_string(q)).unwrap();
        assert_eq!(&back, q);
    }

    #[test]
    fn conformal_roundtrip_is_exact() {
        let cert = tiny_certifier();
        let path = std::env::temp_dir().join("abacus_persist_conf_test/model.conf");
        save_conformal(&cert, &path).unwrap();
        let back = load_conformal(&path).unwrap();
        assert_eq!(back.alpha(), cert.alpha());
        assert_eq!(back.conformal(), cert.conformal());
        for i in 0..10 {
            let x = [i as f64 / 10.0, 1.0 - i as f64 / 10.0];
            assert_eq!(cert.predict_one(&x), back.predict_one(&x));
            assert_eq!(cert.upper_bounds_one(&x), back.upper_bounds_one(&x));
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_quantile_cache_degrades_to_retrain() {
        let dir = std::env::temp_dir().join("abacus_persist_qmlp_load_or_else_test");
        let path = dir.join("heads.qmlp");
        let fresh = tiny_certifier().heads().clone();

        // Missing cache: build runs.
        let (q, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);
        assert_eq!(q, fresh);

        // Intact cache: build must not run.
        save_quantile(&fresh, &path).unwrap();
        let (_, cached) = load_or_else(&path, || -> QuantileMlp {
            unreachable!("cache was intact")
        });
        assert!(cached);

        // A stale *mean-model* artifact at the heads path (the PR 3 magic)
        // must retrain, not panic or half-load.
        let mean = tiny_mlp();
        save(&mean, &path).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        // Truncated and parameter-corrupted caches: graceful retrain.
        let full = quantile_to_string(&fresh);
        let truncated: String = full.lines().take(6).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);
        std::fs::write(&path, full.clone() + "not-a-number\n").unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        // Values that parse but would serve NaN or nonsense, and a
        // zero-width hidden layer with a matching (three-bias) blob.
        let mut bad = poisoned(&full, 3);
        bad.push(format!(
            "{QMAGIC}\n2 0 3\n9e-1 9.5e-1 9.9e-1\n0e0 1e0\n1e0\n2e0\n3e0\n"
        ));
        assert_each_misses(&path, bad, &fresh);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_conformal_cache_degrades_to_recalibrate() {
        let dir = std::env::temp_dir().join("abacus_persist_conf_load_or_else_test");
        let path = dir.join("cert.conf");
        let fresh = tiny_certifier();

        // Missing cache: build runs.
        let (m, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);
        assert_eq!(m, fresh);

        // Intact cache: build must not run.
        save_conformal(&fresh, &path).unwrap();
        let (_, cached) = load_or_else(&path, || -> ConformalModel {
            unreachable!("cache was intact")
        });
        assert!(cached);

        // Truncated mid-table, truncated mid-heads, corrupted correction.
        let full = conformal_to_string(&fresh);
        for keep in [3, 8] {
            let truncated: String = full.lines().take(keep).collect::<Vec<_>>().join("\n");
            std::fs::write(&path, truncated).unwrap();
            let (_, cached) = load_or_else(&path, || fresh.clone());
            assert!(!cached, "truncation at line {keep} must miss the cache");
        }
        let corrupted = full.replacen("abacus-qmlp-v1", "abacus-qmlp-v9", 1);
        std::fs::write(&path, corrupted).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        std::fs::remove_dir_all(&dir).ok();
    }
}
