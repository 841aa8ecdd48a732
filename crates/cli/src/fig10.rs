//! Fig. 10 — prediction errors of LR, SVM and MLP, per pair and unified,
//! plus the MLP cross-validation bar.

use crate::common::{pair_label, Options};
use abacus_metrics::{CsvWriter, Table};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    eval, sampling::all_pairs, Dataset, LinearRegression, LinearSvr, Mlp, MlpConfig, SvrConfig,
};
use serving::{collect_dataset, TrainerConfig};
use std::sync::Arc;
use workload::SeededRng;

fn fit_and_eval(train: &Dataset, test: &Dataset, epochs: usize) -> (f64, f64, f64) {
    let lr = LinearRegression::fit(train, 1e-3);
    let svr = LinearSvr::fit(train, &SvrConfig::default());
    let mlp = Mlp::train(
        train,
        &MlpConfig {
            epochs,
            ..MlpConfig::default()
        },
    );
    (
        eval::mape(&lr, test),
        eval::mape(&svr, test),
        eval::mape(&mlp, test),
    )
}

/// Run the predictor comparison and emit `results/fig10.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let tcfg = TrainerConfig {
        samples_per_set: opts.scale.samples_per_set(),
        runs_per_group: opts.scale.runs_per_group(),
        seed: opts.seed,
        ..TrainerConfig::default()
    };
    let epochs = opts.scale.epochs();

    let mut csv = CsvWriter::create(
        opts.csv_path("fig10"),
        &["combination", "lr_mape", "svm_mape", "mlp_mape"],
    )
    .expect("csv");
    let mut table = Table::new(vec!["combination", "LR", "SVM", "MLP"]);
    let mut rng = SeededRng::new(opts.seed);

    let mut pooled = Dataset::new();
    let mut sums = [0.0f64; 3];
    let pairs = all_pairs();
    for (i, pair) in pairs.iter().enumerate() {
        let data = collect_dataset(pair, &lib, &gpu, &noise, &tcfg, i as u64);
        let (train, test) = data.split(0.8, &mut rng);
        let (lr, svm, mlp) = fit_and_eval(&train, &test, epochs);
        sums[0] += lr;
        sums[1] += svm;
        sums[2] += mlp;
        let label = pair_label(pair);
        csv.write_record(&label, &[lr, svm, mlp]).expect("row");
        table.row_f64(label, &[lr, svm, mlp], 3);
        pooled.extend(data);
    }
    let n = pairs.len() as f64;
    println!(
        "Fig. 10 — per-pair mean MAPE: LR {:.1}% SVM {:.1}% MLP {:.1}%  (paper: 23.5% / 21.5% / 5.5%)",
        100.0 * sums[0] / n,
        100.0 * sums[1] / n,
        100.0 * sums[2] / n
    );

    // Unified ("all") model over every pair.
    let (train, test) = pooled.split(0.8, &mut rng);
    let (lr_all, svm_all, mlp_all) = fit_and_eval(&train, &test, epochs);
    csv.write_record("all", &[lr_all, svm_all, mlp_all])
        .expect("row");
    table.row_f64("all", &[lr_all, svm_all, mlp_all], 3);
    println!(
        "  unified model: LR {:.1}% SVM {:.1}% MLP {:.1}%  (paper: 30.1% / 29.2% / 5.7%)",
        100.0 * lr_all,
        100.0 * svm_all,
        100.0 * mlp_all
    );

    // §5.5's extension: the unified model also predicts triplet- and
    // quadruplet-wise groups (paper: 4.9% and 6.4%).
    for (label, set) in [
        (
            "triplet (Res101,Res152,Bert)",
            vec![ModelId::ResNet101, ModelId::ResNet152, ModelId::Bert],
        ),
        (
            "quadruplet (Res101,Res152,VGG19,Bert)",
            vec![
                ModelId::ResNet101,
                ModelId::ResNet152,
                ModelId::Vgg19,
                ModelId::Bert,
            ],
        ),
    ] {
        let data = collect_dataset(&set, &lib, &gpu, &noise, &tcfg, 0xBEEF ^ set.len() as u64);
        let (train, test) = data.split(0.8, &mut rng);
        let mlp = Mlp::train(
            &train,
            &MlpConfig {
                epochs,
                ..MlpConfig::default()
            },
        );
        let err = eval::mape(&mlp, &test);
        csv.write_record(label, &[f64::NAN, f64::NAN, err])
            .expect("row");
        table.row(vec![
            label.into(),
            "-".into(),
            "-".into(),
            format!("{err:.3}"),
        ]);
        println!(
            "  {label}: MLP MAPE {:.1}% (paper: {})",
            100.0 * err,
            if set.len() == 3 { "4.9%" } else { "6.4%" }
        );
    }

    // Cross-validation of the unified MLP (fewer epochs to bound runtime).
    let cv = eval::kfold_mape(&pooled, 5, opts.seed ^ 0xCF, |tr| {
        Mlp::train(
            tr,
            &MlpConfig {
                epochs: (epochs / 2).max(20),
                ..MlpConfig::default()
            },
        )
    });
    csv.write_record("cross_validation", &[f64::NAN, f64::NAN, cv])
        .expect("row");
    table.row(vec![
        "cross-validation".into(),
        "-".into(),
        "-".into(),
        format!("{cv:.3}"),
    ]);
    println!("  5-fold cross-validation MLP MAPE: {:.1}%", 100.0 * cv);

    csv.flush().expect("flush");
    println!("{}", table.render());
    println!("wrote {}", opts.csv_path("fig10").display());
}
